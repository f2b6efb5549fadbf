"""``cli._parse`` reads a well-formed command line off ``cli._COMMANDS``, the
table ``build_parser`` builds argparse's parser from, and hands every other
one to argparse; either way the result must be the one ``parse_args`` gives:
the same namespace, or the same exit code, stdout and stderr."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descpoly import cli

OPTIONS = {name: options for name, (_, _, options) in cli._COMMANDS.items()}
FLAGS = sorted({flag for options in OPTIONS.values() for flag in options})
PARSER = cli.build_parser()  # the reference; parse_args leaves it unchanged


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "namespace", parse(argv)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


def _valid(draw, keywords):
    if "choices" in keywords:
        return draw(st.sampled_from(keywords["choices"]))
    if keywords.get("type") is int:
        return str(draw(st.integers(0, 12)))
    return draw(st.sampled_from(["3", "0:4", "3,1,2"]))  # --n and --perm take any text


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*OPTIONS, "bogus", "-h", None]))
    if command is None:
        return []
    options = OPTIONS.get(command, {})
    # the required flags (each mostly kept), then more of the subcommand's own, in any order
    flags = [flag for flag in sorted(options) if options[flag].get("required") and draw(st.integers(0, 4))]
    flags += draw(st.lists(st.sampled_from(sorted(options) or FLAGS), max_size=4))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        kind = draw(st.sampled_from(["own"] * 12 + ["foreign", "abbreviated", "joined"]))
        keywords = options.get(flag)
        if kind == "foreign":
            flag = draw(st.sampled_from([*FLAGS, "--help", "-h", "--bogus"]))
        elif kind == "abbreviated":
            flag = flag[: draw(st.integers(3, max(3, len(flag) - 1)))]
        value = draw(st.sampled_from(["valid"] * 12 + ["magic", "x", "-1", "", "missing"]))
        if value == "valid":
            value = _valid(draw, keywords) if keywords is not None else "1"
        if kind == "joined" and value != "missing":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag] if value == "missing" else [flag, value]
    return argv


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_parse_gives_what_parse_args_gives(argv):
    assert _outcome(cli._parse, argv) == _outcome(PARSER.parse_args, argv)


WELL_FORMED = [
    ["table", "--n", "3", "--k", "1"],
    ["table", "--n", "0:12", "--k", "3", "--route", "all", "--nmax", "12", "--format", "json"],
    ["table", "--k", "2", "--n", "4", "--route", "enum", "--route", "closed"],
    ["poly", "--k", "3", "--which", "PP", "--construction", "stretch", "--kmax", "9"],
    ["gf", "--format", "csv", "--order", "6", "--k", "2"],
    ["juggle", "--perm", "3,1,2", "--k", "2", "--format", "plain"],
    ["verify"],
    ["verify", "--suite", "structure", "--nmax", "4", "--kmax", "4"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_command_line_never_reaches_argparse(monkeypatch, argv):
    expected = PARSER.parse_args(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert cli._parse(argv) == expected

