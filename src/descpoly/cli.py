"""Command line front end: tables of descent-polynomial coefficients, kernel
polynomials, generating functions, siteswap transforms, and the verification
suites.

Each subcommand computes its results once, into a :class:`Record` of its JSON
document and its CSV and plain text as lazy lines, and :func:`emit`, which knows
no subcommand, prints the one format asked for, so only that one is ever built.
Exit codes: 0 success, 1 a failed cross-check or any other fault (named in one
line on stderr) or a closed stdout pipe (silent), 2 a ``UsageError``.  JSON
coefficient arrays carry integers as decimal strings, so any size survives a
round trip.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .descent import (
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from .genfunc import descent_gf
from .juggling import remove_ball, throw_sequence
from .permutation import Permutation
from .polynomial import IntPoly, UsageError
from .verify import SUITES, CheckResult, run_suite

USAGE_ERROR = 2
CHECK_FAILED = 1


def _batches(template: str, rows: Iterable[Sequence], sep="\n", cells=tuple) -> Iterator[str]:
    """``rows`` as strings of up to 1,024 joined by ``sep``, one ``%`` of ``template`` each."""
    rows = iter(rows)
    while batch := list(islice(rows, 1024)):
        yield sep.join([template] * len(batch)) % tuple(chain.from_iterable(map(cells, batch)))


class Record(NamedTuple):
    """One subcommand's results for any format: the JSON ``doc``, and the CSV ``rows`` and plain
    ``lines`` as one-shot iterators of text that only ``emit`` advances; ``failure`` is a failed check."""

    doc: dict
    rows: Iterator[str]
    lines: Iterator[str]
    failure: str | None = None


# exact types, so a whole container of them is one C-encoder call: no indent=, the item
# separator carries it, and [] or {} stays as is; a subclass takes the per-item path
_SCALARS = frozenset({str, int, float, bool, type(None)})
_JSON = json.JSONEncoder()  # for a scalar or a key, which no separator reaches
_CELLS = {"value": '"%d"', "agree": "%s"}  # a table row's JSON cells; n, k and r are %d
_WORDS = ("false", "true")  # a bool as plain text and JSON print it: _WORDS[flag]


def _spelled(row: tuple) -> tuple:  # a --route all table row, its agree flag (fifth cell) as its word
    n, k, r, value, agree = row  # unpacked: faster than a slice and a star
    return n, k, r, value, _WORDS[agree]


@dataclass(frozen=True, slots=True)
class _TableRows:
    """``table``'s header and row tuples, which ``_write_json`` prints through one row template."""

    header: list[str]
    rows: list[tuple]


def _write_json(obj: object, write: Callable[[str], object], indent: str = "") -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` would,
    reading an IntPoly as the list of its coefficients in decimal strings and
    an iterator as a list.  Each container is one step: one C-encoder call for one of
    scalars, one ``%`` template for all of ``table``'s rows; the others recurse."""
    inner = indent + "  "
    if isinstance(obj, IntPoly):  # decimal digits and a sign need no escaping
        if not (coeffs := obj.coeffs):
            write("[]")
            return
        digits = list(map(str, coeffs[: (len(coeffs) + 1) // 2] if coeffs == coeffs[::-1] else coeffs))
        digits += digits[: len(coeffs) - len(digits)][::-1]  # a palindrome: its first half mirrored
        # three writes, so the digits are never copied into a larger string
        write(f'[\n{inner}"')
        write(f'",\n{inner}"'.join(digits))
        write(f'"\n{indent}]')
        return
    if isinstance(obj, _TableRows):  # one template for every row, agree spelled as a word
        keys = sorted(obj.header)
        fields = ",".join(f'\n{inner}  "{key}": {_CELLS.get(key, "%d")}' for key in keys)
        cells = itemgetter(*map(obj.header.index, keys))
        rows = map(_spelled, obj.rows) if "agree" in obj.header else obj.rows
        i = -1  # no batch: the rows print as [], as json.dumps prints an empty list
        for i, text in enumerate(_batches(f"{inner}{{{fields}\n{inner}}}", rows, ",\n", cells)):
            write(("," if i else "[") + "\n" + text)  # a batch of rows per write bounds the text in hand
        write(f"\n{indent}]" if i >= 0 else "[]")
        return
    if isinstance(obj, Iterator):
        obj = list(obj)
    keyed = isinstance(obj, dict)
    if keyed and not all(isinstance(key, str) for key in obj):
        raise TypeError(f"JSON keys must be str: {list(obj)}")
    if not isinstance(obj, (dict, list, tuple)):
        write(_JSON.encode(obj))
    elif _SCALARS.issuperset(map(type, obj.values() if keyed else obj)):
        body = json.JSONEncoder(separators=(",\n" + inner, ": "), sort_keys=True).encode(obj)
        write(body if len(body) == 2 else f"{body[0]}\n{inner}{body[1:-1]}\n{indent}{body[-1]}")
    else:
        write("{" if keyed else "[")
        for i, key in enumerate(sorted(obj) if keyed else range(len(obj))):
            write((",\n" if i else "\n") + inner + (_JSON.encode(key) + ": " if keyed else ""))
            _write_json(obj[key], write, inner)
        write(f"\n{indent}{'}' if keyed else ']'}")


_LIFT, _lifted = threading.Lock(), [0, 0]  # emit calls printing now, and the digit limit saved


def emit(fmt: str, record: Record) -> int:
    """Print ``record``'s JSON document or its CSV or plain lines and return the exit code:
    CHECK_FAILED, after one stderr line, when the record carries a failure.
    CPython's int-to-string digit limit is lifted here, and only here."""
    with _LIFT:  # the first call in saves and lifts the limit, the last one out restores it
        _lifted[0] += 1
        if _lifted[0] == 1:
            _lifted[1] = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            _write_json(record.doc, sys.stdout.write)
            sys.stdout.write("\n")
        else:  # a string may hold a batch of lines
            sys.stdout.writelines(map("{}\n".format, record.rows if fmt == "csv" else record.lines))
        sys.stdout.flush()  # a closed pipe is met here, not at exit
    finally:
        with _LIFT:
            _lifted[0] -= 1
            if not _lifted[0]:
                sys.set_int_max_str_digits(_lifted[1])
    if record.failure is None:
        return 0
    print(record.failure, file=sys.stderr)
    return CHECK_FAILED


def _parse_range(text: str) -> tuple[int, int]:
    lo, colon, hi = text.partition(":")
    try:  # an empty bound reads as -1, which the check below rejects
        a, b = int(lo or -1), int((hi if colon else lo) or -1)
    except ValueError as exc:
        raise UsageError(exc) from None
    if a < 0 or b < a:
        raise UsageError(f"bad range {text!r}")
    return a, b


def _cmd_table(args: argparse.Namespace) -> Record:
    if args.nmax < 0:  # on every route, before any runs
        raise UsageError(f"nmax must be nonnegative, got {args.nmax}")
    n_lo, n_hi = _parse_range(args.n)
    # built per call from the module globals, so a patched route is the one run
    by_name = {
        "enum": functools.partial(descent_poly_by_enumeration, cap=args.nmax),
        "rec": descent_poly_by_recurrence,
        "closed": descent_poly_by_closed_form,
    }
    routes = list(by_name) if args.route == "all" else [args.route]
    header = ["n", "k", "r", "value"] + (["agree"] if args.route == "all" else [])
    rows, failure = [], None
    for n in range(n_lo, n_hi + 1):
        polys = {route: by_name[route](n, args.k) for route in routes}
        agree = len({p.coeffs for p in polys.values()}) == 1
        if not agree and failure is None:
            coeffs = {r: list(p.coeffs) for r, p in polys.items()}
            failure = f"route disagreement at n={n} k={args.k}: {coeffs}"
        columns = (repeat(n), repeat(args.k), count(), polys[routes[0]].coeffs or (0,), repeat(agree))
        rows += zip(*columns[: len(header)])  # the agree flag only under its column

    doc = {"command": "table", "route": args.route, "rows": _TableRows(header, rows)}
    specs = ["%d"] * 4 + ["%s"] * (len(header) - 4)  # agree: True/False in CSV, a word in plain text
    plain = _batches(" ".join(specs), rows, cells=_spelled if args.route == "all" else tuple)
    csv_lines = _batches(",".join(specs), rows)
    return Record(doc, chain([",".join(header)], csv_lines), chain(["# " + " ".join(header)], plain), failure)


def _kernel(k: int, which: str, construction: str) -> IntPoly:
    # PP by formula has a sum of its own; its other constructions stretch P,
    # built by the formula ("stretch") or by duplication
    if construction == "formula":
        return kernel_poly(k) if which == "P" else stretched_kernel_poly(k)
    if which == "PP":
        base = kernel_poly(k) if construction == "stretch" else kernel_poly_by_duplication(k)
        return stretch(base, k)
    return kernel_poly_by_stretch(k) if construction == "stretch" else kernel_poly_by_duplication(k)


def _cmd_poly(args: argparse.Namespace) -> Record:
    k, which = args.k, args.which
    if k > args.kmax:
        raise UsageError(f"k={k} exceeds cap {args.kmax} (raise with --kmax)")
    if args.construction == "all":
        names = ["formula"] if k == 0 else ["formula", "stretch", "duplication"]
    elif k == 0 and args.construction != "formula":
        raise UsageError(f"construction {args.construction!r} needs k >= 1")
    else:
        names = [args.construction]
    built = {name: _kernel(k, which, name) for name in names}
    agree = len({p.coeffs for p in built.values()}) == 1

    def lines():
        for name, p in built.items():
            yield f"{which} k={k} [{name}]: {p.pretty('u')}"
            yield f"  coeffs: {list(p.coeffs)}"
        if args.construction == "all":
            yield f"agree: {_WORDS[agree]}"

    doc = {"command": "poly", "k": k, "which": which, "constructions": built, "agree": agree}
    cells = ((k, which, name, e, c) for name, p in built.items() for e, c in enumerate(p.coeffs))
    csv_lines = chain(["k,which,construction,exponent,coefficient"], _batches("%d,%s,%s,%d,%d", cells))
    coeffs = {name: list(p.coeffs) for name, p in built.items()}
    failure = None if agree else f"construction disagreement for {which} at k={k}: {coeffs}"
    return Record(doc, csv_lines, lines(), failure)


def _cmd_gf(args: argparse.Namespace) -> Record:
    gf = descent_gf(args.k)
    parts = dict(numerator=gf.numerator, denominator=gf.denominator, series=gf.series(args.order))
    terms = [(part, zpow, p) for part, polys in parts.items() for zpow, p in enumerate(polys)]
    doc = {"command": "gf", "k": args.k, "order": args.order, **parts}
    cells = (zip(repeat(part), repeat(zpow), count(), p.coeffs) for part, zpow, p in terms)
    plain = (f"{part} z^{zpow}: {p.pretty('y')}" for part, zpow, p in terms)
    lines = chain([f"# generating function, k={args.k}"], plain)
    csv_lines = chain(["part,zpow,ypow,value"], _batches("%s,%d,%d,%d", chain.from_iterable(cells)))
    return Record(doc, csv_lines, lines)


def _cmd_juggle(args: argparse.Namespace) -> Record:
    try:  # integers that are not a permutation of 1..n are the user's error too
        p = Permutation(map(int, args.perm.split(",")))
    except ValueError as exc:
        raise UsageError(exc) from None
    T = throw_sequence(p, args.k)
    valid = T.is_valid()
    balls = T.ball_count() if valid else None
    reduced = expected = None
    if balls:  # a valid sequence with a ball to remove
        reduced = remove_ball(T).throws
        expected = throw_sequence(p.bsort(), args.k - 1).throws
    crosscheck = "n/a" if reduced is None else "ok" if reduced == expected else "mismatch"
    fields = {
        "perm": p.values,
        "k": args.k,
        "throws": T.throws,
        "valid": valid,
        "balls": balls,
        "reduced": reduced,
        "crosscheck": crosscheck,
    }
    values = fields.values()  # in CSV a tuple is one cell of space-separated entries, None an empty one
    cells = (" ".join(map(str, v)) if isinstance(v, tuple) else "" if v is None else str(v) for v in values)
    csv_lines = chain([",".join(fields)], map(",".join, [cells]))
    labels = {"reduced": "one ball removed", "crosscheck": "bubble crosscheck"}
    plain = (  # a line a field but k, as label: value, with None left out and a bool as its word
        f"{labels.get(name, name)}: {_WORDS[v] if isinstance(v, bool) else v}"
        for name, v in fields.items()
        if name != "k" and v is not None
    )
    failure = None if valid else f"encoding: not a valid juggling sequence: {T.throws}"
    if crosscheck == "mismatch":  # only a valid sequence has a ball removed
        failure = (
            f"bubble crosscheck: mismatch: one ball removed gives {reduced}, "
            f"the bubble-sorted permutation encodes {expected}"
        )
    return Record({"command": "juggle", **fields}, csv_lines, plain, failure)


def _verdict(r: CheckResult) -> str:
    return ("PASS " if r.ok else "FAIL ") + r.name + (f": {r.detail}" if r.detail else "")


def _cmd_verify(args: argparse.Namespace) -> Record:
    nmax, kmax = args.nmax, args.kmax
    results = run_suite(args.suite, nmax, kmax)
    failed = [r for r in results if not r.ok]
    doc = {
        "command": "verify",
        "suite": args.suite,
        "nmax": nmax,
        "kmax": kmax,
        "results": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "ok": not failed,
    }
    cells = ([args.suite, r.name, r.ok, r.detail] for r in results)
    passed = len(results) - len(failed)
    summary = f"# {passed}/{len(results)} checks passed (nmax={nmax}, kmax={kmax})"
    plain = chain(map(_verdict, results), [summary])

    def csv_lines():  # quoted, for the commas, quotes and newlines that names and details carry
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([["suite", "name", "ok", "detail"], *cells])
        yield out.getvalue()[:-1]  # one string of every line, which emit ends with the last newline

    failure = _verdict(failed[0]) if failed else None
    return Record(doc, csv_lines(), plain, failure)


_FORMAT = dict(choices=["plain", "json", "csv"], default="plain", help="output format (default plain)")
# each subcommand: its function, its help line, and its options as {flag: add_argument keywords}
_COMMANDS = {
    "table": (_cmd_table, "coefficient table rows (n, k, r, value)", {
        "--format": _FORMAT,
        "--n": dict(required=True, help="n or inclusive range lo:hi"),
        "--k": dict(type=int, required=True),
        "--route": dict(choices=["enum", "rec", "closed", "all"], default="rec"),
        "--nmax": dict(type=int, default=10, help="enumeration cap (default 10)"),
    }),
    "poly": (_cmd_poly, "kernel polynomials and their stretches", {
        "--format": _FORMAT,
        "--k": dict(type=int, required=True),
        "--which": dict(choices=["P", "PP"], default="P"),
        "--construction": dict(choices=["formula", "stretch", "duplication", "all"], default="all"),
        "--kmax": dict(type=int, default=8, help="kernel cap (default 8)"),
    }),
    "gf": (_cmd_gf, "generating function and its series", {
        "--format": _FORMAT,
        "--k": dict(type=int, required=True),
        "--order": dict(type=int, required=True, help="highest series power of z"),
    }),
    "juggle": (_cmd_juggle, "siteswap encoding and ball removal", {
        "--format": _FORMAT,
        "--perm": dict(required=True, help="comma separated one-line permutation"),
        "--k": dict(type=int, required=True, help="ball count / drop bound"),
    }),
    "verify": (_cmd_verify, "run property suites", {
        "--format": _FORMAT,
        "--suite": dict(choices=[*SUITES, "all"], default="all"),
        "--nmax": dict(type=int, default=7, help="size bound (default 7)"),
        "--kmax": dict(type=int, default=7, help="drop bound (default 7)"),
    }),
}
# per subcommand, the namespace parse_args starts from; only a required flag starts at None
_START = {
    name: {"command": name, **{f[2:]: kw.get("default") for f, kw in options.items()}, "func": func}
    for name, (func, _, options) in _COMMANDS.items()
}


def build_parser() -> argparse.ArgumentParser:
    description = "Descent polynomials of bounded-drop permutations, exactly."
    parser = argparse.ArgumentParser(prog="descpoly", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read off ``_COMMANDS`` when ``argv`` is a subcommand
    and exact ``--flag value`` pairs with no value starting with "-"; only the rest build one."""
    start = _START.get(argv[0]) if argv else None
    if start and len(argv) % 2 and not any(text.startswith("-") for text in argv[2::2]):
        options, parsed = _COMMANDS[argv[0]][2], dict(start)
        try:  # each value converted, then checked, in turn as argparse does; the last one wins
            for flag, text in zip(argv[1::2], argv[2::2]):
                keywords = options[flag]
                value = keywords.get("type", str)(text)
                if "choices" in keywords and value not in keywords["choices"]:
                    raise ValueError(text)
                parsed[flag[2:]] = value
            if None not in parsed.values():  # every required flag given
                return argparse.Namespace(**parsed)
        except (KeyError, ValueError):
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return emit(args.format, args.func(args))
    except BrokenPipeError:  # the reader is gone: say nothing, and keep the final flush quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return CHECK_FAILED
    except UsageError as exc:  # CapExceeded and DropExceedsK included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a fault is named as a failed check is, never a usage error
        print(f"FAIL {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
