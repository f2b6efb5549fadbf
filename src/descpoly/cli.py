"""Command line front end: tables of descent-polynomial coefficients, kernel
polynomials, generating functions, siteswap transforms, and the verification
suites.

Each subcommand computes its results once, into a :class:`Record`, and
:func:`emit` prints the one format asked for.  Exit codes: 0 success, 1
verification or cross-check failure (named in one line on stderr), 2 usage
or parse error.  All JSON coefficient arrays carry integers as decimal
strings so arbitrarily large values survive a round trip.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import NamedTuple

from .descent import (
    descent_poly,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from .genfunc import descent_gf
from .juggling import remove_ball, throw_sequence
from .permutation import Permutation
from .polynomial import IntPoly
from .verify import CheckResult, run_suite

USAGE_ERROR = 2
CHECK_FAILED = 1


class Record(NamedTuple):
    """One subcommand's results, ready for any format.  ``rows`` (CSV) and
    ``lines`` (plain) are lazy iterators, so a format that is not asked for
    is never built; ``failure`` names a failed cross-check."""

    doc: dict
    header: list[str]
    rows: Iterable[Sequence]
    lines: Iterable[str]
    failure: str | None = None


def _json_default(obj: object) -> list:
    if isinstance(obj, IntPoly):
        return [str(c) for c in obj.coeffs]
    if isinstance(obj, Iterator):
        return list(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit(fmt: str, record: Record) -> int:
    """Print ``record`` as plain text, JSON or CSV and return the exit code:
    CHECK_FAILED, after one stderr line, when the record carries a failure.
    CPython's int-to-string digit limit is lifted here, and only here."""
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps(record.doc, indent=2, sort_keys=True, default=_json_default))
        elif fmt == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(record.header)
            writer.writerows(record.rows)
        else:
            for line in record.lines:
                print(line)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    if record.failure is None:
        return 0
    print(record.failure, file=sys.stderr)
    return CHECK_FAILED


def _parse_range(text: str) -> tuple[int, int]:
    lo, colon, hi = text.partition(":")
    a = int(lo or -1)  # an empty bound reads as -1, which the check rejects
    b = int(hi or -1) if colon else a
    if a < 0 or b < a:
        raise ValueError(f"bad range {text!r}")
    return a, b


def _cmd_table(args: argparse.Namespace) -> Record:
    n_lo, n_hi = _parse_range(args.n)
    k = args.k
    routes = ["enum", "rec", "closed"] if args.route == "all" else [args.route]
    header = ["n", "k", "r", "value"] + (["agree"] if args.route == "all" else [])
    rows = []
    failure = None
    for n in range(n_lo, n_hi + 1):
        polys = {route: descent_poly(n, k, route, cap=args.nmax).poly for route in routes}
        agree = len({p.coeffs for p in polys.values()}) == 1
        if not agree and failure is None:
            coeffs = {r: list(p.coeffs) for r, p in polys.items()}
            failure = f"route disagreement at n={n} k={k}: {coeffs}"
        shown = polys[routes[0]]
        for r in range(max(len(shown.coeffs), 1)):
            # zip drops the agree flag when there is no agree column
            rows.append(dict(zip(header, (n, k, r, shown.coefficient(r), agree))))

    json_rows = (dict(row, value=str(row["value"])) for row in rows)  # lazy, for emit
    doc = {"command": "table", "route": args.route, "rows": json_rows}
    cells = (list(row.values()) for row in rows)
    plain = (" ".join(str(v).lower() for v in row.values()) for row in rows)
    return Record(doc, header, cells, chain(["# " + " ".join(header)], plain), failure)


def _kernel(k: int, which: str, construction: str) -> IntPoly:
    # PP by formula has a sum of its own; its other constructions stretch P,
    # built by the formula ("stretch") or by duplication
    if construction == "formula":
        return kernel_poly(k) if which == "P" else stretched_kernel_poly(k)
    if which == "PP":
        base = kernel_poly(k) if construction == "stretch" else kernel_poly_by_duplication(k)
        return stretch(base, k)
    if construction == "stretch":
        return kernel_poly_by_stretch(k)
    return kernel_poly_by_duplication(k)


def _cmd_poly(args: argparse.Namespace) -> Record:
    k, which = args.k, args.which
    if k > args.kmax:
        raise ValueError(f"k={k} exceeds cap {args.kmax} (raise with --kmax)")
    if args.construction == "all":
        names = ["formula"] if k == 0 else ["formula", "stretch", "duplication"]
    elif k == 0 and args.construction != "formula":
        raise ValueError(f"construction {args.construction!r} needs k >= 1")
    else:
        names = [args.construction]
    built = {name: _kernel(k, which, name) for name in names}
    agree = len({p.coeffs for p in built.values()}) == 1

    def lines():
        for name, p in built.items():
            yield f"{which} k={k} [{name}]: {p.pretty('u')}"
            yield f"  coeffs: {list(p.coeffs)}"
        if args.construction == "all":
            yield f"agree: {str(agree).lower()}"

    doc = {"command": "poly", "k": k, "which": which, "constructions": built, "agree": agree}
    header = ["k", "which", "construction", "exponent", "coefficient"]
    cells = ([k, which, name, e, c] for name, p in built.items() for e, c in enumerate(p.coeffs))
    coeffs = {name: list(p.coeffs) for name, p in built.items()}
    failure = None if agree else f"construction disagreement for {which} at k={k}: {coeffs}"
    return Record(doc, header, cells, lines(), failure)


def _cmd_gf(args: argparse.Namespace) -> Record:
    gf = descent_gf(args.k)
    parts = dict(numerator=gf.numerator, denominator=gf.denominator, series=gf.series(args.order))
    terms = [(part, zpow, p) for part, polys in parts.items() for zpow, p in enumerate(polys)]
    doc = {"command": "gf", "k": args.k, "order": args.order, **parts}
    header = ["part", "zpow", "ypow", "value"]
    cells = ([part, zpow, ypow, c] for part, zpow, p in terms for ypow, c in enumerate(p.coeffs))
    plain = (f"{part} z^{zpow}: {p.pretty('y')}" for part, zpow, p in terms)
    return Record(doc, header, cells, chain([f"# generating function, k={args.k}"], plain))


def _spaced(values: Iterable[int]) -> str:
    return " ".join(map(str, values))


def _cmd_juggle(args: argparse.Namespace) -> Record:
    values = tuple(int(s) for s in args.perm.split(","))
    p = Permutation(values)
    T = throw_sequence(p, args.k)
    valid, balls = T.is_valid(), T.ball_count()
    reduced = expected = None
    if balls >= 1:
        reduced = remove_ball(T)
        expected = throw_sequence(p.bsort(), args.k - 1)
    crosscheck = "n/a" if reduced is None else "ok" if reduced == expected else "mismatch"

    def cells():
        removed = _spaced(reduced.throws) if reduced else ""
        yield [_spaced(values), args.k, _spaced(T.throws), valid, balls, removed, crosscheck]

    def lines():
        yield f"perm: {values}"
        yield f"throws: {T.throws}"
        yield f"valid: {str(valid).lower()}"
        yield f"balls: {balls}"
        if reduced is not None:
            yield f"one ball removed: {reduced.throws}"
        yield f"bubble crosscheck: {crosscheck}"

    doc = {
        "command": "juggle",
        "perm": values,
        "k": args.k,
        "throws": T.throws,
        "valid": valid,
        "balls": balls,
        "reduced": reduced.throws if reduced else None,
        "crosscheck": crosscheck,
    }
    header = ["perm", "k", "throws", "valid", "balls", "reduced", "crosscheck"]
    failure = None
    if crosscheck == "mismatch":
        failure = (
            f"bubble crosscheck: mismatch: one ball removed gives {reduced.throws}, "
            f"the bubble-sorted permutation encodes {expected.throws}"
        )
    return Record(doc, header, cells(), lines(), failure)


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
    failure = _verdict(failed[0]) if failed else None
    return Record(doc, ["suite", "name", "ok", "detail"], cells, plain, failure)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain",
        help="output format (default plain)",
    )

    parser = argparse.ArgumentParser(
        prog="descpoly",
        description="Descent polynomials of bounded-drop permutations, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common], help="coefficient table rows (n, k, r, value)")
    t.add_argument("--n", required=True, help="n or inclusive range lo:hi")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--route", choices=["enum", "rec", "closed", "all"], default="rec")
    t.add_argument("--nmax", type=int, default=10, help="enumeration cap (default 10)")
    t.set_defaults(func=_cmd_table)

    p = sub.add_parser("poly", parents=[common], help="kernel polynomials and their stretches")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=["P", "PP"], default="P")
    p.add_argument(
        "--construction", choices=["formula", "stretch", "duplication", "all"], default="all"
    )
    p.add_argument("--kmax", type=int, default=8, help="kernel cap (default 8)")
    p.set_defaults(func=_cmd_poly)

    g = sub.add_parser("gf", parents=[common], help="generating function and its series")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--order", type=int, required=True, help="highest series power of z")
    g.set_defaults(func=_cmd_gf)

    j = sub.add_parser("juggle", parents=[common], help="siteswap encoding and ball removal")
    j.add_argument("--perm", required=True, help="comma separated one-line permutation")
    j.add_argument("--k", type=int, required=True, help="ball count / drop bound")
    j.set_defaults(func=_cmd_juggle)

    v = sub.add_parser("verify", parents=[common], help="run property suites")
    v.add_argument(
        "--suite",
        choices=["identities", "routes", "bijections", "juggling", "structure", "all"],
        default="all",
    )
    v.add_argument("--nmax", type=int, default=7, help="size bound (default 7)")
    v.add_argument("--kmax", type=int, default=7, help="drop bound (default 7)")
    v.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        record = args.func(args)
    except ValueError as exc:  # CapExceeded and DropExceedsK included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return emit(args.format, record)


if __name__ == "__main__":
    sys.exit(main())
