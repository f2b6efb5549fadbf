"""Command line front end: tables of descent-polynomial coefficients, kernel
polynomials, generating functions, siteswap transforms, and the verification
suites.

Exit codes: 0 success, 1 verification or cross-check failure, 2 usage or
parse error.  All JSON coefficient arrays carry integers as decimal strings
so arbitrarily large values survive a round trip.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .descent import (
    CapExceeded,
    descent_poly,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from .genfunc import descent_gf
from .juggling import DropExceedsK, remove_ball, throw_sequence
from .permutation import Permutation
from .polynomial import IntPoly
from .verify import run_suite

USAGE_ERROR = 2
CHECK_FAILED = 1


def _coeff_strings(p: IntPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    a = int(lo)
    b = int(hi) if hi else a
    if a < 0 or b < a:
        raise ValueError(f"bad range {text!r}")
    return a, b


def _cmd_table(args: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_range(args.n)
    k = args.k
    cap = args.nmax if args.nmax is not None else 10
    routes = ["enum", "rec", "closed"] if args.route == "all" else [args.route]

    rows = []
    mismatch = None
    for n in range(n_lo, n_hi + 1):
        polys = {route: descent_poly(n, k, route, cap=cap).poly for route in routes}
        agree = len({p.coeffs for p in polys.values()}) == 1
        if not agree and mismatch is None:
            mismatch = (n, k, {r: list(p.coeffs) for r, p in polys.items()})
        shown = polys[routes[0]]
        width = max(len(shown.coeffs), 1)
        for r in range(width):
            row = {"n": n, "k": k, "r": r, "value": str(shown.coefficient(r))}
            if args.route == "all":
                row["agree"] = agree
            rows.append(row)

    if args.format == "json":
        _emit_json({"command": "table", "route": args.route, "rows": rows})
    elif args.format == "csv":
        header = ["n", "k", "r", "value"] + (["agree"] if args.route == "all" else [])
        _emit_csv(header, [[row[h] for h in header] for row in rows])
    else:
        header = "n k r value" + (" agree" if args.route == "all" else "")
        print("# " + header)
        for row in rows:
            line = f"{row['n']} {row['k']} {row['r']} {row['value']}"
            if args.route == "all":
                line += f" {str(row['agree']).lower()}"
            print(line)

    if mismatch is not None:
        n, k, polys = mismatch
        print(f"route disagreement at n={n} k={k}: {polys}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def _poly_constructions(k: int, which: str, construction: str) -> dict[str, IntPoly]:
    builders = {
        "P": {
            "formula": lambda: kernel_poly(k),
            "stretch": lambda: kernel_poly_by_stretch(k),
            "duplication": lambda: kernel_poly_by_duplication(k),
        },
        "PP": {
            "formula": lambda: stretched_kernel_poly(k),
            "stretch": lambda: stretch(kernel_poly(k), k),
            "duplication": lambda: stretch(kernel_poly_by_duplication(k), k),
        },
    }[which]
    if construction == "all":
        names = ["formula"] if k == 0 else ["formula", "stretch", "duplication"]
    else:
        names = [construction]
    return {name: builders[name]() for name in names}


def _cmd_poly(args: argparse.Namespace) -> int:
    k = args.k
    cap = args.kmax if args.kmax is not None else 8
    if k > cap:
        print(f"k={k} exceeds cap {cap} (raise with --kmax)", file=sys.stderr)
        return USAGE_ERROR
    if k == 0 and args.construction in ("stretch", "duplication"):
        print(f"construction {args.construction!r} needs k >= 1", file=sys.stderr)
        return USAGE_ERROR
    built = _poly_constructions(k, args.which, args.construction)
    agree = len({p.coeffs for p in built.values()}) == 1

    if args.format == "json":
        _emit_json(
            {
                "command": "poly",
                "k": k,
                "which": args.which,
                "constructions": {name: _coeff_strings(p) for name, p in built.items()},
                "agree": agree,
            }
        )
    elif args.format == "csv":
        rows = []
        for name in built:
            for e, c in enumerate(built[name].coeffs):
                rows.append([k, args.which, name, e, str(c)])
        _emit_csv(["k", "which", "construction", "exponent", "coefficient"], rows)
    else:
        for name, p in built.items():
            print(f"{args.which} k={k} [{name}]: {p.pretty('u')}")
            print(f"  coeffs: {list(p.coeffs)}")
        if args.construction == "all":
            print(f"agree: {str(agree).lower()}")

    if not agree:
        print(
            f"construction disagreement for {args.which} at k={k}: "
            f"{ {name: list(p.coeffs) for name, p in built.items()} }",
            file=sys.stderr,
        )
        return CHECK_FAILED
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    gf = descent_gf(args.k)
    series = gf.series(args.order)
    if args.format == "json":
        _emit_json(
            {
                "command": "gf",
                "k": args.k,
                "order": args.order,
                "numerator": [_coeff_strings(p) for p in gf.numerator],
                "denominator": [_coeff_strings(p) for p in gf.denominator],
                "series": [_coeff_strings(p) for p in series],
            }
        )
    elif args.format == "csv":
        rows = []
        for part, polys in (
            ("numerator", gf.numerator),
            ("denominator", gf.denominator),
            ("series", series),
        ):
            for zpow, p in enumerate(polys):
                for ypow, c in enumerate(p.coeffs):
                    rows.append([part, zpow, ypow, str(c)])
        _emit_csv(["part", "zpow", "ypow", "value"], rows)
    else:
        print(f"# generating function, k={args.k}")
        for zpow, p in enumerate(gf.numerator):
            print(f"numerator z^{zpow}: {p.pretty('y')}")
        for zpow, p in enumerate(gf.denominator):
            print(f"denominator z^{zpow}: {p.pretty('y')}")
        for n, p in enumerate(series):
            print(f"series z^{n}: {p.pretty('y')}")
    return 0


def _cmd_juggle(args: argparse.Namespace) -> int:
    values = tuple(int(s) for s in args.perm.split(","))
    p = Permutation(values)
    T = throw_sequence(p, args.k)
    balls = T.ball_count()
    reduced = None
    crosscheck = "n/a"
    if balls >= 1:
        reduced = remove_ball(T)
        expected = throw_sequence(p.bsort(), args.k - 1)
        crosscheck = "ok" if reduced == expected else "mismatch"

    if args.format == "json":
        _emit_json(
            {
                "command": "juggle",
                "perm": list(values),
                "k": args.k,
                "throws": list(T.throws),
                "valid": T.is_valid(),
                "balls": balls,
                "reduced": list(reduced.throws) if reduced else None,
                "crosscheck": crosscheck,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["perm", "k", "throws", "valid", "balls", "reduced", "crosscheck"],
            [
                [
                    " ".join(map(str, values)),
                    args.k,
                    " ".join(map(str, T.throws)),
                    T.is_valid(),
                    balls,
                    " ".join(map(str, reduced.throws)) if reduced else "",
                    crosscheck,
                ]
            ],
        )
    else:
        print(f"perm: {values}")
        print(f"throws: {T.throws}")
        print(f"valid: {str(T.is_valid()).lower()}")
        print(f"balls: {balls}")
        if reduced is not None:
            print(f"one ball removed: {reduced.throws}")
        print(f"bubble crosscheck: {crosscheck}")

    return 0 if crosscheck in ("ok", "n/a") else CHECK_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    nmax = args.nmax if args.nmax is not None else 7
    kmax = args.kmax if args.kmax is not None else 7
    results = run_suite(args.suite, nmax, kmax)
    ok = all(r.ok for r in results)

    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "suite": args.suite,
                "nmax": nmax,
                "kmax": kmax,
                "results": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                ],
                "ok": ok,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["suite", "name", "ok", "detail"],
            [[args.suite, r.name, r.ok, r.detail] for r in results],
        )
    else:
        for r in results:
            print(("PASS " if r.ok else "FAIL ") + r.name + (f": {r.detail}" if r.detail else ""))
        passed = sum(r.ok for r in results)
        print(f"# {passed}/{len(results)} checks passed (nmax={nmax}, kmax={kmax})")
    return 0 if ok else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain",
        help="output format (default plain)",
    )
    common.add_argument("--nmax", type=int, default=None, help="size cap / bound override")
    common.add_argument("--kmax", type=int, default=None, help="drop bound cap override")

    parser = argparse.ArgumentParser(
        prog="descpoly",
        description="Descent polynomials of bounded-drop permutations, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common], help="coefficient table rows (n, k, r, value)")
    t.add_argument("--n", required=True, help="n or inclusive range lo:hi")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--route", choices=["enum", "rec", "closed", "all"], default="rec")
    t.set_defaults(func=_cmd_table)

    p = sub.add_parser("poly", parents=[common], help="kernel polynomials and their stretches")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=["P", "PP"], default="P")
    p.add_argument(
        "--construction", choices=["formula", "stretch", "duplication", "all"], default="all"
    )
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
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded, DropExceedsK) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
