"""The operation lists of the three workloads.

Each operation is one ``descpoly`` command line.  ``tables`` and ``census``
are fixed lists, the same for every seed, so their stdout is pinned by
digest.  ``cli_mix`` is drawn from the seed: the same seed gives the same
commands in the same order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

FORMATS = ("plain", "json", "csv")

# tables: few large cold queries on the ROADMAP's baseline grid
TABLES_GRID = ((1000, 2), (400, 4), (200, 8), (120, 12))
TABLES_POLY_KS = (12, 16, 20)

# census: the verify suites at the CLI defaults plus enumeration near its cap
CENSUS_SUITES = ("identities", "routes", "bijections", "juggling", "structure")
CENSUS_ENUM_N = 9
CENSUS_ENUM_KS = (2, 5, 8)

# cli_mix: operation counts per kind (about 1,500 commands in all).  The
# juggle count is a whole number of passes over the (k, length) grid, so
# every seed runs the same lengths and drop bounds (and meets the known
# RecursionError equally often); only the sampled permutations differ.
JUGGLE_LADDER = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)
JUGGLE_KS = tuple(range(1, 11))
MIX_COUNTS = {
    "table_range": 525,
    "table_closed": 150,
    "poly": 225,
    "gf": 225,
    "juggle": 4 * len(JUGGLE_LADDER) * len(JUGGLE_KS),
}
MIX_KMAX = 10


@dataclass(frozen=True)
class Op:
    """One command line and what its output check needs to know."""

    kind: str  # table, poly, gf, juggle or verify
    argv: tuple[str, ...]
    fmt: str
    params: dict = field(default_factory=dict)
    pinned: bool = False  # seed-independent: stdout digest is pinned

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _table(n_lo: int, n_hi: int, k: int, route: str | None, fmt: str, pinned=False) -> Op:
    n = str(n_lo) if n_lo == n_hi else f"{n_lo}:{n_hi}"
    argv = ["table", "--n", n, "--k", str(k)]
    if route is not None:
        argv += ["--route", route]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Op("table", tuple(argv), fmt, {"n_lo": n_lo, "n_hi": n_hi, "k": k}, pinned)


def _gf(k: int, order: int, fmt: str, pinned=False) -> Op:
    argv = ["gf", "--k", str(k), "--order", str(order)]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Op("gf", tuple(argv), fmt, {"k": k, "order": order}, pinned)


def _poly(k: int, which: str, construction: str | None, fmt: str, kmax: int | None, pinned=False) -> Op:
    argv = ["poly", "--k", str(k), "--which", which]
    if construction is not None:
        argv += ["--construction", construction]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Op("poly", tuple(argv), fmt, {"k": k, "which": which}, pinned)


def tables(seed: int) -> list[Op]:
    ops = []
    for n, k in TABLES_GRID:
        ops.append(_table(n, n, k, "rec", "json", pinned=True))
        ops.append(_table(n, n, k, "closed", "json", pinned=True))
        ops.append(_gf(k, n, "json", pinned=True))
    for k in TABLES_POLY_KS:
        for which in ("P", "PP"):
            ops.append(_poly(k, which, None, "json", max(TABLES_POLY_KS), pinned=True))
    return ops


def census(seed: int) -> list[Op]:
    ops = [
        Op("verify", ("verify", "--suite", suite), "plain", {}, True)
        for suite in CENSUS_SUITES
    ]
    for k in CENSUS_ENUM_KS:
        ops.append(_table(CENSUS_ENUM_N, CENSUS_ENUM_N, k, "enum", "plain", pinned=True))
    return ops


def bounded_drop_sample(n: int, k: int, rng: random.Random) -> list[int]:
    """A uniformly random permutation of [n] with maxdrop <= k.

    Filling positions right to left, position i may hold any unused value
    >= i-k; those are always the min(k+1, i) largest unused values, so
    independent uniform choices give each of the k!(k+1)^(n-k) members the
    same probability.
    """
    avail = list(range(1, n + 1))
    out = [0] * n
    for i in range(n, 0, -1):
        out[i - 1] = avail.pop(len(avail) - 1 - rng.randrange(min(k + 1, i)))
    return out


def _juggle(perm: list[int], k: int, fmt: str) -> Op:
    argv = ["juggle", "--perm", ",".join(map(str, perm)), "--k", str(k)]
    if fmt != "plain":
        argv += ["--format", fmt]
    return Op("juggle", tuple(argv), fmt, {"perm": perm, "k": k})


def _grid(count: int, *axes) -> list[tuple]:
    """``count`` items cycling through every combination of the axes, so each
    combination occurs equally often (up to one), whatever the seed."""
    combos = list(itertools.product(*axes))
    return [combos[i % len(combos)] for i in range(count)]


def cli_mix(seed: int) -> list[Op]:
    # the drop bound, output format and juggle length are spread evenly;
    # the seed draws sizes, constructions and permutations, and the order
    rng = random.Random(seed)
    ops = []
    for k, fmt in _grid(MIX_COUNTS["table_range"], range(MIX_KMAX + 1), FORMATS):
        lo = rng.randint(0, 30)
        ops.append(_table(lo, lo + rng.randint(0, 10), k, None, fmt))
    for k, fmt in _grid(MIX_COUNTS["table_closed"], range(1, MIX_KMAX + 1), FORMATS):
        n = rng.randint(1, 40)
        ops.append(_table(n, n, k, "closed", fmt))
    for k, which, fmt in _grid(MIX_COUNTS["poly"], range(1, MIX_KMAX + 1), ("P", "PP"), FORMATS):
        construction = rng.choice((None, "formula", "stretch", "duplication"))
        ops.append(_poly(k, which, construction, fmt, MIX_KMAX if k > 8 else None))
    for k, fmt in _grid(MIX_COUNTS["gf"], range(MIX_KMAX + 1), FORMATS):
        ops.append(_gf(k, rng.randint(0, 40), fmt))
    for k, n in _grid(MIX_COUNTS["juggle"], JUGGLE_KS, JUGGLE_LADDER):
        ops.append(_juggle(bounded_drop_sample(n, k, rng), k, rng.choice(FORMATS)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"tables": tables, "census": census, "cli_mix": cli_mix}
