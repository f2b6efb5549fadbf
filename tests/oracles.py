"""Independent oracles used only by the tests.

The counts go through the full symmetric group, so they stay honest at the
cost of n! work, and the formulas (the alternating sum, the multinomial for
an unbounded drop) are ones the library does not use; nor is the JSON
reference encoder, the standard library's own pretty printer, nor the
dict-per-row ``table`` rendering.  The library must never import this module
(``tests/test_oracle_imports.py``).
"""

import csv
import io
import json
from collections.abc import Iterator
from itertools import permutations
from math import comb, factorial, gcd

from descpoly.cli import _TableRows
from descpoly.polynomial import IntPoly


def eulerian_number(n: int, k: int) -> int:
    """The Eulerian number by the classical alternating sum
    sum_i (-1)^i C(n+1, i) (k+1-i)^n; 0 outside 0 <= k < max(n, 1)."""
    if k < 0 or k >= max(n, 1):
        return 0
    return sum((-1) ** i * comb(n + 1, i) * (k + 1 - i) ** n for i in range(k + 1))


def geometric_power_coefficient(k: int, N: int, m: int) -> int:
    """The coefficient of u^m in (1 + u + ... + u^k)^N by inclusion-exclusion
    over the parts that exceed k: sum_i (-1)^i C(N, i) C(m - i(k+1) + N - 1, N - 1)."""
    if N == 0:
        return int(m == 0)
    return sum(
        (-1) ** i * comb(N, i) * comb(m - i * (k + 1) + N - 1, N - 1)
        for i in range(min(N, m // (k + 1)) + 1)
    )


def descent_count(values) -> int:
    return sum(values[i] > values[i + 1] for i in range(len(values) - 1))


def max_drop(values) -> int:
    return max((i + 1 - v for i, v in enumerate(values)), default=0)


def sn_descent_census(n: int) -> list[int]:
    """Coefficient list of the order-n Eulerian polynomial by direct count."""
    counts = [0] * max(n, 1)
    for p in permutations(range(1, n + 1)):
        counts[descent_count(p)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def bounded_drop_by_filter(n: int, k: int) -> list[tuple[int, ...]]:
    """All maxdrop <= k permutations, found by filtering the symmetric group."""
    if n == 0:
        return [()]
    return [p for p in permutations(range(1, n + 1)) if max_drop(p) <= k]


def descent_superset_by_filter(n: int, positions, k: int) -> int:
    """Number of maxdrop <= k permutations of [n] whose descent set contains
    ``positions``, found by filtering the symmetric group."""
    return sum(all(p[i - 1] > p[i] for i in positions) for p in bounded_drop_by_filter(n, k))


def descent_superset_multinomial(n: int, positions) -> int:
    """Number of permutations of [n], with no drop bound, whose descent set
    contains ``positions``: the multinomial n!/prod b! over the blocks cut by
    the other positions (Stanley's alpha_n, *Enumerative Combinatorics* vol. 1,
    2nd ed., section 1.4)."""
    cuts = [c for c in range(1, n) if c not in positions]
    r = factorial(n)
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        r //= factorial(hi - lo)
    return r


def bounded_drop_census(n: int, k: int) -> list[int]:
    counts = [0] * max(n, 1)
    for p in bounded_drop_by_filter(n, k):
        counts[descent_count(p)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def standardize_word(word) -> tuple[int, ...]:
    """Each entry replaced by its rank among the entries, 1 for the least:
    ``sorted(word).index(v) + 1``, quadratic and with no rank table."""
    ordered = sorted(word)
    return tuple(ordered.index(v) + 1 for v in word)


def missing_descents(values, positions) -> list[int]:
    """The required positions j, in increasing order, at which ``values``
    has no descent, each tested on its own: value(j) < value(j+1)."""
    return [j for j in sorted(positions) if values[j - 1] < values[j]]


def tail_run_length(n: int, positions) -> int:
    """How many of the positions n-1, n-2, ... are required before the first
    one that is not, read off the 0/1 string of positions 1..n-1."""
    marks = "".join("1" if j in positions else "0" for j in range(1, n))
    return len(marks) - len(marks.rstrip("1"))


def bubble_pass(w: tuple) -> tuple:
    """One bubble pass by its split-at-maximum definition: pass over the
    part left of the maximum, then the part right of it, then the maximum."""
    if not w:
        return w
    m = w.index(max(w))
    return bubble_pass(w[:m]) + w[m + 1 :] + (w[m],)


def stack_pass(w: tuple) -> tuple:
    """One stack pass: both sides of the maximum, each passed, then the
    maximum."""
    if not w:
        return w
    m = w.index(max(w))
    return stack_pass(w[:m]) + stack_pass(w[m + 1 :]) + (w[m],)


def remove_ball_word(seg: tuple) -> tuple:
    """Ball removal as the mirror of ``bubble_pass``: the latest-landing throw
    moves to the end of the segment, shortened by the segment length plus
    one; a tie for the latest landing raises ``ValueError``."""
    if not seg:
        return seg
    landings = [t + i + 1 for i, t in enumerate(seg)]
    top = max(landings)
    if landings.count(top) > 1:
        raise ValueError(f"ambiguous latest landing in {seg}")
    j = landings.index(top)
    return remove_ball_word(seg[:j]) + seg[j + 1 :] + (top - len(seg) - 1,)


def _scaled_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of ``a`` by ``b`` (coefficients from y^0, no zero on top)
    times a positive integer: each step scales by |lc(b)|, never by lc(b)."""
    a, lc = list(a), b[-1]
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [x * abs(lc) for x in a]
        for i, y in enumerate(b):
            a[shift + i] -= (c if lc > 0 else -c) * y
        while a and a[-1] == 0:
            a.pop()
    return a


def is_real_rooted(coeffs) -> bool:
    """Whether the integer polynomial sum coeffs[i] y^i, no zero on top, has
    only real roots, by an integer-only Sturm count.  Each next term is minus a
    pseudo-remainder scaled by a positive factor and divided by its content,
    so every sign is the true Sturm sequence's.  Sign changes at -infinity
    minus those at +infinity count the distinct real roots; there are
    ``degree - degree(last term)`` distinct roots in all, the last term
    being the gcd with the derivative."""
    seq = [list(coeffs)]
    term = [i * c for i, c in enumerate(seq[0])][1:]
    while term:
        seq.append(term)
        r = _scaled_remainder(seq[-2], term)
        g = gcd(*r)
        term = [-x // g for x in r]

    def changes(signs: list[bool]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [t[-1] > 0 for t in seq]
    at_minus = [(t[-1] > 0) == (len(t) % 2 == 1) for t in seq]  # odd degree flips the sign
    return changes(at_minus) - changes(at_plus) == len(seq[0]) - len(seq[-1])


def _json_default(obj: object) -> list:
    if isinstance(obj, IntPoly):
        return [str(c) for c in obj.coeffs]
    if isinstance(obj, _TableRows):  # one dict a row, as table_text renders them
        return [dict(zip(obj.header, row), value=str(row[3])) for row in obj.rows]
    if isinstance(obj, Iterator):
        return list(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(doc: object) -> str:
    """The CLI's JSON for ``doc``, without the final newline, by
    ``json.dumps(indent=2, sort_keys=True)``: an IntPoly is the list of its
    coefficients in decimal strings, ``table``'s rows one dict a row, an
    iterator a list."""
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default)


def table_text(polys: dict, k: int, route: str, fmt: str) -> str:
    """The stdout of ``descpoly table`` for the descent polynomials ``polys``
    (n -> {route name -> IntPoly}, in n order, shown route first), rendered as
    the CLI first did: one dict per row (n, k, r, value[, agree]), read by
    every format, with the agree column only under ``--route all``."""
    header = ["n", "k", "r", "value"] + (["agree"] if route == "all" else [])
    rows = []
    for n, by_route in polys.items():
        agree = len({p.coeffs for p in by_route.values()}) == 1
        shown = next(iter(by_route.values()))
        for r in range(max(len(shown.coeffs), 1)):
            rows.append(dict(zip(header, (n, k, r, shown.coefficient(r), agree))))
    if fmt == "json":
        json_rows = [dict(row, value=str(row["value"])) for row in rows]
        return json_text({"command": "table", "route": route, "rows": json_rows}) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(list(row.values()) for row in rows)
        return out.getvalue()
    lines = ["# " + " ".join(header)]
    lines += [" ".join(str(v).lower() for v in row.values()) for row in rows]
    return "".join(line + "\n" for line in lines)


def csv_text(header: list[str], rows) -> str:
    """``header`` then ``rows`` through ``csv.writer``, which quotes what needs
    quoting and writes None as an empty cell, as the CLI's CSV first did."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def gf_csv(parts: dict) -> str:
    """The stdout of ``descpoly gf --format csv`` for ``parts`` (part name ->
    the y-polynomials of that part, by power of z): a row per coefficient."""
    rows = [
        (part, zpow, ypow, c)
        for part, polys in parts.items()
        for zpow, p in enumerate(polys)
        for ypow, c in enumerate(p.coeffs)
    ]
    return csv_text(["part", "zpow", "ypow", "value"], rows)


def poly_csv(k: int, which: str, built: dict) -> str:
    """The stdout of ``descpoly poly --format csv`` for the kernels ``built``
    (construction name -> IntPoly): a row per coefficient."""
    rows = [(k, which, name, e, c) for name, p in built.items() for e, c in enumerate(p.coeffs)]
    return csv_text(["k", "which", "construction", "exponent", "coefficient"], rows)


def juggle_csv(fields: dict) -> str:
    """The stdout of ``descpoly juggle --format csv`` for ``fields`` (column ->
    value): one row, a tuple one cell of space-separated entries."""
    row = [" ".join(map(str, v)) if isinstance(v, tuple) else v for v in fields.values()]
    return csv_text(list(fields), [row])


def juggle_plain(fields: dict) -> str:
    """The stdout of plain ``descpoly juggle`` for ``fields`` (column -> value),
    written line by line as the CLI first did: no ``k``, the ball count only for
    a valid sequence, the reduced throws only when a ball was removed."""
    lines = [f"perm: {fields['perm']}", f"throws: {fields['throws']}", f"valid: {str(fields['valid']).lower()}"]
    if fields["valid"]:
        lines.append(f"balls: {fields['balls']}")
    if fields["reduced"] is not None:
        lines.append(f"one ball removed: {fields['reduced']}")
    lines.append(f"bubble crosscheck: {fields['crosscheck']}")
    return "".join(line + "\n" for line in lines)
