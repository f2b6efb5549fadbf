"""Output checks for every benchmark operation.

Nothing here calls ``descpoly``: the expected values come from the
benchmark's own references (``math.factorial``, ``math.comb``, an Eulerian
triangle, one bubble pass), from agreement between operations of the same
pass, and, for seed-independent operations, from a pinned stdout digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from functools import cache
from math import comb, factorial

# A ``juggle`` that raises RecursionError is the documented defect of the
# recursive sort and ball-removal passes (k = 1, n >= ~1,977).  It counts
# as a failed operation but not as a wrong output.
KNOWN_FAILURE = ("juggle", "RecursionError")


def bounded_drop_count(n: int, k: int) -> int:
    return factorial(n) if k >= n else factorial(k) * (k + 1) ** (n - k)


@cache
def eulerian_row(n: int) -> tuple[int, ...]:
    """Eulerian numbers A(n, 0..n-1) by the triangle recurrence; (1,) for n <= 1."""
    row = [1]
    for m in range(2, n + 1):
        row = [(j + 1) * (row[j] if j < len(row) else 0) + (m - j) * (row[j - 1] if j else 0)
               for j in range(m)]
    return tuple(row)


def bubble_pass(perm: list[int]) -> list[int]:
    w = list(perm)
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
    return w


def stdout_digest(text: str) -> str:
    h = hashlib.sha256()
    for i in range(0, len(text), 1 << 20):  # chunked, so an 80 MB output is not copied whole
        h.update(text[i : i + (1 << 20)].encode())
    return h.hexdigest()


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _parse_pretty(text: str, var: str) -> list[int]:
    """Inverse of ``IntPoly.pretty``: '1 + 2y^2 - y^3' -> [1, 0, 2, -1]."""
    if text == "0":
        return []
    terms = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        body, has_var, power = term.lstrip("-").partition(var)
        e = (int(power[1:]) if power else 1) if has_var else 0
        terms[e] = sign * (int(body) if body else 1)
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return out


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _int_tuple(text: str) -> list[int]:
    """'(3, 1, 2)' or '(1,)' -> [3, 1, 2] / [1]."""
    return [int(s) for s in text.strip("()").split(",") if s.strip()]


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(text.splitlines()))
    _require(rows and rows[0] == header, f"csv header {rows[:1]} != {header}")
    return rows[1:]


def _lines(text: str, prefix: str) -> list[str]:
    return [line[len(prefix):] for line in text.splitlines() if line.startswith(prefix)]


# --- parsers: one normalized value per command, whatever the format -------


def parse_table(text: str, fmt: str) -> list[tuple[int, int, int, int]]:
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [(r["n"], r["k"], r["r"], int(r["value"])) for r in rows]
    if fmt == "csv":
        rows = _csv_rows(text, ["n", "k", "r", "value"])
    else:
        lines = text.splitlines()
        _require(lines and lines[0] == "# n k r value", f"plain header {lines[:1]}")
        rows = [line.split(" ") for line in lines[1:]]
    return [tuple(int(x) for x in row) for row in rows]


def parse_poly(text: str, fmt: str) -> dict[str, list[int]]:
    if fmt == "json":
        doc = json.loads(text)
        _require(doc["agree"] is True, "constructions disagree")
        return {name: [int(c) for c in cs] for name, cs in doc["constructions"].items()}
    built: dict[str, list[int]] = {}
    if fmt == "csv":
        for _, _, name, e, c in _csv_rows(text, ["k", "which", "construction", "exponent", "coefficient"]):
            cs = built.setdefault(name, [])
            _require(int(e) == len(cs), f"construction {name}: exponent {e} out of order")
            cs.append(int(c))
        return built
    names = re.findall(r"^\S+ k=\d+ \[(\w+)\]: ", text, re.M)
    coeffs = _lines(text, "  coeffs: ")
    _require(len(names) == len(coeffs), "plain output: names and coefficient lines differ")
    for line in _lines(text, "agree: "):
        _require(line == "true", "constructions disagree")
    return {name: json.loads(cs) for name, cs in zip(names, coeffs)}


def parse_gf(text: str, fmt: str) -> dict[str, list[list[int]]]:
    parts = ("numerator", "denominator", "series")
    if fmt == "json":
        doc = json.loads(text)
        return {part: [[int(c) for c in p] for p in doc[part]] for part in parts}
    if fmt == "csv":
        sparse: dict[str, dict[int, list[int]]] = {part: {} for part in parts}
        for part, zpow, ypow, value in _csv_rows(text, ["part", "zpow", "ypow", "value"]):
            cs = sparse[part].setdefault(int(zpow), [])
            _require(int(ypow) == len(cs), f"{part} z^{zpow}: y power {ypow} out of order")
            cs.append(int(value))
        # a zero polynomial has no csv rows; fill the gaps it leaves
        return {
            part: [sparse[part].get(z, []) for z in range(max(sparse[part], default=-1) + 1)]
            for part in parts
        }
    out: dict[str, list[list[int]]] = {part: [] for part in parts}
    for part in parts:
        for line in _lines(text, part + " z^"):
            zpow, _, pretty = line.partition(": ")
            _require(int(zpow) == len(out[part]), f"{part} z^{zpow} out of order")
            out[part].append(_parse_pretty(pretty, "y"))
    return out


def json_last_series(text: str) -> list[int]:
    """The last series polynomial of a ``gf --format json`` output, parsed
    without loading the rest (the digest pins the rest)."""
    start = text.rindex("\n    [")
    end = text.index("\n    ]", start) + len("\n    ]")
    return [int(c) for c in json.loads(text[start:end])]


def parse_juggle(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        header = ["perm", "k", "throws", "valid", "balls", "reduced", "crosscheck"]
        rows = _csv_rows(text, header)
        _require(len(rows) == 1, f"{len(rows)} csv rows")
        row = dict(zip(header, rows[0]))
        return {
            "perm": _ints(row["perm"]),
            "k": int(row["k"]),
            "throws": _ints(row["throws"]),
            "valid": row["valid"] == "True",
            "balls": int(row["balls"]),
            "reduced": _ints(row["reduced"]) if row["reduced"] else None,
            "crosscheck": row["crosscheck"],
        }
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    return {
        "perm": _int_tuple(fields["perm"]),
        "throws": _int_tuple(fields["throws"]),
        "valid": fields["valid"] == "true",
        "balls": int(fields["balls"]),
        "reduced": _int_tuple(fields["one ball removed"]) if "one ball removed" in fields else None,
        "crosscheck": fields["bubble crosscheck"],
    }


# --- the checker ------------------------------------------------------------


class Checker:
    """Checks the operations of one pass.  Descent and kernel polynomials
    seen by earlier operations are kept, so every route and construction
    that produces the same (n, k) must produce the same coefficients."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.seen: dict[tuple, tuple[int, ...]] = {}

    def check(self, op, rc, out: str, err: str) -> None:
        """Raise CheckFailed unless ``op`` succeeded with a correct output."""
        _require(rc == 0, f"exit code {rc}, stderr {err[-300:]!r}")
        _require(err == "", f"unexpected stderr {err[-300:]!r}")
        if op.pinned:
            want = self.digests.get(op.key)
            _require(want is not None, "no pinned digest")
            _require(stdout_digest(out) == want, "stdout differs from the pinned digest")
        getattr(self, "_check_" + op.kind)(op, out)

    def _agree(self, key: tuple, coeffs: list[int]) -> None:
        got = tuple(coeffs)
        prev = self.seen.setdefault(key, got)
        _require(prev == got, f"{key}: {list(got)[:8]}... differs from an earlier operation")

    def _descent_poly(self, n: int, k: int, cs: list[int]) -> None:
        _require(cs and cs[-1] != 0 and min(cs) >= 0, f"n={n} k={k}: bad coefficients")
        _require(sum(cs) == bounded_drop_count(n, k), f"n={n} k={k}: value at y=1 is {sum(cs)}")
        _require(cs[0] == 1, f"n={n} k={k}: constant term {cs[0]}")
        if k >= n - 1:
            _require(tuple(cs) == eulerian_row(n), f"n={n} k={k}: not Eulerian")
        if k == 1:
            _require(cs == [comb(n, 2 * d) for d in range(n // 2 + 1)], f"n={n}: k=1 row not C(n,2d)")
        self._agree(("D", n, k), cs)

    def _kernel(self, k: int, cs: list[int]) -> None:
        _require(len(cs) == k * k + 1, f"kernel k={k}: degree {len(cs) - 1}")
        _require(cs == cs[::-1], f"kernel k={k}: not symmetric")
        _require(sum(cs) == factorial(k + 1), f"kernel k={k}: value at 1 is {sum(cs)}")
        _require(tuple(cs[:: k + 1]) == eulerian_row(k), f"kernel k={k}: multisection not Eulerian")
        self._agree(("P", k), cs)

    def _check_table(self, op, out: str) -> None:
        n_lo, n_hi, k = op.params["n_lo"], op.params["n_hi"], op.params["k"]
        polys: dict[int, list[int]] = {}
        for n, kk, r, value in parse_table(out, op.fmt):
            _require(kk == k, f"row for k={kk}")
            cs = polys.setdefault(n, [])
            _require(r == len(cs), f"n={n}: row r={r} out of order")
            cs.append(value)
        _require(sorted(polys) == list(range(n_lo, n_hi + 1)), f"rows for n in {sorted(polys)}")
        for n, cs in polys.items():
            self._descent_poly(n, k, cs)

    def _check_poly(self, op, out: str) -> None:
        k, which = op.params["k"], op.params["which"]
        built = parse_poly(out, op.fmt)
        _require(built, "no constructions in output")
        for name, cs in built.items():
            if which == "P":
                self._kernel(k, cs)
                continue
            # PP is P with k zeros inserted: after the constant term and
            # after every further k+1 entries
            _require(len(cs) == k * k + k + 1, f"stretched kernel k={k} [{name}]: degree {len(cs) - 1}")
            slots = [0] + [i + 1 + (i - 1) // (k + 1) for i in range(1, k * k + 1)]
            gaps = set(range(len(cs))) - set(slots)
            _require(all(cs[g] == 0 for g in gaps), f"stretched kernel k={k} [{name}]: gap not zero")
            self._kernel(k, [cs[s] for s in slots])

    def _check_gf(self, op, out: str) -> None:
        k, order = op.params["k"], op.params["order"]
        if op.pinned and op.fmt == "json":
            self._descent_poly(order, k, json_last_series(out))
            return
        gf = parse_gf(out, op.fmt)
        den = gf["denominator"]
        _require(len(den) == k + 2 and den[0] == [1], f"denominator {den[:2]}")
        for i in range(1, k + 2):
            want = [-comb(k + 1, i) * comb(i - 1, j) * (-1) ** (i - 1 - j) for j in range(i)]
            _require(den[i] == want, f"denominator z^{i}: {den[i]}")
        _require(len(gf["series"]) == order + 1, f"{len(gf['series'])} series terms")
        for n, cs in enumerate(gf["series"]):
            self._descent_poly(n, k, cs)

    def _check_juggle(self, op, out: str) -> None:
        perm, k = op.params["perm"], op.params["k"]
        got = parse_juggle(out, op.fmt)
        _require(list(got["perm"]) == perm, "perm echoed wrongly")
        throws = [k - i + v for i, v in enumerate(perm, start=1)]
        _require(list(got["throws"]) == throws, "throws differ from k - i + v_i")
        _require(got["valid"] is True and got["balls"] == k, f"valid={got['valid']} balls={got['balls']}")
        _require(got["crosscheck"] == "ok", f"crosscheck {got['crosscheck']}")
        reduced = [k - 1 - i + v for i, v in enumerate(bubble_pass(perm), start=1)]
        _require(list(got["reduced"]) == reduced, "one-ball removal differs from one bubble pass")

    def _check_verify(self, op, out: str) -> None:
        lines = out.splitlines()
        _require(len(lines) >= 2, "no verify results")
        m = re.fullmatch(r"# (\d+)/(\d+) checks passed \(nmax=\d+, kmax=\d+\)", lines[-1])
        _require(m is not None and m[1] == m[2] == str(len(lines) - 1), f"summary {lines[-1]!r}")
        _require(all(line.startswith("PASS ") for line in lines[:-1]), "a check did not pass")
