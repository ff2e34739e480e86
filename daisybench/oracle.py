"""Expected answers, computed from the dirty input without the program.

Nothing here imports ``repro``: candidate domains and answer sets follow the
paper's definitions (§4.1, §4.3) and are computed with pandas, the
denial-constraint violations with a DuckDB self-join.

FD candidates of a cell ``t.a``, one union per rule ``r`` whose violating
group (lhs group with more than one distinct rhs) holds ``t``:

- ``a`` is r's rhs: the rhs values of t's lhs group;
- ``a`` is r's single lhs: the lhs values of the tuples sharing t's rhs;
- always: t's own value.

A cell dirty under no rule has no candidates; it holds only its own value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import duckdb
import pandas as pd

TID = "__tid"
CANDS = "__cands"


@dataclass(frozen=True)
class FDSpec:
    """A rule as the oracle sees it: ``lhs -> rhs`` (no program types)."""

    lhs: tuple[str, ...]
    rhs: str


def _pred(op: str, value, value2):
    if op == "=":
        return lambda v: v == value
    if op == "between":
        return lambda v: value <= v <= value2
    if op == "in":
        allowed = set(value)
        return lambda v: v in allowed
    raise ValueError(f"oracle has no predicate for {op!r}")


class FDOracle:
    """Candidate value sets of every dirty cell of one table."""

    def __init__(self, pdf: pd.DataFrame, rules: list[FDSpec]):
        self.pdf = pdf.reset_index(drop=True)
        self.cands: dict[tuple[int, str], frozenset] = {}
        for r in rules:
            key = list(r.lhs)
            n_rhs = self.pdf.groupby(key)[r.rhs].transform("nunique")
            dirty = self.pdf[n_rhs > 1]
            rhs_dom = self.pdf.groupby(key)[r.rhs].agg(frozenset)
            groups = list(dirty[key].itertuples(index=False, name=None))
            if len(key) == 1:
                groups = [g[0] for g in groups]
            for tid, g in zip(dirty.index, groups):
                self._add(tid, r.rhs, rhs_dom.loc[g])
            if len(r.lhs) == 1:
                la = r.lhs[0]
                lhs_dom = self.pdf.groupby(r.rhs)[la].agg(frozenset)
                for tid, rv in zip(dirty.index, dirty[r.rhs]):
                    self._add(tid, la, lhs_dom.loc[rv])
        for (tid, a), s in list(self.cands.items()):
            self.cands[(tid, a)] = s | {self.pdf.at[tid, a]}

    def _add(self, tid: int, attr: str, values: frozenset) -> None:
        self.cands[(tid, attr)] = self.cands.get((tid, attr), frozenset()) | values

    def values(self, tid: int, attr: str) -> frozenset:
        """Possible values of a cell: its candidates, or its own value."""
        return self.cands.get((tid, attr), frozenset({self.pdf.at[tid, attr]}))

    def dirty(self, tid: int, attr: str) -> bool:
        return (tid, attr) in self.cands

    def answer(self, filters) -> set[int]:
        """Tids where, for every filter, some possible value meets it."""
        out = set(self.pdf.index)
        for attr, op, value, value2 in filters:
            pred = _pred(op, value, value2)
            col = self.pdf[attr]
            hit = set(self.pdf.index[col.map(pred)])
            for (tid, a), vals in self.cands.items():
                if a == attr and any(pred(v) for v in vals):
                    hit.add(tid)
            out &= hit
        return out

    def join_pairs(self, left_tids, on: str, right: "FDOracle", right_tids, right_on: str):
        """(left tid, right tid) pairs whose possible join values overlap."""
        by_value: dict = {}
        for rt in right_tids:
            for v in right.values(rt, right_on):
                by_value.setdefault(v, set()).add(rt)
        pairs = set()
        for lt in left_tids:
            for v in self.values(lt, on):
                for rt in by_value.get(v, ()):
                    pairs.add((lt, rt))
        return pairs


def check_cells(rows, prefix: str, oracle: FDOracle, tid_col: str) -> list[tuple[str, str]]:
    """Compare every candidate column of the answer rows with the oracle.

    Returns ``(kind, detail)`` problems: ``values`` when a cell's candidate
    value set differs, ``world_sum`` when a cell's probabilities do not sum
    to 1 within one possible world.
    """
    problems = []
    if not rows:
        return problems
    cols = [c for c in rows[0].__fields__ if c.startswith(prefix) and c.endswith(CANDS)]
    for row in rows:
        tid = row[tid_col]
        for c in cols:
            attr = c[len(prefix) : -len(CANDS)]
            cell = row[c]
            if cell is None:
                if oracle.dirty(tid, attr):
                    problems.append(("values", f"tid {tid} {attr}: no candidates, oracle has some"))
                continue
            got = frozenset(e["v"] for e in cell)
            if got != oracle.values(tid, attr):
                want = sorted(oracle.values(tid, attr))
                problems.append(("values", f"tid {tid} {attr}: {sorted(got)} != {want}"))
            sums: dict[int, float] = {}
            for e in cell:
                sums[e["w"]] = sums.get(e["w"], 0.0) + e["p"]
            for w, s in sums.items():
                if not math.isclose(s, 1.0, abs_tol=1e-6):
                    problems.append(("world_sum", f"tid {tid} {attr} world {w} sums to {s:.4f}"))
    return problems


def dc_violating_tids(pdf: pd.DataFrame, x: str, op_x: str, y: str, op_y: str) -> set[int]:
    """Tids in some pair (t1, t2) with ``t1.x op_x t2.x and t1.y op_y t2.y``.

    A brute-force self-join in DuckDB over the original values.
    """
    allowed = {"<", "<=", ">", ">="}
    if op_x not in allowed or op_y not in allowed:
        raise ValueError("inequality atoms only")
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("t", pdf[[TID, x, y]])
        q = (
            f'SELECT DISTINCT a."{TID}" AS t1, b."{TID}" AS t2 FROM t a JOIN t b '
            f'ON a."{x}" {op_x} b."{x}" AND a."{y}" {op_y} b."{y}"'
        )
        pairs = con.execute(q).fetchall()
    finally:
        con.close()
    return {int(t) for p in pairs for t in p}
