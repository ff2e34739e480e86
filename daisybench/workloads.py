"""The benchmark's workloads: dirty inputs made from a seed, and the
operations one analyst issues against them, one at a time.

Every workload is a round: load the inputs, construct a ``DaisySession``
with the program's defaults, run the operations in order (each query's
answer is collected before the next is issued), then clean the same inputs
offline and run the same queries over the offline result. ``small=True``
gives a smaller instance of the same shape, for the warm-up.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.constraints import DC, FD, Atom
from repro.core.planner import Filter, JoinSpec, Query
from repro.datagen import ssb
from repro.datagen.errors import inject_dc_errors, inject_fd_errors, monotone_discount
from repro.datagen.hospital import hospital_pdf

PHI = FD(("orderkey",), "suppkey", name="phi")
PHI1 = FD(("zip",), "city", name="phi1")
PHI2 = FD(("name",), "zip", name="phi2")
PHI3 = FD(("phone",), "zip", name="phi3")
PRICE_DC = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="price_dc")


@dataclass
class Op:
    """One analyst operation: a query, or the arrival of rules."""

    kind: str  # "query" | "add_rules"
    label: str
    query: Query | None = None
    table: str = ""
    rules: list = field(default_factory=list)


@dataclass
class Instance:
    tables: dict[str, pd.DataFrame]  # dirty inputs; tid = positional index
    rules: dict[str, list]  # registered when the session is constructed
    ops: list[Op]

    def final_rules(self) -> dict[str, list]:
        """Rules per table once every arrival has happened (offline side)."""
        out = {t: list(r) for t, r in self.rules.items()}
        for op in self.ops:
            if op.kind == "add_rules":
                out[op.table] += op.rules
        return out

    def has_dc(self, table: str) -> bool:
        return any(isinstance(r, DC) for r in self.final_rules().get(table, []))

    def queries(self) -> list[Query]:
        return [op.query for op in self.ops if op.kind == "query"]


def _q(label: str, q: Query) -> Op:
    return Op("query", label, query=q)


def fd_spj(seed: int, small: bool = False) -> Instance:
    """SSB lineorder under φ orderkey→suppkey at low suppkey selectivity,
    joined with a clean supplier table (Figs 5/9/11/12).

    An rhs range filter over suppkey (one relaxation round, Lemma 1), then
    a join with supplier under an lhs range filter over orderkey (two
    rounds, Lemma 2, then clean_join and the probabilistic equi-join). Each
    query cleans the groups it touches that no earlier query finished: the
    write path of incremental cleaning.
    """
    n_rows, n_ok, n_sk = (400, 60, 4) if small else (2000, 300, 20)
    lo = ssb.lineorder_pdf(n_rows=n_rows, n_orderkeys=n_ok, n_suppkeys=n_sk, seed=1000 + seed)
    dirty, _ = inject_fd_errors(
        lo, ("orderkey",), "suppkey", frac_groups=0.4, frac_rows=0.1, seed=1001 + seed
    )
    sup = ssb.supplier_pdf(n_suppkeys=n_sk, rows_per_supp=3, seed=1002 + seed)
    sk, ok = n_sk // 3, n_ok // 4
    ops = [
        _q(f"suppkey 1-{sk}", Query("lineorder", [Filter("suppkey", "between", 1, sk)])),
        _q(
            f"orderkey {n_ok - ok + 1}-{n_ok} join supplier",
            Query(
                "lineorder",
                [Filter("orderkey", "between", n_ok - ok + 1, n_ok)],
                join=JoinSpec("supplier", "suppkey", "suppkey"),
            ),
        ),
    ]
    tables = {"lineorder": dirty, "supplier": sup}
    return Instance(tables, {"lineorder": [PHI], "supplier": []}, ops)


def rules_reread(seed: int, small: bool = False) -> Instance:
    """Hospital data: φ1+φ2 at set-up, a whole-table query, φ3 arrives, a
    second whole-table query re-merges worlds, then selective reads.

    The input does not depend on the seed (its operations that fail do so
    because of a program fault, on every run); the seed orders the reads.
    """
    dirty, _clean, _truth = hospital_pdf(n_hospitals=8 if small else 48, seed=11)
    whole = Query("h", [])
    cities = sorted(dirty["city"].unique())
    zips = sorted(dirty["zip"].unique())
    reads = [
        _q(f"city in {cities[:3]}", Query("h", [Filter("city", "in", cities[:3])])),
        _q(f"zip in {zips[-4:]}", Query("h", [Filter("zip", "in", zips[-4:])])),
    ]
    order = np.random.default_rng(seed).permutation(len(reads))
    ops = [
        _q("whole table", whole),
        Op("add_rules", "add phi3", table="h", rules=[PHI3]),
        _q("whole table again", whole),
        *[reads[i] for i in order],
    ]
    return Instance({"h": dirty}, {"h": [PHI1, PHI2]}, ops)


def dc_range(seed: int, small: bool = False) -> Instance:
    """The two-atom inequality DC over extendedprice/discount, at the
    violation level that stays on partial cleaning, with range queries over
    extendedprice that together cover its domain (Fig 10)."""
    # six queries: the median query then lies past the first one, which
    # still pays for JIT warm-up of the theta-join path
    n_rows, n_q = 400 if small else 4000, 6
    base = ssb.lineorder_pdf(
        n_rows=n_rows, n_orderkeys=n_rows // 10, n_suppkeys=50, seed=3000 + seed
    ).drop(columns=["discount"])
    base["discount"] = monotone_discount(base["extendedprice"].to_numpy(), levels=n_rows)
    dirty, _ = inject_dc_errors(
        base, "extendedprice", "discount", frac_rows=0.01, shift=0.01, seed=3001 + seed
    )
    lo, hi = float(dirty["extendedprice"].min()), float(dirty["extendedprice"].max())
    edges = np.linspace(lo, hi, n_q + 1)
    # consecutive ranges share an edge value, so together they cover [lo, hi]
    ops = [
        _q(f"price {a:.0f}-{b:.0f}", Query("t", [Filter("extendedprice", "between", a, b)]))
        for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())
    ]
    return Instance({"t": dirty}, {"t": [PRICE_DC]}, ops)


WORKLOADS = {
    "fd-spj": fd_spj,
    "rules-reread": rules_reread,
    "dc-range": dc_range,
}
