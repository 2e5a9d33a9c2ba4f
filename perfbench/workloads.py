"""The benchmark's workloads: which TPC-H-lite queries run, at which SF.

Each workload is one closed loop with one client: a query is issued only
after the previous result has been fully collected. Why each workload was
chosen is recorded in BENCHMARK.json and README.md. Query lists are short on
purpose: per-superstep overhead, not data volume, sets TAG latency, so at
SF 0.002 a logical superstep still costs 0.3-0.5 s on 4 cores and one pass
over a handful of queries takes seconds.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float
    queries: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # A multi-way join with full collection: q3, a 3-way chain with 12
        # reduction supersteps and 2 collection joins.
        Workload("tpch-joins", 0.002, ("q3",)),
        # Scans (q1, q6: no traversal), a reduction-only semijoin (q4) and a
        # correlated query stitched from two run_spec calls (q17). SF 0.004:
        # at 0.002 q17's part filter is empty for ~1 seed in 9, which makes
        # that run ~30% faster.
        Workload("tpch-subquery", 0.004, ("q1", "q6", "q4", "q17")),
    )
}


def table_seed(seed: int, table: str) -> int:
    """Per-table generator seed derived from the run's ``--seed``.

    ``crc32`` rather than ``hash`` because string hashing is salted per
    process, and the same ``--seed`` must give the same inputs in every run.
    """
    return zlib.crc32(f"{seed}/{table}".encode())
