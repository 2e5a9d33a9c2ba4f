"""Both query suites run through one TAG-join entry point, and the queries
built from nested specs (subqueries, unions) keep a pinned superstep,
message and reduced-relation ledger."""
from __future__ import annotations

import pytest

import repro.tpch.queries as tpch_queries
from repro.core.reduction import RunStats
from repro.tpcds.queries import QUERIES as TPCDS_QUERIES

ALL_QUERIES = {**tpch_queries.QUERIES, **TPCDS_QUERIES}


def test_every_query_runs_through_the_two_entry_points(monkeypatch):
    """Both suites reach TAG-join only via ``run_spec`` /
    ``run_reduction_only`` as named in ``repro.tpch.queries``, one call per
    query, so wrapping those two names covers every query."""
    calls = []

    def recorder(kind):
        def run(graph, spec, stats=False):
            calls.append((kind, spec))
            return None, RunStats()

        return run

    monkeypatch.setattr(tpch_queries, "run_spec", recorder("spec"))
    monkeypatch.setattr(
        tpch_queries, "run_reduction_only", recorder("reduction_only")
    )
    for name, q in sorted(ALL_QUERIES.items()):
        calls.clear()
        q.run_tag(object(), stats=True)
        kind = "reduction_only" if q.spec.reduce_only else "spec"
        assert calls == [(kind, q.spec)], name


# (supersteps, total messages, summed reduced relation sizes) on the tier-1
# fixtures (SF 0.005): the nested queries must keep the exact superstep and
# message ledger of running their parts one by one.
PINNED_STATS = {
    "q2": (35, 3336, 573),
    "q17": (10, 404, 68),
    "q20": (10, 2265, 809),
    "ds_q6": (32, 39407, 637),
    "ds_q33": (42, 2118, 49),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_nested_query_stats_pinned(name, request):
    suite = "tpch" if name in tpch_queries.QUERIES else "tpcds"
    graph = request.getfixturevalue(f"{suite}_graph")
    _, stats = ALL_QUERIES[name].run_tag(graph, stats=True)
    got = (
        stats.supersteps,
        stats.total_messages(),
        sum(stats.reduced_sizes.values()),
    )
    assert got == PINNED_STATS[name]
