"""TAG-join: end-to-end evaluation of a QuerySpec over a TAG graph (§6.4).

Pipeline: join tree → TAG plan (§5.1) → GenSteps label list (Algorithm 1) →
reduction supersteps (UP+DOWN, Lemma 5.1) → collection (bottom-up joins) →
residual predicate → aggregation (LA / GA / scalar, §7).

Single-relation specs take the scan path (no traversal: attribute vertices
apply the predicate, tuple vertices aggregate — supersteps 0).

Correlated scalar, IN / EXISTS and outer-join subqueries (§6.4, §7) are
:class:`~repro.core.spec.Subquery` entries: each is a full TAG-join run,
decorrelated set-at-a-time (all outer groups' subqueries in parallel) and
joined to the outer collection output before the outer ``finalize``.

The residual ``post_filter`` covers GHD bags with more than one join
condition, e.g. the cycle-closing predicate of TPC-H q5: the tree covers
the spanning acyclic part, and the extra equality is checked during
collection as soon as intermediate tuples contain both attributes (§6.4's
GHD strategy with width-2 bags).
"""
from __future__ import annotations

from dataclasses import replace
from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .collection import node_frame
from .plan import build_plan, gensteps
from .reduction import RunStats, reduce_phase
from .spec import QuerySpec
from .tag import TID, TAGGraph


def finalize(df: DataFrame, spec: QuerySpec) -> DataFrame:
    """Residual predicate + aggregation/projection, shared by all paths.

    ``group_by`` entries are either plain column/expression strings or
    ``(expr, alias)`` pairs (needed when grouping on a computed expression
    like ``year(o_orderdate)`` that later select/having clauses reference).
    """
    if spec.post_filter:
        df = df.where(spec.post_filter)
    if spec.aggregates:
        aggs = [F.expr(e).alias(a) for e, a in spec.aggregates]
        if spec.group_by:
            keys = [
                F.expr(g[0]).alias(g[1]) if isinstance(g, tuple) else F.expr(g)
                for g in spec.group_by
            ]
            df = df.groupBy(*keys).agg(*aggs)
        else:
            df = df.agg(*aggs)
    elif spec.select:
        df = df.select([F.expr(e).alias(a) for e, a in spec.select])
    if spec.having:
        df = df.where(spec.having)
    if spec.select and spec.aggregates:
        df = df.select([F.expr(e).alias(a) for e, a in spec.select])
    if spec.distinct:
        df = df.distinct()
    return df


def run_spec(
    graph: TAGGraph, spec: QuerySpec, stats: bool = False
) -> tuple[DataFrame, RunStats]:
    """Evaluate ``spec`` with TAG-join; returns (result, run statistics).

    Subqueries and union members run recursively and share one
    :class:`RunStats`, so its traces cover every superstep of the query.
    """
    spec.validate()
    rs = RunStats() if stats else None
    return _evaluate(graph, spec, rs), (rs or RunStats())


def run_reduction_only(
    graph: TAGGraph, spec: QuerySpec, stats: bool = False
) -> tuple[DataFrame, RunStats]:
    """Reduction phases only: ``spec`` evaluated as if ``reduce_only`` were
    set, i.e. over the fully reduced *root* relation.

    This is the TAG-join expression of EXISTS / IN-subquery (semijoin)
    queries: the reduced root contains exactly the root tuples with join
    partners in every subtree, each exactly once (no collection-phase
    multiplicities). Aggregation/selection from ``spec`` still applies.
    """
    return run_spec(graph, replace(spec, reduce_only=True), stats)


def _evaluate(graph: TAGGraph, spec: QuerySpec, rs: RunStats | None) -> DataFrame:
    """``spec``'s result; nested runs record into the same ``rs``."""
    if spec.union:
        df = reduce(
            DataFrame.unionByName, [_evaluate(graph, m, rs) for m in spec.union]
        )
    else:
        df = _tree_frame(graph, spec, rs)
    for sub in spec.subqueries:
        sdf = _evaluate(graph, sub.spec, rs)
        on = [F.col(o) == F.col(i) for o, i in sub.on]
        df = df.join(sdf, on=on, how=sub.how)
    return finalize(df, spec)


def _tree_frame(graph: TAGGraph, spec: QuerySpec, rs: RunStats | None) -> DataFrame:
    """The join tree's output before ``finalize``: a scan, the reduced root
    relation (``reduce_only``) or the collection phase's joined frame."""
    nodes = spec.nodes()
    root = spec.root
    if len(nodes) == 1 and root.preagg is None and not spec.reduce_only:
        # Scan path: predicate at attribute vertices, aggregate tuple data.
        df = graph.tuples[root.relation]
        if root.filter:
            df = df.where(root.filter)
    else:
        plan = build_plan(root)
        steps = gensteps(plan)
        reduced = reduce_phase(graph, nodes, steps, rs)
        if not spec.reduce_only:
            return node_frame(graph, root, reduced, rs)
        df = graph.tuples[root.relation].join(reduced[root.name], on=TID)
    return df.select(root.need or [c for c in df.columns if not c.startswith("__")])


def scalar_lookup(df: DataFrame, col: str) -> float:
    """Collect a 1-row scalar aggregate (the global-aggregator read-back)."""
    row = df.collect()[0]
    return row[col]
