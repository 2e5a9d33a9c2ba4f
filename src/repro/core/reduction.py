"""Reduction phase of TAG-join, executed as dataflow supersteps.

Per Lemma 5.1, driving Algorithm 2 with the GenSteps label list makes each
superstep compute either a duplicate-eliminating projection (tuple→attribute
step: the newly-activated attribute vertices *are* the projected column) or
a semijoin (attribute→tuple step: the activated tuple vertices are exactly
``T ⋉ active``). This module materialises that exact superstep sequence over
the TAG edge tables — one Catalyst operation per superstep — for the
bottom-up (UP) pass over the label list and the top-down (DOWN) pass over
its reverse.

Reduction is *eager* (as the paper notes its vertex program is, vs classical
Yannakakis): every semijoin intersects into a per-relation reduced tid set,
so later supersteps never resurrect tuples a previous superstep eliminated
(the vertex program achieves the same through edge markings).

Pushed-down selections (§7) seed the reduced tid sets: attribute vertices
failing a single-attribute predicate "deactivate themselves" before the
traversal begins.

When ``stats`` is on, the per-superstep message count is recorded: for a
projection step it is ``|edges(label) ⋉ active_tuples|`` (each active tuple
vertex sends one message per label-edge), for a semijoin step it is
``|edges(label) ⋉ active_values|`` (each active attribute vertex messages
every label-edge target) — exactly Algorithm 2's communication.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from .plan import EdgeLabel, start_alias
from .spec import Node
from .tag import TID, VAL, TAGGraph


@dataclass
class StepTrace:
    """One superstep of the vertex program."""

    phase: str  # 'up' | 'down' | 'collect'
    superstep: int
    label: str
    kind: str  # 'project' | 'semijoin' | 'join'
    messages: int | None  # None when stats are off


@dataclass
class RunStats:
    """Communication/computation accounting for one TAG-join run."""

    traces: list[StepTrace] = field(default_factory=list)
    reduced_sizes: dict[str, int] = field(default_factory=dict)
    output_rows: int | None = None

    @property
    def supersteps(self) -> int:
        return len(self.traces)

    def total_messages(self, phase: str | None = None) -> int:
        return sum(
            t.messages or 0
            for t in self.traces
            if phase is None or t.phase == phase
        )


def filtered_tids(graph: TAGGraph, node: Node) -> DataFrame | None:
    """Tid set surviving the node's pushed-down predicate, or None if the
    node has no predicate (meaning: all tuple vertices stay active)."""
    if node.filter is None:
        return None
    return graph.tuples[node.relation].where(node.filter).select(TID)


def reduce_phase(
    graph: TAGGraph,
    nodes: list[Node],
    steps: list[EdgeLabel],
    stats: RunStats | None = None,
) -> dict[str, DataFrame]:
    """Run the UP+DOWN reduction passes; returns per-alias reduced tid sets.

    A ``None`` value means the relation was never touched by a semijoin and
    carries no filter (only possible for the start relation of a
    single-relation plan).
    """
    by_alias = {n.name: n for n in nodes}
    reduced: dict[str, DataFrame | None] = {
        n.name: filtered_tids(graph, n) for n in nodes
    }

    def tids(alias: str) -> DataFrame:
        r = reduced[alias]
        if r is None:
            r = graph.tuples[by_alias[alias].relation].select(TID)
            reduced[alias] = r
        return r

    if not steps:  # single-relation query: no traversal needed
        return {a: tids(a) for a in reduced}

    active = tids(start_alias(steps))
    active_is_tuples = True
    superstep = 0
    for phase, labels in (("up", steps), ("down", list(reversed(steps)))):
        for alias, col in labels:
            superstep += 1
            e = graph.edge(by_alias[alias].relation, col)
            if active_is_tuples:
                # Projection: active tuple vertices of `alias` message their
                # attribute vertices → new active set is π_col(reduced).
                msgs = e.join(active, on=TID)
                new_active = msgs.select(VAL).distinct()
            else:
                # Semijoin: active attribute vertices message `alias`-tuples
                # via `alias.col` edges → alias ⋉ active, intersected with
                # the accumulated reduction. In the DOWN pass messages only
                # travel via edges marked by the UP pass (Alg. 2 line 17),
                # which is exactly the restriction to the prior reduced set.
                msgs = e.join(active, on=VAL)
                prior = reduced[alias]
                if phase == "down" and prior is not None:
                    msgs = msgs.join(prior, on=TID)
                t = msgs.select(TID).distinct()
                if phase != "down" and prior is not None:
                    t = t.join(prior, on=TID)
                reduced[alias] = t
                new_active = t
            # Superstep barrier: the BSP model materialises every message
            # round; localCheckpoint truncates lineage so each superstep is
            # one unit of work over the cached edge tables rather than a
            # re-execution of the whole history.
            new_active = new_active.localCheckpoint(eager=stats is not None)
            if not active_is_tuples:
                reduced[alias] = new_active
            if stats is not None:
                stats.traces.append(
                    StepTrace(
                        phase=phase,
                        superstep=superstep,
                        label=f"{alias}.{col}",
                        kind="project" if active_is_tuples else "semijoin",
                        messages=msgs.count(),
                    )
                )
            active = new_active
            active_is_tuples = not active_is_tuples

    out = {a: tids(a) for a in reduced}
    if stats is not None:
        # update, not replace: subqueries and union members share one
        # RunStats, and each run adds its own relations.
        stats.reduced_sizes.update({a: df.count() for a, df in out.items()})
    return out
