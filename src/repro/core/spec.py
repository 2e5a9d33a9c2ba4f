"""Declarative query specs consumed by the TAG-join executor.

A :class:`QuerySpec` is the reproduction's stand-in for the SQL front end:
it carries the join tree (the paper assumes a GHD/join tree as input, §5.1),
pushed-down selections, the residual (multi-relation) predicate for GHD bags
that contain more than one join condition (e.g. cycle-closing predicates),
the aggregation spec classified into the paper's three styles (§7):
local (LA), global (GA) and scalar, and the nested shapes every query of
both suites needs: correlated / IN / outer-join subqueries, unions of
member specs and reduction-only (semijoin) runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

JoinCond = tuple[str, str]  # (parent column, child column) — equi-join


@dataclass
class Preagg:
    """Eager group-by (§7 'Aggregations'): aggregate a subtree before the
    join with its parent. ``keys`` must contain the subtree's join column
    with the parent; ``aggs`` are decomposable (SUM/COUNT/MIN/MAX) Spark SQL
    expressions producing the columns consumed higher up."""

    keys: list[str]
    aggs: list[tuple[str, str]]  # (expr, alias)


@dataclass
class Node:
    """A join-tree node: one relation occurrence (bag labelled by a single
    relation — the acyclic case of §5.1)."""

    relation: str
    alias: Optional[str] = None
    parent_join: Optional[JoinCond] = None  # None only at the root
    filter: Optional[str] = None  # single-relation predicate, pushed down
    children: list["Node"] = field(default_factory=list)
    preagg: Optional[Preagg] = None
    # Extra columns of this relation needed above the join (output/agg/
    # residual-predicate inputs). Join columns are added automatically.
    need: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.alias or self.relation

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class Subquery:
    """A nested query joined to the outer query's collection output (§6.4).

    ``spec`` is evaluated on its own (recursively, as a full TAG-join run)
    and its result is joined on the ``on`` equalities, each an
    (outer column, subquery output column) pair, before the outer spec's
    residual predicate, aggregation and projection run. ``how`` covers the
    paper's subquery shapes: ``inner`` for decorrelated scalar subqueries
    (TPC-H q2/q17), ``left_semi`` for IN/EXISTS (q20) and ``left`` for §7's
    left outer join (dangling outer tuples survive with NULLs). Subquery
    output columns keep their names, so alias them apart from the outer
    frame's columns.
    """

    spec: "QuerySpec"
    on: list[JoinCond]
    how: str = "inner"


@dataclass
class QuerySpec:
    """A full query: join tree + subqueries + residual predicate + aggregation.

    Exactly one of ``root`` (a join tree) and ``union`` (member specs whose
    results are combined by column name, e.g. TPC-DS q33's channels) gives
    the query's input. ``reduce_only`` stops after the reduction phase and
    returns the reduced root relation: the TAG-join form of an EXISTS / IN
    semijoin, with no collection-phase multiplicities.
    """

    name: str
    root: Optional[Node] = None
    select: list[tuple[str, str]] = field(default_factory=list)  # (expr, alias)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[tuple[str, str]] = field(default_factory=list)  # (expr, alias)
    post_filter: Optional[str] = None  # residual predicate after joins
    having: Optional[str] = None
    distinct: bool = False
    agg_class: str = "none"  # 'none' | 'LA' | 'GA' | 'scalar'
    subqueries: list[Subquery] = field(default_factory=list)
    union: list["QuerySpec"] = field(default_factory=list)
    reduce_only: bool = False

    def nodes(self) -> list[Node]:
        return list(self.root.walk()) if self.root is not None else []

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed spec (and its nested specs)."""

        def check(ok: bool, msg: str) -> None:
            if not ok:
                raise ValueError(f"{self.name}: {msg}")

        check(
            (self.root is None) == bool(self.union),
            "needs exactly one of root and union",
        )
        names = [n.name for n in self.nodes()]
        check(len(names) == len(set(names)), "duplicate aliases")
        for n in self.nodes():
            if n is self.root:
                check(n.parent_join is None, f"root {n.name} has a parent_join")
            else:
                check(n.parent_join is not None, f"{n.name} missing parent_join")
        check(
            self.agg_class in ("none", "LA", "GA", "scalar"),
            f"unknown agg_class {self.agg_class!r}",
        )
        if self.agg_class == "scalar":
            check(not self.group_by, "scalar aggregation with group_by")
        if self.agg_class in ("LA", "GA"):
            check(bool(self.group_by), f"{self.agg_class} without group_by")
        check(
            not (self.reduce_only and (self.subqueries or self.union)),
            "reduce_only cannot take subqueries or union",
        )
        for sub in self.subqueries:
            check(
                sub.how in ("inner", "left_semi", "left"),
                f"unknown subquery how {sub.how!r}",
            )
            check(bool(sub.on), f"subquery {sub.spec.name} has an empty on")
            sub.spec.validate()
        for member in self.union:
            member.validate()
