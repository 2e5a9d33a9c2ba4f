"""Collection-phase tests: joins, projection pushing, eager agg, outer joins."""
from __future__ import annotations

import pandas as pd
import pytest

from repro import oracle
from repro.core.collection import node_frame, qualify
from repro.core.plan import build_plan, gensteps
from repro.core.reduction import RunStats, reduce_phase
from repro.core.spec import Node, Preagg, QuerySpec, Subquery
from repro.core.tag import TAGGraph
from repro.core.tagjoin import run_spec


@pytest.fixture(scope="module")
def instance(spark):
    R = pd.DataFrame({"ra": [1, 2, 3], "rb": [10, 20, 20]})
    S = pd.DataFrame({"sb": [10, 20, 20, 30], "sc": [5.0, 6.0, 7.0, 8.0]})
    rels = {"R": spark.createDataFrame(R), "S": spark.createDataFrame(S)}
    return TAGGraph.encode(spark, rels), R, S


def _collect(graph, spec_root, stats=None):
    nodes = list(spec_root.walk())
    steps = gensteps(build_plan(spec_root))
    reduced = reduce_phase(graph, nodes, steps, stats)
    return node_frame(graph, spec_root, reduced, stats)


class TestNodeFrame:
    def test_two_way_bag_semantics(self, instance):
        graph, R, S = instance
        root = Node(
            relation="R",
            need=["ra"],
            children=[Node(relation="S", parent_join=("rb", "sb"), need=["sc"])],
        )
        df = _collect(graph, root).toPandas()
        expected = R.merge(S, left_on="rb", right_on="sb")
        assert len(df) == len(expected)  # bag multiplicity preserved
        assert sorted(df["ra"]) == sorted(expected["ra"])

    def test_projection_pushed(self, instance):
        """Only needed + join columns travel (§7 Projections)."""
        graph, *_ = instance
        root = Node(
            relation="R",
            need=["ra"],
            children=[Node(relation="S", parent_join=("rb", "sb"))],
        )
        df = _collect(graph, root)
        assert set(df.columns) == {"ra", "rb"}  # sc never collected

    def test_same_name_join_columns_merge(self, spark):
        A = pd.DataFrame({"k": [1, 2], "va": ["x", "y"]})
        B = pd.DataFrame({"k": [1, 1], "vb": ["p", "q"]})
        graph = TAGGraph.encode(
            spark, {"A": spark.createDataFrame(A), "B": spark.createDataFrame(B)}
        )
        root = Node(
            relation="A",
            need=["va"],
            children=[Node(relation="B", parent_join=("k", "k"), need=["vb"])],
        )
        df = _collect(graph, root).toPandas()
        assert list(sorted(df.columns)) == ["k", "va", "vb"]
        assert len(df) == 2

    def test_collect_traces_record_join_messages(self, instance):
        graph, R, S = instance
        root = Node(
            relation="R",
            need=["ra"],
            children=[Node(relation="S", parent_join=("rb", "sb"), need=["sc"])],
        )
        stats = RunStats()
        df = _collect(graph, root, stats)
        df.count()
        joins = [t for t in stats.traces if t.phase == "collect"]
        assert len(joins) == 1
        assert joins[0].messages == len(R.merge(S, left_on="rb", right_on="sb"))


class TestAliasQualification:
    def test_qualify_only_when_aliased(self):
        n_plain = Node(relation="nation")
        n_alias = Node(relation="nation", alias="n1")
        assert qualify(n_plain, "n_name") == "n_name"
        assert qualify(n_alias, "n_name") == "n1_n_name"

    def test_self_join_via_aliases(self, spark):
        E = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 1], "w": [0.1, 0.2, 0.3]})
        graph = TAGGraph.encode(spark, {"E": spark.createDataFrame(E)})
        # two-hop paths: E e1 ⋈ E e2 on e1.dst = e2.src
        root = Node(
            relation="E",
            alias="e1",
            need=["src", "dst"],
            children=[
                Node(
                    relation="E",
                    alias="e2",
                    parent_join=("dst", "src"),
                    need=["dst"],
                )
            ],
        )
        df = _collect(graph, root).toPandas()
        expected = E.merge(
            E, left_on="dst", right_on="src", suffixes=("_1", "_2")
        )
        assert len(df) == len(expected)
        assert set(df.columns) == {"e1_src", "e1_dst", "e2_dst"}


class TestEagerAggregation:
    def test_preagg_equals_lazy_aggregation(self, spark):
        """§7: eager group-by below the join must not change the result."""
        F_ = pd.DataFrame({"fk": [1, 1, 2, 2, 2], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
        D = pd.DataFrame({"dk": [1, 2], "grp": ["a", "b"]})
        graph = TAGGraph.encode(
            spark, {"F": spark.createDataFrame(F_), "D": spark.createDataFrame(D)}
        )
        lazy_root = Node(
            relation="D",
            need=["grp"],
            children=[Node(relation="F", parent_join=("dk", "fk"), need=["v"])],
        )
        eager_root = Node(
            relation="D",
            need=["grp"],
            children=[
                Node(
                    relation="F",
                    parent_join=("dk", "fk"),
                    need=["v"],
                    preagg=Preagg(keys=["fk"], aggs=[("sum(v)", "pre")]),
                )
            ],
        )
        lazy = (
            _collect(graph, lazy_root)
            .groupBy("grp")
            .agg({"v": "sum"})
            .withColumnRenamed("sum(v)", "total")
            .toPandas()
        )
        eager = (
            _collect(graph, eager_root)
            .groupBy("grp")
            .agg({"pre": "sum"})
            .withColumnRenamed("sum(pre)", "total")
            .toPandas()
        )
        assert lazy.sort_values("grp").reset_index(drop=True).equals(
            eager.sort_values("grp").reset_index(drop=True)
        )


def _left_outer(graph, left: Node, right: Node, on: tuple[str, str]):
    """§7 left outer join as a ``how="left"`` subquery of the left tree."""
    spec = QuerySpec(
        name="outer",
        root=left,
        subqueries=[
            Subquery(QuerySpec(name="right", root=right), on=[on], how="left")
        ],
    )
    df, _ = run_spec(graph, spec)
    return df


class TestOuterJoin:
    def test_left_outer_two_way_matches_sql(self, spark):
        L = pd.DataFrame({"lk": [1, 2, 3], "lv": ["a", "b", "c"]})
        Rr = pd.DataFrame({"rk": [1, 1, 9], "rv": ["x", "y", "z"]})
        graph = TAGGraph.encode(
            spark, {"L": spark.createDataFrame(L), "R": spark.createDataFrame(Rr)}
        )
        out = _left_outer(
            graph, Node(relation="L"), Node(relation="R"), on=("lk", "rk")
        )
        oracle.assert_equivalent(
            out,
            """
            SELECT lk AS lk, lv AS lv, rk AS rk, rv AS rv
            FROM L LEFT JOIN R ON lk = rk
            """,
            L=L,
            R=Rr,
        )

    def test_left_outer_respects_filters(self, spark):
        L = pd.DataFrame({"lk": [1, 2], "lv": ["a", "b"]})
        Rr = pd.DataFrame({"rk": [1, 2], "rv": ["x", "y"]})
        graph = TAGGraph.encode(
            spark, {"L": spark.createDataFrame(L), "R": spark.createDataFrame(Rr)}
        )
        out = _left_outer(
            graph,
            Node(relation="L"),
            Node(relation="R", filter="rv = 'x'"),
            on=("lk", "rk"),
        ).toPandas()
        # lk=2 survives with NULL right side (dangling left tuple kept)
        assert len(out) == 2
        assert out.loc[out["lk"] == 2, "rv"].isna().all()
