"""TPC-H-lite query correctness: every query's TAG path and Spark SQL path
are both checked against DuckDB running the identical SQL text."""
from __future__ import annotations

import pytest

from repro import oracle
from repro.tpch.queries import QUERIES

ALL = sorted(QUERIES)


def _oracle_tables(query, tpch_data):
    return {t: tpch_data[t] for t in query.tables}


@pytest.mark.parametrize("name", ALL)
def test_tag_matches_oracle(name, tpch_graph, tpch_data):
    q = QUERIES[name]
    df, _ = q.run_tag(tpch_graph)
    oracle.assert_equivalent(df, q.sql, **_oracle_tables(q, tpch_data))


@pytest.mark.parametrize("name", ALL)
def test_spark_sql_matches_oracle(name, spark, tpch_data):
    q = QUERIES[name]
    for t in q.tables:
        tpch_data[t].createOrReplaceTempView(t)
    df = spark.sql(q.sql)
    oracle.assert_equivalent(df, q.sql, **_oracle_tables(q, tpch_data))


@pytest.mark.parametrize("name", ALL)
def test_query_metadata(name):
    q = QUERIES[name]
    assert q.agg_class in ("none", "LA", "GA", "GA_S")
    assert q.tables, "query must declare its input tables"
    assert q.sql.strip().upper().startswith(("SELECT", "WITH"))
    q.spec.validate()


def test_expected_query_set():
    assert set(ALL) == {
        "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q9", "q10",
        "q12", "q14", "q17", "q18", "q19", "q20",
    }


def test_classes_cover_paper_tables():
    """Tables 3/4 classes must all be represented."""
    classes = {q.paper_class for q in QUERIES.values()}
    assert {"LA", "Corr", "GA", "GA_S", "Cyclic/LA"} <= classes


@pytest.mark.parametrize("name", ["q3", "q5", "q10"])
def test_stats_enabled_runs(name, tpch_graph):
    """Smoke: communication accounting works on representative queries."""
    q = QUERIES[name]
    df, stats = q.run_tag(tpch_graph, stats=True)
    df.collect()
    assert stats.supersteps > 0
    assert stats.total_messages() > 0
    assert stats.total_messages("up") > 0
    assert stats.total_messages("down") > 0
