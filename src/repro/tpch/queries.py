"""TPC-H-lite queries: TAG-join spec + identical SQL text per query.

Each :class:`Query` carries SQL that runs verbatim on both Spark SQL and
DuckDB (the comparison systems) and a :class:`~repro.core.spec.QuerySpec`
that TAG-join evaluates over a :class:`~repro.core.tag.TAGGraph`. Output
columns are aliased identically on all paths so the DuckDB oracle can diff
them.

Coverage vs the paper (§8.1.1 runs all 22; we keep 15 representative ones —
see DESIGN.md for the substitution note). Queries are tagged with the
paper's aggregation classes (§7): LA (local aggregation), GA (global), GA_S
(scalar global), plus Corr for correlated subqueries and Cyclic for q5.
Omitted: q8, q11, q13, q15, q16, q21, q22 (outer/anti-join patterns and
view-style queries beyond the representative set).

Note on group-by column naming: the TAG collection phase keeps the
parent-side join column when parent/child join columns are equal in value
(e.g. ``o_orderkey = l_orderkey``), so TAG specs group on the surviving
column and alias it to the SQL output name.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..core.spec import Node, QuerySpec, Subquery
from ..core.tag import TAGGraph
from ..core.tagjoin import run_reduction_only, run_spec


@dataclass
class Query:
    name: str
    sql: str
    tables: list[str]
    agg_class: str  # 'none' | 'LA' | 'GA' | 'GA_S'
    paper_class: str  # the class the paper's tables group it under
    spec: QuerySpec = field(repr=False)

    def run_tag(self, graph: TAGGraph, stats: bool = False):
        """The TAG-join run of this query, for both suites.

        ``run_spec`` / ``run_reduction_only`` are looked up in this module
        at call time, so a caller can wrap them for every query at once.
        """
        run = run_reduction_only if self.spec.reduce_only else run_spec
        return run(graph, self.spec, stats=stats)


QUERIES: dict[str, Query] = {}


def _register(q: Query) -> None:
    QUERIES[q.name] = q


# ---------------------------------------------------------------------------
# q1 — pricing summary report: single-table scan, multi-attribute group by
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q1",
        tables=["lineitem"],
        agg_class="GA",
        paper_class="GA",
        sql="""
SELECT l_returnflag AS l_returnflag, l_linestatus AS l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-09-02'
GROUP BY l_returnflag, l_linestatus
""",
        spec=QuerySpec(
            name="q1",
            root=Node(
                relation="lineitem",
                filter="l_shipdate <= date'1998-09-02'",
            ),
            group_by=["l_returnflag", "l_linestatus"],
            aggregates=[
                ("sum(l_quantity)", "sum_qty"),
                ("sum(l_extendedprice)", "sum_base_price"),
                ("sum(l_extendedprice * (1 - l_discount))", "sum_disc_price"),
                (
                    "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))",
                    "sum_charge",
                ),
                ("avg(l_quantity)", "avg_qty"),
                ("avg(l_extendedprice)", "avg_price"),
                ("avg(l_discount)", "avg_disc"),
                ("count(*)", "count_order"),
            ],
            agg_class="GA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q2 — minimum-cost supplier (correlated scalar subquery)
# ---------------------------------------------------------------------------

_Q2_INNER = QuerySpec(
    name="q2_inner",
    root=Node(
        relation="partsupp",
        need=["ps_partkey", "ps_supplycost"],
        children=[
            Node(
                relation="supplier",
                parent_join=("ps_suppkey", "s_suppkey"),
                children=[
                    Node(
                        relation="nation",
                        parent_join=("s_nationkey", "n_nationkey"),
                        children=[
                            Node(
                                relation="region",
                                parent_join=("n_regionkey", "r_regionkey"),
                                filter="r_name = 'EUROPE'",
                            )
                        ],
                    )
                ],
            )
        ],
    ),
    group_by=["ps_partkey"],
    aggregates=[("min(ps_supplycost)", "min_cost")],
    select=[("ps_partkey", "mk"), ("min_cost", "min_cost")],
    agg_class="LA",
)

# The paper's forward-lookup subquery strategy run set-at-a-time: every
# part's minimum supplier cost at once, joined on (part, cost).
_Q2 = QuerySpec(
    name="q2",
    root=Node(
        relation="part",
        filter="p_size = 15 AND p_type = 'STANDARD'",
        need=["p_partkey"],
        children=[
            Node(
                relation="partsupp",
                parent_join=("p_partkey", "ps_partkey"),
                need=["ps_supplycost"],
                children=[
                    Node(
                        relation="supplier",
                        parent_join=("ps_suppkey", "s_suppkey"),
                        need=["s_acctbal", "s_name"],
                        children=[
                            Node(
                                relation="nation",
                                parent_join=("s_nationkey", "n_nationkey"),
                                need=["n_name"],
                                children=[
                                    Node(
                                        relation="region",
                                        parent_join=("n_regionkey", "r_regionkey"),
                                        filter="r_name = 'EUROPE'",
                                    )
                                ],
                            )
                        ],
                    )
                ],
            )
        ],
    ),
    select=[
        ("s_acctbal", "s_acctbal"),
        ("s_name", "s_name"),
        ("n_name", "n_name"),
        ("p_partkey", "p_partkey"),
        ("ps_supplycost", "ps_supplycost"),
    ],
    subqueries=[
        Subquery(_Q2_INNER, on=[("p_partkey", "mk"), ("ps_supplycost", "min_cost")])
    ],
)


_register(
    Query(
        name="q2",
        tables=["part", "partsupp", "supplier", "nation", "region"],
        agg_class="none",
        paper_class="Corr",
        sql="""
SELECT s_acctbal AS s_acctbal, s_name AS s_name, n_name AS n_name,
       p.p_partkey AS p_partkey, ps_supplycost AS ps_supplycost
FROM part p, partsupp, supplier, nation, region
WHERE p.p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type = 'STANDARD'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (
      SELECT min(ps2.ps_supplycost)
      FROM partsupp ps2, supplier s2, nation n2, region r2
      WHERE p.p_partkey = ps2.ps_partkey AND s2.s_suppkey = ps2.ps_suppkey
        AND s2.s_nationkey = n2.n_nationkey
        AND n2.n_regionkey = r2.r_regionkey AND r2.r_name = 'EUROPE')
""",
        spec=_Q2,
    )
)

# ---------------------------------------------------------------------------
# q3 — shipping priority (LA: group key determined by the order)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q3",
        tables=["customer", "orders", "lineitem"],
        agg_class="LA",
        paper_class="LA",
        sql="""
SELECT l_orderkey AS l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate AS o_orderdate, o_shippriority AS o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
""",
        spec=QuerySpec(
            name="q3",
            root=Node(
                relation="orders",
                filter="o_orderdate < date'1995-03-15'",
                need=["o_orderkey", "o_orderdate", "o_shippriority"],
                children=[
                    Node(
                        relation="customer",
                        parent_join=("o_custkey", "c_custkey"),
                        filter="c_mktsegment = 'BUILDING'",
                    ),
                    Node(
                        relation="lineitem",
                        parent_join=("o_orderkey", "l_orderkey"),
                        filter="l_shipdate > date'1995-03-15'",
                        need=["l_extendedprice", "l_discount"],
                    ),
                ],
            ),
            group_by=["o_orderkey", "o_orderdate", "o_shippriority"],
            aggregates=[
                ("sum(l_extendedprice * (1 - l_discount))", "revenue")
            ],
            select=[
                ("o_orderkey", "l_orderkey"),
                ("revenue", "revenue"),
                ("o_orderdate", "o_orderdate"),
                ("o_shippriority", "o_shippriority"),
            ],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q4 — order priority checking (EXISTS ≡ semijoin: reduction-only TAG run)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q4",
        tables=["orders", "lineitem"],
        agg_class="LA",
        paper_class="LA",
        sql="""
SELECT o_orderpriority AS o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
""",
        spec=QuerySpec(
            name="q4",
            root=Node(
                relation="orders",
                filter=(
                    "o_orderdate >= date'1993-07-01' "
                    "AND o_orderdate < date'1993-10-01'"
                ),
                need=["o_orderpriority"],
                children=[
                    Node(
                        relation="lineitem",
                        parent_join=("o_orderkey", "l_orderkey"),
                        filter="l_commitdate < l_receiptdate",
                    )
                ],
            ),
            group_by=["o_orderpriority"],
            aggregates=[("count(*)", "order_count")],
            agg_class="LA",
            reduce_only=True,
        ),
    )
)

# ---------------------------------------------------------------------------
# q5 — local supplier volume: the 5-way *cycle* query (c/s nation equality).
# GHD strategy (§6.4): spanning tree + cycle-closing residual predicate.
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q5",
        tables=["customer", "orders", "lineitem", "supplier", "nation", "region"],
        agg_class="LA",
        paper_class="Cyclic/LA",
        sql="""
SELECT n_name AS n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'
GROUP BY n_name
""",
        spec=QuerySpec(
            name="q5",
            root=Node(
                relation="orders",
                filter=(
                    "o_orderdate >= date'1994-01-01' "
                    "AND o_orderdate < date'1995-01-01'"
                ),
                need=["o_orderkey"],
                children=[
                    Node(
                        relation="customer",
                        parent_join=("o_custkey", "c_custkey"),
                        need=["c_nationkey"],
                    ),
                    Node(
                        relation="lineitem",
                        parent_join=("o_orderkey", "l_orderkey"),
                        need=["l_extendedprice", "l_discount"],
                        children=[
                            Node(
                                relation="supplier",
                                parent_join=("l_suppkey", "s_suppkey"),
                                need=["s_nationkey"],
                                children=[
                                    Node(
                                        relation="nation",
                                        parent_join=(
                                            "s_nationkey",
                                            "n_nationkey",
                                        ),
                                        need=["n_name"],
                                        children=[
                                            Node(
                                                relation="region",
                                                parent_join=(
                                                    "n_regionkey",
                                                    "r_regionkey",
                                                ),
                                                filter="r_name = 'ASIA'",
                                            )
                                        ],
                                    )
                                ],
                            )
                        ],
                    ),
                ],
            ),
            post_filter="c_nationkey = s_nationkey",
            group_by=["n_name"],
            aggregates=[
                ("sum(l_extendedprice * (1 - l_discount))", "revenue")
            ],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q6 — revenue change forecast (scalar aggregation over one table)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q6",
        tables=["lineitem"],
        agg_class="GA_S",
        paper_class="GA_S",
        sql="""
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
""",
        spec=QuerySpec(
            name="q6",
            root=Node(
                relation="lineitem",
                filter=(
                    "l_shipdate >= date'1994-01-01' "
                    "AND l_shipdate < date'1995-01-01' "
                    "AND l_discount BETWEEN 0.05 AND 0.07 "
                    "AND l_quantity < 24"
                ),
            ),
            aggregates=[("sum(l_extendedprice * l_discount)", "revenue")],
            agg_class="scalar",
        ),
    )
)

# ---------------------------------------------------------------------------
# q7 — volume shipping: self-join on NATION via aliases (GA)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q7",
        tables=["supplier", "lineitem", "orders", "customer", "nation"],
        agg_class="GA",
        paper_class="GA",
        sql="""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l_shipdate) AS l_year,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM supplier, lineitem, orders, customer, nation n1, nation n2
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
  AND c_nationkey = n2.n_nationkey
  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
       OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
  AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'
GROUP BY n1.n_name, n2.n_name, year(l_shipdate)
""",
        spec=QuerySpec(
            name="q7",
            root=Node(
                relation="lineitem",
                filter=(
                    "l_shipdate BETWEEN date'1995-01-01' "
                    "AND date'1996-12-31'"
                ),
                need=["l_extendedprice", "l_discount", "l_shipdate"],
                children=[
                    Node(
                        relation="supplier",
                        parent_join=("l_suppkey", "s_suppkey"),
                        children=[
                            Node(
                                relation="nation",
                                alias="n1",
                                parent_join=("s_nationkey", "n_nationkey"),
                                filter="n_name IN ('FRANCE', 'GERMANY')",
                                need=["n_name"],
                            )
                        ],
                    ),
                    Node(
                        relation="orders",
                        parent_join=("l_orderkey", "o_orderkey"),
                        children=[
                            Node(
                                relation="customer",
                                parent_join=("o_custkey", "c_custkey"),
                                children=[
                                    Node(
                                        relation="nation",
                                        alias="n2",
                                        parent_join=(
                                            "c_nationkey",
                                            "n_nationkey",
                                        ),
                                        filter=(
                                            "n_name IN ('FRANCE', 'GERMANY')"
                                        ),
                                        need=["n_name"],
                                    )
                                ],
                            )
                        ],
                    ),
                ],
            ),
            post_filter=(
                "(n1_n_name = 'FRANCE' AND n2_n_name = 'GERMANY') "
                "OR (n1_n_name = 'GERMANY' AND n2_n_name = 'FRANCE')"
            ),
            group_by=[
                "n1_n_name",
                "n2_n_name",
                ("year(l_shipdate)", "l_year"),
            ],
            aggregates=[
                ("sum(l_extendedprice * (1 - l_discount))", "revenue")
            ],
            select=[
                ("n1_n_name", "supp_nation"),
                ("n2_n_name", "cust_nation"),
                ("l_year", "l_year"),
                ("revenue", "revenue"),
            ],
            agg_class="GA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q9 — product type profit (GA; partsupp joins lineitem on two attributes:
# tree edge on partkey + residual equality on suppkey, a width-2 GHD bag)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q9",
        tables=["part", "supplier", "lineitem", "partsupp", "orders", "nation"],
        agg_class="GA",
        paper_class="GA",
        sql="""
SELECT n_name AS nation, year(o_orderdate) AS o_year,
       sum(l_extendedprice * (1 - l_discount)
           - ps_supplycost * l_quantity) AS sum_profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
  AND ps_partkey = l_partkey AND p_partkey = l_partkey
  AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
  AND p_type = 'PROMO'
GROUP BY n_name, year(o_orderdate)
""",
        spec=QuerySpec(
            name="q9",
            root=Node(
                relation="lineitem",
                need=[
                    "l_extendedprice",
                    "l_discount",
                    "l_quantity",
                    "l_suppkey",
                ],
                children=[
                    Node(
                        relation="part",
                        parent_join=("l_partkey", "p_partkey"),
                        filter="p_type = 'PROMO'",
                    ),
                    Node(
                        relation="partsupp",
                        parent_join=("l_partkey", "ps_partkey"),
                        need=["ps_suppkey", "ps_supplycost"],
                    ),
                    Node(
                        relation="supplier",
                        parent_join=("l_suppkey", "s_suppkey"),
                        children=[
                            Node(
                                relation="nation",
                                parent_join=("s_nationkey", "n_nationkey"),
                                need=["n_name"],
                            )
                        ],
                    ),
                    Node(
                        relation="orders",
                        parent_join=("l_orderkey", "o_orderkey"),
                        need=["o_orderdate"],
                    ),
                ],
            ),
            post_filter="ps_suppkey = l_suppkey",
            group_by=["n_name", ("year(o_orderdate)", "o_year")],
            aggregates=[
                (
                    "sum(l_extendedprice * (1 - l_discount) "
                    "- ps_supplycost * l_quantity)",
                    "sum_profit",
                )
            ],
            select=[
                ("n_name", "nation"),
                ("o_year", "o_year"),
                ("sum_profit", "sum_profit"),
            ],
            agg_class="GA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q10 — returned item reporting (LA: group key is the customer)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q10",
        tables=["customer", "orders", "lineitem", "nation"],
        agg_class="LA",
        paper_class="LA",
        sql="""
SELECT c_custkey AS c_custkey, c_name AS c_name,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal AS c_acctbal, n_name AS n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name
""",
        spec=QuerySpec(
            name="q10",
            root=Node(
                relation="orders",
                filter=(
                    "o_orderdate >= date'1993-10-01' "
                    "AND o_orderdate < date'1994-01-01'"
                ),
                need=["o_custkey"],
                children=[
                    Node(
                        relation="customer",
                        parent_join=("o_custkey", "c_custkey"),
                        need=["c_name", "c_acctbal"],
                        children=[
                            Node(
                                relation="nation",
                                parent_join=("c_nationkey", "n_nationkey"),
                                need=["n_name"],
                            )
                        ],
                    ),
                    Node(
                        relation="lineitem",
                        parent_join=("o_orderkey", "l_orderkey"),
                        filter="l_returnflag = 'R'",
                        need=["l_extendedprice", "l_discount"],
                    ),
                ],
            ),
            group_by=["o_custkey", "c_name", "c_acctbal", "n_name"],
            aggregates=[
                ("sum(l_extendedprice * (1 - l_discount))", "revenue")
            ],
            select=[
                ("o_custkey", "c_custkey"),
                ("c_name", "c_name"),
                ("revenue", "revenue"),
                ("c_acctbal", "c_acctbal"),
                ("n_name", "n_name"),
            ],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q12 — shipping modes and order priority (LA on l_shipmode)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q12",
        tables=["orders", "lineitem"],
        agg_class="LA",
        paper_class="LA",
        sql="""
SELECT l_shipmode AS l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT'
                  OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END)
           AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)
           AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= date '1994-01-01'
  AND l_receiptdate < date '1995-01-01'
GROUP BY l_shipmode
""",
        spec=QuerySpec(
            name="q12",
            root=Node(
                relation="lineitem",
                filter=(
                    "l_shipmode IN ('MAIL', 'SHIP') "
                    "AND l_commitdate < l_receiptdate "
                    "AND l_shipdate < l_commitdate "
                    "AND l_receiptdate >= date'1994-01-01' "
                    "AND l_receiptdate < date'1995-01-01'"
                ),
                need=["l_shipmode"],
                children=[
                    Node(
                        relation="orders",
                        parent_join=("l_orderkey", "o_orderkey"),
                        need=["o_orderpriority"],
                    )
                ],
            ),
            group_by=["l_shipmode"],
            aggregates=[
                (
                    "sum(CASE WHEN o_orderpriority = '1-URGENT' "
                    "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END)",
                    "high_line_count",
                ),
                (
                    "sum(CASE WHEN o_orderpriority <> '1-URGENT' "
                    "AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)",
                    "low_line_count",
                ),
            ],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q14 — promotion effect (scalar over a PK-FK join)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q14",
        tables=["lineitem", "part"],
        agg_class="GA_S",
        paper_class="GA_S",
        sql="""
SELECT 100.00 * sum(CASE WHEN p_type = 'PROMO'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01'
""",
        spec=QuerySpec(
            name="q14",
            root=Node(
                relation="lineitem",
                filter=(
                    "l_shipdate >= date'1995-09-01' "
                    "AND l_shipdate < date'1995-10-01'"
                ),
                need=["l_extendedprice", "l_discount"],
                children=[
                    Node(
                        relation="part",
                        parent_join=("l_partkey", "p_partkey"),
                        need=["p_type"],
                    )
                ],
            ),
            aggregates=[
                (
                    "sum(CASE WHEN p_type = 'PROMO' "
                    "THEN l_extendedprice * (1 - l_discount) ELSE 0 END)",
                    "promo_sum",
                ),
                ("sum(l_extendedprice * (1 - l_discount))", "total_sum"),
            ],
            select=[("100.00 * promo_sum / total_sum", "promo_revenue")],
            agg_class="scalar",
        ),
    )
)

# ---------------------------------------------------------------------------
# q17 — small-quantity-order revenue (correlated scalar subquery per part)
# ---------------------------------------------------------------------------

_Q17_INNER = QuerySpec(
    name="q17_inner",
    root=Node(
        relation="lineitem",
        need=["l_partkey", "l_quantity"],
        children=[
            Node(
                relation="part",
                parent_join=("l_partkey", "p_partkey"),
                filter="p_brand = 'Brand#23' AND p_container = 'MED BOX'",
            )
        ],
    ),
    group_by=["l_partkey"],
    aggregates=[("avg(l_quantity)", "avg_qty")],
    select=[("l_partkey", "ik"), ("avg_qty", "avg_qty")],
    agg_class="LA",
)

_Q17 = QuerySpec(
    name="q17",
    root=Node(
        relation="lineitem",
        need=["l_quantity", "l_extendedprice", "l_partkey"],
        children=[
            Node(
                relation="part",
                parent_join=("l_partkey", "p_partkey"),
                filter="p_brand = 'Brand#23' AND p_container = 'MED BOX'",
            )
        ],
    ),
    # p_partkey is merged into l_partkey by the join (equal values).
    subqueries=[Subquery(_Q17_INNER, on=[("l_partkey", "ik")])],
    post_filter="l_quantity < 0.2 * avg_qty",
    aggregates=[("sum(l_extendedprice) / 7.0", "avg_yearly")],
    agg_class="scalar",
)


_register(
    Query(
        name="q17",
        tables=["lineitem", "part"],
        agg_class="GA_S",
        paper_class="Corr",
        sql="""
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity) FROM lineitem l2
                    WHERE l2.l_partkey = p_partkey)
""",
        spec=_Q17,
    )
)

# ---------------------------------------------------------------------------
# q18 — large volume customers (LA per order + HAVING)
# ---------------------------------------------------------------------------
_register(
    Query(
        name="q18",
        tables=["customer", "orders", "lineitem"],
        agg_class="LA",
        paper_class="LA",
        sql="""
SELECT c_name AS c_name, c_custkey AS c_custkey, o_orderkey AS o_orderkey,
       o_orderdate AS o_orderdate, o_totalprice AS o_totalprice,
       sum(l_quantity) AS sum_qty
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING sum(l_quantity) > 212
""",
        spec=QuerySpec(
            name="q18",
            root=Node(
                relation="orders",
                need=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
                children=[
                    Node(
                        relation="customer",
                        parent_join=("o_custkey", "c_custkey"),
                        need=["c_name"],
                    ),
                    Node(
                        relation="lineitem",
                        parent_join=("o_orderkey", "l_orderkey"),
                        need=["l_quantity"],
                    ),
                ],
            ),
            group_by=[
                "c_name",
                "o_custkey",
                "o_orderkey",
                "o_orderdate",
                "o_totalprice",
            ],
            aggregates=[("sum(l_quantity)", "sum_qty")],
            having="sum_qty > 212",
            select=[
                ("c_name", "c_name"),
                ("o_custkey", "c_custkey"),
                ("o_orderkey", "o_orderkey"),
                ("o_orderdate", "o_orderdate"),
                ("o_totalprice", "o_totalprice"),
                ("sum_qty", "sum_qty"),
            ],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# q19 — discounted revenue (scalar; disjunctive multi-relation predicate)
# ---------------------------------------------------------------------------
_Q19_DISJUNCTION = """
(
  (p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX')
   AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5)
  OR
  (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX')
   AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10)
  OR
  (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX')
   AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15)
)
"""
_register(
    Query(
        name="q19",
        tables=["lineitem", "part"],
        agg_class="GA_S",
        paper_class="GA_S",
        sql=f"""
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey AND l_shipmode IN ('AIR', 'REG AIR')
  AND l_shipinstruct = 'DELIVER IN PERSON'
  AND {_Q19_DISJUNCTION}
""",
        spec=QuerySpec(
            name="q19",
            root=Node(
                relation="lineitem",
                filter=(
                    "l_shipmode IN ('AIR', 'REG AIR') "
                    "AND l_shipinstruct = 'DELIVER IN PERSON'"
                ),
                need=["l_quantity", "l_extendedprice", "l_discount"],
                children=[
                    Node(
                        relation="part",
                        parent_join=("l_partkey", "p_partkey"),
                        need=["p_brand", "p_container", "p_size"],
                    )
                ],
            ),
            post_filter=_Q19_DISJUNCTION,
            aggregates=[
                ("sum(l_extendedprice * (1 - l_discount))", "revenue")
            ],
            agg_class="scalar",
        ),
    )
)

# ---------------------------------------------------------------------------
# q20 — potential part promotion (nested correlated subqueries)
# ---------------------------------------------------------------------------

_Q20_LI = QuerySpec(
    name="q20_lineitem",
    root=Node(
        relation="lineitem",
        filter=(
            "l_shipdate >= date'1994-01-01' AND l_shipdate < date'1995-01-01'"
        ),
        need=["l_partkey", "l_suppkey", "l_quantity"],
    ),
    group_by=["l_partkey", "l_suppkey"],
    aggregates=[("sum(l_quantity)", "qty_sum")],
    select=[
        ("l_partkey", "lk"),
        ("l_suppkey", "ls"),
        ("qty_sum", "qty_sum"),
    ],
    agg_class="GA",
)

# Suppliers with enough stock of some ECONOMY part: the IN-subquery, which
# itself nests the correlated lineitem sum.
_Q20_PS = QuerySpec(
    name="q20_ps",
    root=Node(
        relation="partsupp",
        need=["ps_partkey", "ps_suppkey", "ps_availqty"],
        children=[
            Node(
                relation="part",
                parent_join=("ps_partkey", "p_partkey"),
                filter="p_type = 'ECONOMY'",
            )
        ],
    ),
    subqueries=[
        Subquery(_Q20_LI, on=[("ps_partkey", "lk"), ("ps_suppkey", "ls")])
    ],
    post_filter="ps_availqty > 0.5 * qty_sum",
    select=[("ps_suppkey", "ps_suppkey")],
)

_Q20 = QuerySpec(
    name="q20",
    root=Node(
        relation="supplier",
        need=["s_suppkey", "s_name", "s_acctbal"],
        children=[
            Node(
                relation="nation",
                parent_join=("s_nationkey", "n_nationkey"),
                filter="n_name = 'CANADA'",
            )
        ],
    ),
    subqueries=[
        Subquery(_Q20_PS, on=[("s_suppkey", "ps_suppkey")], how="left_semi")
    ],
    select=[("s_name", "s_name"), ("s_acctbal", "s_acctbal")],
)


_register(
    Query(
        name="q20",
        tables=["supplier", "nation", "partsupp", "part", "lineitem"],
        agg_class="none",
        paper_class="Corr",
        sql="""
SELECT s_name AS s_name, s_acctbal AS s_acctbal
FROM supplier, nation
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_partkey IN (SELECT p_partkey FROM part
                         WHERE p_type = 'ECONOMY')
      AND ps_availqty > (
          SELECT 0.5 * sum(l_quantity) FROM lineitem
          WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
            AND l_shipdate >= date '1994-01-01'
            AND l_shipdate < date '1995-01-01'))
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
""",
        spec=_Q20,
    )
)


def queries_by_class(paper_class: str) -> list[Query]:
    return [q for q in QUERIES.values() if q.paper_class == paper_class]
