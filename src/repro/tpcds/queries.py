"""TPC-DS-lite queries: TAG-join spec + identical SQL per query.

10 representative queries over the TPC-DS-lite snowflake schema, one or
more per evaluation class of the paper's Tables 5/6/11–13 (§8.4):

- **no aggregation** (select-project-join): ds_q37, ds_q84
- **local aggregation (LA)**: ds_q7, ds_q12, ds_q33 (multi-fact union with
  eager pre-aggregation per channel), ds_q98 (eager group-by pushed below
  the item join — §7's q58/q83-style optimisation)
- **global aggregation (GA)**: ds_q45, ds_q69
- **scalar GA**: ds_q32
- **correlated subquery**: ds_q6

Names anchor to the TPC-DS query each one emulates; bodies are simplified
to the TPC-DS-lite schema (see DESIGN.md substitutions).
"""
from __future__ import annotations

from ..core.spec import Node, Preagg, QuerySpec, Subquery
from ..tpch.queries import Query

QUERIES: dict[str, Query] = {}


def _register(q: Query) -> None:
    QUERIES[q.name] = q


# ---------------------------------------------------------------------------
# No aggregation
# ---------------------------------------------------------------------------

_register(
    Query(
        name="ds_q37",
        tables=["item", "store_sales"],
        agg_class="none",
        paper_class="No agg",
        sql="""
SELECT DISTINCT i_item_id AS i_item_id, i_current_price AS i_current_price
FROM item, store_sales
WHERE i_item_sk = ss_item_sk
  AND i_current_price BETWEEN 20 AND 25 AND i_category = 'Books'
""",
        # A pure semijoin: items that sold. Reduction-only TAG run: the
        # reduced root is the answer, no collection multiplicities.
        spec=QuerySpec(
            name="ds_q37",
            root=Node(
                relation="item",
                filter=(
                    "i_current_price BETWEEN 20 AND 25 "
                    "AND i_category = 'Books'"
                ),
                need=["i_item_id", "i_current_price"],
                children=[
                    Node(
                        relation="store_sales",
                        parent_join=("i_item_sk", "ss_item_sk"),
                    )
                ],
            ),
            select=[
                ("i_item_id", "i_item_id"),
                ("i_current_price", "i_current_price"),
            ],
            distinct=True,
            reduce_only=True,
        ),
    )
)

_register(
    Query(
        name="ds_q84",
        tables=["customer", "customer_address"],
        agg_class="none",
        paper_class="No agg",
        sql="""
SELECT c_customer_id AS customer_id, ca_county AS county
FROM customer, customer_address
WHERE c_current_addr_sk = ca_address_sk
  AND ca_state = 'CA' AND c_birth_year BETWEEN 1980 AND 1985
""",
        spec=QuerySpec(
            name="ds_q84",
            root=Node(
                relation="customer",
                filter="c_birth_year BETWEEN 1980 AND 1985",
                need=["c_customer_id"],
                children=[
                    Node(
                        relation="customer_address",
                        parent_join=("c_current_addr_sk", "ca_address_sk"),
                        filter="ca_state = 'CA'",
                        need=["ca_county"],
                    )
                ],
            ),
            select=[
                ("c_customer_id", "customer_id"),
                ("ca_county", "county"),
            ],
        ),
    )
)

# ---------------------------------------------------------------------------
# Local aggregation
# ---------------------------------------------------------------------------

_register(
    Query(
        name="ds_q7",
        tables=["store_sales", "date_dim", "item"],
        agg_class="LA",
        paper_class="Local",
        sql="""
SELECT i_item_id AS i_item_id,
       avg(ss_quantity) AS agg1, avg(ss_sales_price) AS agg2,
       avg(ss_ext_sales_price) AS agg3
FROM store_sales, date_dim, item
WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
  AND d_year = 2000
GROUP BY i_item_id
""",
        spec=QuerySpec(
            name="ds_q7",
            root=Node(
                relation="store_sales",
                need=["ss_quantity", "ss_sales_price", "ss_ext_sales_price"],
                children=[
                    Node(
                        relation="date_dim",
                        parent_join=("ss_sold_date_sk", "d_date_sk"),
                        filter="d_year = 2000",
                    ),
                    Node(
                        relation="item",
                        parent_join=("ss_item_sk", "i_item_sk"),
                        need=["i_item_id"],
                    ),
                ],
            ),
            group_by=["i_item_id"],
            aggregates=[
                ("avg(ss_quantity)", "agg1"),
                ("avg(ss_sales_price)", "agg2"),
                ("avg(ss_ext_sales_price)", "agg3"),
            ],
            agg_class="LA",
        ),
    )
)

_register(
    Query(
        name="ds_q12",
        tables=["web_sales", "item", "date_dim"],
        agg_class="LA",
        paper_class="Local",
        sql="""
SELECT i_item_id AS i_item_id, i_category AS i_category,
       sum(ws_ext_sales_price) AS itemrevenue
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk AND i_category IN ('Books', 'Home')
  AND ws_sold_date_sk = d_date_sk AND d_year = 1999 AND d_moy BETWEEN 2 AND 3
GROUP BY i_item_id, i_category
""",
        spec=QuerySpec(
            name="ds_q12",
            root=Node(
                relation="web_sales",
                need=["ws_ext_sales_price"],
                children=[
                    Node(
                        relation="item",
                        parent_join=("ws_item_sk", "i_item_sk"),
                        filter="i_category IN ('Books', 'Home')",
                        need=["i_item_id", "i_category"],
                    ),
                    Node(
                        relation="date_dim",
                        parent_join=("ws_sold_date_sk", "d_date_sk"),
                        filter="d_year = 1999 AND d_moy BETWEEN 2 AND 3",
                    ),
                ],
            ),
            group_by=["i_item_id", "i_category"],
            aggregates=[("sum(ws_ext_sales_price)", "itemrevenue")],
            agg_class="LA",
        ),
    )
)


def _channel_spec(name: str, fact: str, prefix: str) -> QuerySpec:
    """One channel of ds_q33: fact ⋈ item(Electronics) ⋈ date(2000-01),
    eagerly aggregated by manufacturer."""
    return QuerySpec(
        name=name,
        root=Node(
            relation=fact,
            need=[f"{prefix}_ext_sales_price"],
            children=[
                Node(
                    relation="item",
                    parent_join=(f"{prefix}_item_sk", "i_item_sk"),
                    filter="i_category = 'Electronics'",
                    need=["i_manufact_id"],
                ),
                Node(
                    relation="date_dim",
                    parent_join=(f"{prefix}_sold_date_sk", "d_date_sk"),
                    filter="d_year = 2000 AND d_moy = 1",
                ),
            ],
        ),
        group_by=["i_manufact_id"],
        aggregates=[(f"sum({prefix}_ext_sales_price)", "total_sales")],
        agg_class="LA",
    )


# Multi-fact union with per-channel eager aggregation (§7): each fact table
# aggregates down to one row per manufacturer before the union.
_Q33 = QuerySpec(
    name="ds_q33",
    union=[
        _channel_spec("ds_q33_ss", "store_sales", "ss"),
        _channel_spec("ds_q33_cs", "catalog_sales", "cs"),
        _channel_spec("ds_q33_ws", "web_sales", "ws"),
    ],
    group_by=["i_manufact_id"],
    aggregates=[("sum(total_sales)", "total_sales")],
    agg_class="LA",
)


_register(
    Query(
        name="ds_q33",
        tables=["store_sales", "catalog_sales", "web_sales", "item", "date_dim"],
        agg_class="LA",
        paper_class="Local",
        sql="""
WITH ss AS (SELECT i_manufact_id, sum(ss_ext_sales_price) AS total_sales
            FROM store_sales, date_dim, item
            WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
              AND d_year = 2000 AND d_moy = 1 AND i_category = 'Electronics'
            GROUP BY i_manufact_id),
     cs AS (SELECT i_manufact_id, sum(cs_ext_sales_price) AS total_sales
            FROM catalog_sales, date_dim, item
            WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
              AND d_year = 2000 AND d_moy = 1 AND i_category = 'Electronics'
            GROUP BY i_manufact_id),
     ws AS (SELECT i_manufact_id, sum(ws_ext_sales_price) AS total_sales
            FROM web_sales, date_dim, item
            WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
              AND d_year = 2000 AND d_moy = 1 AND i_category = 'Electronics'
            GROUP BY i_manufact_id)
SELECT i_manufact_id AS i_manufact_id, sum(total_sales) AS total_sales
FROM (SELECT * FROM ss UNION ALL SELECT * FROM cs UNION ALL SELECT * FROM ws) u
GROUP BY i_manufact_id
""",
        spec=_Q33,
    )
)

_register(
    Query(
        name="ds_q98",
        tables=["store_sales", "item", "date_dim"],
        agg_class="LA",
        paper_class="Local",
        sql="""
SELECT i_item_id AS i_item_id, i_class AS i_class,
       sum(ss_ext_sales_price) AS itemrevenue
FROM store_sales, item, date_dim
WHERE ss_item_sk = i_item_sk AND i_category = 'Sports'
  AND ss_sold_date_sk = d_date_sk
  AND d_date BETWEEN date '1999-02-22' AND date '1999-03-24'
GROUP BY i_item_id, i_class
""",
        # Eager group-by (§7): the store_sales subtree (fact ⋈ date filter)
        # pre-aggregates per item key before joining the item dimension.
        spec=QuerySpec(
            name="ds_q98",
            root=Node(
                relation="item",
                filter="i_category = 'Sports'",
                need=["i_item_id", "i_class"],
                children=[
                    Node(
                        relation="store_sales",
                        parent_join=("i_item_sk", "ss_item_sk"),
                        need=["ss_ext_sales_price"],
                        preagg=Preagg(
                            keys=["ss_item_sk"],
                            aggs=[("sum(ss_ext_sales_price)", "pre_rev")],
                        ),
                        children=[
                            Node(
                                relation="date_dim",
                                parent_join=("ss_sold_date_sk", "d_date_sk"),
                                filter=(
                                    "d_date BETWEEN date'1999-02-22' "
                                    "AND date'1999-03-24'"
                                ),
                            )
                        ],
                    )
                ],
            ),
            group_by=["i_item_id", "i_class"],
            aggregates=[("sum(pre_rev)", "itemrevenue")],
            agg_class="LA",
        ),
    )
)

# ---------------------------------------------------------------------------
# Global aggregation
# ---------------------------------------------------------------------------

_register(
    Query(
        name="ds_q45",
        tables=["web_sales", "customer", "customer_address", "date_dim"],
        agg_class="GA",
        paper_class="Global",
        sql="""
SELECT ca_county AS ca_county, ca_state AS ca_state,
       sum(ws_ext_sales_price) AS total
FROM web_sales, customer, customer_address, date_dim
WHERE ws_bill_customer_sk = c_customer_sk
  AND c_current_addr_sk = ca_address_sk
  AND ws_sold_date_sk = d_date_sk AND d_qoy = 2 AND d_year = 2001
GROUP BY ca_county, ca_state
""",
        spec=QuerySpec(
            name="ds_q45",
            root=Node(
                relation="web_sales",
                need=["ws_ext_sales_price"],
                children=[
                    Node(
                        relation="customer",
                        parent_join=("ws_bill_customer_sk", "c_customer_sk"),
                        children=[
                            Node(
                                relation="customer_address",
                                parent_join=(
                                    "c_current_addr_sk",
                                    "ca_address_sk",
                                ),
                                need=["ca_county", "ca_state"],
                            )
                        ],
                    ),
                    Node(
                        relation="date_dim",
                        parent_join=("ws_sold_date_sk", "d_date_sk"),
                        filter="d_qoy = 2 AND d_year = 2001",
                    ),
                ],
            ),
            group_by=["ca_county", "ca_state"],
            aggregates=[("sum(ws_ext_sales_price)", "total")],
            agg_class="GA",
        ),
    )
)

_register(
    Query(
        name="ds_q69",
        tables=["customer", "customer_address", "store_sales", "date_dim"],
        agg_class="GA",
        paper_class="Global",
        sql="""
SELECT ca_state AS ca_state, c_preferred_cust_flag AS pref, count(*) AS cnt
FROM customer, customer_address, store_sales, date_dim
WHERE c_current_addr_sk = ca_address_sk AND ss_customer_sk = c_customer_sk
  AND ss_sold_date_sk = d_date_sk AND d_year = 2001 AND d_moy BETWEEN 1 AND 3
GROUP BY ca_state, c_preferred_cust_flag
""",
        spec=QuerySpec(
            name="ds_q69",
            root=Node(
                relation="store_sales",
                children=[
                    Node(
                        relation="customer",
                        parent_join=("ss_customer_sk", "c_customer_sk"),
                        need=["c_preferred_cust_flag"],
                        children=[
                            Node(
                                relation="customer_address",
                                parent_join=(
                                    "c_current_addr_sk",
                                    "ca_address_sk",
                                ),
                                need=["ca_state"],
                            )
                        ],
                    ),
                    Node(
                        relation="date_dim",
                        parent_join=("ss_sold_date_sk", "d_date_sk"),
                        filter="d_year = 2001 AND d_moy BETWEEN 1 AND 3",
                    ),
                ],
            ),
            group_by=["ca_state", "c_preferred_cust_flag"],
            aggregates=[("count(*)", "cnt")],
            select=[
                ("ca_state", "ca_state"),
                ("c_preferred_cust_flag", "pref"),
                ("cnt", "cnt"),
            ],
            agg_class="GA",
        ),
    )
)

# ---------------------------------------------------------------------------
# Scalar global aggregation
# ---------------------------------------------------------------------------

_register(
    Query(
        name="ds_q32",
        tables=["catalog_sales", "item", "date_dim"],
        agg_class="GA_S",
        paper_class="Global",
        sql="""
SELECT sum(cs_ext_sales_price) AS excess_discount_amount
FROM catalog_sales, item, date_dim
WHERE i_manufact_id = 77 AND i_item_sk = cs_item_sk
  AND d_date BETWEEN date '2000-01-27' AND date '2000-04-26'
  AND d_date_sk = cs_sold_date_sk
""",
        spec=QuerySpec(
            name="ds_q32",
            root=Node(
                relation="catalog_sales",
                need=["cs_ext_sales_price"],
                children=[
                    Node(
                        relation="item",
                        parent_join=("cs_item_sk", "i_item_sk"),
                        filter="i_manufact_id = 77",
                    ),
                    Node(
                        relation="date_dim",
                        parent_join=("cs_sold_date_sk", "d_date_sk"),
                        filter=(
                            "d_date BETWEEN date'2000-01-27' "
                            "AND date'2000-04-26'"
                        ),
                    ),
                ],
            ),
            aggregates=[
                ("sum(cs_ext_sales_price)", "excess_discount_amount")
            ],
            agg_class="scalar",
        ),
    )
)

# ---------------------------------------------------------------------------
# Correlated subquery
# ---------------------------------------------------------------------------

_Q6_INNER = QuerySpec(
    name="ds_q6_inner",
    root=Node(relation="item", need=["i_category", "i_current_price"]),
    group_by=["i_category"],
    aggregates=[("avg(i_current_price)", "cat_avg")],
    select=[("i_category", "cat"), ("cat_avg", "cat_avg")],
    agg_class="LA",
)

_Q6 = QuerySpec(
    name="ds_q6",
    root=Node(
        relation="store_sales",
        children=[
            Node(
                relation="customer",
                parent_join=("ss_customer_sk", "c_customer_sk"),
                children=[
                    Node(
                        relation="customer_address",
                        parent_join=("c_current_addr_sk", "ca_address_sk"),
                        need=["ca_state"],
                    )
                ],
            ),
            Node(
                relation="date_dim",
                parent_join=("ss_sold_date_sk", "d_date_sk"),
                filter="d_year = 2001 AND d_moy = 1",
            ),
            Node(
                relation="item",
                parent_join=("ss_item_sk", "i_item_sk"),
                need=["i_current_price", "i_category"],
            ),
        ],
    ),
    subqueries=[Subquery(_Q6_INNER, on=[("i_category", "cat")])],
    post_filter="i_current_price > 1.2 * cat_avg",
    group_by=["ca_state"],
    aggregates=[("count(*)", "cnt")],
    agg_class="GA",
)


_register(
    Query(
        name="ds_q6",
        tables=["customer_address", "customer", "store_sales", "date_dim", "item"],
        agg_class="GA",
        paper_class="Corr",
        sql="""
SELECT ca_state AS ca_state, count(*) AS cnt
FROM customer_address, customer, store_sales, date_dim, item i
WHERE ca_address_sk = c_current_addr_sk AND c_customer_sk = ss_customer_sk
  AND ss_sold_date_sk = d_date_sk AND i.i_item_sk = ss_item_sk
  AND d_year = 2001 AND d_moy = 1
  AND i.i_current_price > 1.2 * (SELECT avg(j.i_current_price) FROM item j
                                 WHERE j.i_category = i.i_category)
GROUP BY ca_state
""",
        spec=_Q6,
    )
)


def queries_by_class(paper_class: str) -> list[Query]:
    return [q for q in QUERIES.values() if q.paper_class == paper_class]
