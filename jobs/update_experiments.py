"""Refresh EXPERIMENTS.md's measured sections from results/*.json.

Each `<!-- TABLEXX -->` marker is followed by a fenced block that this
script (re)generates from the saved structured results; paper numbers in
the prose above each marker stay untouched.
"""
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness import tables as T  # noqa: E402

MD = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")


def _block(marker: str, text: str, content: str) -> str:
    pattern = re.compile(
        rf"(<!-- {marker} -->)(\n```[^`]*```)?", re.DOTALL
    )
    replacement = f"<!-- {marker} -->\n```\n{content}\n```"
    return pattern.sub(lambda _m: replacement, text, count=1)


def main() -> None:
    with open(MD) as f:
        text = f.read()

    def maybe(name):
        try:
            return T.load_json(name)
        except FileNotFoundError:
            return None

    suite_h = maybe("suite_tpch.json")
    suite_ds = maybe("suite_tpcds.json")

    if (d := maybe("table01_tpch_loading.json")) is not None:
        rows = [
            [f"SF-{r['sf']}", r["duckdb_s"], r["spark_parquet_s"], r["tag_s"]]
            for r in d["rows"]
        ]
        text = _block(
            "TABLE01",
            text,
            T.render_table(["SF", "duckdb load+index (s)", "parquet (s)", "TAG build (s)"], rows),
        )
    if (d := maybe("table02_tpcds_loading.json")) is not None:
        rows = [
            [f"SF-{r['sf']}", r["duckdb_s"], r["spark_parquet_s"], r["tag_s"]]
            for r in d["rows"]
        ]
        text = _block(
            "TABLE02",
            text,
            T.render_table(["SF", "duckdb load+index (s)", "parquet (s)", "TAG build (s)"], rows),
        )
    if suite_h is not None:
        text = _block("TABLE03", text, T.table_03(T.largest_sf(suite_h))[0])
        text = _block("TABLE04", text, T.table_04(T.largest_sf(suite_h))[0])
        text = _block("TABLE08", text, T.table_all_queries(suite_h, "tpch")[0])
    if suite_ds is not None:
        text = _block("TABLE05", text, T.table_05(T.largest_sf(suite_ds))[0])
        text = _block("TABLE06", text, T.table_06(T.largest_sf(suite_ds))[0])
        text = _block("TABLE11", text, T.table_all_queries(suite_ds, "tpcds")[0])
    if suite_h is not None and suite_ds is not None:
        text = _block("TABLE14", text, T.table_14(suite_h, suite_ds)[0])
    if (d := maybe("table07.json")) is not None:
        rows = [
            [bm] + [f"{d[bm][s] * 100:.1f}%" for s in ("tag", "spark_sql", "duckdb")]
            for bm in d
        ]
        text = _block(
            "TABLE07",
            text,
            T.render_table(["benchmark", "tag", "spark_sql", "duckdb"], rows),
        )
    if (d := maybe("table15.json")) is not None:
        rows = [
            [r["benchmark"], r["sf"], f"{r['arrow_bytes'] / 1e6:.1f}",
             f"{r['parquet_bytes'] / 1e6:.1f}"]
            for r in d["rows"]
        ]
        text = _block(
            "TABLE15",
            text,
            T.render_table(["benchmark", "SF", "in-memory MB", "columnar MB"], rows),
        )
    for marker, name in (("TABLE16", "table16.json"), ("TABLE17", "table17.json")):
        if (d := maybe(name)) is not None:
            res = d["results"]
            queries = sorted({r["query"] for r in res})
            rows = []
            for q in queries:
                tag = next(r for r in res if r["query"] == q and r["system"] == "tag")
                sql = next(
                    r for r in res if r["query"] == q and r["system"] == "spark_sql"
                )
                rows.append([q, sql["mean_s"], tag["mean_s"], tag.get("messages") or "-"])
            t = d["totals"]
            rows.append(
                ["TOTAL", t["spark_sql_s"], t["tag_s"],
                 f"shuffleB sql={t['spark_sql_shuffle_bytes']} tag={t['tag_shuffle_bytes']}"]
            )
            text = _block(
                marker,
                text,
                T.render_table(["query", "spark_sql_s", "TAG_s", "TAG msgs"], rows),
            )

    with open(MD, "w") as f:
        f.write(text)
    print("EXPERIMENTS.md updated")


if __name__ == "__main__":
    main()
