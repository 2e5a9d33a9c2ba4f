"""Paper-table jobs: ``python jobs/run.py <table>...`` or ``... all``.

Each table prints rows shaped like the paper's table and saves its
structured JSON under results/. ``table08`` (Tables 8/9/10) and ``table11``
(Tables 11/12/13) time the full suites and save ``suite_tpch.json`` /
``suite_tpcds.json``; Tables 3-6 and 14 only re-derive from those saved
suites and start no Spark session. ``all`` runs every table in dependency
order, then refreshes the measured blocks in EXPERIMENTS.md.

The driver heap is half of the host's memory, clamped to 2-8g;
``SPARK_DRIVER_MEM`` overrides it.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def _driver_mem() -> str:
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.showConsoleProgress=false "
    "pyspark-shell",
)

from repro.harness import tables as T  # noqa: E402


def _spark(fn, *args):
    spark = T.job_session("repro-jobs")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        return fn(spark, *args)
    finally:
        spark.stop()


def _suite(spark, benchmark: str):
    return T.table_all_queries(T.run_suite(spark, benchmark), benchmark)


def _largest(suite_file: str) -> list[dict]:
    return T.largest_sf(T.load_json(suite_file))


# name -> (results file, producer of (text, data)), in `all`'s run order:
# each suite runs before the tables derived from it.
TABLES = {
    "table01": ("table01_tpch_loading.json", lambda: _spark(T.table_loading, "tpch")),
    "table02": (
        "table02_tpcds_loading.json",
        lambda: _spark(T.table_loading, "tpcds"),
    ),
    "table15": ("table15.json", lambda: _spark(T.table_15)),
    "table08": ("suite_tpch.json", lambda: _spark(_suite, "tpch")),
    "table03": ("table03.json", lambda: T.table_03(_largest("suite_tpch.json"))),
    "table04": ("table04.json", lambda: T.table_04(_largest("suite_tpch.json"))),
    "table11": ("suite_tpcds.json", lambda: _spark(_suite, "tpcds")),
    "table05": ("table05.json", lambda: T.table_05(_largest("suite_tpcds.json"))),
    "table06": ("table06.json", lambda: T.table_06(_largest("suite_tpcds.json"))),
    "table14": (
        "table14.json",
        lambda: T.table_14(
            T.load_json("suite_tpch.json"), T.load_json("suite_tpcds.json")
        ),
    ),
    "table07": ("table07.json", lambda: _spark(T.table_07)),
    "table16": ("table16.json", lambda: _spark(T.table_distributed, "tpch")),
    "table17": ("table17.json", lambda: _spark(T.table_distributed, "tpcds")),
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tables", nargs="+", choices=[*TABLES, "all"])
    names = parser.parse_args(argv).tables
    run_all = "all" in names
    for name in TABLES if run_all else names:
        print(f"\n===== {name} =====")
        results_file, produce = TABLES[name]
        text, data = produce()
        print(text)
        print("saved:", T.save_json(data, results_file))
    if run_all:
        import update_experiments

        update_experiments.main()


if __name__ == "__main__":
    main()
