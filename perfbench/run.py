#!/usr/bin/env python3
"""TAG-join benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload tpch-joins --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run starts Spark, sets the workload's seeded dataset up (generate and
cache the tables, TAG encode + materialize, DuckDB registration) and then
runs, one query at a time:

1. one TAG pass, untimed: the warm-up;
2. plain TAG passes until ``--seconds`` have elapsed (at least two);
3. ``SQL_WARMUP_S`` seconds of Spark SQL passes, untimed, then Spark SQL
   passes over the same cached tables until ``--seconds`` have elapsed
   again (at least ``SQL_PASSES``).

Each execution is timed up to the end of its ``collect()``; its rows are
then diffed against DuckDB on the identical SQL. With ``--trace 1``,
step 2 is one ``run_tag(stats=True)`` pass, one plain pass and one traced
pass (see ``spans.py``), step 3 is skipped, and the per-layer metrics are
printed instead of the end-to-end ones. The last
line of standard output is the JSON result; the process exits 1 if any
execution raised or mismatched.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import duckdb
import pandas as pd
import pyspark

from meter import StageMeter
from spans import Tracer, install
from workloads import WORKLOADS, table_seed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
#: Spark SQL keeps getting faster for its first dozen passes in a process
#: (JIT), so it is warmed for a while and then timed for many passes.
SQL_WARMUP_S = 4.0
SQL_PASSES = 7
SHUFFLE_PARTITIONS = 64
MB = 1e6
_T0 = time.perf_counter()


def note(msg: str) -> None:
    """Progress on stderr, with the seconds since the process started."""
    print(f"perfbench: +{time.perf_counter() - _T0:.1f}s {msg}", file=sys.stderr)


def driver_memory() -> str:
    """Half of MemTotal, clamped to 2-8 GiB (the tier-1 derivation)."""
    with open("/proc/meminfo") as f:
        kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2097152))}g"


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


class Tally:
    """Query executions attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"perfbench: {what} failed", file=sys.stderr)
            traceback.print_exc()
            return None


class Bench:
    def __init__(self, workload: str, seed: int, spark, tracer=None):
        from repro import oracle, synth_data
        from repro.tpch.queries import QUERIES

        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.spark = spark
        self.meter = StageMeter(spark.sparkContext)
        self.tracer = tracer
        self.tally = Tally()
        self.tables = synth_data.TPCH_TABLES
        self.queries = [QUERIES[n] for n in self.wl.queries]
        self._canon = oracle._canon
        self._expected: dict[str, pd.DataFrame] = {}

    def setup(self) -> dict[str, float]:
        """Generate and cache the tables, encode them, register them in
        DuckDB and as Spark views; returns the seconds of each part."""
        from repro.core.tag import TAGGraph

        t0 = time.perf_counter()
        self.data = {
            name: gen(self.spark, sf=self.wl.sf, seed=table_seed(self.seed, name))
            .cache()
            for name, gen in self.tables.items()
        }
        for df in self.data.values():
            df.count()
        t1 = time.perf_counter()
        self.graph = TAGGraph.encode(self.spark, self.data)
        self.graph_stats = self.graph.materialize()
        t2 = time.perf_counter()
        self.duck = duckdb.connect()
        for name, df in self.data.items():
            self.duck.register(name, df.toPandas())
            df.createOrReplaceTempView(name)
        t3 = time.perf_counter()
        parts = {"datagen": t1 - t0, "encode": t2 - t1, "duckdb": t3 - t2}
        note(", ".join(f"{k} {v:.2f}s" for k, v in parts.items()))
        return parts

    def _diff(self, q, got: pd.DataFrame) -> None:
        """Raise unless ``got`` equals DuckDB's result for ``q.sql``."""
        if q.name not in self._expected:
            self._expected[q.name] = self.duck.execute(q.sql).fetchdf()
        expected = self._expected[q.name]
        if set(got.columns) != set(expected.columns):
            raise AssertionError(
                f"columns {sorted(got.columns)} vs {sorted(expected.columns)}"
            )
        pd.testing.assert_frame_equal(
            self._canon(got), self._canon(expected), check_dtype=False
        )

    def execute(self, q, how: str, span=None):
        """Run ``q`` once, collect it, and diff the rows against DuckDB.

        ``how`` is ``tag``, ``stats`` (``run_tag(stats=True)``) or ``sql``.
        Only the run and the collect are timed, inside ``span`` if given.
        Returns (seconds, RunStats or None).
        """
        t0 = time.perf_counter()
        with span or nullcontext():
            if how == "sql":
                df, rs = self.spark.sql(q.sql), None
            else:
                df, rs = q.run_tag(self.graph, stats=how == "stats")
            rows = df.collect()
        dt = time.perf_counter() - t0
        self._diff(q, pd.DataFrame.from_records(rows, columns=df.columns))
        return dt, rs

    def passes(self, how: str, group: str, seconds: float = 0, least: int = 1):
        """Passes over the workload until ``seconds`` have elapsed and at
        least ``least`` passes ran, under Spark job group ``group``.

        ``how`` is as for :meth:`execute`, or ``traced``: a plain TAG run
        under a root span per query. Returns per-query seconds and RunStats.
        """
        times: dict[str, list[float]] = {q.name: [] for q in self.queries}
        stats = []
        mode = "tag" if how == "traced" else how
        done = 0
        start = time.perf_counter()
        with self.meter.group(group):
            while done < least or time.perf_counter() - start < seconds:
                done += 1
                for q in self.queries:
                    span = None
                    if how == "traced":
                        self.tracer.query = q.name
                        span = self.tracer.span("queries.query")
                    r = self.tally.run(
                        f"{q.name} {group} pass {done}", self.execute,
                        q, mode, span,
                    )
                    if r is not None:
                        times[q.name].append(r[0])
                        stats.append(r[1])
        return times, stats


def pass_totals(times: dict[str, list[float]]) -> list[float]:
    """Per-pass sums over queries (passes where every query succeeded)."""
    return [sum(ts) for ts in zip(*times.values())]


def end_to_end(bench: Bench, spark_s: float, setup, config: dict) -> dict:
    # Each phase is warmed right before it is timed: the first Spark SQL
    # pass after TAG passes is 40-60% slower than the one before them.
    # Warm-up results are diffed like all others.
    bench.passes("tag", "tag-warmup")
    tag, _ = bench.passes("tag", "tag-plain", config["seconds"], least=2)
    config["tag_passes_s"] = totals = pass_totals(tag)
    note(f"{len(totals)} timed tag passes done")
    bench.passes("sql", "sql-warmup", SQL_WARMUP_S, least=2)
    sql, _ = bench.passes("sql", "spark-sql", config["seconds"], SQL_PASSES)
    config["sql_passes_s"] = sql_totals = pass_totals(sql)
    use = bench.meter.usage(["tag-plain", "spark-sql"])
    note(f"{len(sql_totals)} spark sql passes done")

    def mb(u, n):
        return None if u.shuffle_bytes is None else u.shuffle_bytes / n / MB

    return {
        "tag_s": (statistics.median(totals), "s"),
        "tag_query_max_s": (
            max(statistics.median(ts) for ts in tag.values()), "s"
        ),
        "spark_sql_s": (statistics.median(sql_totals), "s"),
        "tag_shuffle_mb": (mb(use["tag-plain"], len(totals)), "MB"),
        "spark_sql_shuffle_mb": (mb(use["spark-sql"], len(sql_totals)), "MB"),
        "setup_s": (spark_s + sum(setup.values()), "s"),
    }


#: Span names whose self times make up each per-layer time.
LAYER_SPANS = {
    "core.plan.s": ("core.plan.build_plan", "core.plan.gensteps"),
    "core.reduction.s": ("core.reduction.reduce_phase",),
    "core.collection.s": ("core.collection.node_frame",),
    "core.tagjoin.s": ("core.tagjoin.run_spec", "core.tagjoin.run_reduction_only"),
    "core.tagjoin.finalize_s": ("core.tagjoin.finalize",),
    "queries.glue_s": ("queries.query",),
}
REDUCE = "core.reduction.reduce_phase"
COLLECT = "core.collection.node_frame"


def per_layer(bench: Bench, spark_s: float, setup, rss) -> dict:
    tracer = bench.tracer
    bench.passes("tag", "tag-warmup")
    stats_times, stats = bench.passes("stats", "tag-stats")
    plain, _ = bench.passes("tag", "tag-plain")
    plain_s = sum(pass_totals(plain))
    stats_s = sum(pass_totals(stats_times))
    uninstall = install(tracer)
    try:
        bench.passes("traced", "tag-traced")
    finally:
        uninstall()
    tracer.write(str(WORK / f"trace-{bench.wl.name}-seed{bench.seed}.json"))

    own = tracer.self_times()
    queried = [s for s in tracer.spans if s.query != "setup"]
    use = bench.meter.usage(
        ["tag-plain", "tag-stats"] + [s.group for s in queried]
    )

    def spans(name):
        return [s for s in queried if s.name == name]

    def total(field, name):
        vals = [getattr(use[s.group], field) for s in spans(name)]
        return None if None in vals else sum(vals)

    def mb(name):
        b = total("shuffle_bytes", name)
        return None if b is None else b / MB

    layers = {
        k: sum(own[s.id] for s in queried if s.name in names)
        for k, names in LAYER_SPANS.items()
    }
    traced_s = sum(s.end - s.start for s in spans("queries.query"))
    if abs(sum(layers.values()) - traced_s) > 1e-6 * max(1.0, traced_s):
        raise AssertionError(
            f"layer self times sum to {sum(layers.values())}, "
            f"traced pass took {traced_s}"
        )
    encode = sum(own[s.id] for s in tracer.spans if s.query == "setup")
    traces = [t for rs in stats for t in rs.traces]
    supersteps = sum(t.phase != "collect" for t in traces)
    return {
        "harness.peak_rss_mb": (rss.peak_bytes / MB, "MB"),
        "setup.spark_s": (spark_s, "s"),
        "setup.datagen_s": (setup["datagen"], "s"),
        "setup.duckdb_s": (setup["duckdb"], "s"),
        "core.tag.encode_s": (encode, "s"),
        "core.tag.edges": (bench.graph_stats.total_edges, "count"),
        "core.tag.tuple_vertices": (
            bench.graph_stats.total_tuple_vertices, "count"
        ),
        "core.plan.s": (layers["core.plan.s"], "s"),
        "core.plan.labels": (
            sum(s.count for s in spans("core.plan.gensteps")), "count"
        ),
        "core.reduction.s": (layers["core.reduction.s"], "s"),
        "core.reduction.supersteps": (supersteps, "count"),
        "core.reduction.ms_per_superstep": (
            1000 * layers["core.reduction.s"] / supersteps if supersteps else None,
            "ms",
        ),
        "core.reduction.jobs": (total("jobs", REDUCE), "count"),
        "core.reduction.stages": (total("stages", REDUCE), "count"),
        "core.reduction.messages": (
            sum(t.messages for t in traces if t.phase != "collect"), "count"
        ),
        "core.reduction.shuffle_mb": (mb(REDUCE), "MB"),
        "core.reduction.reduced_rows": (
            sum(sum(rs.reduced_sizes.values()) for rs in stats), "count"
        ),
        "core.collection.s": (layers["core.collection.s"], "s"),
        "core.collection.rows": (
            sum(t.messages for t in traces if t.phase == "collect"), "count"
        ),
        "core.collection.stages": (total("stages", COLLECT), "count"),
        "core.collection.shuffle_mb": (mb(COLLECT), "MB"),
        "core.tagjoin.s": (layers["core.tagjoin.s"], "s"),
        "core.tagjoin.finalize_s": (layers["core.tagjoin.finalize_s"], "s"),
        "core.tagjoin.run_spec_calls": (
            len(spans("core.tagjoin.run_spec"))
            + len(spans("core.tagjoin.run_reduction_only")),
            "count",
        ),
        "queries.glue_s": (layers["queries.glue_s"], "s"),
        "stats.tag_s": (stats_s, "s"),
        "stats.overhead": (stats_s / plain_s, "ratio"),
        "stats.messages": (sum(rs.total_messages() for rs in stats), "count"),
        "stats.extra_jobs": (
            use["tag-stats"].jobs - use["tag-plain"].jobs, "count"
        ),
        "trace.tag_s": (traced_s, "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    }


def start_spark(cores: int, memory: str):
    """The benchmark's fixed Spark config (the test conftest's session
    config); every file Spark and the JVM write goes under ``WORK``."""
    tmp = WORK / "tmp"
    for d in (tmp, WORK / "spark-local"):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts  # spark-submit's own JVM
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {memory} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        # Keep every job and stage in the status store for the meter.
        "--conf spark.ui.retainedJobs=1000000 "
        "--conf spark.ui.retainedStages=1000000 "
        f"--driver-java-options '{jvm_opts}' "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    gateway = pyspark.SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
        pyspark.SparkContext._gateway = None


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.harness.memory import PeakRssSampler

    # One core is left to the driver JVM (scheduler, JIT, GC) and to this
    # client. With a task thread on every core of a 4-vCPU VM, Spark SQL
    # medians of five runs of the same code spread 21% instead of 11%.
    cpus = len(os.sched_getaffinity(0))
    cores = max(1, min(3, cpus - 1))
    memory = driver_memory()
    config = {
        "workload": args.workload, "seed": args.seed,
        "sf": WORKLOADS[args.workload].sf,
        "queries": list(WORKLOADS[args.workload].queries),
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "master": f"local[{cores}]",
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "auto_broadcast_join_threshold": -1, "driver_memory": memory,
        "spark": pyspark.__version__, "duckdb": duckdb.__version__,
        "git_sha": git_sha(), "sql_warmup_s": SQL_WARMUP_S,
    }
    with PeakRssSampler(interval=0.5) as rss:
        t0 = time.perf_counter()
        spark = start_spark(cores, memory)
        spark_s = time.perf_counter() - t0
        note(f"spark session: {spark_s:.2f}s")
        try:
            tracer = Tracer(StageMeter(spark.sparkContext)) if args.trace else None
            bench = Bench(args.workload, args.seed, spark, tracer)
            if tracer:
                tracer.query = "setup"
            uninstall = install(tracer) if tracer else lambda: None
            try:
                setup = bench.setup()
            finally:
                uninstall()
            if tracer:
                metrics = per_layer(bench, spark_s, setup, rss)
            else:
                metrics = end_to_end(bench, spark_s, setup, config)
        finally:
            stop_spark(spark)
    print(json.dumps({"config": config}))
    ok = bench.tally.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
