"""Spans around the public entry points of each ``repro`` layer.

Tracing is installed from the benchmark's own files, only for a traced run:
:func:`install` replaces the names that callers look up at call time
(``repro.core.tagjoin.reduce_phase`` and friends, ``run_spec`` and
``run_reduction_only`` in ``repro.tpch.queries``, ``TAGGraph.encode`` and
``materialize``) with wrappers that open a span, and returns a function
that puts the originals back.

Each span records name, start, end, parent and query id, and runs inside its
own Spark job group (``span-<id>``) so the meter can attribute jobs, stages
and shuffle bytes to it. A layer's self time is its span duration minus the
durations of its child spans.

Spark evaluates lazily, so a wrapper must force the work that belongs to its
layer inside its span: ``reduce_phase`` returns lazily checkpointed tid
sets (plain mode), and ``node_frame``/``finalize`` return unevaluated plans.
The forcing costs an extra job per call and a checkpoint of intermediate
frames; ``trace.overhead`` (traced pass over plain pass) accounts for it.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import reduce

from meter import StageMeter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: str | None
    start: float
    end: float = 0.0
    count: int | None = None  # e.g. the GenSteps label count

    @property
    def group(self) -> str:
        return f"span-{self.id}"


class Tracer:
    """Keeps spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self, meter: StageMeter):
        self.meter = meter
        self.spans: list[Span] = []
        self.query: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1] if self._open else None,
            query=self.query,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._open.append(s.id)
        try:
            with self.meter.group(s.group):
                yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f, indent=1)


def _force_tids(out: dict):
    """One job that computes every reduced tid set of ``reduce_phase``."""
    reduce(lambda a, b: a.union(b), out.values()).count()
    return out


def _force_frame(df):
    return df.localCheckpoint(eager=True)


def install(tracer: Tracer):
    """Wrap the layer entry points; returns the function that unwraps them."""
    import repro.core.tagjoin as tagjoin
    import repro.tpch.queries as queries
    from repro.core.tag import TAGGraph

    saved = []

    def wrap(owner, attr, name, force=None, count=None, kind=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.count = count(out)
                return force(out) if force is not None else out

        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, kind(traced) if kind else traced)

    wrap(TAGGraph, "encode", "core.tag.encode", kind=staticmethod)
    wrap(TAGGraph, "materialize", "core.tag.materialize")
    wrap(tagjoin, "build_plan", "core.plan.build_plan")
    wrap(tagjoin, "gensteps", "core.plan.gensteps", count=len)
    wrap(tagjoin, "reduce_phase", "core.reduction.reduce_phase", _force_tids)
    wrap(tagjoin, "node_frame", "core.collection.node_frame", _force_frame)
    wrap(tagjoin, "finalize", "core.tagjoin.finalize", _force_frame)
    wrap(queries, "run_spec", "core.tagjoin.run_spec")
    wrap(queries, "run_reduction_only", "core.tagjoin.run_reduction_only")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
