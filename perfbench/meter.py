"""Spark jobs, stages and shuffle bytes per job group, with the UI disabled.

Code under measurement runs inside ``meter.group(name)``, which sets the
Spark job group of the calling thread. After the run, :meth:`StageMeter.usage`
maps each group to the jobs it started, the stages those jobs ran and the
stages' shuffle-write bytes. Jobs come from the public ``statusTracker``;
stage status and bytes come from the JVM ``AppStatusStore`` through py4j,
which is private Spark API: when it is missing, bytes and stage counts are
``None``, never 0.

The REST ``ShuffleMeter`` of ``repro.harness.runner`` needs the UI and
returns nothing under the benchmark's UI-off config, so it is not used.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from py4j.protocol import Py4JError

_GROUP = "spark.jobGroup.id"


@dataclass
class Usage:
    jobs: int = 0
    stages: int | None = 0
    shuffle_bytes: int | None = 0


class StageMeter:
    def __init__(self, sc):
        self.sc = sc

    @contextmanager
    def group(self, name: str):
        """Attribute the Spark jobs started inside the block to ``name``."""
        prev = self.sc.getLocalProperty(_GROUP)
        self.sc.setLocalProperty(_GROUP, name)
        try:
            yield
        finally:
            self.sc.setLocalProperty(_GROUP, prev)

    def usage(self, groups: list[str]) -> dict[str, Usage]:
        """Jobs, completed stages and shuffle-write bytes of each group.

        A stage that several jobs list (later jobs skip it) counts once,
        for the first job that lists it. Call after the measured work: it
        waits for the listener bus so the status store has every stage.
        """
        tracker = self.sc.statusTracker()
        group_of = {
            job: g for g in groups for job in tracker.getJobIdsForGroup(g)
        }
        out = {g: Usage() for g in groups}
        done = self._completed_stages()
        owned: set[int] = set()
        for job in sorted(group_of):
            u = out[group_of[job]]
            u.jobs += 1
            info = tracker.getJobInfo(job)
            for stage in info.stageIds if info else ():
                if done is not None and stage in done and stage not in owned:
                    owned.add(stage)
                    u.stages += 1
                    u.shuffle_bytes += done[stage]
        if done is None:
            for u in out.values():
                u.stages = u.shuffle_bytes = None
        return out

    def _completed_stages(self) -> dict[int, int] | None:
        """Shuffle-write bytes of every completed stage, or None when the
        private status-store API is unavailable."""
        jvm_sc = self.sc._jsc.sc()
        jvm = self.sc._jvm
        try:
            jvm_sc.listenerBus().waitUntilEmpty(60_000)
            complete = jvm.java.util.Collections.singletonList(
                jvm.org.apache.spark.status.api.v1.StageStatus.COMPLETE
            )
            store = jvm_sc.statusStore()
            it = store.stageList(
                complete, False, False,
                getattr(store, "stageList$default$4")(),  # quantiles
                getattr(store, "stageList$default$5")(),  # task statuses
            ).iterator()
            out = {}
            while it.hasNext():
                stage = it.next()
                out[stage.stageId()] = stage.shuffleWriteBytes()
            return out
        except Py4JError:
            return None
