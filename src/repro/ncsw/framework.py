"""The NCSw orchestrator.

Wires named sources to named targets, runs the whole thing inside a
fresh discrete-event simulation, and returns a
:class:`~repro.ncsw.results.RunResult`.  Device preparation (firmware
boot, graph allocation, framework warm-up) happens before the measured
window, mirroring the paper's methodology: decode time is excluded,
host<->device transfer time is included (§IV).

Targets may also be composed into *groups* — the paper's §III notes
that applications can send different input subsets to different device
groups concurrently; :meth:`NCSw.run_group` implements that split.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import FrameworkError
from repro.ncsw.results import RunResult
from repro.ncsw.sources import ImageFolder, SourceImage, WorkItem
from repro.ncsw.targets import TargetDevice
from repro.sim.core import Environment, Event

if TYPE_CHECKING:
    from repro.obs.session import ObsSession


def _batched(items: list[WorkItem], size: int):
    it = iter(items)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


class NCSw:
    """Framework facade: register sources/targets, then run.

    Pass an :class:`~repro.obs.session.ObsSession` as ``obs`` to
    record a span timeline and metrics across every run; the default
    (no session) adds zero overhead and changes no results.
    """

    def __init__(self, obs: Optional["ObsSession"] = None) -> None:
        self._sources: dict[str, SourceImage] = {}
        self._targets: dict[str, TargetDevice] = {}
        self.obs = obs

    def _new_environment(self) -> Environment:
        env = Environment()
        if self.obs is not None:
            self.obs.attach(env)
        return env

    # -- registration -----------------------------------------------------
    def add_source(self, name: str, source: SourceImage) -> None:
        """Register an input source under a unique name."""
        if name in self._sources:
            raise FrameworkError(f"duplicate source {name!r}")
        self._sources[name] = source

    def add_target(self, name: str, target: TargetDevice) -> None:
        """Register a target device under a unique name."""
        if name in self._targets:
            raise FrameworkError(f"duplicate target {name!r}")
        self._targets[name] = target

    def source(self, name: str) -> SourceImage:
        """Look up a registered source by name."""
        try:
            return self._sources[name]
        except KeyError:
            raise FrameworkError(f"unknown source {name!r}") from None

    def target(self, name: str) -> TargetDevice:
        """Look up a registered target by name."""
        try:
            return self._targets[name]
        except KeyError:
            raise FrameworkError(f"unknown target {name!r}") from None

    # -- single-target run -----------------------------------------------------
    def run(self, source_name: str, target_name: str, *,
            batch_size: int = 8,
            limit: Optional[int] = None) -> RunResult:
        """Stream a source through a target; returns the run result."""
        if batch_size < 1:
            raise FrameworkError(
                f"batch_size must be >= 1, got {batch_size}")
        source = self.source(source_name)
        target = self.target(target_name)
        decoded_before = (source.decoder.stats.seconds
                          if isinstance(source, ImageFolder) else 0.0)
        items = list(itertools.islice(iter(source), limit))
        if not items:
            raise FrameworkError(f"source {source_name!r} is empty")

        env = self._new_environment()
        obs = env.obs
        result = RunResult(source=source_name, target=target_name,
                           batch_size=batch_size)
        if isinstance(source, ImageFolder):
            # This run's own decode cost, not the source's running total.
            result.decode_seconds_excluded = (
                source.decoder.stats.seconds - decoded_before)

        def main() -> Generator[Event, None, None]:
            prep = None
            if obs is not None:
                prep = obs.tracer.begin("prepare", track="host",
                                        target=target_name)
            yield target.prepare(env)
            root = None
            if obs is not None:
                obs.tracer.end(prep)
                root = obs.tracer.begin(
                    "run", track="host", source=source_name,
                    target=target_name, batch_size=batch_size,
                    images=len(items))
            t0 = env.now
            for i, chunk in enumerate(_batched(items, batch_size)):
                span = None
                if obs is not None:
                    span = obs.tracer.begin(
                        "process_batch", track="host", batch=i,
                        size=len(chunk))
                records = yield from target.execute(chunk)
                if obs is not None:
                    obs.tracer.end(span)
                result.records.extend(records)
            result.wall_seconds = env.now - t0
            if obs is not None:
                obs.tracer.end(root)

        env.run(until=env.process(main()))
        self._fold_fault_stats(target, result)
        return result

    @staticmethod
    def _fold_fault_stats(target: TargetDevice,
                          result: RunResult) -> None:
        """Copy the target's degraded-mode accounting into the result."""
        stats = target.fault_stats()
        result.failures = list(stats.events)
        result.reassigned = stats.reassigned
        result.abandoned = stats.abandoned

    # -- grouped run ---------------------------------------------------------------
    def run_group(self, source_name: str, target_names: list[str], *,
                  batch_size: int = 8,
                  limit: Optional[int] = None) -> dict[str, RunResult]:
        """Split one source across several targets, concurrently.

        Items are dealt round-robin across the groups; all groups run
        in the same simulated timeline (sharing nothing but the
        clock), and each gets its own :class:`RunResult`.

        With more targets than items, some groups receive an empty
        split; their results are marked ``empty`` (zero wall time, no
        records) so they cannot be mistaken for measurements.
        """
        if not target_names:
            raise FrameworkError("run_group needs at least one target")
        source = self.source(source_name)
        targets = [self.target(n) for n in target_names]
        items = list(itertools.islice(iter(source), limit))
        if not items:
            raise FrameworkError(f"source {source_name!r} is empty")
        splits: list[list[WorkItem]] = [[] for _ in targets]
        for i, item in enumerate(items):
            splits[i % len(targets)].append(item)

        env = self._new_environment()
        obs = env.obs
        results = {name: RunResult(source=source_name, target=name,
                                   batch_size=batch_size)
                   for name in target_names}
        for name, work in zip(target_names, splits):
            if not work:
                results[name].empty = True

        def group_main(target: TargetDevice, work: list[WorkItem],
                       result: RunResult) -> Generator[Event, None, None]:
            track = f"host/{result.target}"
            prep = None
            if obs is not None:
                prep = obs.tracer.begin("prepare", track=track,
                                        target=result.target)
            yield target.prepare(env)
            root = None
            if obs is not None:
                obs.tracer.end(prep)
                root = obs.tracer.begin(
                    "run", track=track, source=source_name,
                    target=result.target, batch_size=batch_size,
                    images=len(work))
            t0 = env.now
            for i, chunk in enumerate(_batched(work, batch_size)):
                span = None
                if obs is not None:
                    span = obs.tracer.begin("process_batch",
                                            track=track, batch=i,
                                            size=len(chunk))
                records = yield from target.execute(chunk)
                if obs is not None:
                    obs.tracer.end(span)
                result.records.extend(records)
            result.wall_seconds = env.now - t0
            if obs is not None:
                obs.tracer.end(root)

        procs = [env.process(group_main(t, w, results[n]))
                 for t, w, n in zip(targets, splits, target_names) if w]
        env.run(until=env.all_of(procs))
        for target, work, name in zip(targets, splits, target_names):
            if work:
                self._fold_fault_stats(target, results[name])
        return results
