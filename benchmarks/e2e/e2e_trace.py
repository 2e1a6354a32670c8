"""Outside-in per-layer tracing for the end-to-end benchmark.

The program is not modified: :class:`LayerProbe` replaces the public
methods and functions at each layer boundary with timing wrappers for
the length of a traced run and restores them afterwards.  Accounting is
*exclusive*: :class:`SelfTimer` keeps one stack of open spans per thread
and charges each span its duration minus the time its nested wrapped
calls cover, so ``CARDProtocol.maintain`` → ``validate_all`` →
``select_contacts`` or a runner's bootstrap is never counted twice.

Counts are read after each wrapped call from the objects the call
returns or owns (``SourceSelectionResult``, ``ValidationOutcome``,
``QueryResult``, ``Simulator.events_dispatched``,
``MessageStats.snapshot()``, ``Topology.substrate_stats()``).  Per-hop
functions (``Network.transmit``, ``MessageStats.record``,
``DistanceSubstrate.refresh``) are never wrapped: they run 10⁵–10⁶ times
per cell and a wrapper there would measure itself.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SelfTimer", "LayerProbe", "PER_LAYER_METRICS"]


class _Frame:
    __slots__ = ("name", "t0", "covered", "foreign")

    def __init__(self, name: str, t0: float) -> None:
        self.name = name
        self.t0 = t0
        #: time covered by nested spans of the same thread
        self.covered = 0.0
        #: (t0, t1) of top-level spans other threads closed under a root
        self.foreign: List[Tuple[float, float]] = []


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class SelfTimer:
    """Stack-based exclusive (self) time per span name, thread-aware.

    A span's self time is its duration minus the time covered by spans
    nested inside it on the same thread.  While a *root* span is open
    (:meth:`root`), top-level spans that other threads close are charged
    against it too, by the union of their intervals, so the root's self
    time is the part of the timed phase no wrapped call covered.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Optional[_Frame] = None
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, self._clock())
        self._stack().append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        t1 = self._clock()
        stack = self._stack()
        stack.pop()
        duration = t1 - frame.t0
        covered = frame.covered + _union_length(frame.foreign)
        with self._lock:
            self.self_s[frame.name] += duration - covered
            self.calls[frame.name] += 1
            if stack:
                stack[-1].covered += duration
            elif self._root is not None and frame is not self._root:
                self._root.foreign.append((frame.t0, t1))

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield frame
        finally:
            self._close(frame)

    @contextmanager
    def root(self, name: str):
        """The outermost span of a timed phase (one at a time)."""
        frame = self._open(name)
        self._root = frame
        try:
            yield frame
        finally:
            self._root = None
            self._close(frame)

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``after(result, args, state)``
        reads counts once it returns, ``state = before(args)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(result, args, state)
            return result

        return wrapper


# ----------------------------------------------------------------------
#: (metric, unit, better) for every per-layer metric a traced run prints
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.selection.batched_s", "s", "lower"),
    ("core.selection.walk_s", "s", "lower"),
    ("core.selection.walks", "count", "lower"),
    ("core.selection.admit_ratio", "fraction", "higher"),
    ("core.selection.msgs_per_walk", "msgs", "lower"),
    ("core.maintenance.validate_s", "s", "lower"),
    ("core.maintenance.validations", "count", "lower"),
    ("core.maintenance.valid_ratio", "fraction", "higher"),
    ("core.query.s", "s", "lower"),
    ("core.query.queries", "count", "lower"),
    ("core.query.success_ratio", "fraction", "higher"),
    ("core.runner.s", "s", "lower"),
    ("core.des_runner.s", "s", "lower"),
    ("des.engine.s", "s", "lower"),
    ("des.engine.events", "count", "lower"),
    ("des.engine.us_per_event", "us", "lower"),
    ("net.substrate.build_s", "s", "lower"),
    ("net.substrate.rows_recomputed", "count", "lower"),
    ("net.substrate.full_rebuilds", "count", "lower"),
    ("net.substrate.incremental_updates", "count", "lower"),
    ("net.stats.messages", "count", "lower"),
    ("campaign.runner.execute_s", "s", "lower"),
    ("campaign.runner.s", "s", "lower"),
    ("campaign.store.append_s", "s", "lower"),
    ("campaign.store.appends", "count", "lower"),
    ("campaign.store.read_s", "s", "lower"),
    ("artifacts.reduce_s", "s", "lower"),
    ("artifacts.render_s", "s", "lower"),
    ("service.queue.lease_s", "s", "lower"),
    ("service.queue.commit_s", "s", "lower"),
    ("service.queue.leases", "count", "lower"),
    ("service.queue.empty_lease_ratio", "fraction", "lower"),
    ("service.worker.s", "s", "lower"),
    ("service.http.run_s", "s", "lower"),
    ("service.http.other_s", "s", "lower"),
    ("service.http.requests", "count", "higher"),
    ("service.http.request_ms_p50", "ms", "lower"),
    ("service.http.request_ms_p99", "ms", "lower"),
    ("service.http.requests_per_s", "req/s", "higher"),
    ("trace.overhead", "fraction", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: span name → the ``<layer>_s`` metric its self time lands in
_SPAN_METRICS = {
    "core.selection.batched": "core.selection.batched_s",
    "core.selection.walk": "core.selection.walk_s",
    "core.maintenance.validate": "core.maintenance.validate_s",
    "core.query": "core.query.s",
    "core.runner": "core.runner.s",
    "core.des_runner": "core.des_runner.s",
    "des.engine": "des.engine.s",
    "net.substrate.build": "net.substrate.build_s",
    "campaign.runner.execute": "campaign.runner.execute_s",
    "campaign.runner": "campaign.runner.s",
    "campaign.store.append": "campaign.store.append_s",
    "campaign.store.read": "campaign.store.read_s",
    "artifacts.reduce": "artifacts.reduce_s",
    "artifacts.render": "artifacts.render_s",
    "service.queue.lease": "service.queue.lease_s",
    "service.queue.commit": "service.queue.commit_s",
    "service.worker": "service.worker.s",
    "service.http.run": "service.http.run_s",
    "service.http.other": "service.http.other_s",
    "harness": "trace.unattributed_s",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


class LayerProbe:
    """Installs the per-layer wrappers and turns them into metrics.

    Use as a context manager; every patched attribute is restored on
    exit, including when the workload raises.
    """

    def __init__(self, timer: Optional[SelfTimer] = None) -> None:
        self.timer = timer if timer is not None else SelfTimer()
        self.counts: Dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._registry = None
        self._artifacts: Dict[str, object] = {}
        #: topologies whose substrate was requested during the current
        #: ``execute_cell`` — read once when the cell returns
        self._topologies: Dict[int, object] = {}

    # -- counting ------------------------------------------------------
    def _add(self, **deltas: float) -> None:
        with self._count_lock:
            for key, value in deltas.items():
                self.counts[key] += value

    def _selection(self, results) -> None:
        walks = sum(r.attempts for r in results)
        self._add(
            walks=walks,
            gained=sum(len(r.per_contact_cumulative) for r in results),
            walk_msgs=sum(r.total_msgs for r in results),
        )

    def _after_many(self, result, args, state) -> None:
        self._selection(result.values())

    def _after_one(self, result, args, state) -> None:
        self._selection([result])

    def _after_validate(self, outcomes, args, state) -> None:
        self._add(validations=len(outcomes), valid=sum(1 for o in outcomes if o.ok))

    def _after_query(self, result, args, state) -> None:
        results = result if isinstance(result, list) else [result]
        self._add(queries=len(results), query_hits=sum(1 for r in results if r.success))

    def _after_runner(self, result, args, state) -> None:
        self._add(messages=sum(args[0].network.stats.snapshot().values()))

    def _before_sim(self, args) -> int:
        return args[0].events_dispatched

    def _after_sim(self, result, args, state) -> None:
        self._add(events=args[0].events_dispatched - state)

    def _after_substrate(self, result, args, state) -> None:
        with self._count_lock:
            self._topologies[id(args[0])] = args[0]

    def _after_cell(self, result, args, state) -> None:
        with self._count_lock:
            topologies = list(self._topologies.values())
            self._topologies.clear()
        for topo in topologies:
            stats = topo.substrate_stats()
            self._add(
                rows_recomputed=stats.get("rows_recomputed", 0),
                full_rebuilds=stats.get("full_rebuilds", 0),
                incremental_updates=stats.get("incremental_updates", 0),
            )

    def _after_append(self, result, args, state) -> None:
        self._add(appends=1)

    def _after_lease(self, lease, args, state) -> None:
        self._add(leases=1, empty_leases=1 if lease is None else 0)

    def _after_request(self, result, args, state) -> None:
        self._add(requests=1)

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.timer.wrap(original, name, **hooks))

    def __enter__(self) -> "LayerProbe":
        from repro.artifacts import registry
        from repro.artifacts.result import ExperimentResult
        from repro.campaign import runner as campaign_runner
        from repro.campaign.store import CellStore, ResultStore, SqliteStore
        from repro.core.des_runner import DesRunner
        from repro.core.maintenance import ContactMaintainer
        from repro.core.query import QueryEngine
        from repro.core.runner import SnapshotRunner, TimeSeriesRunner
        from repro.core.selection import BatchedContactSelector, ContactSelector
        from repro.des.engine import Simulator
        from repro.net.topology import Topology
        from repro.service import worker as service_worker
        from repro.service.http import ArtifactService
        from repro.service.queue import WorkQueue

        try:
            p = self._patch
            p(BatchedContactSelector, "select_contacts_many",
              "core.selection.batched", after=self._after_many)
            p(ContactSelector, "select_contacts", "core.selection.walk",
              after=self._after_one)
            p(ContactMaintainer, "validate_all", "core.maintenance.validate",
              after=self._after_validate)
            p(QueryEngine, "query", "core.query", after=self._after_query)
            p(QueryEngine, "query_many", "core.query", after=self._after_query)
            p(SnapshotRunner, "run", "core.runner", after=self._after_runner)
            p(TimeSeriesRunner, "run", "core.runner", after=self._after_runner)
            p(DesRunner, "run", "core.des_runner", after=self._after_runner)
            p(Simulator, "run", "des.engine", before=self._before_sim,
              after=self._after_sim)
            p(Topology, "substrate", "net.substrate.build",
              after=self._after_substrate)
            p(campaign_runner, "execute_cell", "campaign.runner.execute",
              after=self._after_cell)
            p(campaign_runner.CampaignRunner, "run", "campaign.runner")
            for cls in (CellStore, ResultStore, SqliteStore):
                for attr in ("load", "get", "metrics", "items"):
                    if attr in vars(cls):
                        p(cls, attr, "campaign.store.read")
                if "append" in vars(cls):
                    p(cls, "append", "campaign.store.append",
                      after=self._after_append)
            p(ExperimentResult, "render", "artifacts.render")
            p(WorkQueue, "lease", "service.queue.lease", after=self._after_lease)
            p(WorkQueue, "commit", "service.queue.commit")
            p(service_worker, "run_worker", "service.worker")
            p(ArtifactService, "run", "service.http.run",
              after=self._after_request)
            for attr in ("list_artifacts", "campaign_status"):
                p(ArtifactService, attr, "service.http.other",
                  after=self._after_request)
            # reducers are fields of the frozen Artifact records: swap the
            # registry entries for copies whose reducer is wrapped
            self._registry = registry
            self._artifacts = dict(registry.ARTIFACTS)
            for key, artifact in self._artifacts.items():
                registry.ARTIFACTS[key] = dataclasses.replace(
                    artifact,
                    reduce=self.timer.wrap(artifact.reduce, "artifacts.reduce"),
                )
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self._registry is not None:
            self._registry.ARTIFACTS.update(self._artifacts)
            self._registry = None

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- reporting -----------------------------------------------------
    def metrics(self, overhead: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER_METRICS` value from this probe's spans."""
        out = {name: 0.0 for name, _, _ in PER_LAYER_METRICS}
        for span, seconds in self.timer.self_s.items():
            out[_SPAN_METRICS[span]] += seconds
        c = self.counts
        out["core.selection.walks"] = c["walks"]
        out["core.selection.admit_ratio"] = _ratio(c["gained"], c["walks"])
        out["core.selection.msgs_per_walk"] = _ratio(c["walk_msgs"], c["walks"])
        out["core.maintenance.validations"] = c["validations"]
        out["core.maintenance.valid_ratio"] = _ratio(c["valid"], c["validations"])
        out["core.query.queries"] = c["queries"]
        out["core.query.success_ratio"] = _ratio(c["query_hits"], c["queries"])
        out["des.engine.events"] = c["events"]
        out["des.engine.us_per_event"] = 1e6 * _ratio(
            out["des.engine.s"], c["events"]
        )
        out["net.substrate.rows_recomputed"] = c["rows_recomputed"]
        out["net.substrate.full_rebuilds"] = c["full_rebuilds"]
        out["net.substrate.incremental_updates"] = c["incremental_updates"]
        out["net.stats.messages"] = c["messages"]
        out["campaign.store.appends"] = c["appends"]
        out["service.queue.leases"] = c["leases"]
        out["service.queue.empty_lease_ratio"] = _ratio(c["empty_leases"], c["leases"])
        out["service.http.requests"] = c["requests"]
        out["trace.overhead"] = overhead
        return out
