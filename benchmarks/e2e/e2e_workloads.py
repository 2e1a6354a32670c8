"""The end-to-end benchmark's workloads: inputs, timed passes, checks.

Workloads are driven only through public surfaces: ``repro.api.run``,
``WorkQueue`` with ``seed_queue`` and ``run_worker``, and the
``repro.service.http`` facade.  A *pass* regenerates the workload's
artifacts once into a cold store; on ``service`` it also serves them
back over HTTP, warm.

Inputs are a pure function of ``(seed, seconds)``: the seed picks the
artifact seeds and the request order, ``seconds`` scales how many passes,
cells and requests a run makes.  Program speed never changes the inputs,
so a faster commit measures exactly the same work as its parent.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

__all__ = [
    "WORKLOADS",
    "END_TO_END_UNITS",
    "PhaseTimes",
    "calibrate",
    "host_factor",
    "Checker",
    "derived_seeds",
    "request_key",
    "result_digest",
    "table_digest",
    "load_pinned",
    "DIGESTS_PATH",
]

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: the most artifact seeds one run draws
_SEED_POOL = 512

Pair = Tuple[str, Dict[str, object]]
T = TypeVar("T")


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct artifact seeds; the first is ``seed`` itself.

    A fixed-length draw sliced to ``count`` keeps the list prefix-stable:
    a longer run measures a superset of a shorter run's artifacts.
    """
    if not 1 <= count <= _SEED_POOL:
        raise ValueError(f"count must be in [1, {_SEED_POOL}], got {count}")
    rng = np.random.default_rng([int(seed), 0x5EED])
    seeds = [int(seed)]
    for value in rng.integers(1, 2**31 - 1, size=2 * _SEED_POOL):
        if int(value) not in seeds:
            seeds.append(int(value))
    return seeds[:count]


def request_key(artifact: str, options: Dict[str, object]) -> str:
    """Canonical name of one (artifact, options) request."""
    return json.dumps([artifact, options], sort_keys=True)


def _canonical(obj: object) -> bytes:
    # the JSON round trip maps tuples to lists, exactly as the HTTP
    # facade's responses do, so in-process and wire results compare
    return json.dumps(json.loads(json.dumps(obj)), sort_keys=True).encode()


def table_digest(headers: Sequence[object], rows: Sequence[object]) -> str:
    """Digest of a result's table (what the HTTP facade returns)."""
    return hashlib.sha256(_canonical({"headers": headers, "rows": rows})).hexdigest()


def result_digest(result) -> str:
    """Digest of an ``ExperimentResult``'s headers, rows and plots."""
    payload = {"headers": result.headers, "rows": result.rows, "plots": result.plots}
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _shape(result) -> Dict[str, object]:
    return {
        "headers": hashlib.sha256(_canonical(result.headers)).hexdigest(),
        "rows": len(result.rows),
        "plots": len(result.plots),
    }


def _shape_key(artifact: str, options: Dict[str, object]) -> str:
    return request_key(artifact, {k: v for k, v in options.items() if k != "seed"})


def load_pinned(path: Path = DIGESTS_PATH) -> Dict[str, Dict[str, object]]:
    """The digests pinned for the default and the held-out seed."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return {"results": dict(data["results"]), "shapes": dict(data["shapes"])}


class Checker:
    """Counts attempted and failed operations and checks outputs.

    A result whose (artifact, options) was pinned must match its digest
    exactly.  Any other seed is checked against the pinned shape of the
    same artifact and options: identical headers, row and plot counts.
    """

    def __init__(self, pinned: Dict[str, Dict[str, object]]) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: request key → digest observed this run (capture mode reads it)
        self.observed: Dict[str, str] = {}
        self.shapes: Dict[str, Dict[str, object]] = {}

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def result(self, artifact: str, options: Dict[str, object], result) -> bool:
        """Check one freshly generated result (one operation)."""
        key = request_key(artifact, options)
        digest = result_digest(result)
        self.observed[key] = digest
        self.shapes[_shape_key(artifact, options)] = _shape(result)
        expected = self.pinned["results"].get(key)
        if expected is not None:
            return self.op(digest == expected, f"digest mismatch for {key}")
        shape = self.pinned["shapes"].get(_shape_key(artifact, options))
        return self.op(
            shape is not None and shape == _shape(result),
            f"shape mismatch (or no pinned shape) for {key}",
        )


# ----------------------------------------------------------------------
#: end-to-end metric → unit, as BENCHMARK.json declares them
END_TO_END_UNITS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: HTTP read requests per nominal 30-second run; the p99 of at least
#: 1100 requests has >= 10 samples beyond it
REQUESTS_PER_RUN = 1650

#: ``service`` times its drain and its read phase in segments of this
#: many cells and requests, with a host calibration after each
CELLS_PER_SEGMENT = 180
REQUESTS_PER_SEGMENT = 275


#: the calibration kernel's median time on the reference host (a 2-core
#: x86-64 VM, CPython 3.11, numpy 1.26); times are reported at its speed
KERNEL_REF_S = 0.11


def _kernel() -> float:
    """A fixed mix of interpreter and small-array numpy work."""
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(300_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    values = np.arange(2000.0)
    for _ in range(2000):
        values = np.sqrt(values * values + 1.0)[::-1].copy()
    words = [str(i) for i in np.random.default_rng(0).permutation(20_000)]
    for _ in range(5):
        sorted(words)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of three kernel runs: how fast the host runs right now.

    On a shared host the speed of the same work drifts by tens of percent
    over minutes.  Time measured between two calibrations is scaled by
    ``KERNEL_REF_S`` over their mean, which reports it at the reference
    host's speed and cancels most of the drift.
    """
    return statistics.median(_kernel() for _ in range(3))


def host_factor(before: float, after: float) -> float:
    """Scale for time measured between two calibrations."""
    return KERNEL_REF_S / (0.5 * (before + after))


@dataclass
class PhaseTimes:
    """What the timed phases measured.

    A pass is timed in segments: one artifact, or on ``service`` a chunk
    of the queue drain or a slice of the read requests.  A host
    calibration runs before the first segment and after every segment,
    outside the timed regions.  Each segment runs inside a fresh
    ``around()`` context (the traced run's root span).
    """

    around: Callable[[], ContextManager] = nullcontext
    passes: int = 0
    #: (phase, seconds as measured) per segment; the phase is
    #: ``"compute"`` (regeneration or queue drain) or ``"read"`` (HTTP)
    segments: List[Tuple[str, float]] = field(default_factory=list)
    #: calibration before the first segment and after every segment
    kernel_s: List[float] = field(default_factory=list)
    cells: int = 0
    #: latency of every HTTP read request
    latencies: List[float] = field(default_factory=list)

    def segment(self, phase: str, work: Callable[[], T]) -> T:
        """Run and time ``work`` as one segment of ``phase``."""
        if not self.kernel_s:
            self.kernel_s.append(calibrate())
        with self.around():
            t0 = time.perf_counter()
            value = work()
            elapsed = time.perf_counter() - t0
        self.segments.append((phase, elapsed))
        self.kernel_s.append(calibrate())
        return value

    def phase_s(self, phase: str) -> float:
        """Total time of ``phase``'s segments, as measured."""
        return sum(seconds for name, seconds in self.segments if name == phase)

    def wall_s(self, raw: bool = False) -> float:
        """Mean pass time at the reference host's speed (as measured with
        ``raw``)."""
        seconds = [s for _, s in self.segments]
        if not raw:
            k = self.kernel_s
            seconds = [s * host_factor(k[i], k[i + 1]) for i, s in enumerate(seconds)]
        return sum(seconds) / self.passes

    def requests(self) -> Dict[str, float]:
        """Client-side statistics of the HTTP read phase."""
        if not self.latencies:
            return {"request_ms_p50": 0.0, "request_ms_p99": 0.0, "requests_per_s": 0.0}
        ms = 1e3 * np.asarray(self.latencies, dtype=float)
        return {
            "request_ms_p50": float(np.percentile(ms, 50)),
            "request_ms_p99": float(np.percentile(ms, 99)),
            "requests_per_s": len(self.latencies) / self.phase_s("read"),
        }


def _scaled(count: float, seconds: float, minimum: int = 1) -> int:
    """``count`` per nominal 30-second run, scaled to ``seconds``."""
    return max(minimum, round(count * seconds / 30.0))


class ApiWorkload:
    """Artifacts regenerated in-process through ``repro.api.run``.

    One JSONL store per run (the CLI's default backend).  Each pass
    regenerates and renders the workload's artifacts for one artifact
    seed, as ``python -m repro.experiments <id>`` would.
    """

    #: passes in a nominal 30-second run
    passes_per_run = 1

    def __init__(self, workdir: Path, seed: int, seconds: float) -> None:
        self.workdir = workdir
        self.seed = int(seed)
        self.passes = [
            self.pass_pairs(s)
            for s in derived_seeds(seed, _scaled(self.passes_per_run, seconds))
        ]
        self.store = None
        self._outcomes: List[Tuple[str, Dict[str, object], object]] = []

    def pass_pairs(self, seed: int) -> List[Pair]:
        raise NotImplementedError

    def pairs(self) -> List[Pair]:
        return [pair for pairs in self.passes for pair in pairs]

    def setup(self) -> None:
        from repro import api
        from repro.campaign.store import open_store

        for artifact, options in self.pairs():
            api.describe(artifact).spec(**options)
        self.store = open_store(self.workdir / "results.jsonl")

    def run_pass(self, index: int, times: PhaseTimes) -> None:
        times.passes += 1
        for artifact, options in self.passes[index]:
            result = times.segment(
                "compute", lambda: self._regenerate(artifact, options)
            )
            if not isinstance(result, RuntimeError):
                times.cells += int(result.campaign["executed"])
            self._outcomes.append((artifact, options, result))

    def _regenerate(self, artifact: str, options: Dict[str, object]):
        from repro import api

        try:
            result = api.run(artifact, store=self.store, **options)
            result.render()
        except RuntimeError as exc:  # a failed cell
            return exc
        return result

    def verify(self, checker: Checker) -> None:
        """Check every result the passes produced (outside any timing)."""
        for artifact, options, result in self._outcomes:
            if isinstance(result, RuntimeError):
                checker.op(False, f"{artifact}: {result}")
                continue
            checker.op(
                result.campaign["failed"] == 0 and result.campaign["cached"] == 0,
                f"{artifact}: store was not cold: {result.campaign}",
            )
            checker.result(artifact, options, result)
        self._outcomes.clear()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


class SnapshotWorkload(ApiWorkload):
    """``fig07`` at paper scale (N=500, NoC 0…12)."""

    name = "snapshot"
    passes_per_run = 3

    def pass_pairs(self, seed: int) -> List[Pair]:
        return [("fig07", {"seed": seed})]


class MobileWorkload(ApiWorkload):
    """``fig13`` (series regime) and a one-latency ``fig_des_latency``
    (des regime), both at scale 1.0 with short durations."""

    name = "mobile"
    passes_per_run = 4

    def pass_pairs(self, seed: int) -> List[Pair]:
        # long enough that replenishment walks outweigh the bootstrap
        return [
            ("fig13", {"seed": seed, "duration": 5.0}),
            (
                "fig_des_latency",
                {"seed": seed, "latencies": [0.01], "duration": 2.0},
            ),
        ]


# ----------------------------------------------------------------------
class ServiceWorkload:
    """A campaign of small cells through the work queue, then HTTP reads.

    Write: one multi-seed ``table1`` campaign (eight scenario cells per
    seed, a few milliseconds each, so lease, append and commit are a
    large share of every cell) is seeded into a sqlite ``WorkQueue`` and
    one in-process ``run_worker`` drains it into a ``sqlite:///`` store.
    Read: two clients in a closed loop, each opening one connection per
    request, send warm ``POST /artifacts/table1/run`` for exactly the
    campaign's seeds, mixed with ``GET /artifacts`` and
    ``GET /campaigns/queue.db/status``.  The one pass is both phases.
    """

    name = "service"
    artifact = "table1"
    scale = 0.16
    seeds_per_run = 300
    clients = 2

    def __init__(self, workdir: Path, seed: int, seconds: float) -> None:
        self.workdir = workdir
        self.seed = int(seed)
        self.seeds = derived_seeds(seed, _scaled(self.seeds_per_run, seconds))
        self.campaign: List[Pair] = [
            (self.artifact, {"scale": self.scale, "seed": s}) for s in self.seeds
        ]
        self.passes = [self.campaign]
        self.num_requests = _scaled(REQUESTS_PER_RUN, seconds, REQUESTS_PER_RUN)
        self.queue = None
        self.store = None
        self.server = None
        self._thread: Optional[threading.Thread] = None
        self._executed = 0
        self._errors: List[str] = []
        self._replies: List[Tuple[Tuple[str, str, Optional[str]], object]] = []

    def pairs(self) -> List[Pair]:
        return list(self.campaign)

    def setup(self) -> None:
        from repro import api
        from repro.campaign.store import open_store
        from repro.service.daemon import seed_queue
        from repro.service.http import make_server
        from repro.service.queue import WorkQueue

        self.queue = WorkQueue(self.workdir / "queue.db")
        store_uri = f"sqlite:///{self.workdir / 'results.db'}"
        self.store = open_store(store_uri)
        spec = api.describe(self.artifact).spec(scale=self.scale, seeds=self.seeds)
        seed_queue(spec, self.queue, self.store)
        self.server = make_server("127.0.0.1", 0, store_uri, root=self.workdir)
        self._thread = threading.Thread(
            # a short poll keeps shutdown() quick at the end of a run
            target=partial(self.server.serve_forever, poll_interval=0.05),
            name="bench-http",
            daemon=True,
        )
        self._thread.start()

    def run_pass(self, index: int, times: PhaseTimes) -> None:
        times.passes += 1
        segments = -(-len(self.queue) // CELLS_PER_SEGMENT)
        for _ in range(segments):
            times.segment("compute", lambda: self._drain(times))
        requests = self._request_list(self.num_requests)
        for start in range(0, len(requests), REQUESTS_PER_SEGMENT):
            batch = requests[start: start + REQUESTS_PER_SEGMENT]
            times.segment("read", lambda: self._read(batch, times))

    def _drain(self, times: PhaseTimes) -> None:
        from repro.campaign import runner as campaign_runner
        from repro.service import worker as service_worker

        stats = service_worker.run_worker(
            self.queue,
            self.store,
            worker_id="bench:0",
            poll=0.05,
            max_cells=CELLS_PER_SEGMENT,
            execute=campaign_runner.execute_cell,
        )
        times.cells += stats.executed
        self._executed += stats.executed

    def verify(self, checker: Checker) -> None:
        """Check the drained queue, every stored result and every reply."""
        from repro import api

        for _ in range(self._executed):
            checker.op(True, "")
        for key, error in self.queue.failures():
            checker.op(False, f"cell {key[:12]} failed: {error.splitlines()[-1]}")
        counts = self.queue.counts()
        checker.op(
            counts.get("done", 0) == len(self.queue),
            f"queue not drained: {counts}",
        )
        tables = {}
        for artifact, options in self.campaign:
            result = api.run(artifact, store=self.store, **options)
            checker.op(
                result.campaign["executed"] == 0,
                f"{artifact}: drained store missing cells",
            )
            checker.result(artifact, options, result)
            tables[request_key(artifact, options)] = table_digest(
                result.headers, result.rows
            )
        num_artifacts = len(api.list_artifacts())
        for message in self._errors:
            checker.op(False, message)
        for (method, path, key), reply in self._replies:
            if reply is None:
                checker.op(False, f"{method} {path} never answered")
                continue
            status, payload = reply
            checker.op(
                _reply_ok(status, payload, tables.get(key), num_artifacts),
                f"{method} {path} -> {status}",
            )

    def _request_list(self, count: int) -> List[Tuple[str, str, Optional[str]]]:
        """(method, path, request key or None), in send order."""
        rng = np.random.default_rng([self.seed, 0xBEEF])
        out = []
        for index in rng.integers(0, len(self.campaign) + 2, size=count):
            if index < len(self.campaign):
                artifact, options = self.campaign[index]
                out.append(
                    ("POST", f"/artifacts/{artifact}/run",
                     request_key(artifact, options))
                )
            elif index == len(self.campaign):
                out.append(("GET", "/artifacts", None))
            else:
                out.append(("GET", "/campaigns/queue.db/status", None))
        return out

    def _read(
        self, requests: List[Tuple[str, str, Optional[str]]], times: PhaseTimes
    ) -> None:
        host, port = self.server.server_address[:2]
        lanes = [requests[i:: self.clients] for i in range(self.clients)]
        replies: List[List[Tuple[int, bytes, float]]] = [[] for _ in lanes]
        errors: List[str] = []

        def client(lane: int) -> None:
            # one connection per request: the facade writes headers and
            # body in two sends, which a kept-alive connection stalls on
            # (see README, findings)
            for method, path, key in lanes[lane]:
                body = None
                headers = {"Connection": "close"}
                if key is not None:
                    body = json.dumps(json.loads(key)[1]).encode()
                    headers["Content-Type"] = "application/json"
                conn = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    t0 = time.perf_counter()
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    payload = response.read()
                    replies[lane].append(
                        (response.status, payload, time.perf_counter() - t0)
                    )
                except (OSError, http.client.HTTPException) as exc:
                    errors.append(f"client {lane}: {exc!r}")
                    return
                finally:
                    conn.close()

        threads = [
            threading.Thread(
                target=client, args=(lane,), name=f"bench-client-{lane}", daemon=True
            )
            for lane in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        self._errors.extend(errors)
        for lane, lane_replies in enumerate(replies):
            for position, request in enumerate(lanes[lane]):
                if position < len(lane_replies):
                    status, payload, seconds = lane_replies[position]
                    times.latencies.append(seconds)
                    self._replies.append((request, (status, payload)))
                else:
                    self._replies.append((request, None))

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)
        if self.queue is not None:
            self.queue.close()
        if self.store is not None:
            self.store.close()


def _reply_ok(
    status: int, payload: bytes, table: Optional[str], num_artifacts: int
) -> bool:
    """A 2xx reply whose body is what the warm store holds."""
    if not 200 <= status < 300:
        return False
    data = json.loads(payload)
    if "meta" in data:  # POST /artifacts/<id>/run
        return (
            data["meta"]["executed"] == 0
            and table_digest(data["headers"], data["rows"]) == table
        )
    if "artifacts" in data:
        return data["count"] == num_artifacts
    return data.get("kind") == "queue" and data["done"] == data["total"]


WORKLOADS = {
    w.name: w for w in (SnapshotWorkload, MobileWorkload, ServiceWorkload)
}
