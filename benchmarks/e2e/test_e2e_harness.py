"""Self-tests of the end-to-end benchmark harness (fast; no paper-scale runs)."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_workloads as wl  # noqa: E402
from e2e_trace import (  # noqa: E402
    PER_LAYER_METRICS,
    LayerProbe,
    SelfTimer,
    _union_length,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- exclusive accounting -----------------------------------------------
def test_self_time_of_nested_calls_is_exclusive():
    clock = FakeClock()
    timer = SelfTimer(clock=clock)
    inner = timer.wrap(lambda: clock.advance(2.0), "inner")

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(3.0)

    outer = timer.wrap(outer_body, "outer")
    with timer.root("harness"):
        clock.advance(0.5)
        outer()
    assert timer.self_s["outer"] == pytest.approx(4.0)
    assert timer.self_s["inner"] == pytest.approx(4.0)
    assert timer.self_s["harness"] == pytest.approx(0.5)
    assert timer.calls["inner"] == 2


def test_recursive_same_layer_calls_are_not_double_counted():
    clock = FakeClock()
    timer = SelfTimer(clock=clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = timer.wrap(body, "layer")
    wrapped(2)
    assert timer.self_s["layer"] == pytest.approx(3.0)


def test_root_self_time_excludes_spans_of_other_threads():
    clock = FakeClock()
    timer = SelfTimer(clock=clock)
    with timer.root("harness"):
        clock.advance(1.0)

        def request():
            with timer.span("handler"):
                clock.advance(2.0)

        thread = threading.Thread(target=request)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.advance(1.0)
    assert timer.self_s["handler"] == pytest.approx(2.0)
    assert timer.self_s["harness"] == pytest.approx(2.0)


def test_concurrent_spans_are_charged_to_the_root_by_their_union():
    assert _union_length([(2.0, 5.0), (1.0, 4.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert _union_length([(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)
    assert _union_length([]) == 0.0


def test_segment_time_is_scaled_to_the_reference_host():
    times = wl.PhaseTimes(
        passes=2,
        segments=[("compute", 2.0), ("read", 1.0), ("compute", 4.0)],
        kernel_s=[wl.KERNEL_REF_S] * 3 + [3 * wl.KERNEL_REF_S],
    )
    # the last segment ran on a host half as fast as the reference
    # (the mean of its bracketing calibrations is twice the reference)
    assert times.wall_s() == pytest.approx(2.5)
    assert times.wall_s(raw=True) == pytest.approx(3.5)
    assert times.phase_s("compute") == pytest.approx(6.0)


def test_segments_are_bracketed_by_calibrations(monkeypatch):
    kernels = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(wl, "calibrate", lambda: next(kernels))
    times = wl.PhaseTimes()
    assert times.segment("compute", lambda: "a") == "a"
    times.segment("read", lambda: None)
    assert times.kernel_s == [1.0, 2.0, 3.0]
    assert [phase for phase, _ in times.segments] == ["compute", "read"]


# -- output checks --------------------------------------------------------
class _Result:
    def __init__(self, rows):
        self.headers = ["a", "b"]
        self.rows = rows
        self.plots = ["plot"]


def test_corrupted_digest_counts_as_a_failure():
    good = _Result([[1, 2.5]])
    key = wl.request_key("fake", {"seed": 0})
    pinned = {"results": {key: wl.result_digest(good)}, "shapes": {}}
    checker = wl.Checker(pinned)
    assert checker.result("fake", {"seed": 0}, good)
    corrupted = wl.Checker({"results": {key: "0" * 64}, "shapes": {}})
    assert not corrupted.result("fake", {"seed": 0}, good)
    assert (corrupted.attempted, corrupted.failed) == (1, 1)
    changed = wl.Checker(pinned)
    assert not changed.result("fake", {"seed": 0}, _Result([[1, 2.6]]))
    assert changed.failed == 1


def test_unpinned_seed_is_checked_against_the_pinned_shape():
    capture = wl.Checker({"results": {}, "shapes": {}})
    capture.result("fake", {"seed": 0}, _Result([[1, 2]]))
    checker = wl.Checker({"results": {}, "shapes": capture.shapes})
    assert checker.result("fake", {"seed": 9}, _Result([[3, 4]]))
    assert not checker.result("fake", {"seed": 9}, _Result([[3, 4], [5, 6]]))
    assert (checker.attempted, checker.failed) == (2, 1)


# -- seeded inputs --------------------------------------------------------
def test_same_seed_same_inputs_and_different_seed_different_inputs(tmp_path):
    assert wl.derived_seeds(3, 5) == wl.derived_seeds(3, 5)
    assert wl.derived_seeds(3, 5)[0] == 3
    assert wl.derived_seeds(3, 2) == wl.derived_seeds(3, 5)[:2]
    assert len(set(wl.derived_seeds(3, 40))) == 40
    assert set(wl.derived_seeds(3, 5)).isdisjoint(wl.derived_seeds(4, 5)[1:])
    for factory in wl.WORKLOADS.values():
        a = factory(tmp_path, 0, 30.0)
        assert a.pairs() == factory(tmp_path, 0, 30.0).pairs()
        assert a.pairs() != factory(tmp_path, 1, 30.0).pairs()
    service = wl.WORKLOADS["service"]
    assert service(tmp_path, 0, 30.0)._request_list(50) == (
        service(tmp_path, 0, 30.0)._request_list(50)
    )
    assert service(tmp_path, 0, 30.0)._request_list(50) != (
        service(tmp_path, 1, 30.0)._request_list(50)
    )


def test_same_seed_reproduces_the_pinned_digest():
    from repro import api

    pinned = wl.load_pinned()
    options = {"scale": 0.16, "seed": 0}
    first = wl.result_digest(api.run("table1", **options))
    assert first == wl.result_digest(api.run("table1", **options))
    assert first == pinned["results"][wl.request_key("table1", options)]
    other = wl.result_digest(api.run("table1", scale=0.16, seed=1))
    assert other != first


# -- the layer probe ------------------------------------------------------
def test_layer_probe_restores_the_program_and_reports_every_metric():
    from repro import api
    from repro.artifacts import registry
    from repro.campaign import runner
    from repro.core.selection import BatchedContactSelector, ContactSelector

    originals = (
        runner.execute_cell,
        BatchedContactSelector.select_contacts_many,
        ContactSelector.select_contacts,
        registry.ARTIFACTS["fig07"],
    )
    with LayerProbe() as probe:
        with probe.timer.root("harness"):
            api.run("fig07", scale=0.1, num_sources=8, noc_values=(0, 2))
    assert (
        runner.execute_cell,
        BatchedContactSelector.select_contacts_many,
        ContactSelector.select_contacts,
        registry.ARTIFACTS["fig07"],
    ) == originals
    assert "select_contacts_many" not in vars(ContactSelector)
    metrics = probe.metrics(overhead=0.0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER_METRICS}
    assert metrics["core.selection.walks"] > 0
    assert metrics["campaign.runner.execute_s"] > 0
    assert metrics["artifacts.reduce_s"] > 0
    assert metrics["net.stats.messages"] > 0
    assert metrics["net.substrate.full_rebuilds"] > 0
    assert metrics["trace.unattributed_s"] >= 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("_s"))
