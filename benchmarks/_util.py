"""Shared benchmark plumbing: run an artifact once, time it, print it."""

from __future__ import annotations

from repro.artifacts.registry import ARTIFACTS
from repro.artifacts.result import ExperimentResult

__all__ = ["run_and_report"]


def run_and_report(benchmark, exp_id: str, **kwargs) -> ExperimentResult:
    """Benchmark one artifact end-to-end (single round) and print it.

    Artifacts are whole-simulation workloads, so we run exactly one
    timed round — the interesting number is the wall-clock of regenerating
    the artifact, not a microsecond distribution.
    """
    result = benchmark.pedantic(
        ARTIFACTS[exp_id].run, kwargs=kwargs, iterations=1, rounds=1
    )
    print()
    print(result.render())
    return result
