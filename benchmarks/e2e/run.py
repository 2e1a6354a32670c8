"""End-to-end CARD benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload snapshot --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's first pass with the outside-in layer probe installed and
prints the per-layer metrics instead.  The last line of stdout is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files live under ``.bench_work/`` in the repository and are removed on
exit.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

#: set-up repetitions per run; setup_s is the median of their
#: calibrated times
SETUP_SAMPLES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set the workload up, print 'ready', tear down, exit",
    )
    return parser.parse_args(argv)


def _workdir(tag: str) -> Path:
    path = ROOT / ".bench_work" / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run's scratch is still there
        pass


def _probe_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to the end of the
    workload's set-up (imports, spec build, queue seeding, server start)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def _setup_seconds(args, workloads) -> Tuple[float, float]:
    """Set-up time over :data:`SETUP_SAMPLES` fresh interpreters, each
    scaled by the calibrations on either side of it: the median of the
    scaled times and, as measured, the median of the raw ones."""
    kernels = [workloads.calibrate()]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(_probe_seconds(args))
        kernels.append(workloads.calibrate())
    scaled = [
        seconds * workloads.host_factor(kernels[i], kernels[i + 1])
        for i, seconds in enumerate(raw)
    ]
    return statistics.median(scaled), statistics.median(raw)


def _probe(args, workloads) -> int:
    workdir = _workdir(f"probe-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.seconds)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        _remove(workdir)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    import repro.api  # noqa: F401 - fails fast without the program
    import e2e_workloads as workloads
    from e2e_trace import PER_LAYER_METRICS, LayerProbe

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    if args.setup_probe:
        return _probe(args, workloads)

    factory = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker(workloads.load_pinned())
    times = workloads.PhaseTimes()
    workdir = _workdir(f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            # the traced run measures the first pass; the same pass
            # untraced, in its own store, gives the tracing overhead
            plain_times = workloads.PhaseTimes()
            (workdir / "plain").mkdir()
            plain = factory(workdir / "plain", args.seed, args.seconds)
            plain.setup()
            try:
                plain.run_pass(0, plain_times)
                plain.verify(checker)
            finally:
                plain.close()
        (workdir / "run").mkdir()
        workload = factory(workdir / "run", args.seed, args.seconds)
        workload.setup()
        try:
            if args.trace:
                with LayerProbe() as probe:
                    times.around = partial(probe.timer.root, "harness")
                    workload.run_pass(0, times)
            else:
                for index in range(len(workload.passes)):
                    workload.run_pass(index, times)
            workload.verify(checker)
        finally:
            workload.close()

        if args.trace:
            overhead = times.wall_s() / plain_times.wall_s() - 1.0
            metrics = probe.metrics(overhead)
            metrics.update(
                {f"service.http.{k}": v for k, v in times.requests().items()}
            )
            units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
        else:
            setup, setup_raw = _setup_seconds(args, workloads)
            metrics = {
                "wall_s": times.wall_s(),
                "setup_s": setup,
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                ),
            }
            units = dict(workloads.END_TO_END_UNITS)
            print(
                f"as measured: wall_s {times.wall_s(raw=True):.4g}, "
                f"setup_s {setup_raw:.4g}, compute {times.phase_s('compute'):.4g} s, "
                f"read {times.phase_s('read'):.4g} s; "
                f"calibration kernel {statistics.median(times.kernel_s):.4g} s "
                f"(reference {workloads.KERNEL_REF_S} s)"
            )
    finally:
        _remove(workdir)

    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    summary = (
        f"{args.workload} seed={args.seed}: {times.passes} passes, "
        f"{times.cells} cells"
    )
    if times.latencies:
        stats = ", ".join(f"{k} {v:.4g}" for k, v in times.requests().items())
        summary += f", {len(times.latencies)} HTTP requests ({stats})"
    print(summary)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
