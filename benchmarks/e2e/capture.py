"""Pin the output digests the benchmark checks its results against.

Usage (from the repository root)::

    python3 benchmarks/e2e/capture.py [--seconds 30]

Runs every workload's passes for the default seed (0) and the
held-out seed (1) and writes ``digests.json`` beside this file: one
digest of headers, rows and plots per (artifact, options) request, plus
each artifact's seed-independent shape (header digest, row and plot
counts) for checking seeds that were not pinned.  Re-run it only when a
change is meant to alter artifact output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

#: the default seed and the held-out seed
PINNED_SEEDS = (0, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    import e2e_workloads as workloads

    results, shapes = {}, {}
    for name, factory in workloads.WORKLOADS.items():
        for seed in PINNED_SEEDS:
            workdir = ROOT / ".bench_work" / f"capture-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            checker = workloads.Checker({"results": {}, "shapes": {}})
            workload = factory(workdir, seed, args.seconds)
            try:
                workload.setup()
                for index in range(len(workload.passes)):
                    workload.run_pass(index, workloads.PhaseTimes())
                workload.verify(checker)
            finally:
                workload.close()
                shutil.rmtree(workdir, ignore_errors=True)
            for key, shape in checker.shapes.items():
                if shapes.setdefault(key, shape) != shape:
                    raise SystemExit(f"{key}: shape depends on the seed")
            results.update(checker.observed)
            print(f"{name} seed={seed}: {len(checker.observed)} results")
    out = {"pinned_seeds": list(PINNED_SEEDS), "results": results, "shapes": shapes}
    workloads.DIGESTS_PATH.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
