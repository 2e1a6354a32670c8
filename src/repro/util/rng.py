"""Deterministic random-number stream management.

Every stochastic component of the simulator (topology placement, mobility,
contact-selection walks, workload generation) draws from its *own* named
stream derived from a single root seed.  This gives two properties the
experiments rely on:

* **Reproducibility** — the same root seed always yields the same topology,
  the same walks and the same query workload, independent of the order in
  which subsystems happen to consume randomness.
* **Variance isolation** — changing one knob (say ``NoC``) does not perturb
  the random draws of unrelated subsystems, so parameter sweeps compare like
  with like (common random numbers across sweep points).

The implementation uses :class:`numpy.random.SeedSequence` spawning, the
mechanism NumPy recommends for parallel and multi-stream work.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

__all__ = ["RngStreams", "spawn_rng", "stable_hash32"]


def stable_hash32(text: str) -> int:
    """Return a stable 32-bit integer hash of ``text``.

    Python's built-in :func:`hash` is salted per process, so it cannot be
    used to derive reproducible seeds.  We use the first four bytes of the
    SHA-256 digest instead.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def spawn_rng(seed: Optional[int], *keys: object) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for a namespaced sub-stream.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` yields OS entropy (non-reproducible).
    *keys:
        Arbitrary hashable labels (strings, ints) identifying the consumer,
        e.g. ``spawn_rng(7, "mobility", node_id)``.
    """
    if seed is None:
        return np.random.default_rng()  # card-lint: disable=CARD-D02 -- documented escape hatch: seed=None explicitly requests OS entropy
    entropy = [int(seed) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, (int, np.integer)):
            entropy.append(int(key) & 0xFFFFFFFF)
        else:
            entropy.append(stable_hash32(str(key)))
    return np.random.default_rng(np.random.SeedSequence(entropy))


class RngStreams:
    """A factory of named, cached random streams sharing one root seed.

    Examples
    --------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("topology")
    >>> b = streams.get("mobility")
    >>> a is streams.get("topology")
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._cache: Dict[str, np.random.Generator] = {}

    def get(self, *keys: object) -> np.random.Generator:
        """Return the cached generator for the stream named by ``keys``."""
        label = "/".join(str(k) for k in keys)
        gen = self._cache.get(label)
        if gen is None:
            gen = spawn_rng(self.seed, *keys)
            self._cache[label] = gen
        return gen

    def fresh(self, *keys: object) -> np.random.Generator:
        """Return a *new* (uncached) generator for ``keys``.

        Useful when a component wants to re-run from its initial stream
        state, e.g. replaying a mobility model from its start.
        """
        return spawn_rng(self.seed, *keys)

    def child(self, *keys: object) -> "RngStreams":
        """Derive a nested stream namespace.

        ``streams.child("trial", 3).get("walk")`` is stable and distinct
        from ``streams.get("walk")``.
        """
        label = "/".join(str(k) for k in keys)
        derived = (
            None
            if self.seed is None
            else (int(self.seed) ^ stable_hash32(label)) & 0x7FFFFFFF
        )
        return RngStreams(derived)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed!r}, streams={sorted(self._cache)})"
