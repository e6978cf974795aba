"""Counter-based Brownian increment streams.

Each realization owns an independent Philox stream keyed by (seed, realization index),
so the k-th increment row is a pure function of (seed, realization, k) — independent of
chunking, thread count, or how many labels consume the increments.  All labels of one
realization share the same increment vector per step; that is what makes the transported
fields of a single realization consistent with one underlying Wiener path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["BrownianDriver", "auxiliary_rng"]

_AUX_SALT = 0x9E3779B97F4A7C15  # distinguishes auxiliary draws from path increments


@dataclass(frozen=True)
class BrownianDriver:
    """Deterministic per-realization Gaussian increment source.

    ``increments(k)`` returns the first k rows of the realization's stream, scaled
    to variance ``dt`` per component; asking for more steps extends the same stream.
    """

    seed: int
    dt: float
    n: int
    realization_index: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def increments(self, num_steps: int, realization_index: int | None = None) -> np.ndarray:
        """(num_steps, n) array of N(0, dt) increments for one realization."""
        r = self.realization_index if realization_index is None else int(realization_index)
        return self.increments_block([r], num_steps)[0]

    def increments_block(self, realization_indices, num_steps: int) -> np.ndarray:
        """(R, num_steps, n) stacked increments for a chunk of realizations.

        One generator serves the block, re-keyed for each realization r to the state
        a fresh ``Philox(key=[seed, r])`` starts in: key (seed, r), zero counter.
        """
        idx = np.asarray(realization_indices, dtype=np.int64)
        out = np.empty((idx.size, int(num_steps), self.n))
        seed = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bit_gen)
        fresh = bit_gen.state
        for row, r in enumerate(idx):
            fresh["state"]["key"] = np.array([seed, np.uint64(r)], dtype=np.uint64)
            bit_gen.state = fresh
            gen.standard_normal(out=out[row])
        return np.multiply(out, np.sqrt(self.dt), out=out)


def auxiliary_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic generator for non-path randomness (bootstrap resampling etc.).

    The tag is digested with sha256 (process-invariant), unlike builtin ``hash``.
    """
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    tag_hash = np.uint64(int.from_bytes(digest[:8], "little"))
    key = np.array(
        [np.uint64((seed ^ _AUX_SALT) & 0xFFFFFFFFFFFFFFFF), tag_hash], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))
