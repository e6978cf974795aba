"""Counter-based Brownian increment streams.

Each realization owns an independent Philox stream keyed by (seed, realization index),
so the k-th increment row is a pure function of (seed, realization, k) — independent of
chunking, thread count, or how many labels consume the increments.  All labels of one
realization share the same increment vector per step; that is what makes the transported
fields of a single realization consistent with one underlying Wiener path.

A stream need not be drawn in one piece: :meth:`BrownianDriver.streams` gives each
realization a generator that carries on from one block of steps to the next, so a
caller can draw the horizon a block at a time into one reused buffer and get the bits
of a single draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["BrownianDriver", "auxiliary_rng"]

_AUX_SALT = 0x9E3779B97F4A7C15  # distinguishes auxiliary draws from path increments


class _Key(ISeedSequence):
    """Hands Philox its key as is: the state ``Philox(key=key)`` starts in.

    Philox asks its seed sequence for two uint64 words and uses them as the key, with a
    zero counter.  Passing ``key=`` instead builds (and drops) an entropy-seeded
    sequence, which costs more than the generator itself.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self._key


@dataclass(frozen=True)
class BrownianDriver:
    """Deterministic per-realization Gaussian increment source.

    Increments are drawn for a chunk of realizations at once
    (:meth:`increments_block`), scaled to variance ``dt`` per component.
    """

    seed: int
    dt: float
    n: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def streams(self, realization_indices) -> list:
        """One generator per realization, each in the state ``Philox(key=[seed, r])`` starts in.

        Handed to :meth:`increments_block`, each one carries on where the previous
        block stopped.
        """
        seed = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        return [
            np.random.Generator(np.random.Philox(_Key(np.array([seed, r], dtype=np.uint64))))
            for r in np.asarray(realization_indices, dtype=np.int64).reshape(-1)
        ]

    def increments_block(
        self, realization_indices, num_steps: int, streams=None, out=None
    ) -> np.ndarray:
        """(R, num_steps, n) stacked increments for a chunk of realizations.

        Without ``streams`` each row is the start of that realization's stream.  With
        ``streams`` (from :meth:`streams`, one per index, in order) each row is the
        next ``num_steps`` steps of it, so blocks drawn in turn concatenate bit for
        bit to one draw of their total length.  ``out``: a C-contiguous (R, num_steps,
        n) array to fill and return, such as the front of a reused buffer; a new array
        without it.
        """
        idx = np.asarray(realization_indices, dtype=np.int64).reshape(-1)
        if streams is None:
            streams = self.streams(idx)
        elif len(streams) != idx.size:
            raise ValueError(f"{len(streams)} streams given for {idx.size} realizations")
        shape = (idx.size, int(num_steps), self.n)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        for rows, gen in zip(out, streams):
            gen.standard_normal(out=rows)
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
