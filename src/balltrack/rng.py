"""Deterministic counter-based random number generation.

Streams are defined by a 64-bit key; draw ``i`` of a stream is
``mix64(key + i * GAMMA)`` where ``mix64`` is the SplitMix64 finalizer and
GAMMA is the golden-ratio increment.  Because outputs depend only on
(key, counter), a stream can be split into statistically independent child
streams by deriving new keys from labels, and any sequence index can be
regenerated without replaying earlier draws.

Everything here is plain 64-bit integer arithmetic (no platform-dependent
state), so datasets regenerate bit-identically for a given seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "mix64", "derive_key"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z = int(z) & _MASK  # int first: a numpy integer would overflow in the mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _fold(label) -> int:
    """Map a stream label (int or str) onto 64 bits (FNV-1a for strings)."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK
    h = _FNV_OFFSET
    for byte in str(label).encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def derive_key(key: int, *labels) -> int:
    """Derive a child stream key from a parent key and a label path."""
    k = int(key) & _MASK
    for label in labels:
        k = mix64(k ^ mix64((_fold(label) + _GAMMA) & _MASK))
    return k


class RandomStream:
    """Counter-based stream of deterministic pseudo-random numbers."""

    def __init__(self, key: int):
        self.key = int(key) & _MASK
        self.counter = 0

    @classmethod
    def from_seed(cls, seed: int, *labels) -> "RandomStream":
        return cls(derive_key(mix64(seed), *labels))

    def spawn(self, *labels) -> "RandomStream":
        """Independent child stream; does not consume parent state."""
        return RandomStream(derive_key(self.key, *labels))

    # ---- raw draws ---------------------------------------------------
    def _raw_block(self, n: int) -> np.ndarray:
        start = self.counter + 1
        self.counter += n
        counters = np.arange(start, start + n, dtype=np.uint64)
        words = np.uint64(self.key) + counters * np.uint64(_GAMMA)
        return _mix64_np(words)

    # ---- distributions -------------------------------------------------
    def random(self, n: int | None = None):
        """Uniform doubles in [0, 1) with 53 random bits."""
        block = self._raw_block(1 if n is None else n)
        out = np.right_shift(block, np.uint64(11), out=block).astype(np.float64)
        out *= 1.0 / (1 << 53)
        return float(out[0]) if n is None else out

    def uniform(self, low: float, high: float, n: int | None = None):
        return low + (high - low) * self.random(n)

    def normal(self, n: int | None = None, sigma: float = 1.0):
        """Gaussian draws via Box-Muller (two uniforms per pair), computed in place."""
        m = 1 if n is None else n
        pairs = (m + 1) // 2
        radius = self.random(pairs)
        np.log(np.subtract(1.0, radius, out=radius), out=radius)  # 1 - u in (0, 1]: keeps log finite
        np.sqrt(np.multiply(radius, -2.0, out=radius), out=radius)
        angle = self.random(pairs)
        angle *= 2.0 * np.pi
        z = np.empty((2, pairs))  # the cosines, then the sines
        np.cos(angle, out=z[0])
        np.sin(angle, out=z[1])
        z *= radius
        z = z.reshape(-1)[:m]
        z *= sigma
        return float(z[0]) if n is None else z
