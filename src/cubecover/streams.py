"""Reproducible random streams on top of the counter-based Philox generator.

A stream is fully identified by ``(master_seed, stream_id)``; the pair is the
Philox key, so equal pairs give bit-identical draws on every platform and
under any thread count.  Independent substreams are derived either by mixing
a new ``stream_id`` (:meth:`SeededStream.child`) or by jumping the Philox
counter in 2^128 blocks (:meth:`SeededStream.jumped`), which is what chunked
Monte Carlo loops use so that results do not depend on the worker count.
:meth:`SeededStream.generator_at` instead starts part-way into the stream
itself, so one long draw can be split into chunks drawn in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeededStream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit ints
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class SeededStream:
    """Handle for one reproducible random substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) <= _MASK64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")
            object.__setattr__(self, name, int(v))

    def bit_generator(self) -> np.random.Philox:
        return np.random.Philox(key=np.array([self.master_seed, self.stream_id], dtype=np.uint64))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(self.bit_generator())

    def generator_at(self, offset: int) -> np.random.Generator:
        """Generator whose next double is double number ``offset`` of :meth:`generator`.

        Philox yields four 64-bit words per counter block and a double takes
        one word, so this advances the counter by ``offset // 4`` blocks; an
        ``offset`` that is not a multiple of 4 would start mid-block and is
        rejected.  Chunks of one long draw can thus be drawn independently,
        in any order, with the same bytes as the serial draw.
        """
        if offset < 0 or offset % 4:
            raise ValueError(f"offset must be a nonnegative multiple of 4, got {offset}")
        return np.random.Generator(self.bit_generator().advance(offset // 4))

    def child(self, index: int) -> "SeededStream":
        """Derive an independent stream; distinct indices give distinct ids."""
        if index < 0:
            raise ValueError(f"child index must be >= 0, got {index}")
        return SeededStream(self.master_seed, _mix64(self.stream_id + _GOLDEN * (index + 1)))

    def jumped(self, jumps: int) -> np.random.Generator:
        """Generator offset by ``jumps`` non-overlapping 2^128-draw blocks."""
        if jumps < 0:
            raise ValueError(f"jumps must be >= 0, got {jumps}")
        return np.random.Generator(self.bit_generator().jumped(jumps))
