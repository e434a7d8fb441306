"""Deterministic stream-indexed randomness.

Every random object in the package is tied to an ``RngStream``: a
``(root_seed, stream_index)`` pair mapped to a counter-based Philox
generator.  Stream k is reachable directly, without generating streams
0..k-1, and distinct indices give statistically independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRange

# Experiments carve the 64-bit stream index into disjoint lanes so that
# nested loops (replicate r, environment j, ...) can never collide.
LANE = 1 << 32


@dataclass(frozen=True)
class RngStream:
    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.root_seed < 0 or self.stream_index < 0:
            raise BadRange("seed and stream index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; calling twice replays the stream."""
        seq = np.random.SeedSequence((self.root_seed, self.stream_index))
        return np.random.Generator(np.random.Philox(seq))

    def offset(self, k: int) -> "RngStream":
        """Stream ``stream_index + k`` under the same root seed."""
        return RngStream(self.root_seed, self.stream_index + k)

    def lane(self, which: int, k: int = 0) -> "RngStream":
        """Stream ``which * LANE + k``, for collision-free nested loops."""
        if not 0 <= k < LANE:
            raise BadRange(f"lane offset {k} outside [0, 2**32)")
        return RngStream(self.root_seed, which * LANE + k)
