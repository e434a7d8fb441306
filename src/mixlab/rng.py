"""Deterministic stream-indexed randomness.

Every random object in the package is tied to an ``RngStream``: a
``(root_seed, stream_index)`` pair mapped to a counter-based Philox
generator.  Stream k is reachable directly, without generating streams
0..k-1, and distinct indices give statistically independent streams.

A draw is keyed one of two ways, by what its caller holds, and both give
numpy's key, the one ``SeedSequence((root_seed, stream_index))`` derives.
One stream derives it through numpy when ``RngStream.key`` is first read.
A batch of draws is keyed by a key table, the (B, 2) uint64 array
``lane_keys`` returns: building a SeedSequence costs about as much as
sampling a small graph, so ``lane_keys`` derives the keys of many streams
of one lane at once.  It runs numpy's SeedSequence algorithm (hash the
entropy words into a pool of four uint32 words, mix every pool word into
every other, then ``generate_state(2, uint64)``) in uint32 array
arithmetic, one array element per stream, and its keys are bitwise those
of numpy, so a stream draws the same numbers whichever way it is keyed.
``sampler.sample_tables`` and ``walk.refreshed_kernels`` take a key
table, so a batch builds no ``RngStream`` per environment, and
``key_table`` refuses any other value.  Nothing injects a key into a
stream: a stream is its index.

A sampled environment draws only a few hundred numbers, so a fresh
``Generator(Philox(...))`` per key would cost more than its draws.
Philox is counter-based: its output depends only on (key, counter).
``shared_generator`` therefore keeps one generator per thread and, for
each key, resets its Philox through the public ``state`` setter to the
state a fresh Philox has: that key, counter 0, an empty buffer and no
spare 32-bit word.  It then draws exactly the numbers
``Generator(Philox(key=key))`` would, so for a stream's key those of
``stream.generator()``.  The generator it returns is valid only until
that thread's next ``shared_generator`` call, so it must never leave the
call that borrowed it: draw, then drop it.  ``RngStream.generator()``
keeps returning a fresh generator, for callers that hold theirs across
other draws.
"""

from __future__ import annotations

import numbers
import reprlib
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .core import integer_in, integers_in
from .errors import BadRange, BadValue

# Experiments carve the 64-bit stream index into disjoint lanes so that
# nested loops (replicate r, environment j, ...) can never collide.
LANE = 1 << 32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(x: int) -> List[int]:
    """x as little-endian uint32 words, at least one (numpy's entropy)."""
    out = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        out.append(x & _MASK32)
    return out


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) running hash constants start * mult**i mod 2**32."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray, c: int,
          rows: int) -> np.ndarray:
    """numpy's hashmix for hash calls c..c+rows-1 on the given rows: xor
    with the constant, step it, multiply by the new one, fold 16 bits."""
    v = values ^ consts[c:c + rows]
    v *= consts[c + 1:c + rows + 1]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L)
    r -= y * np.uint32(_MIX_R)
    r ^= r >> 16
    return r


def _index(value, name: str) -> int:
    """A seed or stream index: a nonnegative int, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadValue(f"{name} must be an integer, got {reprlib.repr(value)}")
    if value < 0:
        raise BadRange(f"{name} must be nonnegative, got {value}")
    return int(value)


def lane_keys(root_seed: int, which: int, ks) -> np.ndarray:
    """(len(ks), 2) uint64 Philox keys of streams ``which * LANE + k``.

    Row i equals ``SeedSequence((root_seed, which * LANE + ks[i]))
    .generate_state(2, np.uint64)`` bitwise.  The arguments are read as
    ``RngStream.lane`` reads its own: root_seed and which are nonnegative
    integers, and ks, read by ``core.integers_in``, holds offsets in
    [0, LANE).  So only the stream index's low entropy word varies: the
    entropy is root_seed's words, then k, then which's words if which > 0.
    """
    ks = integers_in(ks, 0, LANE, "lane offsets")
    which = _index(which, "lane")
    root_seed = _index(root_seed, "root_seed")
    entropy = _words(root_seed) + [np.asarray(ks, dtype=np.uint32)]
    if which:
        entropy += _words(which)
    extra = max(len(entropy) - _POOL, 0)
    consts = _hash_consts(_INIT_A, _MULT_A,
                          _POOL + _POOL * (_POOL - 1) + _POOL * extra)
    pool = np.zeros((_POOL, len(ks)), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool = _hash(pool, consts, 0, _POOL)
    c = _POOL
    # numpy mixes pool word src into each other word in turn; src itself
    # does not change meanwhile, so the three updates run as one
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts, c, _POOL - 1))
        c += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(np.asarray(word, dtype=np.uint32), consts,
                                c, _POOL))
        c += _POOL
    state = _hash(pool, _hash_consts(_INIT_B, _MULT_B, _POOL), 0, _POOL)
    # generate_state(2, uint64) reads word pairs as little-endian uint64
    return (np.ascontiguousarray(state.T).astype("<u4").view("<u8")
            .astype(np.uint64))


@dataclass(frozen=True)
class RngStream:
    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("root_seed", "stream_index"):
            object.__setattr__(self, name, _index(getattr(self, name), name))

    @cached_property
    def key(self) -> np.ndarray:
        """numpy's Philox key for this stream, derived on first read."""
        return SeedSequence((self.root_seed, self.stream_index)
                            ).generate_state(2, np.uint64)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; calling twice replays the stream."""
        return Generator(Philox(key=self.key))

    def lane(self, which: int, k: int = 0) -> "RngStream":
        """Stream ``which * LANE + k``, for collision-free nested loops."""
        return RngStream(self.root_seed, _index(which, "lane") * LANE
                         + integer_in(k, 0, LANE, "lane offset"))


def key_table(keys) -> np.ndarray:
    """keys when it is a key table, a (B, 2) uint64 array such as
    ``lane_keys`` returns, B >= 0; BadValue for anything else."""
    if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint64
            and keys.ndim == 2 and keys.shape[1] == 2):
        got = (f"{keys.dtype} {keys.shape}" if isinstance(keys, np.ndarray)
               else type(keys).__name__)
        raise BadValue(f"keys must be a (B, 2) uint64 table, got {got}")
    return keys


class _Shared(threading.local):
    """Each thread's one re-keyable generator and the fresh Philox state
    its keys are set in: ``__init__`` runs in the importing thread at
    import, and in any other on its first read."""

    def __init__(self):
        self.generator = Generator(Philox(0))
        # the state setter copies what it reads, so one dict, re-keyed per
        # call, serves every call of this thread
        self.fresh = {"counter": [0, 0, 0, 0], "key": [0, 0]}
        self.state = {"bit_generator": "Philox", "state": self.fresh,
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_shared = _Shared()


def shared_generator(key) -> np.random.Generator:
    """A generator that draws exactly what ``Generator(Philox(key=key))``
    draws, for the two words of a Philox key: a row of a key table, or a
    pair of Python ints (a row of ``keys.tolist()``), which the state
    setter reads several times faster.

    This is the calling thread's shared generator, reset to that key's
    fresh state; it is valid until the thread's next call, so draw from it
    and drop it.
    """
    shared = _shared
    shared.fresh["key"] = key
    gen = shared.generator
    gen.bit_generator.state = shared.state
    return gen
