"""Low-level sampling primitives and numerically safe log-space helpers.

Everything downstream draws randomness through this module so that a run is
reproducible from a single integer seed. Sub-streams are derived by value
(see RngStream.derive), which keeps trials and agents order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby

import numpy as np

# Probabilities are floored before any log so that log-weights stay finite.
PROB_FLOOR = 1e-300

# Where normalize_log_rows clamps log-weights, relative to their row's
# maximum, before exp. Any c with exp(c) < PROB_FLOOR (c < ln 1e-300 =
# -690.78) gives the same output: an entry below c comes out of exp below
# PROB_FLOOR and is floored to PROB_FLOOR, and exp(c) is floored to the
# same value. With c above ln(smallest normal float) = -708.40,
# exp(c) = 9.9e-305 is a normal float, so exp never takes numpy's slow path
# for results that underflow to zero or to subnormals.
EXP_CLAMP = -700.0

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence mixing constants (32-bit words, pool size 4)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _splitmix64(x):
    # splitmix64 finalizer; bijective on 64-bit ints. x is a Python int or
    # a uint64 array of 1 or more dims, whose arithmetic wraps silently; the
    # masks keep Python ints to 64 bits and leave array words as they are.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    # the running multiplier of SeedSequence's hash after each of n calls
    out = [init]
    for _ in range(n):
        out.append((out[-1] * mult) & _MASK32)
    return out


# hashmix is called 16 times while the seed fills and stirs the pool and
# four times per 32-bit word of the stream id; generate_state(4, uint64)
# hashes eight pool words
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 24)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value, call: int):
    value = (value ^ _HASH_A[call]) * _HASH_A[call + 1] & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def seed_words(seed: int, streams) -> np.ndarray:
    """PCG64 seed words of RngStream(seed, s).generator() for every stream id s.

    A vectorized port of numpy's SeedSequence(entropy=seed,
    spawn_key=(s,)).generate_state(4, np.uint64). The assembled entropy is
    the seed's two 32-bit halves padded with zeros to the pool size, then
    the stream id's one word (s < 2**32) or two words. The first part is
    the same for every stream: numpy mixes it once, in the pool of
    SeedSequence(seed) after 16 hash calls, and only the stream words are
    mixed here, per element. The result has the shape of streams plus a
    trailing axis of four uint64 words; open_generator turns a row into
    the stream's generator.
    """
    # SeedSequence rejects a negative seed, which RngStream reads mod 2**64
    pool = np.random.SeedSequence(seed & _MASK64).pool.tolist()
    call = 16
    # uint64 lanes hold 32-bit words; every product is masked back to 32
    # bits. 1-d lanes keep numpy in array arithmetic, which wraps silently.
    shape = np.shape(streams)
    flat = np.asarray(streams, dtype=np.uint64).reshape(-1)
    low, high = flat & np.uint64(_MASK32), flat >> np.uint64(32)
    mixer = [_mix(v, _hashmix(low, call + dst)) for dst, v in enumerate(pool)]
    # the high word exists only for stream ids of 2**32 and above
    for dst, m in enumerate(mixer):
        np.copyto(m, _mix(m, _hashmix(high, call + _POOL_SIZE + dst)), where=high != 0)
    out = np.zeros((flat.size, _POOL_SIZE), dtype=np.uint64)
    for i in range(2 * _POOL_SIZE):
        value = (mixer[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        value ^= value >> _XSHIFT
        # pairs of little-endian 32-bit words form each 64-bit word
        value <<= np.uint64(32 * (i % 2))
        out[:, i // 2] |= value
    return out.reshape(shape + (_POOL_SIZE,))


@cache
def _seed_words_type() -> type:
    # numpy.random loads on first use; subclassing its ISeedSequence here
    # rather than at import keeps it out of start-ups that never draw
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence whose state is already hashed (see seed_words)."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint64):
            # PCG64 asks for exactly these: four uint64 words
            return self.words

    return SeedWords


def open_generator(words: np.ndarray) -> np.random.Generator:
    """The generator of a stream from its four seed words (see seed_words).

    Equal to RngStream(seed, s).generator() when words is seed_words(seed, s),
    without hashing a SeedSequence.
    """
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


@dataclass(frozen=True)
class RngStream:
    """Value-style handle for a reproducible randomness source.

    Identical (seed, stream) pairs open generators that produce identical
    draw sequences. derive() folds extra ids into the stream id, so
    s.derive(a, b) == s.derive(a).derive(b) and derived streams never
    depend on how much randomness their siblings consumed.
    """

    seed: int
    stream: int = 0

    def derive(self, *ids: int) -> "RngStream":
        s = self.stream
        for v in ids:
            s = _splitmix64(s ^ _splitmix64(v & _MASK64))
        return RngStream(self.seed, s)

    def seed_table(self, *ids) -> np.ndarray:
        """Seed words of self.derive(*ids) for id arrays that broadcast
        against each other: their broadcast shape plus a trailing axis of
        four uint64 words, each row of which open_generator turns into the
        derived stream's generator (see seed_words)."""
        s = np.full(1, self.stream & _MASK64, dtype=np.uint64)
        for v in ids:
            # each fold broadcasts only as far as the ids so far reach
            s = _splitmix64(s ^ _splitmix64(np.array(v, ndmin=1).astype(np.uint64)))
        return seed_words(self.seed, s.reshape(np.broadcast_shapes(*map(np.shape, ids))))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed & _MASK64, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def _log_gamma_draws(shape: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """log of Gamma(shape) draws, elementwise, safe for tiny shapes.

    Uses G = G' * U^(1/a) with G' ~ Gamma(a + 1), so a draw with a = 0.001
    comes back as a finite log instead of underflowing to zero.
    """
    boost = gen.standard_gamma(shape + 1.0)
    u = gen.random(shape.shape)
    logg = np.log(np.maximum(boost, PROB_FLOOR, out=boost), out=boost)
    tail = np.log1p(np.negative(u, out=u), out=u)
    tail /= shape
    logg += tail
    return logg


def sample_dirichlet_rows(alpha: np.ndarray, shapes, gen: np.random.Generator) -> np.ndarray:
    """Draw one Dirichlet vector per row of every block of a flat vector of
    positive concentrations; returns the draws as one flat vector in the
    same layout.

    alpha is a float64 vector holding the blocks one after another, each
    row-major in the (rows, width) shape that shapes lists for it. All
    gamma variates come from one standard_gamma call and one random call
    over alpha in order. Entries are strictly positive even when alpha is
    far below one, where naive normalized-gamma sampling returns zeros.
    Every concentration must be finite and at least PROB_FLOOR, unchecked:
    Hyperparams bounds each prior concentration so, and counts are finite.
    """
    return normalize_log_rows(_log_gamma_draws(alpha, gen), shapes)


def sample_categorical_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one index per row, given each row's cumulative
    sums of nonnegative weights and one uniform per row."""
    # the sums never decrease along a row, so the entries at or below the
    # threshold form a prefix and the first entry above it sits at their
    # count; a row with none above it (all weights zero, or a total so
    # small that u * total rounds up to it) takes the last index
    above = cum > u[:, None] * cum[:, -1:]
    above[:, -1] = True
    return above.argmax(axis=1)


@cache
def _row_layout(shapes: tuple) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Each row's offset and width in a flat vector of row-major (rows,
    width) blocks, and (start, stop, width) of each run of one width; a
    simulation meets few layouts, so the cache stays small, and the check
    below runs once per layout."""
    if not shapes or min(map(min, shapes)) < 1:
        raise ValueError("a block layout needs at least one block, and every block a row and a column")
    widths = np.repeat([width for _, width in shapes], [rows for rows, _ in shapes])
    starts = np.cumsum(widths) - widths
    starts.flags.writeable = widths.flags.writeable = False
    runs, stop = [], 0
    for width, run in groupby(shapes, key=lambda shape: shape[1]):
        start, stop = stop, stop + width * sum(rows for rows, _ in run)
        runs.append((start, stop, width))
    return starts, widths, tuple(runs)


def normalize_log_rows(values: np.ndarray, shapes=None) -> np.ndarray:
    """Turn every row of unnormalized log-weights into a probability
    vector, in place; returns values. values holds row-major (rows, width)
    blocks one after another in the shapes that shapes lists, or without
    shapes one 2-d matrix; every step but the row sums runs once over all.

    Stable for spreads up to hundreds of thousands of nats: entries far
    below their row's maximum are clamped at EXP_CLAMP and floored at
    PROB_FLOOR instead of poisoning the sum. values must fill the layout
    and every row have a finite maximum, unchecked here: install_parameters
    floors every log the game sums, and Dirichlet log-gammas are finite.
    """
    # contiguous, so that the flat view below writes through to values
    values = np.ascontiguousarray(values, dtype=float)
    if shapes is None:
        shapes = (values.shape,)
    starts, widths, runs = _row_layout(tuple(map(tuple, shapes)))
    flat = values.reshape(-1)
    # max is exact in any order
    m = np.maximum.reduceat(flat, starts)
    flat -= np.repeat(m, widths)
    np.maximum(flat, EXP_CLAMP, out=flat)
    np.exp(flat, out=flat)
    np.maximum(flat, PROB_FLOOR, out=flat)
    # a row sum over a run of equal widths is numpy's pairwise sum of the
    # row, which np.add.reduceat, summing in sequence, does not match
    for start, stop, width in runs:
        rows = flat[start:stop].reshape(-1, width)
        rows /= rows.sum(axis=1, keepdims=True)
    return values
