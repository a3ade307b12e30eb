"""Seeded random streams with cheap, collision-free per-trial derivation.

One master seed drives an experiment. Each trial gets its own generator,
derived as a keyed counter-mode function of (master seed, trial index), so
serial and parallel runs of the same experiment produce identical records.

Trial t's stream is Philox4x64-10 keyed by the seed, with the stream key in
counter words 1..3; numpy increments word 0 before its first block, so the
trial's first four 64-bit words are philox(key=seed, counter=[1, *key]).
`trial_words` computes those blocks for many trials at once and
`TrialStreams` consumes them exactly as numpy's Generator would, so batched
harnesses reproduce the scalar path bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter

_MASK64 = (1 << 64) - 1

#: trials sampled together by the batched harnesses
TRIAL_BLOCK = 4096

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one trial (or any sub-stream) of a seeded experiment.

    `key` may carry up to three non-negative indices (e.g. setting, trial).
    Streams with distinct keys never overlap: the key occupies the upper
    words of a Philox counter, leaving 2^64 draws per stream.
    """
    if len(key) > 3:
        raise BadParameter("at most 3 stream key components are supported")
    counter = [0, 0, 0, 0]
    for slot, component in enumerate(key, start=1):
        if component < 0:
            raise BadParameter("stream key components must be non-negative")
        counter[slot] = int(component) & _MASK64
    # an explicit uint64 array: numpy would read a list holding a value
    # >= 2**63 as float64, merging neighbouring keys into one stream
    bit_gen = np.random.Philox(
        key=int(seed) & _MASK64, counter=np.array(counter, dtype=np.uint64)
    )
    return np.random.Generator(bit_gen)


def sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Draw an index from a (possibly sub-normalized) probability vector."""
    cum = cumulative(probs)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(cum) - 1)


# --- batched streams ---------------------------------------------------------


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of multiplier * x, from 32-bit partial products."""
    m_hi, m_lo = np.uint64(multiplier >> 32), np.uint64(multiplier & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _U32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    mid = (lo_lo >> _SHIFT32) + (hi_lo & _U32) + (lo_hi & _U32)
    hi = m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, (mid << _SHIFT32) | (lo_lo & _U32)


def trial_words(seed: int, prefix: tuple[int, ...], t, block: int = 0) -> np.ndarray:
    """Philox block `block` of every trial stream trial_rng(seed, *prefix, t).

    Returns an array of shape (len(t), 4): row i equals
    trial_rng(seed, *prefix, t[i]).bit_generator.random_raw(4 * (block + 1))[-4:].
    """
    prefix = tuple(int(k) for k in prefix)
    if len(prefix) > 2:
        raise BadParameter("at most 3 stream key components are supported")
    if any(k < 0 for k in prefix):
        raise BadParameter("stream key components must be non-negative")
    t = np.asarray(t, dtype=np.uint64)
    n = t.size
    columns = [np.uint64(1 + block), *(np.uint64(k & _MASK64) for k in prefix), t]
    columns += [np.uint64(0)] * (4 - len(columns))
    c0, c1, c2, c3 = (np.broadcast_to(c, (n,)).astype(np.uint64) for c in columns)
    key0, key1 = int(seed) & _MASK64, 0
    with np.errstate(over="ignore"):
        for round_index in range(_PHILOX_ROUNDS):
            if round_index:
                key0 = (key0 + _PHILOX_W[0]) & _MASK64
                key1 = (key1 + _PHILOX_W[1]) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = (
                hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ np.uint64(key1), lo0
            )
    return np.stack([c0, c1, c2, c3], axis=1)


def trial_blocks(trials: int):
    """Trial indices 0..trials-1 as consecutive uint64 arrays of TRIAL_BLOCK."""
    for start in range(0, trials, TRIAL_BLOCK):
        yield np.arange(start, min(start + TRIAL_BLOCK, trials), dtype=np.uint64)


class TrialStreams:
    """The streams of many trials, read the way numpy's Generator reads one.

    Row i is the stream trial_rng(seed, *prefix, t[i]). Each draw method
    takes the rows that draw (all rows by default) and advances only their
    cursors, so a row reads exactly the words the scalar path reads. A
    64-bit draw takes the row's next word; a 32-bit draw takes the buffered
    upper half of an earlier word if there is one, else the lower half of
    the next word, buffering its upper half. When a row runs past the
    words computed so far, the next Philox block is computed for every row.
    """

    def __init__(self, seed: int, prefix: tuple[int, ...], t) -> None:
        self.seed = seed
        self.prefix = tuple(prefix)
        self.t = np.asarray(t, dtype=np.uint64)
        self.words = trial_words(seed, self.prefix, self.t)
        n = self.t.size
        self.pos = np.zeros(n, dtype=np.intp)
        self.has_half = np.zeros(n, dtype=bool)
        self.half = np.zeros(n, dtype=np.uint64)

    def _rows(self, rows) -> np.ndarray:
        if rows is None:
            return np.arange(self.pos.size)
        return np.asarray(rows, dtype=np.intp)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        pos = self.pos[rows]
        width = self.words.shape[1]
        if rows.size and pos.max() >= width:
            extra = trial_words(self.seed, self.prefix, self.t, width // 4)
            self.words = np.concatenate([self.words, extra], axis=1)
        self.pos[rows] = pos + 1
        return self.words[rows, pos]

    def random(self, rows=None) -> np.ndarray:
        """Generator.random(): the top 53 bits of a word, scaled to [0, 1)."""
        rows = self._rows(rows)
        return (self._next64(rows) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.size, dtype=np.uint64)
        buffered = self.has_half[rows]
        out[buffered] = self.half[rows[buffered]]
        self.has_half[rows[buffered]] = False
        fresh = rows[~buffered]
        if fresh.size:
            word = self._next64(fresh)
            out[~buffered] = word & _U32
            self.half[fresh] = word >> _SHIFT32
            self.has_half[fresh] = True
        return out

    def integers(self, n: int, rows=None) -> np.ndarray:
        """Generator.integers(n) for 1 <= n < 2**32: Lemire's bounded method
        (Lemire, ACM TOMACS 2019) on 32-bit draws, retrying rejected rows."""
        rows = self._rows(rows)
        if not 1 <= n < 2**32:
            raise BadParameter("batched integers() supports 1 <= n < 2**32")
        if n == 1:
            return np.zeros(rows.size, dtype=np.int64)  # numpy draws nothing
        bound = np.uint64(n)
        threshold = np.uint64((2**32 - n) % n)
        out = np.empty(rows.size, dtype=np.uint64)
        pending = np.arange(rows.size)
        while pending.size:
            m = self._next32(rows[pending]) * bound
            out[pending] = m >> _SHIFT32
            pending = pending[(m & _U32) < threshold]
        return out.astype(np.int64)


def cumulative(probs) -> np.ndarray:
    """The cumulative table sample_index searches, row by row for a stack."""
    return np.cumsum(np.asarray(probs, dtype=float), axis=-1)


def sample_indices(u: np.ndarray, cums: np.ndarray, group=None) -> np.ndarray:
    """sample_index for many rows: row i searches cums[group[i]] with uniform u[i].

    `cums` is one cumulative table, or a 2-d stack of equally long ones.
    Counting the entries <= x is searchsorted(side="right") on a
    non-decreasing table, so every index equals the scalar draw's.
    """
    cums = np.atleast_2d(cums)
    table = cums[np.zeros(u.size, dtype=np.intp) if group is None else group]
    idx = (table <= (u * table[:, -1])[:, None]).sum(axis=1)
    return np.minimum(idx, cums.shape[1] - 1)
