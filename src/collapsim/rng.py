"""Seeded random streams with cheap, collision-free per-trial derivation.

Each trial reads its own stream, so its draws depend only on (master seed,
stream prefix, trial index), and serial and parallel runs agree. Block b of
trial t's stream under the prefix (p0, p1) (padded with 0) is the
Philox4x64-10 block at key = seed, counter = [t, p0, p1, b]. numpy's Philox
steps word 0 first, so block b of consecutive trials is one `random_raw`
call (`trial_words`); any counter layout is a valid split of a
counter-based generator into streams (Salmon et al., SC'11). The seed, the
prefix and every trial index lie in [0, 2^64), so word 0 never carries into
the prefix. `TrialStreams` reads the words the way numpy's Generator reads
its own; `trial_rng` is one trial's stream.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter

#: trials sampled together by the batched harnesses
TRIAL_BLOCK = 4096

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _word(value, what: str) -> int:
    """value as one 64-bit counter or key word, refused rather than wrapped."""
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 1 << 64:
        raise BadParameter(f"{what} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def trial_words(seed: int, prefix: tuple[int, ...], t, block: int = 0) -> np.ndarray:
    """Philox block `block` of the streams of the consecutive trials t.

    Row i of the (len(t), 4) result is the block at key = seed,
    counter = [t[i], *prefix (padded with 0 to two words), block].
    """
    t = np.asarray(t)
    if t.ndim != 1 or not t.size or not (np.diff(t) == 1).all():
        raise BadParameter("trials must be one or more consecutive ascending indices")
    if len(prefix) > 2:
        raise BadParameter("at most 3 stream key components are supported")
    _word(seed, "the seed")
    first, _ = (_word(index, "a trial index") for index in t[[0, -1]])  # both ends
    p0, p1 = (_word(k, "a stream key component") for k in (*prefix, 0, 0)[:2])
    counter = first + (p0 << 64) + (p1 << 128) + (_word(block, "a block index") << 192)
    # numpy steps the counter before making each block
    bit_gen = np.random.Philox(key=seed, counter=(counter - 1) % (1 << 256))
    return bit_gen.random_raw(4 * t.size).reshape(t.size, 4)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random()'s conversion: the top 53 bits of each word, scaled to [0, 1)."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def trial_blocks(trials: int):
    """Trial indices 0..trials-1 as consecutive uint64 arrays of TRIAL_BLOCK."""
    for start in range(0, trials, TRIAL_BLOCK):
        yield np.arange(start, min(start + TRIAL_BLOCK, trials), dtype=np.uint64)


class TrialStreams:
    """The streams of consecutive trials, read the way numpy's Generator reads one.

    Row i is trial t[i]'s stream. Each draw method takes the rows that draw
    (all rows by default) and advances only their cursors. A 64-bit draw
    takes the row's next word; a 32-bit draw takes the buffered upper half
    of an earlier word if there is one, else the lower half of the next
    word, buffering its upper half. When a row runs past the words computed
    so far, the next Philox block is computed for every row.
    """

    def __init__(self, seed: int, prefix: tuple[int, ...], t) -> None:
        self.seed, self.prefix, self.t = seed, tuple(prefix), t
        self.words = trial_words(seed, self.prefix, t)
        n = len(self.words)
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
        """Generator.random(): the next word of each row as a uniform."""
        return uniforms(self._next64(self._rows(rows)))

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


class TrialRng:
    """One trial's stream, one draw at a time: a single-row TrialStreams,
    `streams`, which the one-trial faces of the batched engine read directly."""

    def __init__(self, streams: TrialStreams) -> None:
        self.streams = streams

    def random(self) -> float:
        """The next uniform in [0, 1), as Generator.random() converts a word."""
        return float(self.streams.random()[0])

    def integers(self, n: int) -> int:
        """The next integer in [0, n), as Generator.integers(n) draws it."""
        return int(self.streams.integers(n)[0])


def trial_rng(seed: int, *key: int) -> TrialRng:
    """Trial t's stream under a prefix of at most two components: key = (*prefix, t).

    trial_rng(seed) is trial 0's. Keys of equal length never share a stream; a
    shorter prefix is padded with 0 (trial_rng(seed, 0, t) is trial_rng(seed, t)).
    """
    *prefix, t = key or (0,)
    return TrialRng(TrialStreams(seed, tuple(prefix), [t]))


def sample_index(rng: TrialRng, probs: np.ndarray) -> int:
    """Draw an index from a (possibly sub-normalized) probability vector:
    sample_indices on its one cumulative table, with rng's next uniform."""
    return int(sample_indices(np.array([rng.random()]), cumulative(probs))[0])


def cumulative(probs) -> np.ndarray:
    """The cumulative table sample_indices searches, row by row for a stack."""
    return np.cumsum(np.asarray(probs, dtype=float), axis=-1)


def sample_indices(u: np.ndarray, cums: np.ndarray, group=None) -> np.ndarray:
    """The package's one inverse-CDF rule: row i draws the first index whose
    cumulative entry exceeds u[i] times the table's total, clipped to the last.

    `cums` is one cumulative table searched by every row (group None), or a
    2-d stack of equally long ones, row i searching cums[group[i]]. One table
    is binary-searched (searchsorted side="right" counts the entries <= x of a
    non-decreasing table); a stack counts them column by column, so no
    (rows, k) table is gathered. The two give the same index.
    """
    if group is None:
        cums = np.asarray(cums)
        idx = np.searchsorted(cums, u * cums[-1], side="right")
    else:
        cums = np.atleast_2d(cums)
        x = u * cums[:, -1][group]
        idx = np.zeros(u.size, dtype=np.intp)
        for column in cums.T:
            idx += column[group] <= x
    return np.minimum(idx, cums.shape[-1] - 1)
