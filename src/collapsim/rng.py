"""Seeded random streams with cheap, collision-free per-trial derivation.

Each trial reads its own stream, so its draws depend only on (master seed,
stream prefix, trial index), and serial and parallel runs agree. Block b of
trial t's stream under the prefix (p0, p1) (padded with 0) is the
Philox4x64-10 block at key = seed, counter = [t, p0, p1, b]. numpy's Philox
steps word 0 first, so block b of consecutive trials is one `random_raw`
call (`_blocks`); any counter layout is a valid split of a counter-based
generator into streams (Salmon et al., SC'11). The seed, the prefix and
every trial index lie in [0, 2^64), so word 0 never carries into the
prefix. Each thread reuses one numpy Philox, its key and counter set
through `.state`. `TrialStreams` reads the words the way numpy's Generator
reads its own, one column for all its rows at each draw. Only `run_blocks`
(each block of a run's trials) and `trial_rng` (one trial) open one, and
`_counter` checks its key there once. A block whose rows would part ways
(a Lemire retry) is redrawn by `run_blocks` one trial at a time.
"""

from __future__ import annotations

import struct
import threading

import numpy as np

from .errors import BadParameter
from .quantum import ZERO_PROB

#: trials sampled together by the batched harnesses
TRIAL_BLOCK = 4096

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _word(value, what: str) -> int:
    """value as one 64-bit counter or key word, refused rather than wrapped."""
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 1 << 64:
        raise BadParameter(f"{what} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _counter(seed: int, prefix: tuple[int, ...], first, last) -> int:
    """Trial `first`'s block-0 counter; the key and the trials first..last are checked."""
    if len(prefix) > 2:
        raise BadParameter("at most 3 stream key components are supported")
    _word(seed, "the seed")
    counter, _ = _word(first, "a trial index"), _word(last, "a trial index")
    for shift, k in zip((64, 128), prefix):
        counter += _word(k, "a stream key component") << shift
    return counter


_local = threading.local()  # each thread's one Philox


def _blocks(seed: int, counter: int, n: int) -> np.ndarray:
    """The n Philox blocks at key = seed from `counter` on, as (n, 4) words; unchecked."""
    if not hasattr(_local, "philox"):  # buffer_pos 4: no buffered words
        _local.philox = np.random.Philox(key=0)
        _local.state = {**_local.philox.state, "buffer": (0, 0, 0, 0)}
    # numpy steps the counter before making each block; the state setter reads
    # each word by index, and tuples of ints faster than numpy arrays
    count = struct.unpack("<4Q", ((counter - 1) % (1 << 256)).to_bytes(32, "little"))
    _local.state["state"] = {"counter": count, "key": (seed, 0)}
    _local.philox.state = _local.state
    return _local.philox.random_raw((n, 4))


def trial_blocks(trials: int):
    """Trial indices 0..trials-1 as consecutive uint64 arrays of TRIAL_BLOCK."""
    for start in range(0, trials, TRIAL_BLOCK):
        yield np.arange(start, min(start + TRIAL_BLOCK, trials), dtype=np.uint64)


class Diverged(Exception):
    """A Lemire draw rejected on some row of several, whose cursors would part."""


def run_blocks(seed: int, prefix: tuple[int, ...], trials: int, block):
    """block(streams, t), a NamedTuple of per-trial arrays, for each block t of
    trial_blocks(trials), the keys and the run's trial range checked once. A
    block that raises Diverged is redrawn one trial at a time, each on its own
    one-row stream, and the rows are joined: the same records."""
    counter = _counter(seed, prefix, 0, max(trials, 1) - 1)
    for t in trial_blocks(trials):
        first = counter + int(t[0])
        try:
            out = block(TrialStreams(seed, first, t.size), t)
        except Diverged:
            rows = [block(TrialStreams(seed, first + i, 1), t[i:i + 1]) for i in range(t.size)]
            out = type(rows[0])._make(map(np.concatenate, zip(*rows)))
        yield out


class TrialStreams:
    """The streams of consecutive trials, read the way numpy's Generator reads one.

    Row i is the stream at block-0 counter `counter` + i. The rows share one
    cursor, so each draw reads one column of words: a 64-bit draw the next
    word, a 32-bit draw the buffered upper half of an earlier word if there
    is one, else the lower half of the next word, buffering its upper half.
    Past the words computed so far, the next Philox block is computed for
    every row. A rejected Lemire draw raises Diverged on several rows.
    """

    def __init__(self, seed: int, counter: int, rows: int) -> None:
        """Block 0 of `rows` streams from a counter _counter has checked; a
        later block b is read at counter + (b << 192), unchecked."""
        self.seed, self.counter = seed, counter
        self.words = _blocks(seed, counter, rows)
        # the next word, and the word whose upper half is buffered (-1: none)
        self.pos, self._half_at = 0, -1

    def _next64(self) -> np.ndarray:
        if self.pos == self.words.shape[1]:
            extra = _blocks(self.seed, self.counter + (self.pos // 4 << 192), len(self.words))
            self.words = np.concatenate([self.words, extra], axis=1)
        self.pos += 1
        return self.words[:, self.pos - 1]

    def random(self) -> np.ndarray:
        """Generator.random(): the top 53 bits of each row's next word, scaled to [0, 1)."""
        return (self._next64() >> _SHIFT11) * (1.0 / 9007199254740992.0)

    def _next32(self) -> np.ndarray:
        if self._half_at < 0:
            self._half_at = self.pos
            return self._next64() & _U32
        half, self._half_at = self.words[:, self._half_at] >> _SHIFT32, -1
        return half

    def integers(self, n: int) -> np.ndarray:
        """Generator.integers(n) for 1 <= n < 2**32: Lemire's bounded method
        (Lemire, ACM TOMACS 2019) on 32-bit draws, retrying a rejected one-row draw."""
        if not 1 <= n < 2**32:
            raise BadParameter("batched integers() supports 1 <= n < 2**32")
        if n == 1:  # numpy draws nothing
            return np.zeros(len(self.words), dtype=np.int64)
        bound = np.uint64(n)
        threshold = np.uint64((2**32 - n) % n)
        m = self._next32() * bound
        while (m & _U32).min() < threshold:
            if len(self.words) > 1:
                raise Diverged
            m = self._next32() * bound
        return (m >> _SHIFT32).astype(np.int64)


def trial_rng(seed: int, *key: int) -> TrialStreams:
    """Trial t's stream under a prefix of at most two components: key = (*prefix, t).

    trial_rng(seed) is trial 0's. Keys of equal length never share a stream; a
    shorter prefix is padded with 0 (trial_rng(seed, 0, t) is trial_rng(seed, t)).
    """
    *prefix, t = key or (0,)
    return TrialStreams(seed, _counter(seed, prefix, t, t), 1)


def sample_index(rng: TrialStreams | np.random.Generator, probs: np.ndarray) -> int:
    """Draw an index from a (possibly sub-normalized) probability vector:
    sample_indices on its one cumulative table, with rng's next uniform (a
    one-row TrialStreams draws a one-element array, a numpy Generator a float)."""
    return int(sample_indices(np.ravel(rng.random()), cumulative(probs))[0])


def cumulative(probs) -> np.ndarray:
    """The cumulative table sample_indices searches, row by row for a stack.

    A mass at or below ZERO_PROB, or NaN, counts as 0, so the outcomes a
    search can draw are exactly those of ProbabilityDistribution.support().
    """
    probs = np.array(probs, dtype=float)  # a copy, zeroed below where such a mass sits
    probs[~(probs > ZERO_PROB)] = 0.0
    return probs.cumsum(axis=-1)


def sample_indices(u: np.ndarray, cums: np.ndarray, group=None) -> np.ndarray:
    """The package's one inverse-CDF rule: row i draws the first index whose
    cumulative entry exceeds u[i] times the table's total, clipped to the last.

    That is the count of entries but the last that are <= u[i] times the total
    (the last could only make it k). `cums` is one cumulative table searched by
    every row (group None), or a 2-d stack of equally long ones, row i searching
    cums[group[i]]. One table is binary-searched (searchsorted side="right"
    counts the entries <= x of a non-decreasing table); a stack counts them
    column by column, so no (rows, k) table is gathered. The two give the same index.
    """
    if group is None:
        return cums[:-1].searchsorted(u * cums[-1], side="right")
    x = u * cums[:, -1][group]
    idx = np.zeros(u.size, dtype=np.intp)
    for column in cums.T[:-1]:
        idx += column[group] <= x
    return idx
