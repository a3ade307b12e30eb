"""Noise-like vs heavy-tailed inter-event interval statistics.

Exponential intervals stand in for memoryless random noise; Pareto
intervals for heavy-tailed (Levy-like) behavior. Observed sequences are
classified by the Hill tail-exponent estimate over the top order
statistics: small exponents mean heavy tails.

An interval file holds one repr(x) per line. format_intervals finds repr's
shortest round-trip digits for a whole block of values in numpy, exactly
(after Steele & White, PLDI 1990, with Dekker's error-free product), for
values in [1e-3, 1e15], and calls repr for the rest: the bytes are the same
either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BadParameter, DegenerateSequence

#: classification thresholds on the Hill estimate (overridable per call)
LEVY_THRESHOLD = 2.5
NOISE_THRESHOLD = 3.5

#: interval files are formatted FORMAT_CHUNK values at a time, so no step
#: holds one Python object per interval of the file; a block's digits take
#: about twenty numpy temporaries of FORMAT_CHUNK float64, each under glibc's
#: 128 KiB mmap threshold, and three Python ints per value
FORMAT_CHUNK = 15000


@dataclass(frozen=True, eq=False)
class EventSequence:
    """Positive, finite inter-event intervals in abstract time units."""

    intervals: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.intervals, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise BadParameter("intervals must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise BadParameter("all intervals must be positive and finite")
        values.setflags(write=False)
        object.__setattr__(self, "intervals", values)

    def __len__(self) -> int:
        return self.intervals.size


@dataclass(frozen=True)
class PatternReport:
    tail_exponent: float
    classification: str  # noise_like | levy_like | indeterminate
    sample_size: int


def generate_sequence(
    kind: str,
    length: int,
    rng: np.random.Generator,
    rate: float = 1.0,
    alpha: float = 1.5,
    xmin: float = 1.0,
) -> EventSequence:
    """i.i.d. intervals from the named family, deterministic given the seed.

    kind "exponential" uses `rate`; kind "pareto" uses `alpha` and `xmin`.
    """
    if length < 100:
        raise BadParameter("length must be at least 100")
    if kind == "exponential":
        if not rate > 0:  # NaN is not positive
            raise BadParameter("rate must be positive")
        draws = rng.exponential(scale=1.0 / rate, size=length)
    elif kind == "pareto":
        if not (alpha > 0 and xmin > 0):
            raise BadParameter("alpha and xmin must be positive")
        draws = rng.random(length)  # xmin * (1 - u) ** (-1 / alpha), in place
        with np.errstate(over="ignore"):  # overflow is refused below
            np.power(np.subtract(1.0, draws, out=draws), -1.0 / alpha, out=draws)
            draws *= xmin
    else:
        raise BadParameter(f"unknown sequence kind {kind!r}")
    if not np.all(np.isfinite(draws)):
        raise BadParameter(f"{kind} intervals overflow a float at these parameters")
    # an exact 0.0 draw has measure zero but would break positivity
    return EventSequence(np.maximum(draws, np.finfo(float).tiny, out=draws))


def tail_exponent(sequence: EventSequence, k: int) -> float:
    """Hill estimate over the k largest intervals.

    With descending order statistics X_(1) >= ... >= X_(k) >= X_(k+1), the
    estimate is k / sum_i log(X_(i) / X_(k+1)). Scale-free by construction.
    """
    n = len(sequence)
    if not 10 <= k <= n // 2:
        raise BadParameter(f"k={k} outside [10, {n // 2}] for length {n}")
    n_low = n - k - 1
    top = np.sort(np.partition(sequence.intervals, n_low)[n_low:])
    threshold, tail = top[0], top[1:]
    if np.all(tail == tail[0]):
        raise DegenerateSequence("top-k intervals are all equal")
    log_excess = np.log(tail) - np.log(threshold)
    total = float(log_excess.sum())
    if total <= 0:
        raise DegenerateSequence("tail carries no positive log-excess")
    return k / total


def classify(
    sequence: EventSequence,
    levy_threshold: float = LEVY_THRESHOLD,
    noise_threshold: float = NOISE_THRESHOLD,
) -> PatternReport:
    """Label a sequence by its Hill estimate at k = length/100 (min 10).

    Below `levy_threshold` is levy_like, above `noise_threshold` is
    noise_like, between the two is indeterminate.
    """
    n = len(sequence)
    if n < 1000:
        raise BadParameter(f"classification needs at least 1000 intervals, got {n}")
    if not 0 < levy_threshold <= noise_threshold:
        raise BadParameter("thresholds must satisfy 0 < levy <= noise")
    estimate = tail_exponent(sequence, max(n // 100, 10))
    if estimate < levy_threshold:
        label = "levy_like"
    elif estimate > noise_threshold:
        label = "noise_like"
    else:
        label = "indeterminate"
    return PatternReport(
        tail_exponent=float(estimate), classification=label, sample_size=n
    )


def read_intervals(pieces: Iterable[str]) -> EventSequence:
    """Parse a plain interval file from pieces of its text: Python float literals
    split by any whitespace. All pieces are read, so a reading error beats a bad token."""
    parts = [np.empty(0)]
    tail = ""  # the last token so far, unless its piece ended in whitespace
    pieces = itertools.chain(pieces, [" "])  # a final space ends the last token
    for piece in pieces:
        tokens = (tail + piece).split()
        tail = tokens.pop() if tokens and not piece[-1:].isspace() else ""
        try:
            parts.append(np.array(tokens, dtype=float))
        except ValueError as exc:
            for _ in pieces:
                pass
            raise BadParameter(f"not an interval file: {exc}") from exc
        del tokens  # before the next piece's are made
    values = np.concatenate(parts)
    if not values.size:
        raise BadParameter("no intervals found")
    return EventSequence(values)


def format_intervals(sequence: EventSequence) -> Iterator[str]:
    """Serialize one interval per line, each line repr(x) (inverse of
    read_intervals), in pieces of FORMAT_CHUNK lines made as they are asked for."""
    values = sequence.intervals
    return (_format_block(values[i:i + FORMAT_CHUNK])
            for i in range(0, values.size, FORMAT_CHUNK))


# --- repr's shortest round-trip digits, found in numpy ------------------------
#
# repr(x) spells the fewest significant digits that read back as x, and of
# those the nearest to x. With V = x * 10**k and W half an ulp of x in the
# same units, x reads back from every decimal in [V - W, V + W] (the open
# interval when the mantissa is odd, as reading rounds half to even). repr's
# digits are the multiple of the largest 10**j in that interval nearest V,
# times 10**(j - k). Every step below is exact in float64 or int64 for x in
# [_LOWEST, _HIGHEST], where repr is also positional; other values, those
# with a power-of-two mantissa (the interval below x is half as wide) and
# exact ties between two nearest multiples are spelled by repr itself.

_LOWEST, _HIGHEST = 1e-3, 1e15
#: the format of one line: integer part, fraction width, fraction digits
_LINE = "%d.%0*d\n"
#: Veltkamp's splitter, 2**27 + 1: a == high + low exactly, each of 26 bits
_SPLITTER = 134217729.0
#: V, W and vl are multiples of at least this power of two (2**-43 at 1e-3):
#: a closed interval this much narrower holds the open one's integers
_GRAIN = 2.0**-44
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_E_LOW, _E_HIGH = math.frexp(_LOWEST)[1], math.frexp(_HIGHEST)[1]


def _split(a: np.ndarray | float) -> tuple:
    big = _SPLITTER * a
    high = big - (big - a)
    return high, a - high


def _scales() -> tuple[np.ndarray, ...]:
    """Per frexp exponent E of [_LOWEST, _HIGHEST] (x = m * 2**E, 1/2 <= m < 1):
    k, the largest with 2**E * 10**k <= 10**18, so V = x * 10**k lies in
    (2**53, 10**18); 5**k, its two Veltkamp halves and 2**k; and W = 5**k *
    2**(E - 54 + k), half an ulp of x times 10**k, at least 5.68."""
    columns = []
    for e in range(_E_LOW, _E_HIGH + 1):
        # one less than the digit count of floor(10**18 / 2**E)
        k = len(str(10**18 * 2**max(-e, 0) // 2**max(e, 0))) - 1
        five = float(5**k)
        columns.append((k, five, *_split(five), 2.0**k, math.ldexp(five, e - 54 + k)))
    return tuple(map(np.array, zip(*columns)))


_SCALES = _scales()


def _shortest_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which values of x this covers, and for each of them, in order, the
    (integer part, fraction width, fraction digits) that _LINE spells as
    repr(x)."""
    mantissa, exponent = np.frexp(x)
    covered = (x >= _LOWEST) & (x <= _HIGHEST) & (mantissa != 0.5)
    x = x[covered]
    index = (exponent[covered] - _E_LOW).astype(np.intp)
    k, five, five_high, five_low, two, half_ulp = (column[index] for column in _SCALES)
    # V = vh + vl: Dekker's exact product x * 5**k, scaled by 2**k. vh is an
    # integer (V > 2**53); vl and radius are multiples of _GRAIN below 2**7,
    # so vl +- radius is exact
    product = x * five
    x_high, x_low = _split(x)
    error = (((x_high * five_high - product) + x_high * five_low + x_low * five_high)
             + x_low * five_low)
    vh, vl = product * two, error * two
    radius = half_ulp - (x.view(np.int64) & 1) * _GRAIN
    # [low, high]: the integers x reads back from, in units of 10**-k
    base = vh.astype(np.int64)
    high = base + np.floor(vl + radius).astype(np.int64)
    low = base + np.ceil(vl - radius).astype(np.int64)
    # the largest j with a multiple of 10**j in [low, high]: 2W > 10 puts
    # one of 10 there, a multiple of 10**(j + 1) is one of 10**j, so the rows
    # still scanning only shrink, and high < 10**18 ends the scan
    j = np.ones(x.size, dtype=np.int64)
    rows = np.arange(x.size)
    for power in range(2, 18):
        step, top = 10**power, high[rows]
        rows = rows[top - top % step >= low[rows]]
        if not rows.size:
            break
        j[rows] = power
    # the multiple of 10**j nearest V = whole + frac: quotient * 10**j lies
    # remainder + frac below V and the next multiple 10**j - remainder - frac
    # above it, so the lower is nearer when 2 * remainder + floor(2 * frac)
    # < 10**j; 2 * frac is exact
    step = _POW10[j]
    floor_vl = np.floor(vl)
    quotient, remainder = np.divmod(base + floor_vl.astype(np.int64), step)
    twice_frac = 2 * (vl - floor_vl)
    twice_floor = np.floor(twice_frac)
    gap = 2 * remainder + twice_floor.astype(np.int64) - step
    digits = quotient + (gap >= 0)
    tie = (gap == 0) & (twice_frac == twice_floor)
    # floor(x) is the integer part: when j >= k the digits spell an integer
    # within half an ulp of x, which below 2**50 is x itself; when j < k no
    # integer lies between x and its digits
    width = k - j
    whole = np.floor(x).astype(np.int64)
    fraction = (digits - whole * _POW10[np.clip(width, 0, 18)]) * (width > 0)
    fields = np.stack([whole, np.maximum(width, 1), fraction], axis=1)
    covered[np.flatnonzero(covered)[tie]] = False
    return covered, fields[~tie]


def _format_block(values: np.ndarray) -> str:
    """repr(x) and a newline for each value: the computed lines in one
    C-level format per run between repr's lines."""
    covered, fields = _shortest_fields(values)
    flat = tuple(fields.ravel().tolist())
    pieces, done = [], 0
    for spliced, at in enumerate(np.flatnonzero(~covered).tolist()):
        stop = at - spliced  # the computed lines before this one
        pieces.append(_LINE * (stop - done) % flat[3 * done:3 * stop])
        pieces.append(repr(values[at].item()) + "\n")
        done = stop
    pieces.append(_LINE * (len(fields) - done) % flat[3 * done:])
    return "".join(pieces)
