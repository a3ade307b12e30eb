"""Noise-like vs heavy-tailed inter-event interval statistics.

Exponential intervals stand in for memoryless random noise; Pareto
intervals for heavy-tailed (Levy-like) behavior. Observed sequences are
classified by the Hill tail-exponent estimate over the top order
statistics: small exponents mean heavy tails.

An interval file holds one repr(x) per line. format_intervals takes the values
FORMAT_CHUNK at a time and finds repr's shortest round-trip digits in numpy,
exactly (after Steele & White, PLDI 1990, with Dekker's error-free product),
for values in [1e-3, 1e15], spells each line as the tail of a 24-byte ASCII
row, four digits per floor division by 10**4, and calls repr for the rest: the
bytes are the same either way. read_intervals reads up to MAX_LENGTH values
into one array, each ASCII token digits[.digits] in numpy from the same row,
correctly rounded (Clinger, PLDI 1990, with the same product to settle, against
the bit-adjacent floats, what his fast path does not cover), and every other
token with float(): the values and errors are the same. Each call works in
arrays it makes once, for its largest block or piece (_Arrays).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadParameter, ConfigError, DegenerateSequence

#: classification thresholds on the Hill estimate (overridable per call)
LEVY_THRESHOLD = 2.5
NOISE_THRESHOLD = 3.5

#: the most intervals `behavior generate` writes (--length) and read_intervals reads
MAX_LENGTH = 10**7
#: the most characters of one token read_intervals reads (a float needs about 24)
MAX_TOKEN = 1 << 20
#: interval files are formatted FORMAT_CHUNK values at a time, so no step holds
#: one Python object per interval (10**6 values took 9-20% less time than in
#: 5000-value blocks), and each block's text is handed on in pieces of
#: FORMAT_PIECE lines, at most 60 kB: a piece, its encoding and the array it is
#: cut from fit in the heap's spare top together, which glibc keeps when it
#: trims, so they are not faulted in again for the next piece (a fresh 10**6
#: generate took 2.5 minor faults per page of extra peak RSS with 5000-line
#: pieces at a fixed 128 KiB trim threshold, 0.5 with these)
FORMAT_PIECE = 2500
FORMAT_CHUNK = 8 * FORMAT_PIECE


class _Arrays:
    """One codec call's working arrays, laid out in one buffer made once for the
    largest block the call fits it to: every block works in views of it, so none
    frees arrays for the next to fault in again, and numpy asks the kernel for
    huge pages for a buffer of 4 MB or more. Each call makes its own, so calls on
    two threads, or two generators advanced in turn, share none."""

    def __init__(self, layout: dict[str, type | tuple]) -> None:
        self._layout = {name: np.dtype(kind) for name, kind in layout.items()}
        self.rows = -1  # no buffer yet
        self._views: dict[str, np.ndarray] = {}

    def fit(self, rows: int) -> None:
        """Room for rows rows in every array, in a new buffer if the last had less."""
        if rows <= self.rows:
            return
        self._views.clear()  # the last buffer goes before the next is made
        starts, end = [], 0
        for kind in self._layout.values():
            starts.append(end)
            end += -(-rows * kind.itemsize // 64) * 64  # each array starts on 64 bytes
        buffer = np.empty(end, np.uint8)
        self._views = {name: buffer[start:start + rows * kind.itemsize].view(kind.base)
                       .reshape(rows, *kind.shape)
                       for (name, kind), start in zip(self._layout.items(), starts)}
        self.rows = rows

    def __call__(self, name: str, rows: int) -> np.ndarray:
        """The first rows rows of array name, their contents undefined."""
        return self._views[name][:rows]


class _Values:
    """The values one read_intervals call has parsed, in one array that grows at
    least twofold when it must, and the arrays it parses its pieces in: one row
    per byte of text, and one per token."""

    def __init__(self) -> None:
        self.per_byte = _Arrays(_BYTE_ARRAYS)
        self.per_token = _Arrays(_TOKEN_ARRAYS)
        self._array = np.empty(0)
        self.size = 0

    def room(self, size: int) -> np.ndarray:
        """The place of the next size values, counted as parsed from now on."""
        end = self.size + size
        if end > self._array.size:
            grown = np.empty(max(end, 2 * self._array.size))
            grown[:self.size] = self._array[:self.size]
            self._array = grown
        start, self.size = self.size, end
        return self._array[start:end]

    def parsed(self) -> np.ndarray:
        return self._array[:self.size]


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
    # an exact 0.0 draw has measure zero but would break positivity; every
    # positive draw, subnormal ones too, is at least this and stays as it is
    return EventSequence(np.maximum(draws, np.finfo(float).smallest_subnormal, out=draws))


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
    split by any whitespace. Each piece's ended tokens are parsed together, into
    one array of values; a token still open at a piece's end is carried on and
    read by float() alone, however many pieces it spans; a file is refused at
    the piece that takes it past MAX_LENGTH values. All pieces are read, so a
    reading error beats a bad token or the length cap; but a carried token is
    refused at once when it passes MAX_TOKEN characters, since it may have no end."""
    values = _Values()
    carried = 0
    carry: list[str] = []  # the pieces of a token that no whitespace has ended yet
    pieces = iter(pieces)
    try:
        for piece in itertools.chain(pieces, [" "]):  # a final space ends the last token
            begin = 0
            if carry:
                begin = _token_end(piece)
                carry.append(piece[:begin])
                if (carried := carried + begin) > MAX_TOKEN:
                    raise ConfigError(f"input: a token must be at most {MAX_TOKEN} characters")
                if begin == len(piece):
                    continue
                values.room(1)[0] = float("".join(carry))
                carry, begin = [], begin + 1  # past the whitespace that ended it
            tail = _parse_tokens(piece, begin, values)
            if tail < len(piece):
                carry.append(piece[tail:])
                carried = len(piece) - tail
            if values.size > MAX_LENGTH:
                for _ in pieces:
                    pass
                raise ConfigError(f"input: must hold at most {MAX_LENGTH} intervals")
    except ValueError as exc:
        for _ in pieces:
            pass
        raise BadParameter(f"not an interval file: {exc}") from exc
    if not values.size:
        raise BadParameter("no intervals found")
    return EventSequence(values.parsed())


#: what str.split splits at, and str.isspace is true of
_SPACE = re.compile(r"\s")


def _token_end(piece: str) -> int:
    """Where a token continued from the last piece ends: at piece's first
    whitespace character, or its end."""
    space = _SPACE.search(piece)
    return space.start() if space else len(piece)


def _tail_start(piece: str) -> int:
    """Where the token that piece ends inside begins, or len(piece) when piece
    ends in whitespace."""
    if not piece or piece[-1].isspace():
        return len(piece)
    return len(piece) - len(piece.rsplit(None, 1)[-1])


def format_intervals(sequence: EventSequence) -> Iterator[str]:
    """Serialize one interval per line, each line repr(x) (inverse of
    read_intervals), in pieces of FORMAT_PIECE lines made a block of
    FORMAT_CHUNK at a time, as they are asked for."""
    values = sequence.intervals
    arrays = _Arrays(_WRITE_ARRAYS)
    arrays.fit(min(values.size, FORMAT_CHUNK))
    for i in range(0, values.size, FORMAT_CHUNK):
        yield from _format_block(values[i:i + FORMAT_CHUNK], arrays)


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
#: Veltkamp's splitter, 2**27 + 1: a == high + low exactly, each of 26 bits
_SPLITTER = 134217729.0
#: V, W and vl are multiples of at least this power of two (2**-43 at 1e-3):
#: a closed interval this much narrower holds the open one's integers
_GRAIN = 2.0**-44
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _split(a: np.ndarray, high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's a == high + low, each of 26 bits, into high and low."""
    np.multiply(a, _SPLITTER, out=high)
    np.subtract(high, a, out=low)
    np.subtract(high, low, out=high)
    np.subtract(a, high, out=low)
    return high, low


#: the powers of ten exact in a float, 10**22 the largest, and their halves
_TENS = np.array([float(10**f) for f in range(23)])
_TENS_HIGH, _TENS_LOW = _split(_TENS, np.empty_like(_TENS), np.empty_like(_TENS))


#: the arrays _times_ten_to works in, one row per factor
_PRODUCT_ARRAYS = dict.fromkeys(["product", "t_high", "t_low", "a_high", "a_low", "term", "error"],
                                np.float64)


def _times_ten_to(a: np.ndarray, k: np.ndarray, arrays: _Arrays) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product a * 10**k = product + error, for k <= 22, in
    arrays "product" and "error"."""
    n = a.size
    product = np.take(_TENS, k, out=arrays("product", n), mode="clip")
    t_high = np.take(_TENS_HIGH, k, out=arrays("t_high", n), mode="clip")
    t_low = np.take(_TENS_LOW, k, out=arrays("t_low", n), mode="clip")
    product *= a
    a_high, a_low = _split(a, arrays("a_high", n), arrays("a_low", n))
    term = arrays("term", n)
    error = np.multiply(a_high, t_high, out=arrays("error", n))
    error -= product
    error += np.multiply(a_high, t_low, out=term)
    error += np.multiply(a_low, t_high, out=term)
    error += np.multiply(a_low, t_low, out=term)
    return product, error


# A line is spelled as the last bytes of one _DIGIT_ROW-byte row, the row the
# reader reads it from: the 24 digits of 10 * (i * 10**(w + 1) + f) = 10 (D +
# 9 i 10**w), below 10**19, for D's integer part i and its last w digits f, as
# six _QUADS words, each the remainder of a floor division by 10**4: numpy
# floor-divides by a scalar with a multiply and a shift, where its divmod takes
# 2.6 times as long. The point overwrites the zero at byte 22 - w and the
# newline the last byte, and the line starts at i's first digit, or at the 0
# before the point when i is 0: one tail of the row per start byte. A value
# the digits do not cover is spelled by repr into its own row's tail: no
# float's repr and newline take more than the row's 24 bytes.
_DIGIT_ROW = 24
#: _QUADS[n] is the four ASCII digits of n < 10**4 as one uint32
_QUADS = (np.arange(10**4)[:, None] // _POW10[3::-1] % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
#: _TAILS[s] is the mask of a row's bytes from byte s on
_TAILS = np.arange(_DIGIT_ROW) >= np.arange(_DIGIT_ROW)[:, None]
#: the byte before each row's newline, in a block's rows laid end to end
_ROW_LAST_DIGIT = np.arange(_DIGIT_ROW - 2, FORMAT_CHUNK * _DIGIT_ROW, _DIGIT_ROW)


#: the arrays format_intervals works in, one row per value
_WRITE_ARRAYS = {
    **_PRODUCT_ARRAYS,
    **dict.fromkeys(["x", "mantissa", "radius"], np.float64),
    **dict.fromkeys(["odd", "base", "high", "low", "j", "step", "digits", "integer", "number"],
                    np.int64),
    **dict.fromkeys(["k", "start", "rest", "point"], np.intp),
    **dict.fromkeys(["covered", "flag", "tie"], np.bool_),
    "exponent": np.intc, "quotient": np.uint64, "quad": np.uint32,
    "rows": (np.uint32, _DIGIT_ROW // 4), "masks": (np.bool_, _DIGIT_ROW),
}


def _shortest_fields(values: np.ndarray, arrays: _Arrays) -> tuple[np.ndarray, ...]:
    """Which of values this covers, and for each value repr's significant
    digits D, the count w (at least one) of them after the point and their
    integer part i, where covered: repr(x) spells D with a point before its last
    w digits, and i = floor(x), as no float lies between x and that decimal.
    Values it does not cover are worked as the nearest of [_LOWEST, _HIGHEST],
    which keeps every step in range."""
    n = values.size
    x = np.clip(values, _LOWEST, _HIGHEST, out=arrays("x", n))
    mantissa, exponent = np.frexp(x, out=(arrays("mantissa", n), arrays("exponent", n)))
    covered = np.equal(x, values, out=arrays("covered", n))
    flag = arrays("flag", n)
    covered &= np.not_equal(mantissa, 0.5, out=flag)
    # x = m * 2**e with 1/2 <= m < 1, and k, the largest with 2**e * 10**k <=
    # 10**18, is floor(18 - e log10 2): for e in [-9, 50] other than 0, e log10 2
    # is at least 0.01 from an integer, far beyond its rounding. So V = x *
    # 10**k lies in (10**17 / 2, 10**18), and W = 2**(e - 54) * 10**k, half an
    # ulp of x times 10**k, in (5.5, 55.6)
    k_real = np.multiply(exponent, math.log10(2), out=mantissa)
    np.floor(np.subtract(18, k_real, out=k_real), out=k_real)
    k = arrays("k", n)
    np.copyto(k, k_real, casting="unsafe")
    # V = vh + vl: vh is an integer (V > 2**53); vl and radius are multiples of
    # _GRAIN below 2**7, so vl +- radius is exact
    vh, vl = _times_ten_to(x, k, arrays)
    radius = np.take(_TENS, k, out=arrays("radius", n), mode="clip")
    np.ldexp(radius, np.subtract(exponent, 54, out=exponent), out=radius)
    odd = np.bitwise_and(x.view(np.int64), 1, out=arrays("odd", n))
    radius -= np.multiply(odd, _GRAIN, out=mantissa)
    # [low, high]: the integers x reads back from, in units of 10**-k
    base = arrays("base", n)
    np.copyto(base, vh, casting="unsafe")
    high, low = arrays("high", n), arrays("low", n)
    np.copyto(high, np.floor(np.add(vl, radius, out=mantissa), out=mantissa), casting="unsafe")
    high += base
    np.copyto(low, np.ceil(np.subtract(vl, radius, out=mantissa), out=mantissa), casting="unsafe")
    low += base
    # the largest j with a multiple of 10**j in [low, high], that is with
    # floor(high / 10**j) > floor((low - 1) / 10**j): 2W > 10 puts one of 10
    # there, a multiple of 10**(j + 1) is one of 10**j, so the rows still
    # scanning only shrink, and high < 10**18 ends the scan. Many rows have a
    # multiple of 100, few one of 1000: those few are scanned on their own
    top = np.floor_divide(high, 100, out=high)
    bottom = np.floor_divide(np.subtract(low, 1, out=low), 100, out=low)
    j = np.add(np.greater(top, bottom, out=flag), 1, out=arrays("j", n))
    top //= 10
    bottom //= 10
    rows = np.flatnonzero(np.greater(top, bottom, out=flag))
    top, bottom = top[rows], bottom[rows]
    for power in range(3, 18):
        if not rows.size:
            break
        j[rows] = power
        top //= 10
        bottom //= 10
        scanning = top > bottom
        rows, top, bottom = rows[scanning], top[scanning], bottom[scanning]
    # the multiple of 10**j nearest V = floor(V) + frac, frac in [0, 1), is
    # 10**j times the quotient of half = floor(V) + 10**j / 2 (whole, as j >= 1)
    # by 10**j; V lies midway when that divides exactly and frac is 0
    step = np.take(_POW10, j, out=arrays("step", n), mode="clip")
    floor_vl = np.floor(vl, out=radius)
    half = base
    np.copyto(high, floor_vl, casting="unsafe")
    half += high
    half += np.floor_divide(step, 2, out=low)
    digits = np.floor_divide(half, step, out=arrays("digits", n))
    tie = np.equal(np.multiply(digits, step, out=low), half, out=arrays("tie", n))
    tie &= np.equal(vl, floor_vl, out=flag)
    # D spells x with w = k - j digits after the point; when j >= k the digits
    # spell an integer within half an ulp of x, which below 2**50 is x itself,
    # and D is x * 10 with w = 1 ("x.0")
    width = np.subtract(k, j, out=k)
    whole = np.flatnonzero(np.less_equal(width, 0, out=flag))
    digits[whole] *= _POW10[1 - width[whole]]
    width[whole] = 1
    integer = arrays("integer", n)
    np.copyto(integer, x, casting="unsafe")  # x > 0: truncation is the floor
    covered &= np.logical_not(tie, out=tie)
    return covered, digits, width, integer


def _format_block(values: np.ndarray, arrays: _Arrays) -> Iterator[str]:
    """repr(x) and a newline for each value, FORMAT_PIECE lines to a piece: the
    computed lines spelled as ASCII rows in numpy, repr's own lines put in the
    rows of the rest."""
    n = values.size
    covered, digits, width, integer = _shortest_fields(values, arrays)
    # a line starts 2 + max(D's digit count, w + 1) bytes before the row's end;
    # searchsorted makes a new array, so it counts digits a piece at a time
    start = np.add(width, 1, out=arrays("start", n))
    for i in range(0, n, FORMAT_PIECE):
        piece = start[i:i + FORMAT_PIECE]
        np.maximum(np.searchsorted(_POW10, digits[i:i + FORMAT_PIECE], side="right"), piece, out=piece)
    np.subtract(_DIGIT_ROW - 2, start, out=start)
    # 10 D - 9 f = D + 9 i 10**w; i is 0 where w > 18
    number = np.take(_POW10, width, out=arrays("number", n), mode="clip")
    number *= integer
    number *= 9
    number += digits
    number = number.view(np.uint64)
    number *= 10
    rows = arrays("rows", n)
    rows[:, 0] = _QUADS[0]  # the top word "0000": number < 10**20
    # each word's four digits, the remainder of a floor division by 10**4, as
    # intp indices: np.take would copy any other dtype's into new ones
    quotient, rest = arrays("quotient", n), arrays("rest", n)
    quad = arrays("quad", n)
    for column in range(5, 0, -1):
        np.floor_divide(number, 10**4, out=quotient)
        np.subtract(number, np.multiply(quotient, 10**4, out=rest.view(np.uint64)), out=rest.view(np.uint64))
        rows[:, column] = np.take(_QUADS, rest, out=quad, mode="clip")
        number, quotient = quotient, number
    rows = rows.view(np.uint8)
    rows.ravel()[np.subtract(_ROW_LAST_DIGIT[:n], width, out=arrays("point", n))] = ord(".")
    rows[:, -1] = ord("\n")
    for at in np.flatnonzero(np.logical_not(covered, out=covered)).tolist():
        line = f"{values[at].item()!r}\n".encode()
        start[at] = _DIGIT_ROW - len(line)
        rows[at, start[at]:] = np.frombuffer(line, np.uint8)
    masks = np.take(_TAILS, start, axis=0, out=arrays("masks", n), mode="clip")
    for i in range(0, n, FORMAT_PIECE):
        yield str(rows[i:i + FORMAT_PIECE][masks[i:i + FORMAT_PIECE]], "ascii")


# --- the interval file's floats, read in numpy --------------------------------
#
# A token of the form digits[.digits] is the decimal m * 10**-f, for m the
# token's digits as one integer and f the count after the point. Where m <
# 2**53 and f <= 22, both m and 10**f are floats, and their quotient is
# correctly rounded (Clinger, "How to read floating point numbers
# accurately", PLDI 1990). Where m is larger (below 10**18, 18 digits), the
# quotient is a candidate that Dekker's exact product checks against its
# neighbours' midpoints. Other tokens, and the few the check leaves in doubt,
# are read by float(). A token's digits are read from the _DIGIT_ROW bytes
# that end it, as three little-endian uint64 lanes of 8 bytes each.


def _digit_masks() -> np.ndarray:
    """At row n * (_DIGIT_ROW + 1) + p, the lanes' mask that keeps the last n
    bytes of a row but the point's: none for p = 0, else the p-th from the end."""
    count, point = np.arange(_DIGIT_ROW + 1)[:, None, None], np.arange(_DIGIT_ROW + 1)[:, None]
    column = np.arange(_DIGIT_ROW)
    keep = (column >= _DIGIT_ROW - count) & (column != _DIGIT_ROW - point)
    return (keep * np.uint8(255)).astype(np.uint8).view("<u8").reshape(-1, _DIGIT_ROW // 8)


_DIGIT_MASKS = _digit_masks()
#: with the point's byte read as 0, a row's digits spell M = i * 10**(f + 1)
#: + r (below 10**19 in a uint64) for integer part i and fraction r of f
#: digits; r = M mod _MODULI[p], and M itself when there is no point (p = 0)
_MODULI = np.array([10**min(f, 19) for f in [19, *range(_DIGIT_ROW)]], dtype=np.uint64)


def _parse_tokens(text: str, begin: int, values: _Values) -> int:
    """Parse the floats of the whitespace-ended tokens of text[begin:], as
    np.array(text.split(), dtype=float) reads them, into values; return where
    the token text ends inside begins, or len(text). ASCII text is read in
    numpy, whole; only str.split knows the separators and digits of the rest."""
    if not _SPACE.search(text, begin):  # no token ends here: no arrays are needed
        return begin
    if not text.isascii():
        tail = _tail_start(text)
        parsed = np.array(text[begin:tail].split(), dtype=float)
        values.room(parsed.size)[:] = parsed
        return tail
    return _parse_lines(text, begin, values)


def _eight_digits(lanes: np.ndarray) -> np.ndarray:
    """Each little-endian uint64 of 8 digit values (bytes 0-9, the first the
    most significant) as the integer they spell, in place."""
    lanes &= np.uint64(0x0F0F0F0F0F0F0F0F)
    lanes *= np.uint64(10 * 2**8 + 1)  # pairs of digits, in 16 bits
    lanes >>= np.uint64(8)
    lanes &= np.uint64(0x00FF00FF00FF00FF)
    lanes *= np.uint64(100 * 2**16 + 1)  # groups of four, in 32 bits
    lanes >>= np.uint64(16)
    lanes &= np.uint64(0x0000FFFF0000FFFF)
    lanes *= np.uint64(10**4 * 2**32 + 1)
    lanes >>= np.uint64(32)
    return lanes


#: the arrays read_intervals parses a piece in: one row per byte of the piece
#: (and _DIGIT_ROW more), and one per token, or per byte up to a space
_BYTE_ARRAYS = {"padded": np.uint8, "byte_flag": np.bool_, "point": np.bool_}
_TOKEN_ARRAYS = {
    **_PRODUCT_ARRAYS,
    **dict.fromkeys(["scale", "m_high", "y", "nearest"], np.float64),
    **dict.fromkeys(["place", "length", "mask_row", "fraction", "near_mantissa", "near_fraction",
                     "m_low"], np.int64),
    **dict.fromkeys(["spelled", "rest"], np.uint64),
    **dict.fromkeys(["code", "code_less_9"], np.uint8),
    **dict.fromkeys(["split", "token_flag", "plain", "settled", "settled_flag"], np.bool_),
    "starts": np.intp, **dict.fromkeys(["lanes", "lane_masks"], (np.uint64, _DIGIT_ROW // 8)),
}
#: a piece is encoded, and its tokens' rows gathered, this many bytes at a time:
#: below the 128 KiB from which glibc maps an allocation afresh, so the heap
#: reuses the room of each part for the next
_HEAP_PIECE = 1 << 16


def _parse_lines(text: str, begin: int, values: _Values) -> int:
    """_parse_tokens for ASCII text with whitespace after begin, in values'
    arrays. padded holds text's bytes from begin on after _DIGIT_ROW bytes that
    no token's mask keeps (zeros, or text's before begin), so that the row
    ending at b[e] is padded[e:e + _DIGIT_ROW]; b is text[begin:], cut after
    its last separator."""
    per_byte, per_token = values.per_byte, values.per_token
    per_byte.fit(_DIGIT_ROW + len(text))
    padded = per_byte("padded", _DIGIT_ROW + len(text))
    padded[:_DIGIT_ROW] = 0
    for at in range(0, len(text), _HEAP_PIECE):
        padded[_DIGIT_ROW + at:_DIGIT_ROW + at + _HEAP_PIECE] = \
            np.frombuffer(text[at:at + _HEAP_PIECE].encode("ascii"), np.uint8)
    padded = padded[begin:]
    b = padded[_DIGIT_ROW:]
    low = np.flatnonzero(np.less_equal(b, 32, out=per_byte("byte_flag", b.size)))
    if low.size > per_token.rows:
        per_token.fit(low.size + low.size // 8)  # and room for a few more in later pieces
    code = np.take(b, low, out=per_token("code", low.size), mode="clip")
    # the bytes str.split splits at: \t \n \v \f \r, \x1c-\x1f and the space
    splits = np.less(np.subtract(code, np.uint8(9), out=per_token("code_less_9", low.size)),
                     5, out=per_token("split", low.size))
    splits |= np.greater_equal(code, 28, out=per_token("token_flag", low.size))
    separators = low if splits.all() else low[splits]
    b = b[:separators[-1] + 1]
    t = separators.size
    token_flag = per_token("token_flag", t)
    starts, ends = per_token("starts", t), separators
    starts[0] = 0
    np.add(separators[:-1], 1, out=starts[1:])
    filled = np.greater(ends, starts, out=token_flag)  # two separators in a row hold no token
    if not filled.all():
        starts, ends = starts[filled], ends[filled]
        t = ends.size
        token_flag = token_flag[:t]
    point = np.equal(b, 46, out=per_byte("point", b.size))
    points = np.flatnonzero(point)
    place = per_token("place", t)  # p: the point's place from the token end
    one_point = points.size == t
    if one_point:
        one_point = np.greater_equal(points, starts, out=token_flag).all() \
            and np.less(points, ends, out=token_flag).all()
    if one_point:
        line_points = 1
        np.subtract(ends, points, out=place)
    else:
        place.fill(0)
        line = np.searchsorted(ends, points)
        line_points = np.bincount(line, minlength=t)
        place[line] = ends[line] - points
    length = np.subtract(ends, starts, out=per_token("length", t))
    lanes, rows = per_token("lanes", t), sliding_window_view(padded, _DIGIT_ROW)
    for at in range(0, t, _HEAP_PIECE // _DIGIT_ROW):
        lanes[at:at + _HEAP_PIECE // _DIGIT_ROW] = rows[ends[at:at + _HEAP_PIECE // _DIGIT_ROW]].view("<u8")
    mask_row = np.minimum(length, _DIGIT_ROW, out=per_token("mask_row", t))
    mask_row *= _DIGIT_ROW + 1
    mask_row += place
    lanes &= np.take(_DIGIT_MASKS, mask_row, axis=0, mode="clip", out=per_token("lane_masks", t))
    groups = _eight_digits(lanes)
    spelled = np.multiply(groups[:, 0], 10**16, out=per_token("spelled", t))  # M
    spelled += np.multiply(groups[:, 1], 10**8, out=per_token("rest", t))
    spelled += groups[:, 2]
    rest = np.take(_MODULI, place, mode="clip", out=per_token("rest", t))
    np.remainder(spelled, rest, out=rest)
    mantissa = np.subtract(spelled, rest, out=spelled)
    mantissa //= 10
    mantissa += rest
    fraction = np.subtract(place, 1, out=per_token("fraction", t))  # f, the digits after the point
    np.maximum(fraction, 0, out=fraction)
    plain = np.greater(length, line_points, out=per_token("plain", t))
    plain &= np.less_equal(length, _DIGIT_ROW, out=token_flag)
    plain &= np.less_equal(line_points, 1, out=token_flag)
    plain &= np.less(groups[:, 0], 1000, out=token_flag)
    plain &= np.less(mantissa, 10**18, out=token_flag)
    plain &= np.less_equal(fraction, 22, out=token_flag)
    mantissa = mantissa.view(np.int64)
    digit = np.less(np.subtract(b, np.uint8(48), out=b), 10, out=per_byte("byte_flag", b.size))
    if np.count_nonzero(digit) + points.size + separators.size != b.size:
        digit[separators] = True  # a separator is no other byte
        other = np.flatnonzero(~digit & ~point)
        plain[np.searchsorted(ends, other)] = False
    parsed = values.room(t)
    np.take(_TENS, np.minimum(fraction, 22, out=place), mode="clip", out=parsed)
    np.divide(mantissa, parsed, out=parsed)  # exact below 2**53
    near = np.greater_equal(mantissa, 2**53, out=token_flag)
    near &= plain
    near = np.flatnonzero(near)
    parsed[near], plain[near] = _settle(
        np.take(mantissa, near, out=per_token("near_mantissa", near.size), mode="clip"),
        np.take(fraction, near, out=per_token("near_fraction", near.size), mode="clip"),
        per_token)
    for line in np.flatnonzero(np.logical_not(plain, out=plain)).tolist():
        parsed[line] = float(text[begin + starts[line]:begin + ends[line]])
    return begin + b.size


def _settle(mantissa: np.ndarray, fraction: np.ndarray, arrays: _Arrays) -> tuple[np.ndarray, np.ndarray]:
    """mantissa / 10**fraction rounded to the nearest float (mantissa below
    10**18, fraction at most 22), and where that is certain, in arrays.

    For y = m / 10**f in floats, Dekker's exact product y * 10**f = p + e
    gives the residual r = m - p - e in units of 10**-f: m - p is exact
    (Sterbenz), and m - float(m) and e are below 2**6 for m < 2**60, so r
    is within 2**-46 + 2**-53 |r|. Moving y by r / 10**f to a candidate z
    moves r by the shift s = (z - y) * 10**f, rounded at most once, so the
    new r is within 2**-46 + 2**-52 (|r| + |s|); the bound used is twice
    that. z is the nearest float when r lies strictly inside half of z's
    gaps to its neighbours (times 10**f), the lower gap being half as wide
    at a power of two, by more than the bound: ties and anything as close
    are left to float()."""
    n = mantissa.size
    arrays.fit(n)
    scale = np.take(_TENS, fraction, mode="clip", out=arrays("scale", n))
    m_high = arrays("m_high", n)
    np.copyto(m_high, mantissa, casting="unsafe")
    y = np.divide(m_high, scale, out=arrays("y", n))
    product, product_error = _times_ten_to(y, fraction, arrays)
    m_low = arrays("m_low", n)
    np.copyto(m_low, m_high, casting="unsafe")
    residual = np.subtract(np.subtract(mantissa, m_low, out=m_low), product_error, out=product_error)
    residual = np.add(np.subtract(m_high, product, out=m_high), residual, out=residual)
    nearest = np.add(y, np.divide(residual, scale, out=product), out=arrays("nearest", n))
    shift = np.subtract(nearest, y, out=y)
    shift *= scale
    residual -= shift
    bound = np.abs(residual, out=m_high)
    bound += np.abs(shift, out=product)
    bound *= 2.0**-51
    bound += 2.0**-45
    bits = nearest.view(np.int64)  # a positive normal float: its neighbours are bits +- 1
    up = np.subtract(np.add(bits, 1, out=m_low).view(float), nearest, out=product)
    up *= scale
    up /= 2
    up -= bound
    down = np.subtract(nearest, np.subtract(bits, 1, out=m_low).view(float), out=shift)
    down *= scale
    down /= 2
    np.subtract(bound, down, out=down)
    settled = np.less(residual, up, out=arrays("settled", n))
    settled &= np.greater(residual, down, out=arrays("settled_flag", n))
    return nearest, settled
