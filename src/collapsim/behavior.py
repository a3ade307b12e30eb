"""Noise-like vs heavy-tailed inter-event interval statistics.

Exponential intervals stand in for memoryless random noise; Pareto
intervals for heavy-tailed (Levy-like) behavior. Observed sequences are
classified by the Hill tail-exponent estimate over the top order
statistics: small exponents mean heavy tails.

An interval file holds one repr(x) per line. format_intervals takes the values
FORMAT_CHUNK at a time and, in each block's own arrays, finds repr's shortest
round-trip digits in numpy, exactly (after Steele & White, PLDI 1990, with
Dekker's error-free product), for values in [1e-3, 1e15], spells each line as
the tail of a 24-byte ASCII row, four digits per floor division by 10**4, and
calls repr for the rest: the bytes are the same either way. read_intervals
reads up to MAX_LENGTH values, each ASCII token digits[.digits] in numpy from
the same row, correctly rounded (Clinger, PLDI 1990, with the same product to
settle, against the bit-adjacent floats, what his fast path does not cover),
and every other token with float(): the values and errors are the same.
"""

from __future__ import annotations

import itertools
import math
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
#: interval files are formatted FORMAT_CHUNK values at a time, so no step holds
#: one Python object per interval. A block's largest arrays, its rows and mask,
#: take 120 kB, under the 128 KiB from which glibc maps afresh, so a fresh generate
#: reuses one heap: 0.3-0.6 minor faults per page of extra peak RSS at 1.3*10**5 to
#: 10**6 intervals, against 2.0-8.1 with 7500-value blocks (360 kB rows and masks)
FORMAT_CHUNK = 5000


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
    split by any whitespace. Each piece's ended tokens are parsed together; a
    token still open at a piece's end is carried on and read by float() alone,
    however many pieces it spans; a file is refused at the piece that takes it
    past MAX_LENGTH values. All pieces are read, so a reading error beats a bad
    token or the cap."""
    parts = [np.empty(0)]
    count = 0
    carry: list[str] = []  # the pieces of a token that no whitespace has ended yet
    pieces = iter(pieces)
    try:
        for piece in itertools.chain(pieces, [" "]):  # a final space ends the last token
            if carry:
                end = _token_end(piece)
                carry.append(piece[:end])
                if end == len(piece):
                    continue
                parts.append(np.array([float("".join(carry))]))
                count += 1
                carry, piece = [], piece[end:]
            start = _tail_start(piece)
            if start < len(piece):
                carry.append(piece[start:])
            parts.append(_parse_tokens(piece[:start]))
            count += parts[-1].size
            if count > MAX_LENGTH:
                for _ in pieces:
                    pass
                raise ConfigError(f"input: must hold at most {MAX_LENGTH} intervals")
    except ValueError as exc:
        for _ in pieces:
            pass
        raise BadParameter(f"not an interval file: {exc}") from exc
    values = np.concatenate(parts)
    if not values.size:
        raise BadParameter("no intervals found")
    return EventSequence(values)


def _token_end(piece: str) -> int:
    """Where a token continued from the last piece ends: at piece's first
    whitespace character, or its end."""
    if not piece or piece[0].isspace():
        return 0
    return len(piece.split(None, 1)[0])


def _tail_start(piece: str) -> int:
    """Where the token that piece ends inside begins, or len(piece) when piece
    ends in whitespace."""
    if not piece or piece[-1].isspace():
        return len(piece)
    return len(piece) - len(piece.rsplit(None, 1)[-1])


def format_intervals(sequence: EventSequence) -> Iterator[str]:
    """Serialize one interval per line, each line repr(x) (inverse of
    read_intervals), in pieces of FORMAT_CHUNK lines made as they are asked for."""
    values = sequence.intervals
    return (_format_block(values[i:i + FORMAT_CHUNK]) for i in range(0, values.size, FORMAT_CHUNK))


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


def _split(a: np.ndarray | float) -> tuple:
    big = _SPLITTER * a
    high = big - (big - a)
    return high, a - high


#: the powers of ten exact in a float, 10**22 the largest, and their halves
_TENS = np.array([float(10**f) for f in range(23)])
_TENS_HIGH, _TENS_LOW = _split(_TENS)


def _times_ten_to(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product a * 10**k = product + error, for k <= 22."""
    product = a * _TENS[k]
    (a_high, a_low), t_high, t_low = _split(a), _TENS_HIGH[k], _TENS_LOW[k]
    error = ((a_high * t_high - product) + a_high * t_low + a_low * t_high) + a_low * t_low
    return product, error


# A line is spelled as the last bytes of one _DIGIT_ROW-byte row, the row the
# reader reads it from: the 24 digits of 10 * (i * 10**(w + 1) + f) = 10 (D +
# 9 i 10**w), below 10**19, for D's integer part i and its last w digits f, as
# six _QUADS words, each the remainder of a floor division by 10**4: numpy
# floor-divides by a scalar with a multiply and a shift, where its divmod takes
# 2.6 times as long. The point overwrites the zero at byte 22 - w and the
# newline the last byte, and the line starts at i's first digit, or at the 0
# before the point when i is 0: one tail of the row per start byte.
_DIGIT_ROW = 24
#: _QUADS[n] is the four ASCII digits of n < 10**4 as one uint32
_QUADS = (np.arange(10**4)[:, None] // _POW10[3::-1] % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
#: _TAILS[s] is the mask of a row's bytes from byte s on
_TAILS = np.arange(_DIGIT_ROW) >= np.arange(_DIGIT_ROW)[:, None]


def _shortest_fields(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which of values this covers, and for each of them, in order, repr's
    significant digits D, the count w (at least one) of them after the point
    and their integer part i: repr(x) spells D with a point before its last w
    digits, and i = floor(x), as no float lies between x and that decimal."""
    mantissa, exponent = np.frexp(values)
    covered = (values >= _LOWEST) & (values <= _HIGHEST) & (mantissa != 0.5)
    x, e = values[covered], exponent[covered]
    # x = m * 2**e with 1/2 <= m < 1, and k, the largest with 2**e * 10**k <=
    # 10**18, is floor(18 - e log10 2): for e in [-9, 50] other than 0, e log10 2
    # is at least 0.01 from an integer, far beyond its rounding. So V = x *
    # 10**k lies in (10**17 / 2, 10**18), and W = 2**(e - 54) * 10**k, half an
    # ulp of x times 10**k, in (5.5, 55.6)
    k = np.floor(18 - e * math.log10(2)).astype(np.intp)
    # V = vh + vl: vh is an integer (V > 2**53); vl and radius are multiples of
    # _GRAIN below 2**7, so vl +- radius is exact
    vh, vl = _times_ten_to(x, k)
    radius = np.ldexp(_TENS[k], e - 54) - (x.view(np.int64) & 1) * _GRAIN
    # [low, high]: the integers x reads back from, in units of 10**-k
    base = vh.astype(np.int64)
    high = base + np.floor(vl + radius).astype(np.int64)
    low = base + np.ceil(vl - radius).astype(np.int64)
    # the largest j with a multiple of 10**j in [low, high], that is with
    # floor(high / 10**j) > floor((low - 1) / 10**j): 2W > 10 puts one of 10
    # there, a multiple of 10**(j + 1) is one of 10**j, so the rows still
    # scanning only shrink, and high < 10**18 ends the scan
    j = np.ones_like(base)
    top, bottom = high // 100, (low - 1) // 100
    rows = np.flatnonzero(top > bottom)
    top, bottom = top[rows], bottom[rows]
    for power in range(2, 18):
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
    step = _POW10[j]
    floor_vl = np.floor(vl)
    half = base + floor_vl.astype(np.int64) + step // 2
    digits = half // step
    tie = (digits * step == half) & (vl == floor_vl)
    # D spells x with w = k - j digits after the point; when j >= k the digits
    # spell an integer within half an ulp of x, which below 2**50 is x itself,
    # and D is x * 10 with w = 1 ("x.0")
    width = k - j
    whole = np.flatnonzero(width <= 0)
    digits[whole] *= _POW10[1 - width[whole]]
    width[whole] = 1
    integer = x.astype(np.int64)  # x > 0: truncation is the floor
    if tie.any():
        covered[np.flatnonzero(covered)[tie]] = False
        digits, width, integer = digits[~tie], width[~tie], integer[~tie]
    return covered, digits, width, integer


def _format_block(values: np.ndarray) -> str:
    """repr(x) and a newline for each value: the computed lines spelled as
    ASCII rows in numpy, repr's own lines put between them."""
    covered, digits, width, integer = _shortest_fields(values)
    # a line starts 2 + max(D's digit count, w + 1) bytes before the row's end
    start = _DIGIT_ROW - 2 - np.maximum(np.searchsorted(_POW10, digits, side="right"), width + 1)
    # 10 D - 9 f = D + 9 i 10**w; i is 0 where w > 18
    number = (digits + 9 * integer * np.take(_POW10, width, mode="clip")).view(np.uint64) * 10
    rows = np.full((digits.size, _DIGIT_ROW // 4), _QUADS[0])  # the top word "0000": number < 10**20
    for column in range(5, 0, -1):
        high = number // 10**4
        rows[:, column] = np.take(_QUADS, number - high * 10**4)
        number = high
    rows = rows.view(np.uint8)
    rows.ravel()[np.arange(_DIGIT_ROW - 2, rows.size, _DIGIT_ROW) - width] = ord(".")
    rows[:, -1] = ord("\n")
    masks = np.take(_TAILS, start, axis=0)
    parts, done = [], 0
    for spliced, at in enumerate(np.flatnonzero(~covered).tolist()):
        stop = at - spliced  # the computed lines before this one
        parts += rows[done:stop][masks[done:stop]], f"{values[at].item()!r}\n".encode()
        done = stop
    parts.append(rows[done:][masks[done:]])
    return str(b"".join(parts), "ascii")


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


def _parse_tokens(text: str) -> np.ndarray:
    """The floats of text's whitespace-separated tokens, text ending in
    whitespace (or empty), as np.array(text.split(), dtype=float) reads them.
    ASCII text is read in numpy, whole; only str.split knows the separators
    and digits of the rest."""
    if not text.isascii():
        return np.array(text.split(), dtype=float)
    return _parse_lines(text)


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


def _parse_lines(text: str) -> np.ndarray:
    """The floats of the tokens of ASCII text, which ends in a separator (or
    is empty), in temporaries some nine times its length. padded holds text's
    bytes after _DIGIT_ROW zero bytes, so that the row ending at text[e] is
    padded[e:e + _DIGIT_ROW]."""
    padded = np.frombuffer(bytes(_DIGIT_ROW) + text.encode("ascii"), np.uint8)
    b = padded[_DIGIT_ROW:]
    low = np.flatnonzero(b <= 32)
    code = b[low]
    # the bytes str.split splits at: \t \n \v \f \r, \x1c-\x1f and the space
    separators = low[(code - np.uint8(9) < 5) | (code >= 28)]
    starts, ends = np.empty_like(separators), separators
    starts[:1], starts[1:] = 0, separators[:-1] + 1
    filled = ends > starts  # two separators in a row hold no token
    if not filled.all():
        starts, ends = starts[filled], ends[filled]
    point = b == 46
    points = np.flatnonzero(point)
    place = np.zeros(ends.size, dtype=np.int64)  # p: the point's place from the token end
    if points.size == ends.size and np.all((points >= starts) & (points < ends)):
        line_points = 1
        np.subtract(ends, points, out=place)
    else:
        line = np.searchsorted(ends, points)
        line_points = np.bincount(line, minlength=ends.size)
        place[line] = ends[line] - points
    length = ends - starts
    lanes = sliding_window_view(padded, _DIGIT_ROW)[ends].view("<u8")
    lanes &= np.take(_DIGIT_MASKS, np.minimum(length, _DIGIT_ROW) * (_DIGIT_ROW + 1) + place,
                     axis=0, mode="clip")
    groups = _eight_digits(lanes)
    spelled = groups[:, 0] * 10**16 + groups[:, 1] * 10**8 + groups[:, 2]  # M
    rest = spelled % np.take(_MODULI, place, mode="clip")
    mantissa = (spelled - rest) // 10 + rest
    fraction = np.maximum(place - 1, 0)  # f, the digits after the point
    plain = (length > line_points) & (length <= _DIGIT_ROW) & (line_points <= 1) \
        & (groups[:, 0] < 1000) & (mantissa < 10**18) & (fraction <= 22)
    mantissa = mantissa.view(np.int64)
    digit = b - np.uint8(48) < 10
    if np.count_nonzero(digit) + points.size + separators.size != b.size:
        digit[separators] = True  # a separator is no other byte
        other = np.flatnonzero(~digit & ~point)
        plain[np.searchsorted(ends, other)] = False
    values = mantissa / _TENS[np.minimum(fraction, 22)]  # exact below 2**53
    near = np.flatnonzero(plain & (mantissa >= 2**53))
    values[near], plain[near] = _settle(mantissa[near], fraction[near])
    for line in np.flatnonzero(~plain).tolist():
        values[line] = float(text[starts[line]:ends[line]])
    return values


def _settle(mantissa: np.ndarray, fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mantissa / 10**fraction rounded to the nearest float (mantissa below
    10**18, fraction at most 22), and where that is certain.

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
    scale = _TENS[fraction]
    m_high = mantissa.astype(float)
    y = m_high / scale
    product, product_error = _times_ten_to(y, fraction)
    residual = (m_high - product) + ((mantissa - m_high.astype(np.int64)) - product_error)
    nearest = y + residual / scale
    shift = (nearest - y) * scale
    residual -= shift
    bound = 2.0**-45 + 2.0**-51 * (np.abs(residual) + np.abs(shift))
    bits = nearest.view(np.int64)  # a positive normal float: its neighbours are bits +- 1
    up = ((bits + 1).view(float) - nearest) * scale / 2
    down = (nearest - (bits - 1).view(float)) * scale / 2
    return nearest, (residual < up - bound) & (residual > bound - down)
