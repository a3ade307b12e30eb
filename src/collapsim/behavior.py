"""Noise-like vs heavy-tailed inter-event interval statistics.

Exponential intervals stand in for memoryless random noise; Pareto
intervals for heavy-tailed (Levy-like) behavior. Observed sequences are
classified by the Hill tail-exponent estimate over the top order
statistics: small exponents mean heavy tails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegenerateSequence

#: classification thresholds on the Hill estimate (overridable per call)
LEVY_THRESHOLD = 2.5
NOISE_THRESHOLD = 3.5

#: interval files are formatted FORMAT_CHUNK values and parsed about
#: READ_CHUNK characters at a time, so no step holds one Python object per
#: interval of the whole file
FORMAT_CHUNK = 1 << 16
READ_CHUNK = 1 << 20
#: the characters str.split() splits on
_WHITESPACE = re.compile(r"\s")


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
        with np.errstate(over="ignore"):  # overflow is refused below
            draws = xmin * (1.0 - rng.random(length)) ** (-1.0 / alpha)
    else:
        raise BadParameter(f"unknown sequence kind {kind!r}")
    if not np.all(np.isfinite(draws)):
        raise BadParameter(f"{kind} intervals overflow a float at these parameters")
    # an exact 0.0 draw has measure zero but would break positivity
    return EventSequence(np.maximum(draws, np.finfo(float).tiny))


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


def read_intervals(text: str) -> EventSequence:
    """Parse a plain interval file: Python float literals separated by any
    whitespace (one per line as written)."""
    parts = [np.empty(0)]
    start = 0
    while start < len(text):
        # cut at a whitespace character, so no token spans two slices
        cut = _WHITESPACE.search(text, start + READ_CHUNK)
        end = cut.start() if cut else len(text)
        try:
            parts.append(np.array(text[start:end].split(), dtype=float))
        except ValueError as exc:
            raise BadParameter(f"not an interval file: {exc}") from exc
        start = end
    values = np.concatenate(parts)
    if not values.size:
        raise BadParameter("no intervals found")
    return EventSequence(values)


def format_intervals(sequence: EventSequence) -> str:
    """Serialize one interval per line (inverse of read_intervals)."""
    values = sequence.intervals
    return "".join([
        "\n".join(map(repr, values[i:i + FORMAT_CHUNK].tolist())) + "\n"
        for i in range(0, values.size, FORMAT_CHUNK)
    ])
