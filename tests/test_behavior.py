import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapsim import behavior, harnesses
from collapsim.behavior import (
    FORMAT_CHUNK,
    EventSequence,
    _parse_tokens,
    classify,
    format_intervals,
    generate_sequence,
    read_intervals,
    tail_exponent,
)
from collapsim.errors import BadParameter, ConfigError, DegenerateSequence
from helpers import keyed_generator


class TestGenerateSequence:
    def test_exponential_mean(self):
        seq = generate_sequence("exponential", 10_000, keyed_generator(81), rate=1.0)
        assert 0.97 <= seq.intervals.mean() <= 1.03  # 3 sigma, sigma/sqrt(n)=0.01

    def test_pareto_support_bound(self):
        seq = generate_sequence("pareto", 10_000, keyed_generator(82), alpha=1.5, xmin=1.0)
        assert seq.intervals.min() >= 1.0

    def test_subnormal_draws_kept(self):
        # raising every draw to the smallest normal float once left 4 distinct
        # values of 10000 and read this heavy tail as noise_like
        tiny = generate_sequence("pareto", 10_000, keyed_generator(3), xmin=1e-310)
        normal = generate_sequence("pareto", 10_000, keyed_generator(3), xmin=1.0)
        np.testing.assert_array_equal(tiny.intervals, normal.intervals * 1e-310)
        assert np.unique(tiny.intervals).size == 10_000
        assert classify(tiny).classification == "levy_like"

    def test_zero_draw_made_positive(self):
        class ZeroDraws:
            def exponential(self, scale, size):
                return np.zeros(size)

        seq = generate_sequence("exponential", 100, ZeroDraws())
        assert np.all(seq.intervals == np.finfo(float).smallest_subnormal)

    def test_seed_determinism(self):
        a = generate_sequence("pareto", 500, keyed_generator(83), alpha=2.0)
        b = generate_sequence("pareto", 500, keyed_generator(83), alpha=2.0)
        np.testing.assert_array_equal(a.intervals, b.intervals)

    def test_parameter_validation(self):
        rng = keyed_generator(84)
        with pytest.raises(BadParameter):
            generate_sequence("exponential", 10_000, rng, rate=0.0)
        with pytest.raises(BadParameter):
            generate_sequence("pareto", 10_000, rng, alpha=-1.0)
        with pytest.raises(BadParameter):
            generate_sequence("exponential", 50, rng)
        with pytest.raises(BadParameter):
            generate_sequence("weibull", 10_000, rng)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("pareto", {"alpha": 1e-300}, "pareto intervals overflow"),
            ("pareto", {"xmin": 1e308}, "pareto intervals overflow"),
            ("exponential", {"rate": 1e-320}, "exponential intervals overflow"),
            ("exponential", {"rate": float("nan")}, "rate must be positive"),
            ("pareto", {"alpha": float("nan")}, "alpha and xmin must be positive"),
        ],
    )
    def test_non_finite_draws_refused(self, kind, params, message):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(BadParameter, match=message):
                generate_sequence(kind, 100, keyed_generator(84), **params)


class TestTailExponent:
    def test_pareto_recovers_alpha(self):
        seq = generate_sequence("pareto", 100_000, keyed_generator(85), alpha=1.5, xmin=1.0)
        assert 1.35 <= tail_exponent(seq, 1000) <= 1.65

    def test_exponential_looks_thin(self):
        seq = generate_sequence("exponential", 100_000, keyed_generator(86), rate=1.0)
        assert tail_exponent(seq, 1000) > 3.0

    def test_constant_sequence_degenerate(self):
        seq = EventSequence(np.ones(1000))
        with pytest.raises(DegenerateSequence):
            tail_exponent(seq, 100)

    def test_k_bounds(self):
        seq = generate_sequence("exponential", 1000, keyed_generator(87))
        with pytest.raises(BadParameter):
            tail_exponent(seq, 5)
        with pytest.raises(BadParameter):
            tail_exponent(seq, 501)

    def test_scale_invariance(self):
        seq = generate_sequence("pareto", 20_000, keyed_generator(88), alpha=1.7)
        base = tail_exponent(seq, 200)
        for scale in (1e-6, 3.7, 1e6):
            scaled = EventSequence(seq.intervals * scale)
            assert abs(tail_exponent(scaled, 200) - base) < 1e-9

    def test_monotone_in_alpha(self):
        light = []
        heavy = []
        for s in range(100):
            heavy.append(
                tail_exponent(
                    generate_sequence("pareto", 10_000, keyed_generator(89, s), alpha=1.2), 100
                )
            )
            light.append(
                tail_exponent(
                    generate_sequence("pareto", 10_000, keyed_generator(90, s), alpha=2.5), 100
                )
            )
        assert np.mean(heavy) < np.mean(light)

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_top_k_partition_equals_full_sort(self, decimals):
        # rounding makes ties, at the threshold too; the estimate keeps its bits
        for s in range(20):
            draws = generate_sequence("pareto", 5000, keyed_generator(100, s), alpha=1.3)
            values = draws.intervals if decimals is None else np.round(draws.intervals, decimals)
            for k in (10, 50, 2500):
                top = np.sort(values)[-(k + 1):]
                expected = k / float((np.log(top[1:]) - np.log(top[0])).sum())
                assert tail_exponent(EventSequence(values), k) == expected


class TestClassify:
    def test_pareto_sequences_levy_like(self):
        hits = 0
        for s in range(50):
            seq = generate_sequence("pareto", 10_000, keyed_generator(91, s), alpha=1.5)
            hits += classify(seq).classification == "levy_like"
        assert hits >= 48

    def test_exponential_sequences_noise_like(self):
        hits = 0
        for s in range(50):
            seq = generate_sequence("exponential", 10_000, keyed_generator(92, s), rate=1.0)
            hits += classify(seq).classification == "noise_like"
        assert hits >= 48

    def test_indeterminate_band(self):
        seq = generate_sequence("pareto", 10_000, keyed_generator(93), alpha=3.0)
        report = classify(seq, levy_threshold=2.5, noise_threshold=3.5)
        if 2.5 <= report.tail_exponent <= 3.5:
            assert report.classification == "indeterminate"

    def test_thresholds_overridable(self):
        seq = generate_sequence("pareto", 10_000, keyed_generator(94), alpha=1.5)
        report = classify(seq, levy_threshold=0.5, noise_threshold=0.6)
        assert report.classification == "noise_like"

    def test_minimum_length(self):
        seq = generate_sequence("exponential", 500, keyed_generator(95))
        with pytest.raises(BadParameter):
            classify(seq)

    def test_report_fields(self):
        seq = generate_sequence("exponential", 10_000, keyed_generator(96))
        report = classify(seq)
        assert report.sample_size == 10_000
        assert report.tail_exponent > 0


class TestSerialization:
    def test_round_trip(self):
        seq = generate_sequence("pareto", 150, keyed_generator(97), alpha=2.0)
        parsed = read_intervals(format_intervals(seq))
        np.testing.assert_array_equal(parsed.intervals, seq.intervals)

    def test_rejects_empty(self):
        with pytest.raises(BadParameter):
            read_intervals(["\n\n"])

    def test_rejects_non_numeric(self):
        with pytest.raises(BadParameter, match="not an interval file"):
            read_intervals(["1.0\np cnf 2 1\n"])

    def test_rejects_nonpositive(self):
        with pytest.raises(BadParameter):
            read_intervals(["1.0\n-2.0\n"])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # NaN passed the old `values <= 0` check and classified to a NaN
        # exponent; inf classified as levy_like
        lines = "".join(format_intervals(generate_sequence("exponential", 2000,
                                                            keyed_generator(98))))
        lines = lines.splitlines()
        lines[700] = bad
        with pytest.raises(BadParameter, match="^all intervals must be positive and finite$"):
            read_intervals(["\n".join(lines)])

    @pytest.mark.parametrize("kind", ["exponential", "pareto"])
    def test_format_equals_per_element_repr(self, kind):
        draws = generate_sequence(kind, 2000, keyed_generator(99)).intervals
        extremes = [np.finfo(float).tiny, 1e16, 1e16 + 2, 9.999999999999998e15, 1e-5,
                    1.0000000000000002e-05, 0.30000000000000004, 0.1]
        sequence = EventSequence(np.concatenate([draws, extremes, EDGES]))
        old = repr_lines(sequence.intervals)
        assert "".join(format_intervals(sequence)) == old
        assert "0.30000000000000004\n" in old  # 17 significant digits
        np.testing.assert_array_equal(read_intervals([old]).intervals, sequence.intervals)

    @pytest.mark.parametrize("kind", ["exponential", "pareto"])
    def test_format_equals_repr_on_a_million_draws(self, kind):
        sequence = generate_sequence(kind, 10**6, keyed_generator(104), rate=2.0)
        text = "".join(format_intervals(sequence))
        assert text == repr_lines(sequence.intervals)
        assert_floats_of_tokens(read_intervals(read_pieces(text)), text)

    def test_repr_lines_at_block_edges(self):
        # values the numpy digits do not cover, first, last and on each side
        # of a block boundary
        values = generate_sequence("pareto", 2 * FORMAT_CHUNK + 5, keyed_generator(105))
        values = values.intervals.copy()
        for at, value in zip([0, FORMAT_CHUNK - 1, FORMAT_CHUNK, -1],
                             [1e-5, 2.0, 1e16 + 2, 5e-324]):
            values[at] = value
        assert "".join(format_intervals(EventSequence(values))) == repr_lines(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=1, max_size=50))
    def test_format_equals_repr_of_any_positive_floats(self, values):
        text = "".join(format_intervals(EventSequence(np.array(values))))
        assert text == repr_lines(values)
        assert_floats_of_tokens(read_intervals([text]), text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e15), min_size=1, max_size=50))
    def test_format_equals_repr_of_floats_spelled_in_numpy(self, values):
        # [1e-3, 1e15] is the range the numpy digits cover; few of the draws
        # over all positive floats above land in it
        text = "".join(format_intervals(EventSequence(np.array(values))))
        assert text == repr_lines(values)
        assert_floats_of_tokens(read_intervals([text]), text)

    def test_quad_boundaries_spelled_and_read(self):
        # the writer spells a row's digits four at a time: repr digits D =
        # 10**(4m) - 1, 10**(4m) and 10**(4m) + 1 put a carry and a lone digit
        # on every word edge, for every point place
        values = [float(f"{digits}e-{width}") for m in range(1, 5)
                  for digits in (10**(4 * m) - 1, 10**(4 * m), 10**(4 * m) + 1) for width in range(1, 17)]
        values = np.array([value for value in values if 1e-3 <= value <= 1e15])
        text = "".join(format_intervals(EventSequence(values)))
        assert text == repr_lines(values)
        assert_floats_of_tokens(read_intervals([text]), text)

    def test_read_equals_float_on_edges(self):
        text = "".join(format_intervals(EventSequence(EDGES)))
        assert_floats_of_tokens(read_intervals([text]), text)


class TestNumpyReader:
    """Lines of the form digits[.digits] are read in numpy, correctly rounded;
    every other token is read by float(), with float()'s errors."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e15), min_size=1, max_size=50))
    def test_tokens_near_midpoints(self, ys):
        tokens = [token for y in ys for token in near_midpoint_tokens(y)]
        assert {len(token.replace(".", "").lstrip("0")) for token in tokens} <= {16, 17, 18}
        text = "\n".join(tokens) + "\n"
        assert_floats_of_tokens(read_intervals([text]), text)

    def test_settle_at_powers_of_two(self):
        # below 2**e the floats lie half as far apart as above it, so _settle
        # must take each gap from its own side. The decimals nearest 2**e, its
        # neighbours and their midpoints, for every e whose 17- and 18-digit
        # decimals reach _settle (mantissa in [2**53, 10**18), at most 22
        # digits after the point): each settled value is float()'s, and each
        # decimal farther than 10**-6 units of its last digit from a midpoint
        # is settled
        tokens, mantissas, fractions, margins, reached = [], [], [], [], set()
        for e in range(-21, 62):
            for z in (math.nextafter(2.0**e, 0), 2.0**e, math.nextafter(2.0**e, math.inf)):
                for token in {t for target in [Fraction(z), *midpoints(z)] for t in decimals_near(target)}:
                    mantissa, _, after = token.partition(".")
                    mantissa = int(mantissa + after)
                    if not (2**53 <= mantissa < 10**18 and len(after) <= 22):
                        continue
                    value, (low, high) = Fraction(mantissa, 10**len(after)), midpoints(float(token))
                    tokens.append(token)
                    mantissas.append(mantissa)
                    fractions.append(len(after))
                    margins.append(min(value - low, high - value) * 10**len(after))
                    reached.add(e)
        assert reached == set(range(-19, 60))
        values, settled = behavior._settle(np.array(mantissas), np.array(fractions))
        expected = np.array([float(token) for token in tokens])
        np.testing.assert_array_equal(values[settled].view(np.int64), expected[settled].view(np.int64))
        assert settled[np.array(margins) > Fraction(1, 10**6)].all()
        text = "\n".join(tokens) + "\n"
        assert_floats_of_tokens(read_intervals([text]), text)

    @pytest.mark.parametrize("token", [
        "007.5", "0000000000000000000000001", "000.00000000000000000000001", ".5", "5.", "1",
        "+1.5", "-1.5", "1e3", "1E-3", "2.5e+16", "1_0", "1_0.5", "1" * 18, "1" * 19,
        "1" * 30, "1." + "1" * 22, "0." + "0" * 21 + "1", "123456789012345678.9",
        # exact ties between two floats, which round to the even one
        "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
        "0.0", "0", "-0.0", "inf", "nan", "-inf", "Infinity",
        ".", "..5", "1.2.3", "1__0", "1e", "-", "abc", "0x10", "1.5\x7f", "\uff11",
        # control bytes str.split does not split at, inside and between tokens
        "1\x005", "\x07", "1.5\x0e", "\x1b2.5", "\x7f", "2.5 \x00 0.5", "2.5\t\x1b\t0.5",
    ])
    def test_hand_written_token(self, token):
        # among plain lines, so that the file is read in numpy
        text = f"2.5\n{token}\n0.125\n"
        assert read_outcome(text) == reference_outcome(text)

    def test_ascii_text_never_split(self):
        # str.split reads only what numpy cannot: text outside ASCII
        class Unsplit(str):
            def split(self, *args):
                raise AssertionError("ASCII text reached str.split")

        text = "1.5 2.25\t0.125\x0b3\x0c7\r8\x1c9\x1d10\x1e11\x1f12\n1e3  "
        expected = np.array(text.split(), dtype=float)
        np.testing.assert_array_equal(_parse_tokens(Unsplit(text)), expected)
        with pytest.raises(ValueError, match=re.escape(_float_error("_\x00"))):
            _parse_tokens(Unsplit(text + "_\x00 "))


def repr_lines(values):
    """The reference spelling of an interval file: repr and a newline per value."""
    return "".join([repr(v) + "\n" for v in np.asarray(values, dtype=float).tolist()])


def read_pieces(text):
    """text in the pieces harnesses.read_text yields for a file that holds it."""
    size = harnesses.READ_CHUNK
    return [text[i:i + size] for i in range(0, len(text), size)]


def assert_floats_of_tokens(sequence, text):
    """The reference reading of an interval file: float() of each token, bit for bit."""
    expected = np.array([float(token) for token in text.split()])
    np.testing.assert_array_equal(sequence.intervals.view(np.int64), expected.view(np.int64))


def read_outcome(text):
    """What reading text as one piece gives: its floats or its error message."""
    try:
        return read_intervals([text]).intervals.tolist()
    except BadParameter as exc:
        return str(exc)


def reference_outcome(text):
    """The floats or the error message of reading text by float() per token."""
    try:
        values = [float(token) for token in text.split()]
    except ValueError as exc:
        return f"not an interval file: {exc}"
    if not all(0 < value < math.inf for value in values):
        return "all intervals must be positive and finite"
    return values


def near_midpoint_tokens(y):
    """The 17- and 18-digit decimals nearest the midpoint of y and the next
    float up, and one unit either side in the last digit, as digits.digits."""
    return decimals_near(midpoints(y)[1])


def midpoints(z):
    """The midpoints of the float z and its neighbours below and above."""
    return [(Fraction(z) + Fraction(math.nextafter(z, to))) / 2 for to in (0, math.inf)]


def decimals_near(target):
    """The 17- and 18-digit decimals nearest the rational target, and one unit
    either side in the last digit, as digits[.digits]; none of a count that
    would need zeros before the point."""
    tokens = []
    for digits in (17, 18):
        point = digits - 1 - math.floor(math.log10(target))  # digits after the point
        while round(target * Fraction(10)**point) >= 10**digits:
            point -= 1
        while round(target * Fraction(10)**point) < 10**(digits - 1):
            point += 1
        if point < 0:
            continue
        for last in (-1, 0, 1):
            spelled = str(round(target * Fraction(10)**point) + last).rjust(point + 1, "0")
            tokens.append(f"{spelled[:-point]}.{spelled[-point:]}" if point else spelled)
    return tokens


def _edge_values():
    """The classes where shortest digits are hardest to get right."""
    rng = keyed_generator(106)
    steps = np.arange(-3, 4)
    # 3 ulps either side of each power of ten (1e-3 and 1e15 bound the
    # numpy digits)
    tens = np.array([float(f"1e{n}") for n in range(-4, 18)])
    around_tens = (tens.view(np.int64)[:, None] + steps).ravel().view(np.float64)
    powers_of_two = 2.0 ** np.arange(-1074, 1024)
    # 3 ulps either side of each binade end 2**(e - 1) for e in [-9, 51], the
    # frexp exponents of [1e-3, 1e15]: e sets the numpy digits' 10**k and W
    binade_ends = ((2.0 ** np.arange(-10, 51)).view(np.int64)[:, None] + steps).ravel().view(np.float64)
    integers = np.unique(np.round(np.geomspace(1, 2**53, 400)))
    integers = np.concatenate([integers, [2**53 - 1, rng.integers(1, 2**53)]])
    decimals = [rng.integers(1, 10**9, 100) / 10**d for d in range(1, 8)]
    # n / 2**16 often lies exactly between two shortest spellings
    dyadic = rng.integers(1, 2**20, 200) * 2.0**-16
    subnormals = rng.integers(1, 2**52, 50).view(np.float64)
    return np.concatenate([around_tens, powers_of_two, binade_ends, integers, integers / 2,
                           *decimals, dyadic, subnormals, [5e-324]])


EDGES = _edge_values()


#: every separator kind str.split() knows, ASCII and not
SEPARATORS = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
#: spellings Python's float accepts beyond repr
SPELLINGS = ["1_000", ".5", "5.", "+1e3", "1E-3", "0001", "\uff11\uff12", "\u0663.\u0665"]
TOKENS = st.one_of(POSITIVE.map(repr), st.sampled_from(SPELLINGS))
GAPS = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)


def _joined(draw, tokens):
    gaps = draw(st.lists(GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(token + gap for token, gap in zip(tokens, gaps[1:]))


def _cut(draw, text):
    """text cut at drawn places into consecutive pieces, empty ones included."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=len(text) + 1)))
    return [text[start:end] for start, end in zip([0, *cuts], [*cuts, len(text)])]


def _float_error(token):
    try:
        float(token)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{token!r} is a float literal")


class TestChunkBoundaries:
    """Interval files are parsed in pieces, a token possibly spanning several,
    and formatted in blocks; cuts anywhere put one next to every token and
    separator."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), tokens=st.lists(TOKENS, min_size=1, max_size=30))
    def test_read_equals_float_of_each_token(self, data, tokens):
        text = _joined(data.draw, tokens)
        parsed = read_intervals(_cut(data.draw, text)).intervals
        np.testing.assert_array_equal(parsed, np.array(list(map(float, text.split()))))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), tokens=st.lists(TOKENS, min_size=1, max_size=30),
           bad=st.sampled_from(["abc", "1.2.3", "0x10", "1__0", "_1", "1e", "'\"", "\x00", "-"]))
    @example(data=None, tokens=["1.5"], bad="abc")
    def test_first_bad_token_named(self, data, tokens, bad):
        if data is None:  # one character to a piece
            at, text = 0, f"{bad}\n1.5\nxyz\n"
            pieces = list(text)
        else:
            at = data.draw(st.integers(0, len(tokens)))
            # a later bad token must not be the one named
            text = _joined(data.draw, tokens[:at] + [bad] + tokens[at:] + ["zzz"])
            pieces = _cut(data.draw, text)
        message = f"not an interval file: {_float_error(bad)}"
        with pytest.raises(BadParameter) as info:
            read_intervals(pieces)
        assert str(info.value) == message

    def test_piece_end_tested_as_split_splits(self):
        # where they differ, a token ended by a piece's last character would be
        # joined to the next piece's first
        code_points = "".join(map(chr, range(0x110000)))
        splitting = {c for c in code_points if len(f"a{c}b".split()) == 2}
        assert {c for c in code_points if c.isspace()} == splitting

    def test_token_across_many_pieces(self):
        # one whitespace-free token of 2**12 pieces; 2**16 digits make inf
        with pytest.raises(BadParameter, match="^all intervals must be positive and finite$"):
            read_intervals(["1234567890123456"] * 2**12)
        pieces = ["1.5\n2.", *["5"] * 2**12, "\n0.125"]
        assert read_intervals(pieces).intervals.tolist() == [1.5, float("2." + "5" * 2**12), 0.125]

    @pytest.mark.parametrize("separator", [*"\x1c\x1d\x1e\x1f\x0b\x0c\r\t \n", "\x85", "\u3000"])
    def test_pieces_split_where_str_split_splits(self, separator):
        # bytes.split would not split at \x1c-\x1f, nor at the non-ASCII ones
        text = f"1.5{separator}2.25\n0.125{separator}{separator}3\n7{separator}2.{separator}.5{separator}"
        tokens = text.split()
        assert tokens == ["1.5", "2.25", "0.125", "3", "7", "2.", ".5"]
        for cut in range(len(text) + 1):
            parsed = read_intervals([text[:cut], text[cut:]]).intervals
            np.testing.assert_array_equal(parsed, np.array(list(map(float, tokens))))
        # the separator next to a point, on each side of a file piece's end
        edge = harnesses.READ_CHUNK
        for at in range(edge - 3, edge + 2):
            filler = "2.5\n" * ((at - 2) // 4) + "1" * ((at - 2) % 4)
            text = f"{filler}2.{separator}.5{separator}"
            assert text[at] == separator
            parsed = read_intervals(read_pieces(text)).intervals
            np.testing.assert_array_equal(parsed, np.array(text.split(), dtype=float))
        # several file pieces with no other separator
        values = generate_sequence("pareto", 25_000, keyed_generator(107)).intervals
        text = separator.join(map(repr, values.tolist())) + separator
        assert len(text) > 3 * edge
        expected = np.array(text.split(), dtype=float)
        assert read_intervals(read_pieces(text)).intervals.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["", " ", "\n\u3000\x1c"])
    def test_no_token_is_no_intervals(self, text):
        with pytest.raises(BadParameter, match="^no intervals found$"):
            read_intervals(list(text))

    @pytest.mark.parametrize("length", [FORMAT_CHUNK - 1, FORMAT_CHUNK, FORMAT_CHUNK + 1])
    def test_format_across_block_boundary(self, length):
        sequence = generate_sequence("pareto", length, keyed_generator(101))
        assert "".join(format_intervals(sequence)) == repr_lines(sequence.intervals)


class TestCountCap:
    """read_intervals reads at most MAX_LENGTH values, the most generate writes,
    and refuses a longer file before it holds all of its values."""

    def test_cap_is_the_largest_count_read(self, monkeypatch):
        monkeypatch.setattr(behavior, "MAX_LENGTH", 1000)
        text = "".join(format_intervals(generate_sequence("pareto", 1001, keyed_generator(108))))
        last = text.rindex("\n", 0, -1) + 1
        assert read_intervals(read_pieces(text[:last])).intervals.size == 1000
        with pytest.raises(ConfigError, match=r"^input: must hold at most 1000 intervals$"):
            read_intervals(read_pieces(text))

    def test_refused_at_the_cap_not_the_file(self, monkeypatch):
        # 20 000 values, 160 KB of float64, in 1000-character pieces of about
        # 50 lines: refused at a 39 KB peak (measured), one piece's parse
        # temporaries and the cap's 1000 values of 8 KB; read whole, 487 KB
        monkeypatch.setattr(behavior, "MAX_LENGTH", 1000)
        text = "".join(format_intervals(generate_sequence("pareto", 20_000, keyed_generator(109))))

        def read():
            with pytest.raises(ConfigError, match="^input: must hold at most 1000 intervals$"):
                read_intervals(text[i:i + 1000] for i in range(0, len(text), 1000))

        assert _peak_bytes(read) <= 8 * (8 * 1000)

    def test_reading_error_beats_the_cap(self, monkeypatch):
        monkeypatch.setattr(behavior, "MAX_LENGTH", 1000)

        def pieces():
            yield "1.5\n" * 1001
            raise ConfigError("input: not UTF-8 text")

        with pytest.raises(ConfigError, match="^input: not UTF-8 text$"):
            read_intervals(pieces())


class TestFileReader:
    """An interval file is decoded and parsed one piece at a time, with the
    errors of reading it whole."""

    def test_undecodable_byte_after_bad_token_wins(self, tmp_path, monkeypatch):
        # the whole file used to be decoded before any token was parsed
        monkeypatch.setattr(harnesses, "READ_CHUNK", 8192)
        path = tmp_path / "seq.txt"
        path.write_bytes(b"1.5\nabc\n" + b"2.5\n" * 5000 + b"\xff\n")
        pieces = harnesses.read_text("input", str(path))
        with pytest.raises(ConfigError, match=f"^input: not UTF-8 text: {re.escape(str(path))}: "):
            read_intervals(pieces)
        # the bad token is in the first piece, the byte in the third
        assert path.read_bytes().index(b"\xff") // 8192 == 2

    @pytest.mark.parametrize("space", ["\u3000", "\u0085"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 8191, 8192])
    def test_multibyte_whitespace_across_pieces(self, space, chunk, tmp_path, monkeypatch):
        # 8191 one-byte characters, then a separator of two or three bytes
        # across byte 8192, and piece ends on every side of one
        text = "2.5\n" * 2047 + "2.5" + space + space.join(["0.125", "7e-3", "1_000"] * 5)
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(harnesses, "READ_CHUNK", chunk)
        parsed = read_intervals(harnesses.read_text("input", str(path))).intervals
        np.testing.assert_array_equal(parsed, np.array(list(map(float, text.split()))))


def _peak_bytes(function):
    """The peak traced allocation while function() runs, above what was
    traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        function()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: spawns `python -m collapsim.cli ARGS` with stdout sent to os.devnull, reaps
#: it with wait4 so the counts are its own, and prints its exit code, minor
#: faults and peak RSS in KiB; a process inherits its parent's peak RSS across
#: exec, so this small launcher, not the test process, is the parent
CHILD_USAGE = """
import os, sys
argv = [sys.executable, "-m", "collapsim.cli", *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, argv, os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_minflt, usage.ru_maxrss)
"""


def _child_usage(*args):
    """(minor faults, peak RSS in KiB) of one fresh `collapsim.cli` process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", CHILD_USAGE, *args], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    code, faults, rss = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return faults, rss


class TestTextMemory:
    """Interval-file text is never held as one Python object per interval,
    nor as one string: formatting it piece by piece peaks at one block's
    working set, whatever its length, and reading its file within a small
    multiple of the text's length."""

    def test_format_peak(self):
        # 200000 values, 3.7 MB of text, are 40 blocks of a 0.81 MB working set
        # each, and while one is made its caller still holds the last 93 kB
        # piece: 903 kB against a bound of 911 kB. Holding one more piece
        # reaches 997 kB. The first run in a process also fills 2-9 kB of caches
        sequence = generate_sequence("pareto", 200_000, keyed_generator(102))
        one_block = EventSequence(sequence.intervals[:FORMAT_CHUNK])
        for _ in format_intervals(sequence):
            pass
        piece = next(format_intervals(one_block))
        assert _peak_bytes(lambda: [len(piece) for piece in format_intervals(sequence)]) \
            <= _peak_bytes(lambda: [len(piece) for piece in format_intervals(one_block)]) \
            + 1.1 * len(piece)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads Linux rusage, RSS in KiB")
    def test_fresh_process_faults_track_peak_rss(self, tmp_path):
        # tracemalloc cannot see glibc give a freed heap top back to the system
        # and fault it in again for the next block; a child's minor faults can.
        # Above a bare ks run, generate takes 0.5, 0.6 and 0.4 faults per page
        # of extra peak RSS at 3*10**5, 5*10**5 and 10**6 intervals, and
        # classify of the 10**6 file 0.6-0.9. With 7500-value format blocks,
        # whose arrays outgrow the 128 KiB glibc maps afresh, generate took
        # 3.3-5.7 and 5.5-8.1 at the two smaller sizes, and about 10 at 10**6
        # with 15000
        path = str(tmp_path / "seq.txt")
        base_faults, base_rss = _child_usage("ks")
        for args in (
            *(["generate", "--kind", "pareto", "--length", length, "--seed", "3", "--out", path]
              for length in ("300000", "500000", "1000000")),
            ["classify", "--input", path],
        ):
            faults, rss = _child_usage("behavior", *args)
            pages = (rss - base_rss) / 4
            assert faults - base_faults <= 3 * pages, \
                f"{args}: {faults - base_faults} faults over {pages:.0f} pages"

    def test_read_peak_above_its_input(self, tmp_path):
        text = "".join(format_intervals(generate_sequence("pareto", 200_000,
                                                          keyed_generator(103))))
        path = tmp_path / "seq.txt"
        path.write_text(text)
        assert _peak_bytes(lambda: read_intervals(harnesses.read_text("input", str(path)))) \
            <= 2.5 * len(text)

    def test_carried_token_read_alone(self, tmp_path):
        # a token that spans pieces is joined and read by float() on its own:
        # 2.01 times its length measured with 2**17-character pieces, 2.00
        # with 2**20; joined onto the next piece's text and parsed in numpy
        # instead, 5.0 times
        path = tmp_path / "seq.txt"
        path.write_text("0" * (4 * harnesses.READ_CHUNK) + "1.5")
        read = []
        peak = _peak_bytes(lambda: read.append(read_intervals(harnesses.read_text("input", str(path)))))
        assert read[0].intervals.tolist() == [1.5]
        assert peak <= 3 * path.stat().st_size
