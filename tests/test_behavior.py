import numpy as np
import pytest

from collapsim.behavior import (
    EventSequence,
    classify,
    format_intervals,
    generate_sequence,
    read_intervals,
    tail_exponent,
)
from collapsim.errors import BadParameter, DegenerateSequence
from helpers import keyed_generator


class TestGenerateSequence:
    def test_exponential_mean(self):
        seq = generate_sequence("exponential", 10_000, keyed_generator(81), rate=1.0)
        assert 0.97 <= seq.intervals.mean() <= 1.03  # 3 sigma, sigma/sqrt(n)=0.01

    def test_pareto_support_bound(self):
        seq = generate_sequence("pareto", 10_000, keyed_generator(82), alpha=1.5, xmin=1.0)
        assert seq.intervals.min() >= 1.0

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
            read_intervals("\n\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(BadParameter, match="not an interval file"):
            read_intervals("1.0\np cnf 2 1\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(BadParameter):
            read_intervals("1.0\n-2.0\n")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # NaN passed the old `values <= 0` check and classified to a NaN
        # exponent; inf classified as levy_like
        lines = format_intervals(generate_sequence("exponential", 2000, keyed_generator(98)))
        lines = lines.splitlines()
        lines[700] = bad
        with pytest.raises(BadParameter, match="^all intervals must be positive and finite$"):
            read_intervals("\n".join(lines))

    @pytest.mark.parametrize("kind", ["exponential", "pareto"])
    def test_format_equals_per_element_repr(self, kind):
        draws = generate_sequence(kind, 2000, keyed_generator(99)).intervals
        extremes = [np.finfo(float).tiny, 1e16, 1e16 + 2, 9.999999999999998e15, 1e-5,
                    1.0000000000000002e-05, 0.30000000000000004, 0.1]
        sequence = EventSequence(np.concatenate([draws, extremes]))
        old = "\n".join(repr(float(x)) for x in sequence.intervals) + "\n"
        assert format_intervals(sequence) == old
        assert "0.30000000000000004\n" in old  # 17 significant digits
        np.testing.assert_array_equal(read_intervals(old).intervals, sequence.intervals)
