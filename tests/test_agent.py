import numpy as np
import pytest
from scipy import stats as scipy_stats

from collapsim.agent import (
    AlternativeSet,
    AttentionStage,
    CollapseStage,
    ComputeStage,
    NormFunction,
    SelectionStage,
    act,
    attention,
    born_reference,
    distinguish_traces,
    robot_act,
    run_trials,
    selection,
)
from collapsim.errors import AllZeroPriorities, BadParameter, LengthMismatch
from collapsim.policies import deviation_statistic
from collapsim.rng import trial_rng
from helpers import act_counts, act_outcomes

GOOD_BAD = AlternativeSet(("bad", "good"), (0.5, 0.5))
MORAL_NORM = NormFunction({"bad": 0.0, "good": 1.0})
TIED_FOUR = AlternativeSet(tuple("abcd"), (1.0,) * 4)
FLAT_FOUR = NormFunction({lab: 1.0 for lab in TIED_FOUR.labels})
# (alternatives, norm, seed, mixing) of the statistical TestAct cases
ENGINE_CASES = {
    "deviation": (
        AlternativeSet(("0", "1", "2"), (0.75, 0.25, 0.0)),
        NormFunction({"0": 0.0, "1": 1.0, "2": 0.0}),
        7,
        1.0,
    ),
    "constant-norm": (
        AlternativeSet(("a", "b", "c"), (0.5, 0.3, 0.2)),
        NormFunction({"a": 2.0, "b": 2.0, "c": 2.0}),
        9,
        1.0,
    ),
    "mixing-zero": (
        AlternativeSet(("a", "b"), (0.75, 0.25)),
        NormFunction({"a": 0.0, "b": 1.0}),
        10,
        0.0,
    ),
}


class TestAlternativeSet:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            AlternativeSet(("a", "b"), (1.0,))

    def test_duplicate_labels(self):
        with pytest.raises(BadParameter):
            AlternativeSet(("a", "a"), (1.0, 1.0))

    def test_all_zero_priorities(self):
        with pytest.raises(AllZeroPriorities):
            AlternativeSet(("a", "b"), (0.0, 0.0))

    def test_negative_priority(self):
        with pytest.raises(BadParameter):
            AlternativeSet(("a", "b"), (-0.5, 1.0))

    @pytest.mark.parametrize("priority", [float("nan"), float("inf")])
    def test_non_finite_priority(self, priority):
        with pytest.raises(BadParameter, match="priorities must be finite"):
            AlternativeSet(("a", "b"), (priority, 1.0))


class TestAttention:
    def test_timeline_amplitudes(self):
        # priorities (alpha^2, 1 - alpha^2) with alpha = 0.6
        alts = AlternativeSet(("tap", "rest"), (0.36, 0.64))
        state = attention(alts)
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-12)

    def test_uniform_priorities(self):
        alts = AlternativeSet(tuple("abcd"), (1.0,) * 4)
        np.testing.assert_allclose(attention(alts).amplitudes, [0.5] * 4, atol=1e-12)

    def test_priorities_whose_sum_overflows(self):
        alts = AlternativeSet(("a", "b", "c"), (1e308, 1e308, 0.0))
        with np.errstate(over="raise", invalid="raise"):
            state = attention(alts)
            reference = born_reference(alts)
        np.testing.assert_allclose(state.amplitudes, [2**-0.5, 2**-0.5, 0], atol=1e-15)
        np.testing.assert_allclose(reference.probs, [0.5, 0.5, 0], atol=1e-15)

    def test_zero_priority_gives_zero_amplitude(self):
        alts = AlternativeSet(("a", "b", "c"), (0.5, 0.5, 0.0))
        state = attention(alts)
        assert state.amplitudes[2] == 0.0
        probs = np.abs(state.amplitudes) ** 2
        assert set(np.flatnonzero(probs > 1e-12)) == {0, 1}


class TestSelection:
    def test_norm_argmax(self):
        state = attention(GOOD_BAD)
        chosen, tie_broken = selection(state, GOOD_BAD, MORAL_NORM, trial_rng(1))
        assert GOOD_BAD.labels[chosen] == "good"
        assert tie_broken is False

    def test_single_admissible(self):
        alts = AlternativeSet(("a", "b"), (0.0, 1.0))
        chosen, tie_broken = selection(
            attention(alts), alts, NormFunction({"a": 5.0, "b": 0.0}), trial_rng(2)
        )
        assert alts.labels[chosen] == "b" and not tie_broken

    def test_tie_break_uniform_chi_square(self):
        # act's first draw is the tie-break, so the engine's trial t makes the
        # choice selection(..., trial_rng(3, t)) makes (checked below)
        chosen, tie_broken = act_outcomes(TIED_FOUR, FLAT_FOUR, 3, 10_000)
        assert tie_broken.all()
        counts = np.bincount(chosen, minlength=4)
        chi2 = ((counts - 2500.0) ** 2 / 2500.0).sum()
        assert chi2 < scipy_stats.chi2.ppf(0.999, 3)

    def test_tie_break_loop_equals_engine(self):
        loop = [
            selection(attention(TIED_FOUR), TIED_FOUR, FLAT_FOUR, trial_rng(3, t))
            for t in range(500)
        ]
        chosen, tie_broken = act_outcomes(TIED_FOUR, FLAT_FOUR, 3, 500)
        assert loop == list(zip(chosen.tolist(), tie_broken.tolist()))

    def test_undefined_norm_label(self):
        with pytest.raises(BadParameter):
            selection(attention(GOOD_BAD), GOOD_BAD, NormFunction({"bad": 0.0}), trial_rng(4))


class TestAct:
    def test_norm_overrides_amplitudes(self):
        # deviation regardless of the attention weights
        for alpha_sq in (0.1, 0.36, 0.9):
            alts = AlternativeSet(("tap", "rest"), (alpha_sq, 1 - alpha_sq))
            norm = NormFunction({"tap": 0.0, "rest": 1.0})
            for t in range(50):
                trace = act(alts, norm, trial_rng(5, t))
                assert trace.final_label == "rest"

    def test_inadmissible_argmax_filtered(self):
        # norm favors an alternative with zero priority; the admissible
        # argmax applies instead
        alts = AlternativeSet(("0", "1", "2"), (0.75, 0.25, 0.0))
        norm = NormFunction({"0": 0.1, "1": 0.5, "2": 9.0})
        for t in range(50):
            trace = act(alts, norm, trial_rng(6, t))
            assert trace.final_label == "1"

    def test_deviation_statistics_at_ten_k(self):
        # state (sqrt(3)/2, 1/2, 0); norm favors index 1; Born predicts 1/4
        alts, norm, seed, mixing = ENGINE_CASES["deviation"]
        counts = act_counts(alts, norm, seed, 10_000, mixing)
        assert counts[1] == 10_000
        stats = deviation_statistic(counts, born_reference(alts))
        assert stats.tv == pytest.approx(0.75, abs=1e-12)

    def test_trace_shape_and_ticks(self):
        trace = act(GOOD_BAD, MORAL_NORM, trial_rng(8))
        assert trace.kind == "collapse"
        kinds = [type(s) for s in trace.stages]
        assert kinds == [AttentionStage, SelectionStage, CollapseStage]
        ticks = [s.tick for s in trace.stages]
        assert ticks[0] < ticks[1] < ticks[2]

    def test_constant_norm_degrades_to_born(self):
        alts, flat, seed, mixing = ENGINE_CASES["constant-norm"]
        counts = act_counts(alts, flat, seed, 10_000, mixing)
        reference = born_reference(alts)
        stats = deviation_statistic(counts, reference)
        assert stats.chi2 < scipy_stats.chi2.ppf(0.999, 2)

    def test_mixing_zero_is_born_sampling(self):
        alts, norm, seed, mixing = ENGINE_CASES["mixing-zero"]  # argmax would give b
        counts = act_counts(alts, norm, seed, 10_000, mixing)
        stats = deviation_statistic(counts, born_reference(alts))
        assert stats.chi2 < scipy_stats.chi2.ppf(0.999, 1)

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_act_loop_equals_engine(self, case):
        # the ten-thousand-trial tests above count the engine's outcomes
        alts, norm, seed, mixing = ENGINE_CASES[case]
        traces = run_trials(alts, norm, 500, seed, mixing)
        chosen, tie_broken = act_outcomes(alts, norm, seed, 500, mixing)
        assert [t.final_outcome for t in traces] == chosen.tolist()
        assert [t.stages[1].tie_broken for t in traces] == tie_broken.tolist()

    def test_mixing_range_checked(self):
        with pytest.raises(BadParameter):
            act(GOOD_BAD, MORAL_NORM, trial_rng(11), mixing=1.5)

    def test_never_realizes_zero_amplitude_outcome(self):
        rng_master = np.random.default_rng(71)
        for case in range(1000):
            n = int(rng_master.integers(2, 5))
            priorities = rng_master.random(n)
            priorities[rng_master.integers(n)] = 0.0
            if not priorities.any():
                priorities[0] = 1.0
            labels = tuple(f"alt{i}" for i in range(n))
            alts = AlternativeSet(labels, tuple(priorities))
            norm = NormFunction({lab: float(v) for lab, v in zip(labels, rng_master.random(n))})
            trace = act(alts, norm, trial_rng(72, case))
            assert priorities[trace.final_outcome] > 0


class TestRobotAct:
    def test_argmax(self):
        trace = robot_act(GOOD_BAD, MORAL_NORM)
        assert trace.final_label == "good"
        assert trace.kind == "compute"
        assert [type(s) for s in trace.stages] == [ComputeStage]

    def test_deterministic_tie_lowest_index(self):
        flat = NormFunction({"bad": 1.0, "good": 1.0})
        assert robot_act(GOOD_BAD, flat).final_outcome == 0

    def test_no_admissibility_filter(self):
        alts = AlternativeSet(("a", "b"), (1.0, 0.0))
        norm = NormFunction({"a": 0.0, "b": 1.0})
        assert robot_act(alts, norm).final_label == "b"


class TestDistinguishTraces:
    def test_same_outcome_different_structure(self):
        staged = act(GOOD_BAD, MORAL_NORM, trial_rng(12))
        computed = robot_act(GOOD_BAD, MORAL_NORM)
        comparison = distinguish_traces(staged, computed)
        assert comparison.objectively_identical is True
        assert comparison.structurally_distinct is True

    def test_identical_runs(self):
        a = act(GOOD_BAD, MORAL_NORM, trial_rng(13))
        b = act(GOOD_BAD, MORAL_NORM, trial_rng(13))
        comparison = distinguish_traces(a, b)
        assert comparison.objectively_identical is True
        assert comparison.structurally_distinct is False

    def test_admissibility_divergence(self):
        # norm's global argmax has zero amplitude: staged and computed split
        alts = AlternativeSet(("x", "y"), (1.0, 0.0))
        norm = NormFunction({"x": 0.0, "y": 1.0})
        comparison = distinguish_traces(
            act(alts, norm, trial_rng(14)), robot_act(alts, norm)
        )
        assert comparison.objectively_identical is False
        assert comparison.structurally_distinct is True


def test_run_trials_reproducible():
    first = run_trials(GOOD_BAD, MORAL_NORM, 20, seed=15)
    second = run_trials(GOOD_BAD, MORAL_NORM, 20, seed=15)
    assert [t.final_outcome for t in first] == [t.final_outcome for t in second]
