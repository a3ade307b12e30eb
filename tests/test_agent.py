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
    act_trials,
    attention,
    born_reference,
    robot_act,
    selection,
)
from collapsim.errors import AllZeroPriorities, BadParameter, LengthMismatch
from collapsim.policies import deviation_statistic
from collapsim.quantum import make_state
from collapsim.rng import TRIAL_BLOCK, TrialStreams, trial_rng
from helpers import act_counts, act_outcomes
from oracles import asc_records

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

    @pytest.mark.parametrize("priorities", [
        (5e307, 5e307),
        (1e308, 7e307),  # a sum just under the largest float: no rescaling
        (1.7e308, 7e306, 1e-300),
        (3e-308, 1e-320, 0.0),
    ])
    def test_amplitudes_near_the_overflow_bound_are_the_plain_formula(self, priorities):
        # sqrt(p / sum p), normalized by make_state, wherever the sum is finite
        with np.errstate(over="raise"):
            state = attention(AlternativeSet(tuple("abc"[:len(priorities)]), priorities))
        p = np.array(priorities)
        assert np.array_equal(state.amplitudes, make_state(np.sqrt(p / p.sum())).amplitudes)

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
                assert trace.labels[trace.final_outcome] == "rest"

    def test_inadmissible_argmax_filtered(self):
        # norm favors an alternative with zero priority; the admissible
        # argmax applies instead
        alts = AlternativeSet(("0", "1", "2"), (0.75, 0.25, 0.0))
        norm = NormFunction({"0": 0.1, "1": 0.5, "2": 9.0})
        for t in range(50):
            trace = act(alts, norm, trial_rng(6, t))
            assert trace.labels[trace.final_outcome] == "1"

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
        # the ten-thousand-trial tests above count the engine's outcomes; act
        # is its block code at one row, on trial t's stream
        alts, norm, seed, mixing = ENGINE_CASES[case]
        traces = [act(alts, norm, trial_rng(seed, t), mixing) for t in range(500)]
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
        assert trace.labels[trace.final_outcome] == "good"
        assert trace.kind == "compute"
        assert [type(s) for s in trace.stages] == [ComputeStage]

    def test_deterministic_tie_lowest_index(self):
        flat = NormFunction({"bad": 1.0, "good": 1.0})
        assert robot_act(GOOD_BAD, flat).final_outcome == 0

    def test_no_admissibility_filter(self):
        alts = AlternativeSet(("a", "b"), (1.0, 0.0))
        norm = NormFunction({"a": 0.0, "b": 1.0})
        robot = robot_act(alts, norm)
        assert robot.labels[robot.final_outcome] == "b"


class TestDistinguishTraces:
    # objectively identical: the same final outcome; structurally distinct:
    # different stage shapes
    def test_same_outcome_different_structure(self):
        staged = act(GOOD_BAD, MORAL_NORM, trial_rng(12))
        computed = robot_act(GOOD_BAD, MORAL_NORM)
        assert staged.final_outcome == computed.final_outcome
        assert staged.stage_shape != computed.stage_shape

    def test_identical_runs(self):
        a = act(GOOD_BAD, MORAL_NORM, trial_rng(13))
        b = act(GOOD_BAD, MORAL_NORM, trial_rng(13))
        assert a.final_outcome == b.final_outcome
        assert a.stage_shape == b.stage_shape

    def test_admissibility_divergence(self):
        # norm's global argmax has zero amplitude: staged and computed split
        alts = AlternativeSet(("x", "y"), (1.0, 0.0))
        norm = NormFunction({"x": 0.0, "y": 1.0})
        staged, computed = act(alts, norm, trial_rng(14)), robot_act(alts, norm)
        assert staged.final_outcome != computed.final_outcome
        assert staged.stage_shape != computed.stage_shape


def test_act_trials_reproducible():
    first, _ = act_outcomes(GOOD_BAD, MORAL_NORM, 15, 20)
    second, _ = act_outcomes(GOOD_BAD, MORAL_NORM, 15, 20)
    assert first.tolist() == second.tolist()


# (labels, priorities, norm, tied count) of the column-draw cases, each with a
# zero-priority label: a tie at the optimum beside it, and the norm favouring
# it, which leaves one admissible optimum
COLUMN_CASES = {
    "tie": ("abcd", (0.4, 0.0, 0.35, 0.25), (2.0, 2.0, 2.0, 0.0), 2),
    "no-tie": ("abc", (0.6, 0.0, 0.4), (0.0, 5.0, 1.0), 1),
}
COLUMN_TRIALS = TRIAL_BLOCK + 1  # across a block boundary


def _column_case(case):
    labels, priorities, norm, ties = COLUMN_CASES[case]
    return (AlternativeSet(tuple(labels), priorities),
            NormFunction(dict(zip(labels, norm))), ties)


# (priorities, norm): a zero-priority label, the norm's best, first or last,
# and a tie at the admissible optimum or none
ZERO_EDGE_CASES = {
    "zero-first-tie": ((0.0, 0.3, 0.45, 0.25), (5.0, 2.0, 2.0, 0.0)),
    "zero-first-no-tie": ((0.0, 0.3, 0.45, 0.25), (5.0, 1.0, 2.0, 0.0)),
    "zero-last-tie": ((0.3, 0.45, 0.25, 0.0), (2.0, 2.0, 0.0, 5.0)),
    "zero-last-no-tie": ((0.3, 0.45, 0.25, 0.0), (1.0, 2.0, 0.0, 5.0)),
}


@pytest.mark.parametrize("mixing", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("case", sorted(ZERO_EDGE_CASES))
def test_zero_priority_edge_label_equals_oracle(case, mixing):
    # both branches search one table stack over all labels, where the
    # zero-priority label carries zero mass
    priorities, norm_values = ZERO_EDGE_CASES[case]
    alts = AlternativeSet(tuple("abcd"), priorities)
    norm = NormFunction(dict(zip(alts.labels, norm_values)))
    blocks = list(act_trials(alts, norm, 23, COLUMN_TRIALS, mixing))
    expected = asc_records(23, COLUMN_TRIALS, alts.labels, priorities, norm_values, mixing)
    chosen = np.concatenate([block.chosen for block in blocks])
    tie_broken = np.concatenate([block.tie_broken for block in blocks])
    assert chosen.tolist() == [record["outcome"] for record in expected]
    assert tie_broken.tolist() == [record["tie_broken"] for record in expected]
    assert priorities.index(0.0) not in chosen


@pytest.mark.parametrize("mixing", [0.0, 0.3, 0.95, 1.0])
@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
class TestColumnDraws:
    """act_trials reads its draws as whole columns of each block's words."""

    def test_blocks_equal_oracle_without_row_cursors(self, case, mixing, monkeypatch):
        alts, norm, _ = _column_case(case)
        opened = []
        real_init = TrialStreams.__init__

        def init(self, *args):
            real_init(self, *args)
            opened.append(self)

        monkeypatch.setattr(TrialStreams, "__init__", init)
        blocks = list(act_trials(alts, norm, 21, COLUMN_TRIALS, mixing))
        assert len(opened) == 2  # one stream per block: no block was redrawn
        expected = asc_records(21, COLUMN_TRIALS, alts.labels, alts.priorities,
                               [norm.values[label] for label in alts.labels], mixing)
        chosen = np.concatenate([block.chosen for block in blocks])
        tie_broken = np.concatenate([block.tie_broken for block in blocks])
        assert chosen.tolist() == [record["outcome"] for record in expected]
        assert tie_broken.tolist() == [record["tie_broken"] for record in expected]

    def test_act_is_row_t_and_reads_only_its_words(self, case, mixing):
        alts, norm, ties = _column_case(case)
        chosen, tie_broken = act_outcomes(alts, norm, 22, COLUMN_TRIALS, mixing)
        # each act call is one stream, so rows on both sides of the block
        # boundary of act_trials suffice
        for t in [*range(100), *range(COLUMN_TRIALS - 100, COLUMN_TRIALS)]:
            rng = trial_rng(22, t)
            trace = act(alts, norm, rng, mixing)
            assert (trace.final_outcome, trace.stages[1].tie_broken) \
                == (chosen[t], tie_broken[t])
            # word 0 decides the mixing; a branch reads the next word
            follow = mixing >= 1.0 or trial_rng(22, t).random()[0] < mixing
            words = (mixing < 1.0) + (not follow or ties > 1)
            assert rng.pos == words and rng._half_at < 0
