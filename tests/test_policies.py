from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from collapsim.errors import BadParameter, ForbiddenOutcome, LengthMismatch
from collapsim import policies
from collapsim.policies import (
    Biased,
    Born,
    Forced,
    Scripted,
    compile_policy,
    describe_policy,
    deviation_statistic,
    parse_policy,
    policy_distribution,
    sample_from_born,
)
from collapsim.quantum import (
    ProbabilityDistribution,
    ProjectiveMeasurement,
    born_distribution,
    make_state,
)
from collapsim.rng import TRIAL_BLOCK, cumulative, sample_indices, trial_rng
from helpers import keyed_generator, random_measurement, random_state, sample_counts
from oracles import policy_outcome

Z2 = ProjectiveMeasurement.computational(2)
Z3 = ProjectiveMeasurement.computational(3)
Z4 = ProjectiveMeasurement.computational(4)


def qutrit(theta):
    return make_state([np.cos(theta), np.sin(theta), 0.0])


class TestAdmissibleOutcomes:
    def test_qutrit_excludes_zero_amplitude(self):
        assert born_distribution(qutrit(np.pi / 6), Z3).support() == {0, 1}

    def test_eigenstate(self):
        assert born_distribution(make_state([1, 0]), Z2).support() == {0}

    def test_uniform_dim4(self):
        assert born_distribution(make_state([1, 1, 1, 1]), Z4).support() == {0, 1, 2, 3}


class TestEffectiveDistribution:
    def test_forced_is_point_mass(self):
        d = policy_distribution(Forced(0), born_distribution(qutrit(np.pi / 4), Z3))
        np.testing.assert_array_equal(d.probs, [1.0, 0.0, 0.0])

    def test_forced_inadmissible_raises(self):
        with pytest.raises(ForbiddenOutcome):
            policy_distribution(Forced(2), born_distribution(qutrit(np.pi / 6), Z3))

    def test_born_matches_born_distribution_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            s, m = random_state(rng, dim), random_measurement(rng, dim)
            np.testing.assert_array_equal(
                policy_distribution(Born(), born_distribution(s, m)).probs,
                born_distribution(s, m).probs,
            )

    def test_biased_returns_given_weights(self):
        w = ProbabilityDistribution(np.array([0.75, 0.25]))
        d = policy_distribution(Biased(w), born_distribution(make_state([1, 1]), Z2))
        np.testing.assert_array_equal(d.probs, [0.75, 0.25])

    def test_biased_support_violation(self):
        w = ProbabilityDistribution(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ForbiddenOutcome):
            policy_distribution(Biased(w), born_distribution(qutrit(np.pi / 6), Z3))

    def test_biased_length_mismatch(self):
        w = ProbabilityDistribution(np.array([0.5, 0.5]))
        with pytest.raises(LengthMismatch):
            policy_distribution(Biased(w), born_distribution(qutrit(np.pi / 6), Z3))

    def test_scripted_peeks_without_consuming(self):
        policy = Scripted((1, 0), Born())
        born = born_distribution(make_state([1, 1]), Z2)
        first = policy_distribution(policy, born)
        second = policy_distribution(policy, born)
        np.testing.assert_array_equal(first.probs, [0.0, 1.0])
        np.testing.assert_array_equal(second.probs, [0.0, 1.0])

    def test_scripted_inadmissible_entry_uses_fallback(self):
        policy = Scripted((1,), Born())
        d = policy_distribution(policy, born_distribution(make_state([1, 0]), Z2))
        np.testing.assert_array_equal(d.probs, [1.0, 0.0])

    def test_scripted_fallback_nesting_rejected(self):
        with pytest.raises(BadParameter):
            Scripted((0,), Scripted((1,), Born()))

    def test_scripted_is_frozen(self):
        policy = Scripted((1, 0), Born())
        with pytest.raises(FrozenInstanceError):
            policy.sequence = (0,)

    def test_equal_scripts_compare_equal(self):
        assert Scripted([1, 0], Forced(1)) == Scripted((1, 0), Forced(1))
        assert Scripted((1, 0)) != Scripted((0, 1))


class TestSampleOutcome:
    def test_forced_every_seed(self):
        born = born_distribution(qutrit(np.pi / 4), Z3)
        for seed in range(50):
            out = sample_from_born(Forced(0), born, trial_rng(seed))
            assert out.outcome == 0
            assert out.policy_prob == 1.0
            assert out.born_prob == pytest.approx(0.5)
            assert not out.forbidden_attempted

    def test_born_long_run_frequency(self):
        # the hits of 10^5 per-trial draws (oracles.policy_outcome) on one
        # rng = keyed_generator(123): sample_counts draws as that loop does
        # (test_sample_counts_equals_per_trial_sampling checks it at 500 trials)
        s = make_state([1, 1])
        hits = sample_counts(Born(), s, Z2, 100_000, keyed_generator(123))[0]
        assert 0.494 <= hits / 100_000 <= 0.506  # 3 sigma at p=1/2, n=1e5

    def test_scripted_plays_admissible_entries_in_order(self):
        policy = Scripted((1, 0, 1), Born())
        born = born_distribution(make_state([1, 1]), Z2)
        rng = trial_rng(7)
        outcomes = [sample_from_born(policy, born, rng, trial=t).outcome for t in range(3)]
        assert outcomes == [1, 0, 1]

    def test_scripted_flags_forbidden_attempt_and_falls_back(self):
        policy = Scripted((1, 0), Born())
        born = born_distribution(make_state([1, 0]), Z2)  # outcome 1 inadmissible
        rng = trial_rng(8)
        first = sample_from_born(policy, born, rng, trial=0)
        assert first.forbidden_attempted and first.outcome == 0
        second = sample_from_born(policy, born, rng, trial=1)
        assert not second.forbidden_attempted and second.outcome == 0
        past_script = sample_from_born(policy, born, rng, trial=2)
        assert not past_script.forbidden_attempted and past_script.outcome == 0

    def test_forced_determinism_bulk(self):
        s = make_state([1, 1, 1, 1])
        counts = sample_counts(Forced(2), s, Z4, 1000, keyed_generator(3))
        assert counts[2] == 1000 and counts.sum() == 1000

    def test_sample_counts_plays_script_then_fallback(self):
        # trials 0..3 play the script (entry 2 is inadmissible and falls back
        # to forced:0), trials 4..9 the fallback
        policy = Scripted((1, 2, 1, 0), Forced(0))
        counts = sample_counts(policy, qutrit(np.pi / 4), Z3, 10, keyed_generator(0))
        expected = np.bincount([1, 0, 1, 0] + [0] * 6, minlength=3)
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize(
        "policy",
        [Born(), Forced(1), Biased(ProbabilityDistribution(np.array([0.3, 0.7, 0.0]))),
         Scripted((1, 2, 0, 1), Biased(ProbabilityDistribution(np.array([0.9, 0.1, 0.0]))))],
        ids=["born", "forced", "biased", "scripted"],
    )
    def test_sample_counts_equals_per_trial_sampling(self, policy):
        # one draw of one stream per trial, in order, by the scalar oracle
        s = qutrit(np.pi / 5)
        born = born_distribution(s, Z3)
        rng = keyed_generator(4)
        per_trial = [policy_outcome(policy, born, rng, t) for t in range(500)]
        np.testing.assert_array_equal(
            sample_counts(policy, s, Z3, 500, keyed_generator(4)), np.bincount(per_trial, minlength=3)
        )

    def test_sample_counts_across_blocks_equals_one_shot_count(self):
        # oracle: every trial's uniform drawn by one rng.random(trials) call;
        # the script (whose 2s are inadmissible) ends inside the second block
        trials = 3 * TRIAL_BLOCK + 17
        script = tuple(int(j) for j in np.random.default_rng(5).integers(0, 3, TRIAL_BLOCK + 9))
        policy = Scripted(script, Biased(ProbabilityDistribution(np.array([0.35, 0.65, 0.0]))))
        s = qutrit(np.pi / 5)
        plan = compile_policy(policy, born_distribution(s, Z3), trials)
        one_shot = plan.sample(keyed_generator(6).random(trials), np.arange(trials))
        np.testing.assert_array_equal(
            sample_counts(policy, s, Z3, trials, keyed_generator(6)), np.bincount(one_shot, minlength=3)
        )


@pytest.mark.parametrize("trials", [3, 4, 5])
def test_plan_row_of_each_trial_is_its_policy_distribution(trials):
    # a script of 4 entries (the 2s inadmissible) planned for fewer trials,
    # exactly as many, and one more: trial t reads cums[rows[min(t, last)]]
    born = ProbabilityDistribution(np.array([0.3, 0.7, 0.0]))
    policy = Scripted((1, 2, 0, 2), Biased(ProbabilityDistribution(np.array([0.6, 0.4, 0.0]))))
    plan = compile_policy(policy, born, trials)
    assert len(plan.rows) == min(trials, len(policy.sequence) + 1)
    for t in range(trials):
        row = plan.rows[min(t, len(plan.rows) - 1)]
        expected = cumulative(policy_distribution(policy, born, t).probs)
        assert plan.cums[row].tobytes() == expected.tobytes(), t
    u = keyed_generator(8).random(trials)
    t = np.arange(trials)
    rows = [plan.rows[min(i, len(plan.rows) - 1)] for i in t]
    assert plan.sample(u, t).tolist() == sample_indices(u, plan.cums, np.array(rows)).tolist()


def test_unscripted_plan_is_one_table_and_one_row():
    born = ProbabilityDistribution(np.array([0.3, 0.7, 0.0]))
    plan = compile_policy(Born(), born, 5)
    assert plan.cums.tobytes() == cumulative(born.probs)[None].tobytes()
    assert plan.rows.tolist() == [0]


def test_weak_compatibility_containment_property():
    # a policy's support is always inside the admissible set
    rng = np.random.default_rng(22)
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        s, m = random_state(rng, dim), random_measurement(rng, dim)
        born = born_distribution(s, m)
        admissible = born.support()
        policies = [Born()]
        target = int(rng.choice(sorted(admissible)))
        policies.append(Forced(target))
        weights = np.zeros(dim)
        weights[sorted(admissible)] = rng.random(len(admissible)) + 0.01
        policies.append(Biased(ProbabilityDistribution(weights / weights.sum())))
        policies.append(Scripted((int(rng.integers(dim)),), Born()))
        for policy in policies:
            dist = policy_distribution(policy, born)
            assert dist.support() <= admissible, (policy, born.probs)


@pytest.mark.parametrize(
    "policy, born",
    [
        # a weight at or below ZERO_PROB on a zero-Born outcome passes the
        # Biased gate, which looks only at the weights' support
        (Biased(ProbabilityDistribution(np.array([1e-13, 1 - 1e-13]))), [0.0, 1.0]),
        # a Born mass in (0, ZERO_PROB] that Forced would refuse
        (Born(), [1e-13, 1 - 1e-13]),
    ],
    ids=["biased-weight", "born-mass"],
)
def test_mass_at_or_below_zero_prob_is_never_drawn(policy, born):
    # u = 0.0 lands on the first entry whose cumulative mass exceeds 0
    plan = compile_policy(policy, ProbabilityDistribution(np.array(born)), 1)
    assert plan.sample(np.array([0.0]), np.array([0])).tolist() == [1]
    assert cumulative([1e-13, np.nan, 0.5, 1e-12]).tolist() == [0.0, 0.0, 0.5, 0.5]


def test_born_long_run_chi_square_conformance():
    # zeroth-order sampling conforms to the Born rule at significance 0.001
    rng = np.random.default_rng(23)
    for case in range(5):
        dim = int(rng.integers(2, 6))
        s, m = random_state(rng, dim), random_measurement(rng, dim)
        born = born_distribution(s, m)
        counts = sample_counts(Born(), s, m, 100_000, keyed_generator(900 + case))
        stats = deviation_statistic(counts, born)
        df = len(born.support()) - 1
        assert stats.chi2 < scipy_stats.chi2.ppf(0.999, df)


class TestDeviationStatistic:
    def test_perfect_match(self):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        stats = deviation_statistic([500, 500], ref)
        assert stats.tv == 0.0 and stats.chi2 == 0.0

    def test_total_concentration(self):
        # oracle: tv = 0.5*(|1-0.5| + |0-0.5|) = 0.5
        #         chi2 = (1000-500)^2/500 * 2 = 1000
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        stats = deviation_statistic([1000, 0], ref)
        assert stats.tv == pytest.approx(0.5)
        assert stats.chi2 == pytest.approx(1000.0)

    def test_three_quarters(self):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        assert deviation_statistic([750, 250], ref).tv == pytest.approx(0.25)

    def test_length_mismatch(self):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        with pytest.raises(LengthMismatch):
            deviation_statistic([1, 2, 3], ref)

    def test_empty_counts_rejected(self):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        with pytest.raises(BadParameter):
            deviation_statistic([0, 0], ref)

    @pytest.mark.parametrize(
        "counts, error, message",
        [
            ([3, -1], BadParameter, "counts must be non-negative"),
            ([-1.0, np.nan], BadParameter, "counts must be non-negative"),  # NaN hides no count
            ([0, 0], BadParameter, "at least one observation is required"),
            ([0.25, 0.5], BadParameter, "at least one observation is required"),
            ([1, 2, 3], LengthMismatch, "3 counts for 2 outcomes"),
            ([[1, 2]], LengthMismatch, "2 counts for 2 outcomes"),
        ],
    )
    def test_messages(self, counts, error, message):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        with pytest.raises(error) as info:
            deviation_statistic(counts, ref)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("counts, expected", [
        ([np.nan, 1.0], "(nan, nan, 1, 1.0)"),
        ([1e308, 1e308], "(0.5, nan, 1, 1.0)"),  # the total overflows
    ])
    def test_nan_and_overflowing_counts_are_no_error(self, counts, expected):
        ref = ProbabilityDistribution(np.array([0.5, 0.5]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert str(tuple(deviation_statistic(counts, ref))) == expected

    def test_df_and_pvalue(self):
        # df counts the outcomes of nonzero reference probability, less one
        ref = ProbabilityDistribution(np.array([0.5, 0.3, 0.2, 0.0]))
        stats = deviation_statistic([480, 330, 190, 0], ref)
        assert stats.df == 2
        assert stats.pvalue == pytest.approx(scipy_stats.chi2.sf(stats.chi2, 2), rel=1e-12)
        assert deviation_statistic([1000, 0], ProbabilityDistribution(np.array([1.0, 0.0]))).df == 1


#: the last uniform below 1, and the drawn index of each table at u = 0 and there
U_TOP = np.nextafter(1.0, 0.0)
EDGE_TABLES = [
    ([0.2, 0.5, 0.3], 0, 2),
    ([0.5, 0.5, 0.0, 0.0], 0, 1),  # trailing zero masses are never drawn
    ([0.0, 0.0, 1.0], 2, 2),  # leading ones neither
    ([0.0, 1e-13, 0.0, 1.0], 3, 3),  # nor a mass at or below ZERO_PROB
    ([0.0, 0.0], 1, 1),  # an all-zero table draws its last index
    ([1.0], 0, 0),
]


@pytest.mark.parametrize("probs, at_zero, at_top", EDGE_TABLES)
def test_sample_indices_edges_on_one_table_and_on_a_stack(probs, at_zero, at_top):
    u = np.array([0.0, U_TOP])
    cums = cumulative(probs)
    assert sample_indices(u, cums).tolist() == [at_zero, at_top]
    # the same table as row 1 of a stack, between two others of its length
    stack = np.stack([cumulative(np.eye(len(probs))[0]), cums, cums[::-1]])
    assert sample_indices(u, stack, np.array([1, 1])).tolist() == [at_zero, at_top]
    assert sample_indices(u, stack, np.array([0, 0])).tolist() == [0, 0]


def _tail_points(df: int) -> np.ndarray:
    """0, 1e-300, a grid to 3*df + 10 and exponential draws of mean df."""
    draws = np.random.default_rng(df).exponential(df, 60)
    return np.concatenate([[0.0, 1e-300], np.linspace(0.0, 3 * df + 10, 61), draws])


@pytest.mark.parametrize(
    "dfs, rel",
    [(list(range(1, 61)) + [100, 1000], 1e-12), ([10_000], 1e-10)],
    ids=["df-1-60-100-1000", "df-10000"],
)
def test_chi2_tail_matches_scipy(dfs, rel):
    for df in dfs:
        xs = _tail_points(df)
        got = np.array([policies._chi2_sf(float(x), df) for x in xs])
        assert np.all((got >= 0.0) & (got <= 1.0)), df
        expected = scipy_stats.chi2.sf(xs, df)
        kept = expected >= 1e-300
        error = np.abs(got[kept] - expected[kept]) / expected[kept]
        assert error.max() <= rel, (df, xs[kept][error.argmax()])


@pytest.mark.parametrize("df", [1, 2, 3, 4, 59, 60, 1000, 10_000])
def test_chi2_tail_ends(df):
    assert policies._chi2_sf(0.0, df) == 1.0
    assert policies._chi2_sf(1e8, df) == 0.0
    assert policies._chi2_sf(1e308, df) == 0.0
    assert policies._chi2_sf(float("inf"), df) == 0.0
    for x in (5e-324, 1e-12, 0.5 * df, df, 2.0 * df, 1e5, 1e300):
        value = policies._chi2_sf(x, df)
        assert 0.0 <= value <= 1.0, x  # and so not NaN


@given(counts=st.lists(st.integers(0, 10_000), min_size=2, max_size=6))
def test_deviation_statistic_bounds(counts):
    assume(sum(counts) >= 1)
    n = len(counts)
    ref = ProbabilityDistribution(np.full(n, 1.0 / n))
    stats = deviation_statistic(counts, ref)
    assert 0.0 <= stats.tv <= 1.0
    assert stats.chi2 >= 0.0
    if len(set(counts)) == 1:  # uniform counts match the uniform reference
        assert stats.tv == pytest.approx(0.0, abs=1e-12)
        assert stats.chi2 == pytest.approx(0.0, abs=1e-9)


class TestPolicyGrammar:
    @pytest.mark.parametrize(
        "text",
        ["born", "forced:2", "biased:0.75,0.25", "scripted:1,0,1;fallback=born"],
    )
    def test_round_trip(self, text):
        assert describe_policy(parse_policy(text)).startswith(text.split(":")[0])

    def test_parse_forced(self):
        policy = parse_policy("forced:3")
        assert isinstance(policy, Forced) and policy.target == 3

    def test_parse_biased(self):
        policy = parse_policy("biased:0.75,0.25")
        np.testing.assert_allclose(policy.weights.probs, [0.75, 0.25])

    def test_parse_scripted_with_fallback(self):
        policy = parse_policy("scripted:1,0,1;fallback=forced:0")
        assert policy.sequence == (1, 0, 1)
        assert isinstance(policy.fallback, Forced)

    def test_parse_scripted_default_fallback(self):
        assert isinstance(parse_policy("scripted:2,2").fallback, Born)

    @pytest.mark.parametrize(
        "text",
        ["bogus", "forced:x", "biased:a,b", "scripted:1;oops=born", "biased:1,1",
         "biased:-1,2", "biased:nan,1", "biased:inf,0", "biased:1e308,1e308",
         "scripted:0;fallback=biased:0.5,0.6"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(BadParameter):
            parse_policy(text)
