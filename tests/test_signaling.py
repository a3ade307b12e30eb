import math

import json

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from collapsim.cli import main
from collapsim.errors import BadParameter, DimensionMismatch
from collapsim.policies import Biased, Born, Forced, total_variation
from collapsim.quantum import (
    ProbabilityDistribution,
    ProjectiveMeasurement,
    make_state,
    paired_born,
    tensor,
)
from collapsim.signaling import (
    bob_marginal_analytic,
    channel_capacity,
    independence_pvalue,
    signaling_experiment,
)
from helpers import paired_settings, random_measurement, random_state
from oracles import lift

Z = ProjectiveMeasurement.computational(2)
X = ProjectiveMeasurement.from_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
BELL = make_state([1, 0, 0, 1])
BELL_ZZ = paired_born(BELL, (2, 2), Z, [Z])


def biased(*weights):
    return Biased(ProbabilityDistribution(np.asarray(weights)))


def ternary_capacity(rows):
    """Reference: max over the input weight a of I(a), concave, by ternary search."""
    def h(p):
        return -sum(x * math.log2(x) for x in p if x > 0)

    def info(a):
        out = [a * x + (1 - a) * y for x, y in zip(*rows)]
        return h(out) - a * h(rows[0]) - (1 - a) * h(rows[1])

    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if info(m1) < info(m2):
            lo = m1
        else:
            hi = m2
    return max(info((lo + hi) / 2), 0.0)


def near_null_channels():
    """2x2 channels [[p, 1-p], [p+eps, 1-p-eps]] close to and far from the null,
    and one whose output probability q_p underflows to 0 (half the least subnormal)."""
    return [
        [[p, 1 - p], [p + sign * eps, 1 - p - sign * eps]]
        for p in np.linspace(0.15, 0.85, 8)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
        for sign in (1, -1)
    ] + [[[5e-324, 1.0], [0.0, 1.0]]]


def ternary_channels():
    """2x3 channels: random, with a zero entry, and random ones just off the null."""
    rng = np.random.default_rng(44)
    rows = []
    for i in range(40):
        a = rng.random(3)
        if i % 4 == 0:
            a[i % 3] = 0.0
        a /= a.sum()
        b = rng.random(3) if i % 2 else np.abs(a + 10.0 ** -(i % 7) * rng.normal(size=3))
        rows.append([a.tolist(), (b / b.sum()).tolist()])
    return rows + [[[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]], [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]]


class TestBobMarginalAnalytic:
    def test_born_gives_maximally_mixed(self):
        marginal = bob_marginal_analytic(BELL_ZZ, Born())
        np.testing.assert_allclose(marginal.probs, [0.5, 0.5], atol=1e-12)

    def test_forced_steers_bob(self):
        marginal = bob_marginal_analytic(BELL_ZZ, Forced(0))
        np.testing.assert_allclose(marginal.probs, [1.0, 0.0], atol=1e-12)

    def test_biased_is_convex_mixture_oracle(self):
        # oracle: w0 * marginal(forced 0) + w1 * marginal(forced 1)
        w = (0.75, 0.25)
        forced_marginals = [
            bob_marginal_analytic(BELL_ZZ, Forced(j)).probs for j in (0, 1)
        ]
        expected = w[0] * forced_marginals[0] + w[1] * forced_marginals[1]
        marginal = bob_marginal_analytic(BELL_ZZ, biased(*w))
        np.testing.assert_allclose(marginal.probs, expected, atol=1e-12)
        np.testing.assert_allclose(marginal.probs, [0.75, 0.25], atol=1e-12)


class TestExactMarginals:
    """Each conditional row is its joint row over that row's own sum, so a
    deterministic steer reads exactly 1 and a biased mixture exactly w, in
    the Hadamard basis too (where the collapse path read 0.9999999999999999)."""

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_forced_pair_reads_an_exact_one(self, basis, capsys):
        argv = ["signal", "--policy0", "forced:0", "--policy1", "forced:1",
                "--alice-basis0", basis, "--alice-basis1", basis, "--bob-basis", basis]
        assert main(argv) == 0
        aggregate = json.loads(capsys.readouterr().out.splitlines()[1])
        assert aggregate["max_tv"] == 1.0
        assert aggregate["bob_marginal_0"] == [1.0, 0.0]
        assert aggregate["bob_marginal_1"] == [0.0, 1.0]

    @pytest.mark.parametrize("basis", [Z, X])
    @pytest.mark.parametrize("w", [0.75, 0.3, 0.1, 1 / 3, 0.123456789])
    def test_biased_marginal_is_its_weight(self, basis, w):
        tables = paired_born(BELL, (2, 2), basis, [basis])
        marginal = bob_marginal_analytic(tables, biased(w, 1 - w))
        assert marginal[0] == w


class TestChannelCapacity:
    def test_perfect_binary_channel(self):
        assert channel_capacity(np.eye(2)) == pytest.approx(1.0, abs=1e-9)

    def test_useless_channel(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert channel_capacity(w) == pytest.approx(0.0, abs=1e-9)

    def test_binary_symmetric_channel_closed_form(self):
        # oracle: C = 1 - H2(p)
        p = 0.11
        h2 = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        w = np.array([[1 - p, p], [p, 1 - p]])
        assert channel_capacity(w) == pytest.approx(1.0 - h2, abs=1e-7)

    def test_rejects_non_stochastic(self):
        with pytest.raises(BadParameter):
            channel_capacity(np.array([[0.5, 0.1], [0.5, 0.5]]))

    @pytest.mark.parametrize("off, refused", [(5e-6, True), (5e-11, False)])
    def test_row_sums_held_to_atol(self, off, refused):
        rows = np.array([[0.5, 0.5 + off], [0.5, 0.5]])
        if refused:
            with pytest.raises(BadParameter, match="probability distributions"):
                channel_capacity(rows)
        else:
            assert channel_capacity(rows) >= 0.0

    @pytest.mark.parametrize("rows", [np.eye(3), np.full((1, 2), 0.5), np.eye(2)[None]])
    def test_rejects_other_than_two_rows(self, rows):
        with pytest.raises(BadParameter, match="two rows"):
            channel_capacity(rows)

    @pytest.mark.parametrize("rows", near_null_channels() + ternary_channels())
    def test_matches_ternary_search_reference(self, rows):
        assert channel_capacity(np.array(rows)) == pytest.approx(
            ternary_capacity(rows), abs=1e-12
        )


class TestSignalingExperiment:
    def test_forced_pair_opens_one_bit_channel(self):
        report = signaling_experiment(
            paired_settings(BELL, (2, 2), Z, {"0": (Z, Forced(0)), "1": (Z, Forced(1))})
        )
        assert report.max_tv == pytest.approx(1.0, abs=1e-12)
        assert report.channel_bits == pytest.approx(1.0, abs=1e-6)
        assert report.mode == "analytic"

    def test_born_settings_cannot_signal(self):
        report = signaling_experiment(
            paired_settings(BELL, (2, 2), Z, {"0": (Z, Born()), "1": (X, Born())})
        )
        assert report.max_tv <= 1e-12
        assert report.channel_bits <= 1e-9

    def test_biased_vs_born_quarter(self):
        report = signaling_experiment(
            paired_settings(BELL, (2, 2), Z, {"0": (Z, Born()), "1": (Z, biased(0.75, 0.25))})
        )
        assert report.max_tv == pytest.approx(0.25, abs=1e-12)

    def test_single_setting_rejected(self):
        with pytest.raises(BadParameter):
            signaling_experiment({"0": (BELL_ZZ, Born())})

    def test_three_settings_rejected(self):
        settings = {label: (BELL_ZZ, Born()) for label in ("0", "1", "2")}
        with pytest.raises(BadParameter, match="exactly two"):
            signaling_experiment(settings)

    @pytest.mark.parametrize("trials", [None, 10])
    def test_bob_tables_must_share_a_width(self, trials):
        qutrit_bob = paired_born(make_state([1, 0, 0, 0, 1, 0]), (2, 3), Z, [Z3])
        with pytest.raises(DimensionMismatch, match="differ in outcome count: \\[2, 3\\]"):
            signaling_experiment({"0": (BELL_ZZ, Born()), "1": (qutrit_bob, Born())}, trials)

    @pytest.mark.parametrize("trials", [None, 10])
    def test_bob_table_needs_a_row_per_alice_outcome(self, trials):
        alice_qutrit = ProbabilityDistribution(np.full(3, 1 / 3))
        settings = {"0": (BELL_ZZ, Born()), "1": ((alice_qutrit, BELL_ZZ[1]), Born())}
        with pytest.raises(DimensionMismatch, match="setting 1: .* 2 rows for 3 Alice outcomes"):
            signaling_experiment(settings, trials)


class TestNearNullChannelsThroughCli:
    """Channels just off the null, which an iterative capacity solver may not finish."""

    def test_analytic_channel_just_off_the_null(self, capsys):
        argv = ["signal", "--policy0", "biased:0.3,0.7", "--policy1", "biased:0.3046,0.6954"]
        assert main(argv) == 0
        assert '"channel_bits"' in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(12))
    def test_empirical_null(self, seed, capsys):
        argv = ["signal", "--mode", "empirical", "--trials", "100000",
                "--policy0", "biased:0.3,0.7", "--policy1", "biased:0.3,0.7",
                "--seed", str(seed)]
        assert main(argv) == 0
        assert '"channel_bits"' in capsys.readouterr().out


def test_born_policy_null_property():
    # the no-signaling theorem: Born marginals ignore Alice's choice
    rng = np.random.default_rng(41)
    for _ in range(100):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        shared = random_state(rng, da * db)
        meas_a = random_measurement(rng, da)
        meas_b = random_measurement(rng, da)
        bob = random_measurement(rng, db)
        report = signaling_experiment(
            paired_settings(shared, (da, db), bob, {"0": (meas_a, Born()), "1": (meas_b, Born())})
        )
        assert report.max_tv <= 1e-12


def test_deviation_tv_equals_weight_tv_on_bell():
    # analytic identity: Bob-side tv equals tv between weights and Born
    rng = np.random.default_rng(42)
    born_dist = np.array([0.5, 0.5])
    for _ in range(20):
        w = rng.random(2) + 0.05
        w /= w.sum()
        report = signaling_experiment(
            paired_settings(BELL, (2, 2), Z, {"0": (Z, Born()), "1": (Z, biased(*w))})
        )
        assert report.max_tv == pytest.approx(total_variation(w, born_dist), abs=1e-12)


def test_product_states_cannot_signal_even_with_deviation():
    # deviation alone is insufficient; entanglement is required
    rng = np.random.default_rng(43)
    for _ in range(50):
        shared = tensor(random_state(rng, 2), random_state(rng, 2))
        alice_meas = random_measurement(rng, 2)
        policies = {"0": (alice_meas, Born()), "1": (alice_meas, Forced(0))}
        # pick a forced target that is admissible for this state/measurement
        from collapsim.policies import admissible_outcomes

        target = sorted(
            admissible_outcomes(shared, lift(alice_meas, (2, 2), "A"))
        )[0]
        policies["1"] = (alice_meas, Forced(target))
        report = signaling_experiment(
            paired_settings(shared, (2, 2), random_measurement(rng, 2), policies)
        )
        assert report.max_tv <= 1e-12


def test_empirical_mode_converges_to_analytic():
    trials = 100_000
    settings = paired_settings(BELL, (2, 2), Z, {"0": (Z, Born()), "1": (Z, biased(0.8, 0.2))})
    analytic = signaling_experiment(settings)
    empirical = signaling_experiment(settings, trials=trials, seed=5)
    assert empirical.mode == "empirical"
    tv_slack = 0.0
    for label in ("0", "1"):
        exact = np.asarray(analytic.bob_marginals[label])
        sampled = np.asarray(empirical.bob_marginals[label])
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / trials)
        assert np.all(np.abs(sampled - exact) <= 3 * sigma + 1e-9)
        # |tv(a,b) - tv(a',b')| <= (L1 perturbation of each argument) / 2
        tv_slack += 0.5 * float((3 * sigma).sum())
    assert abs(empirical.max_tv - analytic.max_tv) <= tv_slack + 1e-9


def test_empirical_reproducible():
    settings = paired_settings(BELL, (2, 2), Z, {"0": (Z, Forced(0)), "1": (Z, Forced(1))})
    first = signaling_experiment(settings, trials=500, seed=9)
    second = signaling_experiment(settings, trials=500, seed=9)
    assert first.bob_marginals == second.bob_marginals


def scipy_g_test(table):
    """scipy's G-test of independence over the columns seen; 1 with one column."""
    seen = table[:, table.sum(axis=0) > 0]
    if seen.shape[1] < 2:
        return 1.0
    return chi2_contingency(seen, correction=False, lambda_="log-likelihood").pvalue


@pytest.mark.parametrize(
    "table",
    [[[30, 10], [20, 20]], [[5000, 5000], [5000, 5000]], [[7, 0, 3], [2, 0, 9]],
     [[400, 0], [0, 400]], [[12, 0], [15, 0]], [[1, 2, 3, 4], [4, 3, 2, 1]]],
)
def test_independence_pvalue_is_the_g_test(table):
    table = np.array(table, dtype=float)
    assert independence_pvalue(table) == pytest.approx(scipy_g_test(table), rel=1e-9, abs=1e-300)


QUTRIT_PAIR = make_state([1, 0, 0, 0, 1, 0, 0, 0, 1])  # (|00> + |11> + |22>)/sqrt(3)
QUBIT_PAIR_IN_QUTRITS = make_state([1, 0, 0, 0, 1, 0, 0, 0, 0])  # Bob never sees 2
Z3 = ProjectiveMeasurement.computational(3)


@pytest.mark.parametrize(
    "shared,policy0,policy1",
    [(QUTRIT_PAIR, Born(), Born()),
     (QUTRIT_PAIR, Born(), biased(0.4, 0.3, 0.3)),
     (QUBIT_PAIR_IN_QUTRITS, Born(), biased(0.45, 0.55, 0.0)),
     (QUBIT_PAIR_IN_QUTRITS, Forced(0), Forced(0))],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_empirical_report_carries_the_g_test_of_its_counts(shared, policy0, policy1, seed):
    trials = 3000
    settings = paired_settings(shared, (3, 3), Z3, {"0": (Z3, policy0), "1": (Z3, policy1)})
    report = signaling_experiment(settings, trials=trials, seed=seed)
    table = np.round([np.asarray(report.bob_marginals[label]) * trials for label in "01"])
    assert table.sum() == 2 * trials
    assert report.independence_pvalue == pytest.approx(scipy_g_test(table), rel=1e-9)


def test_independence_pvalue_only_in_empirical_reports(capsys):
    assert main(["signal"]) == 0
    analytic = json.loads(capsys.readouterr().out.splitlines()[1])
    assert analytic["mode"] == "analytic" and "independence_pvalue" not in analytic
    assert main(["signal", "--mode", "empirical", "--trials", "2000",
                 "--policy0", "forced:0", "--policy1", "forced:1"]) == 0
    empirical = json.loads(capsys.readouterr().out.splitlines()[1])
    assert empirical["independence_pvalue"] == 0.0  # a perfect 1-bit channel
