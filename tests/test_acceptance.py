"""Acceptance criteria, one test per criterion, tolerances as stated.

Running `pytest tests/test_acceptance.py -v -s` prints one PASS line per
criterion; any assertion failure marks the corresponding criterion red.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from collapsim.agent import AlternativeSet, NormFunction, act, born_reference
from collapsim.behavior import classify, generate_sequence
from collapsim.cli import build_config, render_report, run
from collapsim.energy import Hamiltonian, audit_measurement
from collapsim.errors import ForbiddenOutcome
from collapsim.kochen_specker import (
    builtin_ks_table,
    fwt_alphabet,
    fwt_trial,
    fwt_trials,
    twin_state,
    validate_table,
)
from collapsim.policies import (
    Biased,
    Born,
    Forced,
    deviation_statistic,
    policy_distribution,
)
from collapsim.quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    born_distribution,
    make_state,
)
from collapsim.rng import trial_rng
from collapsim.sat import OracleFunction, classical_brute_force, decide_sat
from collapsim.signaling import signaling_experiment
from helpers import (
    act_counts,
    keyed_generator,
    paired_settings,
    random_density,
    random_measurement,
    random_state,
    sample_counts,
)
from oracles import context_coefficient_matrix

Z2 = ProjectiveMeasurement.computational(2)
Z3 = ProjectiveMeasurement.computational(3)
BELL = make_state([1, 0, 0, 1])


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {text}")


def test_criterion_01_ks_impossibility():
    start = time.perf_counter()
    report = run(build_config({"experiment": "ks", "seed": 0}))
    elapsed = time.perf_counter() - start
    aggregate = report.aggregate
    assert aggregate["search_space_size"] == 4**9 == 262144
    assert aggregate["assignments_found"] == 0
    assert aggregate["colorable"] is False
    assert aggregate["parity_certificate"] is True
    assert elapsed < 1.0, f"ks run took {elapsed:.3f}s"
    _report(1, f"0 of 262144 assignments consistent; parity certificate true; {elapsed:.2f}s")


def test_criterion_02_table_structure():
    table = builtin_ks_table()
    assert validate_table(table) == []
    assert len(table.contexts) == 9
    assert len(table.ray_index) == 18
    assert all(len(occ) == 2 for occ in table.ray_index.values())
    for context in table.contexts:
        for i in range(4):
            for j in range(i + 1, 4):
                assert context.rays[i].dot(context.rays[j]) == 0
    _report(2, "9 exactly-orthogonal contexts, 18 rays, every multiplicity 2")


def test_criterion_03_twin_exactness():
    table = builtin_ks_table()
    pairs = [(i, ray) for i, context in enumerate(table.contexts, start=1) for ray in context.rays]
    per_pair = -(-100_000 // len(pairs))  # every (context, in-context ray) pair, 10^5 in all
    for policy_name, policy in (("born", Born()), ("forced:0", Forced(0))):
        trials = agreements = 0
        for context_index, bob_ray in pairs:
            # each record's bob_value, in_context and agree, from the context's alphabet
            counted = fwt_alphabet(context_index)[1]
            for block in fwt_trials(context_index, bob_ray, policy, 1000, per_pair):
                assert counted[block.code, 1].all()
                trials += block.trial.size
                agreements += int(counted[block.code, 2].sum())
        assert trials >= 100_000
        assert agreements == trials, f"{policy_name}: {agreements}/{trials}"
    # the scalar fwt_trial over trial_rng(1000, t), at a smaller count
    for policy_name, make_policy in (("born", Born), ("forced:0", lambda: Forced(0))):
        agreements = 0
        for t in range(2_000):
            rng = trial_rng(1000, t)
            context_index = int(rng.integers(9)[0]) + 1
            context = table.contexts[context_index - 1]
            bob_ray = context.rays[rng.integers(4)[0]]
            trial = fwt_trial(context_index, bob_ray, make_policy(), rng)
            assert trial.in_context
            agreements += trial.agree is True
        assert agreements == 2_000, f"{policy_name} (scalar): {agreements}/2000"
    _report(3, f"in-context agreement {trials}/{trials} over {len(pairs)} pairs "
               "under born and forced:0")


def test_criterion_04_basis_invariance():
    state = twin_state()
    half_identity = np.eye(4) / 2
    worst = 0.0
    for context in builtin_ks_table().contexts:
        coeffs = context_coefficient_matrix(state, context)
        worst = max(worst, float(np.max(np.abs(coeffs - half_identity))))
    assert worst < 1e-10
    _report(4, f"coefficient matrix = I/2 in all 9 context bases (max dev {worst:.1e})")


def test_criterion_05_no_signaling_null():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(500):
        shared = random_state(rng, 4)
        settings = {
            "0": (random_measurement(rng, 2), Born()),
            "1": (random_measurement(rng, 2), Born()),
        }
        bob = random_measurement(rng, 2)
        report = signaling_experiment(paired_settings(shared, (2, 2), bob, settings))
        worst = max(worst, report.max_tv)
    assert worst <= 1e-12
    _report(5, f"analytic max_tv over 500 random Born instances: {worst:.1e}")


def test_criterion_06_signaling_under_deviation():
    forced = signaling_experiment(
        paired_settings(BELL, (2, 2), Z2, {"0": (Z2, Forced(0)), "1": (Z2, Forced(1))})
    )
    assert forced.max_tv == pytest.approx(1.0, abs=1e-12)
    assert abs(forced.channel_bits - 1.0) <= 1e-6
    deviating = Biased(ProbabilityDistribution(np.array([0.75, 0.25])))
    biased = signaling_experiment(
        paired_settings(BELL, (2, 2), Z2, {"0": (Z2, Born()), "1": (Z2, deviating)})
    )
    assert biased.max_tv == pytest.approx(0.25, abs=1e-12)
    _report(
        6,
        f"forced pair: tv={forced.max_tv}, bits={forced.channel_bits:.6f}; "
        f"biased(3/4,1/4): tv={biased.max_tv}",
    )


def test_criterion_07_energy_audit():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hamiltonian = Hamiltonian((herm + herm.conj().T) / 2)
        _, vecs = np.linalg.eigh(hamiltonian.matrix)
        measurement = ProjectiveMeasurement.from_basis(vecs.T)
        audit = audit_measurement(
            random_density(rng, dim), measurement, list(range(dim)), hamiltonian
        )
        assert audit.commutes
        worst = max(worst, abs(audit.delta))
    assert worst < 1e-10

    rho = DensityOperator.from_state(make_state([1, 1]))
    forced = audit_measurement(
        rho, Z2, [1.0, -1.0], Hamiltonian.diagonal([1.0, -1.0]),
        ProbabilityDistribution(np.array([1.0, 0.0])),
    )
    assert forced.delta == pytest.approx(1.0, abs=1e-12)
    _report(7, f"QND+Born |dE| <= {worst:.1e} over 500 instances; forced case dE=+1")


def test_criterion_08_sat_equivalence():
    start = time.perf_counter()
    checked = 0

    def check(oracle, seed, trial):
        nonlocal checked
        quantum = decide_sat(oracle, seed, trial)
        classical = classical_brute_force(oracle)
        assert quantum.satisfiable == classical.satisfiable
        if quantum.satisfiable:
            assert oracle.evaluate(quantum.witness) == 1
        checked += 1

    # every function of 1 and 2 bits; trial `code` of seed 80 serves both sizes
    for n in (1, 2):
        for code in range(2 ** (2**n)):
            bits = [(code >> j) & 1 for j in range(2**n)]
            check(OracleFunction.from_truth_table(bits), 80, code)

    rng_master = np.random.default_rng(81)
    for trial in range(5000):
        table = rng_master.integers(0, 2, size=16)
        check(OracleFunction.from_truth_table(table.tolist()), 82, trial)
    for trial in range(1000):
        table = rng_master.integers(0, 2, size=256)
        check(OracleFunction.from_truth_table(table.tolist()), 83, trial)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sat suite took {elapsed:.1f}s"
    _report(8, f"{checked} decide/brute-force agreements, witnesses verified, {elapsed:.1f}s")


def test_criterion_09_weak_compatibility():
    rng = np.random.default_rng(90)
    for _ in range(100):
        theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
        born = born_distribution(make_state([np.cos(theta), np.sin(theta), 0.0]), Z3)
        with pytest.raises(ForbiddenOutcome):
            policy_distribution(Forced(2), born)
        for target in (0, 1):
            dist = policy_distribution(Forced(target), born)
            assert dist[target] == 1.0
    _report(9, "forced:2 forbidden and forced:0/1 certain for 100 random qutrits")


def test_criterion_10_zeroth_order_conformance():
    rng = np.random.default_rng(100)
    trials = 100_000
    for case in range(20):
        dim = int(rng.integers(2, 7))
        state = random_state(rng, dim)
        measurement = random_measurement(rng, dim)
        born = born_distribution(state, measurement)
        counts = sample_counts(Born(), state, measurement, trials, keyed_generator(101, case))
        stats = deviation_statistic(counts, born)
        df = max(len(born.support()) - 1, 1)
        assert stats.chi2 < scipy_stats.chi2.ppf(0.999, df), f"case {case}"
    _report(10, "Born sampling passed chi-square(0.001) for 20 random state/basis pairs")


def test_criterion_11_asc_deviation():
    alternatives = AlternativeSet(("0", "1", "2"), (0.75, 0.25, 0.0))
    favor_one = NormFunction({"0": 0.0, "1": 1.0, "2": 0.0})
    flat = NormFunction({"0": 1.0, "1": 1.0, "2": 1.0})
    # the batched engine counts what act's traces would: checked at 500
    for norm, seed in ((favor_one, 110), (flat, 111)):
        traces = [act(alternatives, norm, trial_rng(seed, t)) for t in range(500)]
        expected = np.bincount([t.final_outcome for t in traces], minlength=3)
        np.testing.assert_array_equal(act_counts(alternatives, norm, seed, 500), expected)

    counts = act_counts(alternatives, favor_one, 110, 10_000)
    stats = deviation_statistic(counts, born_reference(alternatives))
    assert abs(stats.tv - 0.75) <= 0.01
    assert counts[1] == 10_000

    flat_counts = act_counts(alternatives, flat, 111, 10_000)
    flat_stats = deviation_statistic(flat_counts, born_reference(alternatives))
    df = len(born_reference(alternatives).support()) - 1
    assert flat_stats.chi2 < scipy_stats.chi2.ppf(0.999, df)
    _report(11, f"norm-driven tv={stats.tv:.4f} (target 0.75); constant norm passes chi-square")


def test_criterion_12_behavior_classifier():
    levy_hits = noise_hits = 0
    seeds = 200
    for s in range(seeds):
        pareto = generate_sequence("pareto", 10_000, keyed_generator(120, s), alpha=1.5, xmin=1.0)
        levy_hits += classify(pareto).classification == "levy_like"
        exponential = generate_sequence("exponential", 10_000, keyed_generator(121, s), rate=1.0)
        noise_hits += classify(exponential).classification == "noise_like"
    assert levy_hits >= 0.95 * seeds, f"levy {levy_hits}/{seeds}"
    assert noise_hits >= 0.95 * seeds, f"noise {noise_hits}/{seeds}"
    _report(12, f"classifier: pareto {levy_hits}/200 levy_like, exponential {noise_hits}/200 noise_like")


def test_criterion_13_reproducibility(tmp_path):
    table = tmp_path / "f.tt"
    table.write_text("0010")
    configs = [
        {"experiment": "ks", "seed": 0},
        {"experiment": "fwt", "seed": 13, "trials": 500, "per_trial": True},
        {"experiment": "signal", "seed": 13, "mode": "empirical", "trials": 400,
         "policy1": "biased:0.8,0.2"},
        {"experiment": "energy", "seed": 13, "weights": "1,0"},
        {"experiment": "sat", "seed": 13, "truth_table": str(table)},
        {"experiment": "asc", "seed": 13, "trials": 300, "per_trial": True},
        {"experiment": "behavior", "seed": 13, "mode": "generate", "kind": "pareto",
         "length": 1000},
    ]
    for raw in configs:
        first = render_report(run(build_config(raw)), "json-lines").splitlines()
        second = render_report(run(build_config(raw)), "json-lines").splitlines()
        first_kept = [ln for ln in first if '"record": "timing"' not in ln]
        second_kept = [ln for ln in second if '"record": "timing"' not in ln]
        assert first_kept == second_kept, raw
        for line in first_kept:
            json.loads(line)  # every record is valid JSON
    _report(13, f"{len(configs)} experiment configs byte-identical modulo timing")
