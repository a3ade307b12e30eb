import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from collapsim.errors import (
    BadParameter,
    DimensionMismatch,
    ForbiddenOutcome,
    TooLarge,
    ZeroVector,
)
from collapsim.quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
    collapse,
    ATOL,
    collapse_register,
    make_state,
    nonselective_update,
    paired_born,
    reduced_state,
    register_born,
    same_state,
    tensor,
    within,
)
from collapsim.policies import Born, Forced
from collapsim.signaling import signaling_experiment
from helpers import paired_settings, random_measurement, random_state
from oracles import conditional_born, lift

Z2 = ProjectiveMeasurement.computational(2)
Z3 = ProjectiveMeasurement.computational(3)


def qutrit(theta):
    return make_state([np.cos(theta), np.sin(theta), 0.0])


def bell_state():
    return make_state([1, 0, 0, 1])


class TestMakeState:
    def test_already_normalized(self):
        s = make_state([1, 0, 0])
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0], atol=1e-12)

    def test_uniform_two_level(self):
        s = make_state([1, 1])
        np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_qutrit_angle(self):
        s = qutrit(np.pi / 6)
        np.testing.assert_allclose(
            s.amplitudes, [np.sqrt(3) / 2, 0.5, 0.0], atol=1e-12
        )

    def test_amplitudes_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            bell_state().amplitudes[0] = 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            make_state([0, 0, 0])
        with pytest.raises(ZeroVector):
            make_state([1e-13, 1e-13])

    def test_dense_cap(self):
        with pytest.raises(TooLarge):
            make_state(np.ones(2**13 + 1))

    @pytest.mark.parametrize(
        "amplitudes, expected",
        [
            ([1e308, 1e308], [2**-0.5] * 2),
            ([1e308j, -1e308], [1j * 2**-0.5, -(2**-0.5)]),
            ([1.7e308 + 1.7e308j, 0], [(1 + 1j) * 2**-0.5, 0]),
            ([1e308, 3e307, 1e-300], [1 / np.hypot(1, 0.3), 0.3 / np.hypot(1, 0.3), 0]),
        ],
    )
    def test_overflowing_norm_rescaled(self, amplitudes, expected):
        with np.errstate(over="raise", invalid="raise"):
            s = make_state(amplitudes)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1], [np.inf, 1], [1, -np.inf * 1j]])
    def test_non_finite_amplitudes_rejected(self, amplitudes):
        with pytest.raises(BadParameter, match="amplitudes must be finite"):
            make_state(amplitudes)

    def test_finite_norm_path_unchanged(self):
        rng = np.random.default_rng(31)
        for scale in (1e-6, 1.0, 1e150):
            amps = (rng.normal(size=5) + 1j * rng.normal(size=5)) * scale
            assert np.array_equal(make_state(amps).amplitudes, amps / np.linalg.norm(amps))


class TestProbabilityDistributionChecks:
    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.inf, 0.0], [0.5, 0.6]])
    def test_sum_not_one_rejected(self, probs):
        with pytest.raises(ValueError, match="probabilities sum to"):
            ProbabilityDistribution(np.asarray(probs))


class TestTensor:
    def test_basis_product(self):
        s = tensor(make_state([1, 0]), make_state([0, 1]))
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_superposition_times_ket(self):
        s = tensor(make_state([1, 1]), make_state([1, 0]))
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)

    @given(
        a=st.lists(st.floats(-1, 1), min_size=1, max_size=6),
        b=st.lists(st.floats(-1, 1), min_size=1, max_size=6),
    )
    def test_norm_multiplicative(self, a, b):
        assume(np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6)
        s = tensor(make_state(a), make_state(b))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-10


class TestBornDistribution:
    def test_qutrit_probabilities(self):
        d = born_distribution(qutrit(np.pi / 6), Z3)
        np.testing.assert_allclose(d.probs, [0.75, 0.25, 0.0], atol=1e-12)

    def test_eigenstate(self):
        d = born_distribution(make_state([1, 0]), Z2)
        np.testing.assert_allclose(d.probs, [1.0, 0.0], atol=1e-12)

    def test_symmetric_superposition(self):
        d = born_distribution(make_state([1, 1]), Z2)
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_distribution(make_state([1, 0]), Z3)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            d = born_distribution(random_state(rng, dim), random_measurement(rng, dim))
            assert abs(d.probs.sum() - 1.0) < 1e-10


class TestCollapse:
    def test_bell_alice_side(self):
        z_on_a = lift(Z2, (2, 2), "A")
        after = collapse(bell_state(), z_on_a, 0)
        assert same_state(after, make_state([1, 0, 0, 0]))

    def test_qutrit_rank_one(self):
        after = collapse(qutrit(np.pi / 6), Z3, 1)
        assert same_state(after, make_state([0, 1, 0]))

    def test_zero_probability_outcome_forbidden(self):
        with pytest.raises(ForbiddenOutcome):
            collapse(qutrit(np.pi / 6), Z3, 2)

    def test_out_of_range_outcome(self):
        with pytest.raises(ForbiddenOutcome):
            collapse(qutrit(np.pi / 6), Z3, 5)

    def test_idempotent_and_normalized_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            s = random_state(rng, dim)
            m = random_measurement(rng, dim)
            outcome = int(np.argmax(born_distribution(s, m).probs))
            once = collapse(s, m, outcome)
            assert abs(np.linalg.norm(once.amplitudes) - 1.0) < 1e-10
            twice = collapse(once, m, outcome)
            assert same_state(once, twice)
            # re-measuring yields the same outcome with probability 1
            assert born_distribution(once, m)[outcome] > 1.0 - 1e-10


#: how far paired_born may sit from the collapse oracle. The oracle sums over the
#: lifted d_A·d_B space and renormalizes after collapse; against a long-double
#: evaluation it errs by up to 1.3e-15 on the draws below, paired_born by 2.7e-16.
ORACLE_ATOL = 2e-15


def oracle_tables(state, dims, first, seconds):
    """oracles.conditional_born on the lifted measurements."""
    return conditional_born(state, lift(first, dims, "A"), [lift(s, dims, "B") for s in seconds])


def long_double_table(state, dims, first, seconds):
    """paired_born's formula in numpy's long double, NaN rows left to the caller."""
    x = first.projectors.astype(np.clongdouble) @ state.amplitudes.reshape(dims)
    y = np.einsum("jab,smcb->sjmac", x, np.stack([s.projectors for s in seconds]))
    joint = (np.abs(y) ** 2).sum(axis=(-2, -1))
    return (joint / joint.sum(axis=-1, keepdims=True)).reshape(-1, joint.shape[-1])


@st.composite
def bipartite_cases(draw):
    """A state on d_A × d_B, Alice's measurement and one to three of Bob's, all
    with projectors of any rank. The state lies in the span of some of Alice's
    outcomes (weight at least 0.09 on each basis row of those), so her others
    are zero-Born. Returns (state, dims, first, seconds, zero-Born outcomes)."""
    dims = draw(st.sampled_from([(2, 3), (3, 2), (4, 4)]))
    imaginary = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vectors(rows, d):
        return rng.normal(size=(rows, d)) + imaginary * 1j * rng.normal(size=(rows, d))

    def grouped(d, cuts):
        rows = np.linalg.qr(vectors(d, d))[0].T
        groups = np.split(rows, cuts)
        return rows, ProjectiveMeasurement([g.T @ g.conj() for g in groups])

    d_a, d_b = dims
    alice_cuts = sorted(draw(st.sets(st.integers(1, d_a - 1), min_size=1)))
    bob_cuts = sorted(draw(st.sets(st.integers(1, d_b - 1), min_size=1)))
    rows, first = grouped(d_a, alice_cuts)
    kept = draw(st.sets(st.integers(0, first.n_outcomes - 1), min_size=1))
    outcome_of = np.searchsorted(alice_cuts, np.arange(d_a), side="right")
    phis = vectors(d_a, d_b)
    phis *= rng.uniform(0.3, 1.0, size=(d_a, 1)) / np.linalg.norm(phis, axis=1, keepdims=True)
    state = make_state(sum(np.kron(rows[i], phis[i]) for i in range(d_a) if outcome_of[i] in kept))
    seconds = [grouped(d_b, bob_cuts)[1] for _ in range(draw(st.integers(1, 3)))]
    zero = sorted(set(range(first.n_outcomes)) - kept)
    return state, dims, first, seconds, zero


class TestConditionalBorn:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_born_after_collapse_nan_where_forbidden(self, seed):
        # Alice's outcomes outside `kept` have zero Born probability by construction
        rng = np.random.default_rng(seed)
        d_a, d_b = int(rng.integers(3, 5)), int(rng.integers(2, 4))
        q, _ = np.linalg.qr(rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a)))
        kept = sorted(rng.choice(d_a, size=int(rng.integers(1, d_a)), replace=False))
        state = make_state(
            sum(np.kron(q.T[j], random_state(rng, d_b).amplitudes) for j in kept)
        )
        first = ProjectiveMeasurement.from_basis(q.T)
        seconds = [random_measurement(rng, d_b) for _ in range(3)]
        born, table = paired_born(state, (d_a, d_b), first, seconds)
        oracle_born, oracle_table = oracle_tables(state, (d_a, d_b), first, seconds)
        np.testing.assert_allclose(born.probs, oracle_born.probs, rtol=0, atol=ORACLE_ATOL)
        assert sorted(born.support()) == sorted(oracle_born.support()) == kept
        assert table.shape == (3 * d_a, d_b) and not table.flags.writeable
        lifted = lift(first, (d_a, d_b), "A")
        for s, second in enumerate(seconds):
            for j in range(d_a):
                row = table[s * d_a + j]
                if j in kept:
                    direct = born_distribution(
                        collapse(state, lifted, j), lift(second, (d_a, d_b), "B")
                    ).probs
                    assert np.array_equal(oracle_table[s * d_a + j], direct)
                    np.testing.assert_allclose(row, direct, rtol=0, atol=ORACLE_ATOL)
                else:
                    assert np.isnan(row).all() and np.isnan(oracle_table[s * d_a + j]).all()

    def test_seconds_need_one_outcome_count(self):
        coarse = ProjectiveMeasurement((np.eye(2),))
        with pytest.raises(DimensionMismatch, match="one common outcome count"):
            paired_born(bell_state(), (2, 2), Z2, [Z2, coarse])
        with pytest.raises(DimensionMismatch, match="one common outcome count"):
            paired_born(bell_state(), (2, 2), Z2, [])

    def test_measurements_must_act_on_their_subsystems(self):
        state = tensor(make_state([1, 1]), make_state([1, 1, 1]))
        with pytest.raises(DimensionMismatch, match="state dim 6 != 2\\*2"):
            paired_born(state, (2, 2), Z2, [Z2])
        with pytest.raises(DimensionMismatch, match="does not act on subsystem A"):
            paired_born(state, (2, 3), Z3, [Z3])
        with pytest.raises(DimensionMismatch, match="does not act on subsystem B"):
            paired_born(state, (2, 3), Z2, [Z3, Z2])

    @settings(max_examples=150, deadline=None)
    @given(case=bipartite_cases())
    def test_tables_equal_the_collapse_oracle(self, case):
        state, dims, first, seconds, zero = case
        born, table = paired_born(state, dims, first, seconds)
        oracle_born, oracle_table = oracle_tables(state, dims, first, seconds)
        np.testing.assert_allclose(born.probs, oracle_born.probs, rtol=0, atol=ORACLE_ATOL)
        assert np.array_equal(np.isnan(table), np.isnan(oracle_table))
        np.testing.assert_allclose(table, oracle_table, rtol=0, atol=ORACLE_ATOL)
        finite = table[~np.isnan(table).any(axis=1)]
        assert (np.abs(finite.sum(axis=1) - 1.0) <= ATOL).all()
        k = first.n_outcomes
        assert [j for j in range(k) if np.isnan(table[j]).all()] == zero
        # within two ulps of 1 of the same formula evaluated in long double
        exact = long_double_table(state, dims, first, seconds)
        assert (np.abs(table - exact) <= 5e-16)[~np.isnan(table)].all()

    @settings(max_examples=50, deadline=None)
    @given(case=bipartite_cases())
    def test_forced_zero_born_outcome_raises_in_both_signal_modes(self, case):
        state, dims, first, seconds, zero = case
        for j in zero:
            settings_ = paired_settings(
                state, dims, seconds[0], {"0": (first, Born()), "1": (first, Forced(j))}
            )
            for trials in (None, 10):
                with pytest.raises(ForbiddenOutcome):
                    signaling_experiment(settings_, trials=trials)


class TestNonselectiveUpdate:
    def test_dephasing(self):
        rho = DensityOperator.from_state(make_state([1, 1]))
        out = nonselective_update(rho, Z2)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_forced_weights_direct_matrix_oracle(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        rho_mat = np.outer(plus, plus)
        m0 = np.diag([1.0, 0.0])
        branch = m0 @ rho_mat @ m0
        expected = branch / np.trace(branch).real
        rho = DensityOperator(rho_mat)
        out = nonselective_update(rho, Z2, ProbabilityDistribution(np.array([1.0, 0.0])))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_eigenstate_fixed_point(self):
        rho = DensityOperator.from_state(make_state([1, 0]))
        for weights in (None, ProbabilityDistribution(np.array([1.0, 0.0]))):
            out = nonselective_update(rho, Z2, weights)
            np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_forbidden_weight_mass(self):
        rho = DensityOperator.from_state(make_state([1, 0]))
        with pytest.raises(ForbiddenOutcome):
            nonselective_update(rho, Z2, ProbabilityDistribution(np.array([0.5, 0.5])))

    def test_born_weights_trace_and_purity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            s = random_state(rng, dim)
            rho = DensityOperator.from_state(s)
            out = nonselective_update(rho, random_measurement(rng, dim))
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert out.purity() <= rho.purity() + 1e-10


class TestReducedState:
    def test_bell_keep_a(self):
        rho = reduced_state(bell_state(), (2, 2), "A")
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_keep_b(self):
        s = tensor(make_state([1, 0]), make_state([0, 1]))
        rho = reduced_state(s, (2, 2), "B")
        np.testing.assert_allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_maximally_entangled_dim16_hand_trace_oracle(self):
        amps = np.zeros(16, dtype=complex)
        for k in range(4):
            amps[k * 4 + k] = 0.5
        s = StateVector(amps)
        # independent oracle: explicit loop partial trace
        psi = amps.reshape(4, 4)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                expected[i, j] = sum(psi[i, b] * psi[j, b].conjugate() for b in range(4))
        rho = reduced_state(s, (4, 4), "A")
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_pure_product_states_stay_pure(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            s = tensor(random_state(rng, da), random_state(rng, db))
            for keep in ("A", "B"):
                assert abs(reduced_state(s, (da, db), keep).purity() - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reduced_state(bell_state(), (3, 2), "A")


class TestRegisterOps:
    def test_register_born_matches_embedded_measurement(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            s = random_state(rng, da * db)
            for which, meas in (
                ("A", lift(ProjectiveMeasurement.computational(da), (da, db), "A")),
                ("B", lift(ProjectiveMeasurement.computational(db), (da, db), "B")),
            ):
                direct = register_born(s, (da, db), which)
                via_embed = born_distribution(s, meas)
                np.testing.assert_allclose(direct.probs, via_embed.probs, atol=1e-12)

    def test_collapse_register_matches_embedded_collapse(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            s = random_state(rng, da * db)
            meas = lift(ProjectiveMeasurement.computational(db), (da, db), "B")
            outcome = int(np.argmax(register_born(s, (da, db), "B").probs))
            assert same_state(
                collapse_register(s, (da, db), "B", outcome),
                collapse(s, meas, outcome),
            )

    def test_collapse_register_forbidden(self):
        s = tensor(make_state([1, 1]), make_state([1, 0]))
        with pytest.raises(ForbiddenOutcome):
            collapse_register(s, (2, 2), "B", 1)

    @pytest.mark.parametrize("which, size", [("A", 2), ("B", 3)])
    def test_collapse_register_out_of_range(self, which, size):
        s = tensor(make_state([1, 1]), make_state([1, 1, 1]))
        for outcome in (-1, size):
            with pytest.raises(ForbiddenOutcome, match="out of range"):
                collapse_register(s, (2, 3), which, outcome)


def _bits(array):
    """The float64 parts of a complex array, with their sign bits."""
    parts = np.ascontiguousarray(array).view(float)
    return parts, np.signbit(parts)


def _same_bits(a, b):
    return a.shape == b.shape and all(map(np.array_equal, _bits(a), _bits(b)))


class TestMeasurementArray:
    """A measurement is one read-only (k, d, d) array; the computational
    basis is exact and skips the checks."""

    @staticmethod
    def measurements(rng):
        for dim in (1, 2, 3, 4):
            yield random_measurement(rng, dim)
            yield ProjectiveMeasurement.from_basis(np.linalg.qr(rng.normal(size=(dim, dim)))[0])
            yield ProjectiveMeasurement.detection(random_state(rng, dim).amplitudes)
        yield TestCoarseMeasurements.BLOCK
        yield ProjectiveMeasurement.from_basis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))

    def test_embed_is_the_per_projector_kron(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            for m in self.measurements(rng):
                other = int(rng.integers(1, 5))
                for side, dims in (("A", (m.dim, other)), ("B", (other, m.dim))):
                    lifted = lift(m, dims, side)
                    expected = np.stack([
                        np.kron(p, np.eye(other)) if side == "A" else np.kron(np.eye(other), p)
                        for p in m.projectors
                    ])
                    assert _same_bits(lifted.projectors, expected)
                    rebuilt = ProjectiveMeasurement(lifted.projectors)
                    assert _same_bits(rebuilt.projectors, lifted.projectors)

    def test_computational_is_the_identity_basis(self):
        for dim in range(1, 17):
            basis = np.eye(dim, dtype=complex)
            expected = np.stack([np.outer(v, v.conj()) for v in basis])
            built = ProjectiveMeasurement.computational(dim)
            assert _same_bits(built.projectors, expected)
            assert _same_bits(ProjectiveMeasurement.from_basis(np.eye(dim)).projectors, expected)
            assert _same_bits(ProjectiveMeasurement(built.projectors).projectors, expected)
        with pytest.raises(ValueError, match="at least one projector"):
            ProjectiveMeasurement.computational(0)

    def test_from_basis_is_the_per_row_outer_product(self):
        rng = np.random.default_rng(22)
        for dim in (1, 2, 5):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rows = np.linalg.qr(z)[0].T
            expected = np.stack([np.outer(v, v.conj()) for v in rows])
            assert _same_bits(ProjectiveMeasurement.from_basis(rows).projectors, expected)

    def test_projectors_are_read_only(self):
        caller = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        for m in (
            ProjectiveMeasurement(caller),
            Z2,
            lift(Z2, (2, 3), "A"),
            lift(Z3, (2, 3), "B"),
            ProjectiveMeasurement.detection(np.array([0.6, 0.8])),
        ):
            assert isinstance(m.projectors, np.ndarray) and m.projectors.ndim == 3
            assert m.projectors.shape == (m.n_outcomes, m.dim, m.dim)
            assert all(p.shape == (m.dim, m.dim) for p in m.projectors)
            with pytest.raises(ValueError, match="read-only"):
                m.projectors[0, 0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                m.projectors[-1][0, 0] = 2.0
        assert caller.flags.writeable  # the constructor stores its own copy

    def test_computational_memory_stays_linear_in_the_array(self):
        tracemalloc.start()
        try:
            ProjectiveMeasurement.computational(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"computational(64) peaked at {peak / 2**20:.1f} MB"


class TestCoarseMeasurements:
    """Projectors of rank above one (block measurements)."""

    BLOCK = ProjectiveMeasurement(
        (np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]))
    )

    def test_born_groups_outcomes(self):
        s = make_state([3, 4, 0])
        d = born_distribution(s, self.BLOCK)
        np.testing.assert_allclose(d.probs, [1.0, 0.0], atol=1e-12)
        d2 = born_distribution(make_state([1, 1, 1]), self.BLOCK)
        np.testing.assert_allclose(d2.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_collapse_keeps_in_block_coherence(self):
        s = make_state([1, 1, 1])
        after = collapse(s, self.BLOCK, 0)
        assert same_state(after, make_state([1, 1, 0]))

    def test_collapse_is_identity_on_block_states(self):
        s = make_state([np.cos(0.3), np.sin(0.3), 0])
        assert same_state(collapse(s, self.BLOCK, 0), s)

    def test_nonselective_dephases_between_blocks_only(self):
        rho = DensityOperator.from_state(make_state([1, 1, 1]))
        out = nonselective_update(rho, self.BLOCK)
        third = 1.0 / 3.0
        expected = np.array(
            [[third, third, 0.0], [third, third, 0.0], [0.0, 0.0, third]]
        )
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


@settings(max_examples=200)
@given(
    pairs=st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=8
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_collapse_preserves_normalization(pairs, seed):
    amps = np.array([complex(re, im) for re, im in pairs])
    assume(np.linalg.norm(amps) > 1e-6)
    s = make_state(amps)
    m = random_measurement(np.random.default_rng(seed), s.dim)
    dist = born_distribution(s, m)
    for outcome in dist.support():
        after = collapse(s, m, outcome)
        assert abs(np.linalg.norm(after.amplitudes) - 1.0) < 1e-10


@st.composite
def array_pairs(draw):
    """Two finite arrays of one shape and dtype, the second often the first
    moved by up to 2 ATOL per entry, so both sides of the boundary are drawn."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    size = draw(st.sampled_from([1.0, 1e300]))
    if dtype is np.float64:
        element = st.floats(-size, size)
    else:
        element = st.complex_numbers(max_magnitude=size)
    a = draw(hnp.arrays(dtype, shape, elements=element))
    step = draw(hnp.arrays(dtype, shape, elements=st.floats(-2 * ATOL, 2 * ATOL)))
    b = draw(st.one_of(st.just(a + step), hnp.arrays(dtype, shape, elements=element)))
    return a, b


class TestWithin:
    @settings(max_examples=300, deadline=None)
    @given(pair=array_pairs())
    def test_agrees_with_allclose_at_atol_on_finite_arrays(self, pair):
        a, b = pair
        assert within(a, b) == np.allclose(a, b, rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (np.array([1.0, np.nan]), np.array([1.0, np.nan]), False),
            (np.array([1.0, np.nan]), 1.0, False),
            (complex(np.nan, 0.0), 1.0, False),
            (np.inf, np.inf, False),
            (-np.inf, -np.inf, False),
            (np.array([np.inf, 1.0]), 1.0, False),
            (np.array([]), np.array([]), True),
            (np.zeros((0, 3)), 1.0, True),
            (ATOL, 0.0, True),
            (np.nextafter(ATOL, 1.0), 0.0, False),
        ],
    )
    def test_nan_and_inf_are_faults_and_empty_is_within(self, a, b, expected):
        assert within(a, b) is expected


class TestInvariantValidation:
    def test_state_vector_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_nan_state_refused_and_never_returned_by_collapse(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([np.nan, 0.0]))
        # a state forged past the check: collapse's result is checked again
        forged = object.__new__(StateVector)
        object.__setattr__(forged, "amplitudes", np.array([np.nan, 0.0], dtype=complex))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not normalized"):
            collapse(forged, Z2, 1)

    def test_density_operator_checks(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.0, 0.5], [0.2, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_measurement_checks(self):
        with pytest.raises(ValueError):
            ProjectiveMeasurement((np.diag([1.0, 0.0]),))  # incomplete
        with pytest.raises(ValueError):
            ProjectiveMeasurement((np.array([[0.5, 0.5], [0.5, 0.5]]), np.diag([0.0, 1.0])))

    @pytest.mark.parametrize(
        "projectors, message",
        [
            ((), "at least one projector"),
            ((np.eye(2), np.eye(3)), "square and equally sized"),
            # idempotent, orthogonal, summing to 1, but not Hermitian
            ((np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])),
             "must be Hermitian"),
            ((np.diag([0.5, 0.0]), np.diag([0.5, 1.0])), "must be idempotent"),
            # only the pair (1, 2) overlaps
            ((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
              np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])),
             "projectors 1 and 2 are not orthogonal"),
            ((np.diag([1.0, 0.0]),), "must sum to the identity"),
            ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 1e-9])), "must be idempotent"),
        ],
    )
    def test_measurement_fault_messages(self, projectors, message):
        with pytest.raises(ValueError, match=message):
            ProjectiveMeasurement(projectors)

    @pytest.mark.parametrize("basis", [[[1, 0], [0, 1, 2]], [["a", 0], [0, 1]]],
                             ids=["ragged", "string-entry"])
    def test_from_basis_refuses_malformed_rows_in_its_own_words(self, basis):
        with pytest.raises(ValueError) as info:
            ProjectiveMeasurement.from_basis(basis)
        assert str(info.value) == "basis rows must be equally long vectors of numbers"

    def test_measurement_within_tolerance_accepted(self):
        ProjectiveMeasurement((np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 1e-11])))

    def test_probability_distribution_checks(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([1.2, -0.2]))
