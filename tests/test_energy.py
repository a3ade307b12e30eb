import numpy as np
import pytest

from collapsim.energy import (
    EnergyAudit,
    Hamiltonian,
    audit_measurement,
    commutation_check,
    energy_expectation,
)
from collapsim.errors import DimensionMismatch, ForbiddenOutcome, LengthMismatch
from collapsim.quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    born_distribution_rho,
    make_state,
    nonselective_update,
)
from helpers import random_density

Z2 = ProjectiveMeasurement.computational(2)
X2 = ProjectiveMeasurement.from_basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
H_PM = Hamiltonian.diagonal([1.0, -1.0])


class TestEnergyExpectation:
    def test_eigenstate(self):
        rho = DensityOperator.from_state(make_state([1, 0]))
        assert energy_expectation(rho, H_PM) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert energy_expectation(rho, H_PM) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_off_diagonal(self):
        # oracle: Tr(diag(1,-1) @ [[.5,.5],[.5,.5]]) = 0.5 - 0.5 = 0
        rho = DensityOperator.from_state(make_state([1, 1]))
        assert energy_expectation(rho, H_PM) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = DensityOperator(np.eye(3) / 3)
        with pytest.raises(DimensionMismatch):
            energy_expectation(rho, H_PM)

    def test_every_accepted_hamiltonian_is_real(self):
        # Hermitian within ATOL only, or exactly Hermitian with large entries:
        # both are accepted, and both once failed the reality check
        rng = np.random.default_rng(54)
        near = Hamiltonian(np.array([[1, 5e-11j], [0, 1]]))
        assert np.array_equal(near.matrix, near.matrix.conj().T)
        rho = DensityOperator.from_state(make_state([1, 1]))
        assert energy_expectation(rho, near) == pytest.approx(1.0, abs=1e-12)
        for dim in (3, 6, 12):
            for _ in range(20):
                hamiltonian = Hamiltonian(_random_hamiltonian(rng, dim).matrix * 1e6)
                rho = random_density(rng, dim)
                audit_measurement(rho, ProjectiveMeasurement.computational(dim),
                                  list(range(dim)), hamiltonian)

    def test_exactly_hermitian_matrix_kept_bit_for_bit(self):
        for entries in ([[1e308, 1e308j], [-1e308j, -1e308]],
                        [[5e-324, 1e-320 - 5e-324j], [1e-320 + 5e-324j, 0]]):
            matrix = np.array(entries, dtype=complex)
            assert Hamiltonian(matrix.copy()).matrix.tobytes() == matrix.tobytes()


class TestCommutationCheck:
    def test_z_measurement_commutes_with_diagonal(self):
        assert commutation_check(Z2, [1.0, -1.0], H_PM) is True

    def test_x_measurement_does_not_commute(self):
        # oracle: explicit commutator of sum_j m_j P_j with diag(1,-1)
        observable = 1.0 * X2.projectors[0] + (-1.0) * X2.projectors[1]
        commutator = observable @ H_PM.matrix - H_PM.matrix @ observable
        assert np.max(np.abs(commutator)) > 0.1
        assert commutation_check(X2, [1.0, -1.0], H_PM) is False

    def test_identity_hamiltonian_always_commutes(self):
        identity = Hamiltonian(np.eye(2))
        assert commutation_check(X2, [0.3, 0.7], identity) is True

    def test_eigenvalue_count_enforced(self):
        with pytest.raises(LengthMismatch):
            commutation_check(Z2, [1.0], H_PM)


class TestAuditMeasurement:
    def test_born_weights_conserve_for_commuting(self):
        rho = DensityOperator.from_state(make_state([1, 1]))
        audit = audit_measurement(rho, Z2, [1.0, -1.0], H_PM)
        assert audit.delta == pytest.approx(0.0, abs=1e-12)
        assert audit.commutes and audit.weights_were_born

    def test_forced_weights_pump_energy(self):
        rho = DensityOperator.from_state(make_state([1, 1]))
        weights = ProbabilityDistribution(np.array([1.0, 0.0]))
        audit = audit_measurement(rho, Z2, [1.0, -1.0], H_PM, weights)
        assert audit.e_before == pytest.approx(0.0, abs=1e-12)
        assert audit.e_after == pytest.approx(1.0, abs=1e-12)
        assert audit.delta == pytest.approx(1.0, abs=1e-12)
        assert not audit.weights_were_born

    def test_measurement_eigenstate_inert(self):
        rho = DensityOperator.from_state(make_state([1, 0]))
        for weights in (None, ProbabilityDistribution(np.array([1.0, 0.0]))):
            audit = audit_measurement(rho, Z2, [1.0, -1.0], H_PM, weights)
            assert audit.delta == pytest.approx(0.0, abs=1e-12)

    def test_delta_consistency_field(self):
        audit = EnergyAudit(1.0, 3.0, 2.0, True, True)
        assert audit.delta == audit.e_after - audit.e_before

    def test_forbidden_weights_propagate(self):
        rho = DensityOperator.from_state(make_state([1, 0]))
        with pytest.raises(ForbiddenOutcome):
            audit_measurement(
                rho, Z2, [1.0, -1.0], H_PM,
                ProbabilityDistribution(np.array([0.0, 1.0])),
            )


def _random_hamiltonian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Hamiltonian((a + a.conj().T) / 2)


def test_qnd_conservation_random_property():
    # measurement in the Hamiltonian eigenbasis + Born weights conserves energy
    rng = np.random.default_rng(51)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        hamiltonian = _random_hamiltonian(rng, dim)
        _, vecs = np.linalg.eigh(hamiltonian.matrix)
        measurement = ProjectiveMeasurement.from_basis(vecs.T)
        rho = random_density(rng, dim)
        audit = audit_measurement(rho, measurement, list(range(dim)), hamiltonian)
        assert audit.commutes
        assert abs(audit.delta) < 1e-10


def test_violation_constructible_for_spread_states():
    # any state on >= 2 energy eigenspaces admits a weight vector that
    # changes the mean energy: put all mass on the top admissible outcome
    rng = np.random.default_rng(52)
    constructed = 0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        energies = np.sort(rng.normal(size=dim) * 2)
        if np.min(np.diff(energies)) < 1e-3:
            continue  # want clearly non-degenerate spectra
        hamiltonian = Hamiltonian.diagonal(energies)
        measurement = ProjectiveMeasurement.computational(dim)
        rho = random_density(rng, dim)
        born = born_distribution_rho(rho, measurement)
        admissible = sorted(born.support())
        if len(admissible) < 2:
            continue
        target = admissible[-1]  # max-energy admissible outcome
        weights = np.zeros(dim)
        weights[target] = 1.0
        audit = audit_measurement(
            rho, measurement, energies, hamiltonian,
            ProbabilityDistribution(weights),
        )
        # support on >= 2 eigenspaces puts the mean strictly below the top
        assert audit.delta > 0
        constructed += 1
    assert constructed >= 50


def test_explicit_born_weights_match_plain_update():
    rng = np.random.default_rng(53)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(rng, dim)
        measurement = ProjectiveMeasurement.computational(dim)
        hamiltonian = _random_hamiltonian(rng, dim)
        born = born_distribution_rho(rho, measurement)
        plain = energy_expectation(nonselective_update(rho, measurement), hamiltonian)
        explicit = energy_expectation(
            nonselective_update(rho, measurement, born), hamiltonian
        )
        assert plain == pytest.approx(explicit, abs=1e-12)
