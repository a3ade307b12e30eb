"""Mean-energy bookkeeping across non-selective measurement updates.

A measurement whose operator commutes with the Hamiltonian conserves mean
energy under Born weights; feeding the update deviating weights breaks
conservation in general, and the audit records by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameter, DimensionMismatch, LengthMismatch
from .quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    nonselective_update,
    within,
)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian energy observable (units arbitrary but fixed per experiment);
    a matrix Hermitian only within ATOL is stored as its Hermitian part."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("hamiltonian must be a square matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            skew = mat - mat.conj().T
        if not within(skew, 0.0):
            raise ValueError("hamiltonian must be Hermitian")
        if skew.any():
            # halves first: a sum could overflow, and exact input is kept bit for bit
            mat = mat / 2 + mat.conj().T / 2
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def diagonal(cls, energies: Sequence[float]) -> "Hamiltonian":
        return cls(np.diag(np.asarray(energies, dtype=float)))


@dataclass(frozen=True)
class EnergyAudit:
    e_before: float
    e_after: float
    delta: float
    commutes: bool
    weights_were_born: bool


def energy_expectation(rho: DensityOperator, hamiltonian: Hamiltonian) -> float:
    """Tr(H rho), checked to be real: its imaginary part may only be the
    rounding of the terms H_ik rho_ki the trace sums."""
    if rho.dim != hamiltonian.dim:
        raise DimensionMismatch(f"rho dim {rho.dim} != H dim {hamiltonian.dim}")
    with np.errstate(over="ignore"):  # audit_measurement refuses an overflow
        value = np.trace(hamiltonian.matrix @ rho.matrix)
        magnitude = np.sum(np.abs(hamiltonian.matrix) * np.abs(rho.matrix.T))
    if abs(value.imag) > 1e-12 * max(1.0, magnitude):
        raise ValueError(f"energy expectation has imaginary part {value.imag!r}")
    return float(value.real)


def commutation_check(
    measurement: ProjectiveMeasurement,
    eigenvalues: Sequence[float],
    hamiltonian: Hamiltonian,
) -> bool:
    """Whether sum_j m_j M_j commutes with H (the non-demolition condition)."""
    if measurement.dim != hamiltonian.dim:
        raise DimensionMismatch(
            f"measurement dim {measurement.dim} != H dim {hamiltonian.dim}"
        )
    values = np.asarray(eigenvalues, dtype=float)
    if values.size != measurement.n_outcomes:
        raise LengthMismatch(
            f"{values.size} eigenvalues for {measurement.n_outcomes} projectors"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        observable = np.einsum("k,kij->ij", values, measurement.projectors)
        commutator = observable @ hamiltonian.matrix - hamiltonian.matrix @ observable
    if not np.isfinite(commutator).all():
        raise BadParameter("the commutator overflows a float at these parameters")
    return within(commutator, 0.0)


def audit_measurement(
    rho: DensityOperator,
    measurement: ProjectiveMeasurement,
    eigenvalues: Sequence[float],
    hamiltonian: Hamiltonian,
    weights: ProbabilityDistribution | None = None,
) -> EnergyAudit:
    """Mean energy before and after a (possibly weight-deviating) update."""
    e_before = energy_expectation(rho, hamiltonian)
    e_after = energy_expectation(
        nonselective_update(rho, measurement, weights), hamiltonian
    )
    delta = e_after - e_before  # finite only if both energies are
    if not np.isfinite(delta):
        raise BadParameter("mean energy overflows a float at these parameters")
    return EnergyAudit(
        e_before=e_before,
        e_after=e_after,
        delta=delta,
        commutes=commutation_check(measurement, eigenvalues, hamiltonian),
        weights_were_born=weights is None,
    )
