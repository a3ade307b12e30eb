"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np

from collapsim.agent import AlternativeSet, NormFunction, act_trials
from collapsim.quantum import (
    DensityOperator,
    ProjectiveMeasurement,
    StateVector,
    make_state,
)


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return make_state(amps)


def random_measurement(rng: np.random.Generator, dim: int) -> ProjectiveMeasurement:
    """Rank-1 measurement in a Haar-ish random orthonormal basis."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return ProjectiveMeasurement.from_basis(q.T)


def random_density(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> DensityOperator:
    rank = rank or dim
    weights = rng.random(rank) + 0.05
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = random_state(rng, dim).amplitudes
        rho += w * np.outer(psi, psi.conj())
    return DensityOperator(rho)


def act_outcomes(
    alternatives: AlternativeSet,
    norm: NormFunction,
    seed: int,
    trials: int,
    mixing: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Chosen outcomes and tie flags of act(alternatives, norm, trial_rng(seed, t),
    mixing) for t < trials, computed by the batched engine."""
    blocks = list(act_trials(alternatives, norm, seed, trials, mixing))
    return (
        np.concatenate([block.chosen for block in blocks]),
        np.concatenate([block.tie_broken for block in blocks]),
    )


def act_counts(
    alternatives: AlternativeSet,
    norm: NormFunction,
    seed: int,
    trials: int,
    mixing: float = 1.0,
) -> np.ndarray:
    """Outcome counts of the trials act_outcomes describes."""
    chosen, _ = act_outcomes(alternatives, norm, seed, trials, mixing)
    return np.bincount(chosen, minlength=len(alternatives))
