"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np

from collapsim.agent import AlternativeSet, NormFunction, act_trials
from collapsim.policies import CollapsePolicy, compile_policy
from collapsim.quantum import (
    DensityOperator,
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
    make_state,
    paired_born,
)
from collapsim.rng import trial_blocks


def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """A numpy Generator on Philox keyed by seed, its counter at [0, *key]
    (padded with 0): a general stream for tests that draw arrays from one
    Generator, fixed so their draws stay as they are."""
    counter = np.array([0, *key, 0, 0, 0][:4], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


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


def paired_settings(
    state: StateVector,
    dims: tuple[int, int],
    bob: ProjectiveMeasurement,
    settings: dict[str, tuple[ProjectiveMeasurement, CollapsePolicy]],
) -> dict:
    """signaling_experiment's settings for Alice's (measurement, policy) per
    label: each measurement's paired_born tables against Bob's `bob`."""
    return {
        label: (paired_born(state, dims, alice, [bob]), policy)
        for label, (alice, policy) in settings.items()
    }


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


def sample_counts(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome counts of trials 0..trials-1 under `policy`: trial t draws the
    t-th uniform of rng against the policy's distribution at trial t, through
    the engine's compiled plan, TRIAL_BLOCK at a time."""
    born = born_distribution(state, measurement)
    plan = compile_policy(policy, born, trials)
    counts = np.zeros(len(born), dtype=np.intp)
    for t in trial_blocks(trials):
        counts += np.bincount(plan.sample(rng.random(t.size), t), minlength=len(born))
    return counts
