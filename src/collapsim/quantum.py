"""Exact finite-dimensional states, projective measurements and updates.

Everything is dense complex linear algebra. States and measurements are
immutable after construction and all operations are pure functions, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BadParameter, DimensionMismatch, ForbiddenOutcome, TooLarge, ZeroVector

#: tolerance for structural invariants (normalization, hermiticity, ...)
ATOL = 1e-10
#: Born probabilities at or below this are treated as exact zeros; an outcome
#: below the threshold is forbidden to every collapse policy.
ZERO_PROB = 1e-12
#: dense-simulation cap (2**13 covers the SAT harness at n = 12)
MAX_DIM = 8192


def within(a, b) -> bool:
    """Whether max |a - b| <= ATOL, the closeness rule of every structural check
    (a, b numbers or arrays; one number, numpy's float64 too, is compared directly).
    An empty difference is within; a NaN anywhere (inf - inf too) is a fault."""
    gap = abs(a - b)
    if isinstance(gap, float):
        return bool(gap <= ATOL)
    return bool(np.maximum.reduce(gap, axis=None, initial=0.0) <= ATOL)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _capped(amps: np.ndarray) -> np.ndarray:
    """amps, refused past the dense cap MAX_DIM (of StateVector and make_state)."""
    if amps.size > MAX_DIM:
        raise TooLarge(f"dimension {amps.size} exceeds the dense cap {MAX_DIM}")
    return amps


def _built(cls, **fields):
    """Frozen dataclass cls with these fields, unchecked: exact, or checked, by construction."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a finite outcome space."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        norm = np.linalg.norm(_capped(amps))
        if not within(norm, 1.0):
            raise ValueError(f"state vector is not normalized (norm={norm!r})")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("density operator must be a square matrix")
        if not within(mat, mat.conj().T):
            raise ValueError("density operator must be Hermitian")
        if not within(mat.trace(), 1.0):
            raise ValueError("density operator must have unit trace")
        # eigvalsh's gufunc, unwrapped: mat is finite (Hermitian above), and NaN fails too
        if not np.linalg._umath_linalg.eigvalsh_lo(mat, signature="D->d").min() >= -ATOL:
            raise ValueError("density operator must be positive semidefinite")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityOperator":
        return cls(np.outer(state.amplitudes, state.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Ordered complete family of orthogonal projectors, copied from any
    sequence of d×d matrices into one checked, read-only (k, d, d) array."""

    projectors: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.projectors):
            raise ValueError("a measurement needs at least one projector")
        shape = np.shape(self.projectors[0])
        if len(shape) != 2 or any(np.shape(p) != (shape[0],) * 2 for p in self.projectors):
            raise ValueError("projectors must be square and equally sized")
        stack = np.array(self.projectors, dtype=complex)
        if not within(stack, stack.conj().transpose(0, 2, 1)):
            raise ValueError("projectors must be Hermitian")
        # P_a P_b - δ_ab P_a; orthogonality follows from the rest, but not within ATOL
        residual = stack[:, None] @ stack[None, :]
        residual[np.diag_indices(len(stack))] -= stack
        fault = ~(np.abs(residual) <= ATOL).all(axis=(2, 3))  # NaN is a fault
        if fault.diagonal().any():
            raise ValueError("projectors must be idempotent")
        pairs = np.argwhere(np.triu(fault, 1))
        if pairs.size:
            raise ValueError("projectors {} and {} are not orthogonal".format(*pairs[0]))
        if not within(stack.sum(axis=0), np.eye(shape[0])):
            raise ValueError("projectors must sum to the identity")
        object.__setattr__(self, "projectors", _frozen(stack))

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    @classmethod
    def from_basis(cls, vectors: np.ndarray) -> "ProjectiveMeasurement":
        """Rank-1 measurement from the rows of an orthonormal basis."""
        try:
            rows = np.asarray(vectors, dtype=complex)
        except (TypeError, ValueError):
            raise ValueError("basis rows must be equally long vectors of numbers") from None
        return cls(rows[..., :, None] * rows.conj()[..., None, :])  # np.outer, row by row

    @classmethod
    def computational(cls, dim: int) -> "ProjectiveMeasurement":
        """The standard basis |j><j|, j = 0..dim-1; exact, not checked."""
        if dim < 1:
            raise ValueError("a measurement needs at least one projector")
        stack = np.zeros((dim, dim, dim), dtype=complex)
        stack[(np.arange(dim),) * 3] = 1.0
        return _built(cls, projectors=_frozen(stack))  # exact by construction

    @classmethod
    def detection(cls, ket: np.ndarray) -> "ProjectiveMeasurement":
        """Two-outcome observable {|k><k|, 1 - |k><k|}: detect / miss."""
        v = np.ascontiguousarray(ket, dtype=complex)
        proj = np.outer(v, v.conj())
        return cls((proj, np.eye(v.size) - proj))


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Vector of non-negative reals summing to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probabilities must form a non-empty vector")
        if p.min() < -ZERO_PROB:
            raise ValueError("probabilities must be non-negative")
        if not within(total := p.sum(), 1.0):
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
        object.__setattr__(self, "probs", _frozen(p.clip(0.0, 1.0)))

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, idx: int) -> float:
        return float(self.probs[idx])

    def support(self) -> frozenset[int]:
        """Outcomes above ZERO_PROB: the only realizable branches."""
        return self._support

    @cached_property
    def _support(self) -> frozenset[int]:  # once per instance: probs is read-only
        return frozenset((self.probs > ZERO_PROB).nonzero()[0].tolist())


def make_state(amplitudes) -> StateVector:
    """Normalize raw amplitudes into a state, its norm not checked again; rejects zero."""
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    if amps.ndim != 1:
        raise DimensionMismatch("amplitudes must be a 1-d sequence")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if not math.isfinite(norm):
        if not np.isfinite(amps).all():
            raise BadParameter("amplitudes must be finite")
        # the sum of squares overflowed: bring the largest component to 1 first
        amps = amps / abs(amps.view(float)).max()
        norm = np.linalg.norm(amps)
    if norm < 1e-12 or not abs(amps).max() >= 1e-12:
        raise ZeroVector("all amplitudes are numerically zero")
    return _built(StateVector, amplitudes=_frozen(_capped(amps) / norm))


def born_distribution(
    state: StateVector, measurement: ProjectiveMeasurement
) -> ProbabilityDistribution:
    """Outcome probabilities <s|M_j|s>, clipped to [0, 1]."""
    if state.dim != measurement.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} != measurement dim {measurement.dim}"
        )
    amps = state.amplitudes
    probs = np.einsum(
        "i,mij,j->m", amps.conj(), measurement.projectors, amps, optimize=False
    ).real
    return ProbabilityDistribution(probs.clip(0.0, 1.0))


def born_distribution_rho(
    rho: DensityOperator, measurement: ProjectiveMeasurement
) -> ProbabilityDistribution:
    """Outcome probabilities Tr(M_j rho) for a mixed state."""
    if rho.dim != measurement.dim:
        raise DimensionMismatch(f"rho dim {rho.dim} != measurement dim {measurement.dim}")
    probs = np.einsum("mij,ji->m", measurement.projectors, rho.matrix).real
    return ProbabilityDistribution(probs.clip(0.0, 1.0))


def collapse(
    state: StateVector, measurement: ProjectiveMeasurement, outcome: int
) -> StateVector:
    """Project onto an outcome and renormalize.

    Raises ForbiddenOutcome when the outcome's Born probability is zero:
    collapse can redistribute probability, never create it.
    """
    if state.dim != measurement.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} != measurement dim {measurement.dim}"
        )
    if not 0 <= outcome < measurement.n_outcomes:
        raise ForbiddenOutcome(f"outcome index {outcome} out of range")
    projected = measurement.projectors[outcome] @ state.amplitudes
    weight = np.vdot(projected, projected).real
    if not weight > ZERO_PROB:  # NaN too
        raise ForbiddenOutcome(
            f"outcome {outcome} has zero Born probability and cannot be realized"
        )
    return StateVector(projected / np.sqrt(weight))


def paired_born(
    state: StateVector,
    dims: tuple[int, int],
    first: ProjectiveMeasurement,
    seconds: Sequence[ProjectiveMeasurement],
) -> tuple[ProbabilityDistribution, np.ndarray]:
    """The Born distribution of `first` on subsystem A of a bipartite pure state,
    and a read-only table of what each of `seconds` on subsystem B then gives.

    Row s * k + j of the table (k = first.n_outcomes) is the Born distribution
    of seconds[s] on the state outcome j of `first` leaves; rows of zero-Born
    outcomes are NaN. With Ψ the d_A × d_B coefficient matrix of the state and
    X_j = P_j Ψ, outcome j has probability ‖X_j‖², the pair (j, m) under
    seconds[s] has ‖X_j Q_mᵀ‖², and each row is its joint row over that row's
    own sum: no measurement is lifted onto the d_A·d_B space, no state collapsed.
    """
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise DimensionMismatch(f"state dim {state.dim} != {d_a}*{d_b}")
    if first.dim != d_a:
        raise DimensionMismatch("measurement does not act on subsystem A")
    if any(second.dim != d_b for second in seconds):
        raise DimensionMismatch("measurement does not act on subsystem B")
    if len({second.n_outcomes for second in seconds}) != 1:
        raise DimensionMismatch("the second measurements need one common outcome count")
    x = first.projectors @ state.amplitudes.reshape(d_a, d_b)
    born = ProbabilityDistribution((np.abs(x) ** 2).sum(axis=(1, 2)))
    y = np.einsum("jab,smcb->sjmac", x, np.stack([second.projectors for second in seconds]))
    joint = (np.abs(y) ** 2).sum(axis=(-2, -1))
    allowed = born.probs > ZERO_PROB
    rows = joint[:, allowed]
    rows = rows / rows.sum(axis=-1, keepdims=True)
    if not ((rows >= -ZERO_PROB).all() and within(rows.sum(axis=-1), 1.0)):
        raise ValueError("conditional rows must be non-negative and sum to 1")
    table = np.full(joint.shape, np.nan)
    table[:, allowed] = rows
    return born, _frozen(table.reshape(-1, joint.shape[-1]))


def nonselective_update(
    rho: DensityOperator,
    measurement: ProjectiveMeasurement,
    weights: ProbabilityDistribution | None = None,
) -> DensityOperator:
    """Measure without recording the outcome, mixing branches by `weights`.

    With `weights` absent this is the standard update rho -> sum_j M_j rho M_j.
    Explicit weights model a deviating (non-Born) outcome distribution; their
    support must lie inside the Born support of rho under the measurement.
    """
    born = born_distribution_rho(rho, measurement)
    if weights is None:
        weights = born
    elif len(weights) != measurement.n_outcomes:
        raise DimensionMismatch("one weight per measurement outcome is required")
    out = np.zeros((rho.dim, rho.dim), dtype=complex)
    for j, proj in enumerate(measurement.projectors):
        if weights[j] <= ZERO_PROB:
            continue
        if born[j] <= ZERO_PROB:
            raise ForbiddenOutcome(
                f"weights place mass {weights[j]!r} on zero-Born outcome {j}"
            )
        branch = proj @ rho.matrix @ proj
        out += weights[j] * branch / branch.trace().real
    return DensityOperator(out)


def register_born(
    state: StateVector, dims: tuple[int, int], which: str
) -> ProbabilityDistribution:
    """Born distribution of a computational measurement on one register.

    Structurally equivalent to embedding the computational basis of that
    register and calling born_distribution, without building dim^2 matrices.
    """
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise DimensionMismatch(f"state dim {state.dim} != {d_a}*{d_b}")
    weights = np.abs(state.amplitudes.reshape(d_a, d_b)) ** 2
    if which == "A":
        return ProbabilityDistribution(weights.sum(axis=1))
    if which == "B":
        return ProbabilityDistribution(weights.sum(axis=0))
    raise DimensionMismatch("which must be 'A' or 'B'")


def collapse_register(
    state: StateVector, dims: tuple[int, int], which: str, outcome: int
) -> StateVector:
    """Collapse one register onto a computational outcome, keeping the other.

    The structural counterpart of collapse() with an embedded computational
    measurement; subject to the same zero-Born-probability gate.
    """
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise DimensionMismatch(f"state dim {state.dim} != {d_a}*{d_b}")
    if which not in ("A", "B"):
        raise DimensionMismatch("which must be 'A' or 'B'")
    if not 0 <= outcome < (d_a if which == "A" else d_b):
        raise ForbiddenOutcome(f"register outcome {outcome} out of range")
    kept = (outcome, slice(None)) if which == "A" else (slice(None), outcome)
    psi = np.zeros((d_a, d_b), dtype=complex)
    psi[kept] = state.amplitudes.reshape(d_a, d_b)[kept]
    flat = psi.reshape(-1)
    weight = np.vdot(flat, flat).real
    if not weight > ZERO_PROB:  # NaN too
        raise ForbiddenOutcome(
            f"register outcome {outcome} has zero Born probability"
        )
    return StateVector(flat / np.sqrt(weight))
