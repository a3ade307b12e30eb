"""Interchangeable collapse policies gated by the Born support.

A policy maps a (state, measurement) pair to an outcome distribution. The
Born policy reproduces standard quantum randomness; Forced, Biased and
Scripted deviate from it, but may only redistribute probability among
outcomes whose Born probability is nonzero (weak compatibility). Attempts
to reach outside that support raise ForbiddenOutcome.

Every policy is evaluated through its Born distribution only, so the same
code drives full measurements and structural register measurements alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, ForbiddenOutcome, LengthMismatch
from .quantum import (
    ZERO_PROB,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
)
from .rng import cumulative, sample_index, sample_indices, trial_blocks


class CollapsePolicy:
    """Marker base class; see Born, Forced, Biased and Scripted."""


@dataclass(frozen=True)
class Born(CollapsePolicy):
    """Sample outcomes with standard Born probabilities (no control)."""


@dataclass(frozen=True)
class Forced(CollapsePolicy):
    """Deterministically realize one target outcome, if it is admissible."""

    target: int


@dataclass(frozen=True, eq=False)
class Biased(CollapsePolicy):
    """Replace the Born distribution with fixed weights on its support."""

    weights: ProbabilityDistribution

    def __post_init__(self) -> None:
        if not isinstance(self.weights, ProbabilityDistribution):
            object.__setattr__(
                self, "weights", ProbabilityDistribution(np.asarray(self.weights))
            )


@dataclass(frozen=True)
class Scripted(CollapsePolicy):
    """Play sequence[t] at trial t; past the script's end, or where sequence[t]
    has zero Born probability, sample the fallback. The trial is an argument,
    so an instance holds no state and serves any trials in any order."""

    sequence: tuple[int, ...]
    fallback: CollapsePolicy = field(default_factory=Born)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", tuple(int(i) for i in self.sequence))
        if isinstance(self.fallback, Scripted):
            raise BadParameter("a scripted fallback may not itself be scripted")


class OutcomeSample(NamedTuple):
    """Per-trial audit record of one sampled collapse."""

    outcome: int
    born_prob: float
    policy_prob: float
    forbidden_attempted: bool


class DeviationStats(NamedTuple):
    tv: float
    chi2: float
    df: int
    pvalue: float


def admissible_outcomes(
    state: StateVector, measurement: ProjectiveMeasurement
) -> frozenset[int]:
    """Outcomes with nonzero Born probability: the only realizable branches."""
    return born_distribution(state, measurement).support(ZERO_PROB)


def policy_distribution(
    policy: CollapsePolicy, born: ProbabilityDistribution, trial: int = 0
) -> ProbabilityDistribution:
    """Outcome distribution a policy induces at trial `trial` of a run.

    Only Scripted depends on the trial: sequence[trial] as a point mass when
    it is admissible, the fallback's distribution otherwise.
    """
    if isinstance(policy, Born):
        return born
    admissible = born.support(ZERO_PROB)
    if isinstance(policy, Forced):
        if policy.target not in admissible:
            raise ForbiddenOutcome(
                f"forced outcome {policy.target} has zero Born probability"
            )
        return _point_mass(len(born), policy.target)
    if isinstance(policy, Biased):
        if len(policy.weights) != len(born):
            raise LengthMismatch(
                f"{len(policy.weights)} weights for {len(born)} outcomes"
            )
        bad = policy.weights.support(ZERO_PROB) - admissible
        if bad:
            raise ForbiddenOutcome(
                f"biased weights place mass on zero-Born outcomes {sorted(bad)}"
            )
        return policy.weights
    if isinstance(policy, Scripted):
        if trial < len(policy.sequence) and policy.sequence[trial] in admissible:
            return _point_mass(len(born), policy.sequence[trial])
        return policy_distribution(policy.fallback, born, trial)
    raise BadParameter(f"unknown policy {policy!r}")


def _point_mass(n: int, index: int) -> ProbabilityDistribution:
    point = np.zeros(n)
    point[index] = 1.0
    return ProbabilityDistribution(point)


def effective_distribution(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
) -> ProbabilityDistribution:
    """policy_distribution evaluated on the state's Born distribution."""
    return policy_distribution(policy, born_distribution(state, measurement))


def sample_from_born(
    policy: CollapsePolicy,
    born: ProbabilityDistribution,
    rng: np.random.Generator,
    trial: int = 0,
) -> OutcomeSample:
    """Draw trial `trial`'s outcome under a policy, recording both probabilities.

    forbidden_attempted is set only when the trial's scripted entry is
    inadmissible and the fallback distribution was used instead; Forced and
    Biased policies raise ForbiddenOutcome rather than degrade silently.
    """
    dist = policy_distribution(policy, born, trial)
    forbidden_attempted = (
        isinstance(policy, Scripted)
        and trial < len(policy.sequence)
        and policy.sequence[trial] not in born.support(ZERO_PROB)
    )
    outcome = sample_index(rng, dist.probs)
    return OutcomeSample(
        outcome=outcome,
        born_prob=born[outcome],
        policy_prob=dist[outcome],
        forbidden_attempted=forbidden_attempted,
    )


class PolicyPlan(NamedTuple):
    """What sample_from_born does at each trial of a run, worked out once.

    Trial t draws from the cumulative table cums[row(t)]: script_rows[t]
    while t < len(script_rows), default_row afterwards.
    """

    cums: np.ndarray
    script_rows: np.ndarray
    default_row: int

    def rows(self, t: np.ndarray) -> np.ndarray:
        rows = np.full(t.size, self.default_row, dtype=np.intp)
        scripted = t < len(self.script_rows)
        rows[scripted] = self.script_rows[t[scripted].astype(np.intp)]
        return rows

    def sample(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Outcomes of trials t given each trial's uniform draw u."""
        return sample_indices(u, self.cums, self.rows(t))


def compile_policy(
    policy: CollapsePolicy, born: ProbabilityDistribution, trials: int
) -> PolicyPlan:
    """Plan trials 0..trials-1 of a run that samples `born` under `policy`.

    One table per distinct case, policy_distribution at its first trial: an
    admissible script entry, or the fallback (every trial of an unscripted
    policy). Raises what sample_from_born would raise at its first failing trial.
    """
    script = policy.sequence[:trials] if isinstance(policy, Scripted) else ()
    admissible = born.support(ZERO_PROB)
    tables: list[np.ndarray] = []
    row_of: dict[int | None, int] = {}

    def row(t: int, case: int | None) -> int:
        if case not in row_of:
            row_of[case] = len(tables)
            tables.append(cumulative(policy_distribution(policy, born, t).probs))
        return row_of[case]

    script_rows = np.array(
        [row(t, entry if entry in admissible else None) for t, entry in enumerate(script)],
        dtype=np.intp,
    )
    default_row = row(len(script), None) if trials > len(script) else -1
    # reshape: no tables at all when there are no trials
    return PolicyPlan(np.array(tables).reshape(-1, len(born)), script_rows, default_row)


def sample_outcome(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
    rng: np.random.Generator,
    trial: int = 0,
) -> OutcomeSample:
    """Sample trial `trial`'s measurement outcome of `state` under `policy`."""
    return sample_from_born(policy, born_distribution(state, measurement), rng, trial)


def sample_counts(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome counts of trials 0..trials-1 under `policy`.

    Trial t draws the t-th uniform of rng against the policy's distribution
    at trial t, by the inverse CDF per-trial sampling uses, TRIAL_BLOCK at a time.
    """
    born = born_distribution(state, measurement)
    plan = compile_policy(policy, born, trials)
    counts = np.zeros(len(born), dtype=np.intp)
    for t in trial_blocks(trials):
        counts += np.bincount(plan.sample(rng.random(t.size), t), minlength=len(born))
    return counts


def deviation_statistic(
    counts: Sequence[int], reference: ProbabilityDistribution
) -> DeviationStats:
    """Total-variation distance and chi-square test of observed counts.

    tv = (1/2) sum_j |counts_j/N - ref_j|; chi2 sums (c_j - N*ref_j)^2/(N*ref_j)
    over reference outcomes with nonzero probability; df is their number less
    one (at least 1), pvalue the chance a chi-square variate with df is >= chi2.
    """
    obs = np.asarray(counts, dtype=float)
    if obs.ndim != 1 or obs.size != len(reference):
        raise LengthMismatch(f"{obs.size} counts for {len(reference)} outcomes")
    if np.any(obs < 0):
        raise BadParameter("counts must be non-negative")
    total = obs.sum()
    if total < 1:
        raise BadParameter("at least one observation is required")
    ref = reference.probs
    mask = ref > 0
    expected = total * ref[mask]
    chi2 = float(((obs[mask] - expected) ** 2 / expected).sum())
    df = max(len(reference.support()) - 1, 1)
    return DeviationStats(total_variation(obs / total, ref), chi2, df, _chi2_sf(chi2, df))


def _chi2_sf(x: float, df: int) -> float:
    """Q(df/2, x/2): with h = x/2 and a = (df mod 2)/2, erfc(sqrt(h)) if a, plus
    e^-h h^(j+a)/Gamma(j+a+1) for j < df//2, each exponentiated from its own log."""
    h, a = min(x / 2, 1e308), (df % 2) / 2  # the tail at infinity is 0, as at 1e308
    if h <= 0:  # x <= 0, or too small to halve
        return 1.0
    log_h = math.log(h)
    terms = [math.exp((j + a) * log_h - h - math.lgamma(j + a + 1)) for j in range(df // 2)]
    terms += [math.erfc(math.sqrt(h))] if a else []
    return min(1.0, math.fsum(terms))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """(1/2) sum_j |p_j - q_j|."""
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def parse_policy(text: str) -> CollapsePolicy:
    """Parse the CLI policy grammar.

    born | forced:<index> | biased:<p0,p1,...> | scripted:<i1,i2,...>[;fallback=<policy>]
    """
    spec = text.strip()
    if spec == "born":
        return Born()
    if spec.startswith("forced:"):
        try:
            return Forced(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise BadParameter(f"bad forced target in {text!r}") from exc
    if spec.startswith("biased:"):
        try:
            weights = np.asarray([float(w) for w in spec.split(":", 1)[1].split(",")])
            with np.errstate(over="ignore"):  # an overflowing sum is refused
                return Biased(ProbabilityDistribution(weights))
        except ValueError as exc:
            raise BadParameter(f"bad biased weights in {text!r}: {exc}") from exc
    if spec.startswith("scripted:"):
        body = spec.split(":", 1)[1]
        fallback: CollapsePolicy = Born()
        if ";" in body:
            body, tail = body.split(";", 1)
            if not tail.startswith("fallback="):
                raise BadParameter(f"expected ';fallback=' in {text!r}")
            fallback = parse_policy(tail.split("=", 1)[1])
        try:
            sequence = tuple(int(i) for i in body.split(","))
        except ValueError as exc:
            raise BadParameter(f"bad script indices in {text!r}") from exc
        return Scripted(sequence, fallback)
    raise BadParameter(f"unknown policy {text!r}")


def describe_policy(policy: CollapsePolicy) -> str:
    """Render a policy back into the CLI grammar."""
    if isinstance(policy, Born):
        return "born"
    if isinstance(policy, Forced):
        return f"forced:{policy.target}"
    if isinstance(policy, Biased):
        return "biased:" + ",".join(repr(float(w)) for w in policy.weights.probs)
    if isinstance(policy, Scripted):
        base = "scripted:" + ",".join(str(i) for i in policy.sequence)
        return base + ";fallback=" + describe_policy(policy.fallback)
    raise BadParameter(f"unknown policy {policy!r}")
