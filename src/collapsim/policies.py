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
from .rng import cumulative, sample_index, sample_indices


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


@dataclass(eq=False)
class Scripted(CollapsePolicy):
    """Play outcomes from a fixed script, falling back when one is forbidden.

    The script cursor advances once per sampled outcome, so an instance must
    be confined to a single trial runner; all other policies are stateless.
    """

    sequence: tuple[int, ...]
    fallback: CollapsePolicy = field(default_factory=Born)
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.sequence = tuple(int(i) for i in self.sequence)
        if isinstance(self.fallback, Scripted):
            raise BadParameter("a scripted fallback may not itself be scripted")

    def remaining(self) -> int:
        return max(len(self.sequence) - self._cursor, 0)


class OutcomeSample(NamedTuple):
    """Per-trial audit record of one sampled collapse."""

    outcome: int
    born_prob: float
    policy_prob: float
    forbidden_attempted: bool


class DeviationStats(NamedTuple):
    tv: float
    chi2: float


def admissible_outcomes(
    state: StateVector, measurement: ProjectiveMeasurement
) -> frozenset[int]:
    """Outcomes with nonzero Born probability: the only realizable branches."""
    return born_distribution(state, measurement).support(ZERO_PROB)


def policy_distribution(
    policy: CollapsePolicy, born: ProbabilityDistribution
) -> ProbabilityDistribution:
    """Outcome distribution a policy induces on a given Born distribution.

    Scripted policies are peeked, not consumed; use sample_from_born to
    advance the script.
    """
    if isinstance(policy, Born):
        return born
    admissible = born.support(ZERO_PROB)
    if isinstance(policy, Forced):
        if policy.target not in admissible:
            raise ForbiddenOutcome(
                f"forced outcome {policy.target} has zero Born probability"
            )
        point = np.zeros(len(born))
        point[policy.target] = 1.0
        return ProbabilityDistribution(point)
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
        entry = _peek_script(policy)
        if entry is not None and entry in admissible:
            point = np.zeros(len(born))
            point[entry] = 1.0
            return ProbabilityDistribution(point)
        return policy_distribution(policy.fallback, born)
    raise BadParameter(f"unknown policy {policy!r}")


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
) -> OutcomeSample:
    """Draw one outcome under a policy, recording both probabilities.

    forbidden_attempted is set only when a scripted entry turned out to be
    inadmissible and the fallback distribution was used instead; Forced and
    Biased policies raise ForbiddenOutcome rather than degrade silently.
    """
    forbidden_attempted = False
    if isinstance(policy, Scripted):
        entry = _peek_script(policy)
        if entry is not None:
            policy._cursor += 1
            forbidden_attempted = entry not in born.support(ZERO_PROB)
        if entry is not None and not forbidden_attempted:
            dist_probs = np.zeros(len(born))
            dist_probs[entry] = 1.0
            dist = ProbabilityDistribution(dist_probs)
        else:
            dist = policy_distribution(policy.fallback, born)
    else:
        dist = policy_distribution(policy, born)
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

    A Scripted policy plays sequence[t] at trial t, the entry a fresh
    instance reaches there; its cursor is neither read nor advanced. Raises
    what sample_from_born would raise at the first failing trial.
    """
    if not isinstance(policy, Scripted):
        table = cumulative(policy_distribution(policy, born).probs)
        return PolicyPlan(table[None], np.zeros(0, dtype=np.intp), 0)
    admissible = born.support(ZERO_PROB)
    script = policy.sequence[:trials]
    tables: list[np.ndarray] = []
    default_row = -1
    if trials > len(script) or not admissible.issuperset(script):
        tables.append(cumulative(policy_distribution(policy.fallback, born).probs))
        default_row = 0
    row_of: dict[int, int] = {}
    for entry in sorted(set(script) & admissible):
        point = np.zeros(len(born))
        point[entry] = 1.0
        row_of[entry] = len(tables)
        tables.append(cumulative(point))
    script_rows = np.array(
        [row_of.get(entry, default_row) for entry in script], dtype=np.intp
    )
    return PolicyPlan(np.stack(tables), script_rows, default_row)


def sample_outcome(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
    rng: np.random.Generator,
) -> OutcomeSample:
    """Sample one measurement outcome of `state` under `policy`."""
    return sample_from_born(policy, born_distribution(state, measurement), rng)


def sample_counts(
    policy: CollapsePolicy,
    state: StateVector,
    measurement: ProjectiveMeasurement,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome counts over many trials of a stateless policy.

    The effective distribution is computed once and all draws are made by
    inverse CDF against it, which is what per-trial sampling does one draw
    at a time. Scripted policies are trial-dependent and are refused.
    """
    if isinstance(policy, Scripted):
        raise BadParameter("sample_counts requires a stateless policy")
    dist = effective_distribution(policy, state, measurement)
    cum = np.cumsum(dist.probs)
    draws = np.searchsorted(cum, rng.random(trials) * cum[-1], side="right")
    draws = np.minimum(draws, len(cum) - 1)
    return np.bincount(draws, minlength=len(dist))


def deviation_statistic(
    counts: Sequence[int], reference: ProbabilityDistribution
) -> DeviationStats:
    """Total-variation distance and chi-square statistic of observed counts.

    tv = (1/2) sum_j |counts_j/N - ref_j|; chi2 sums (c_j - N*ref_j)^2/(N*ref_j)
    over reference outcomes with nonzero probability.
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
    return DeviationStats(tv=total_variation(obs / total, ref), chi2=chi2)


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
            weights = [float(w) for w in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise BadParameter(f"bad biased weights in {text!r}") from exc
        return Biased(ProbabilityDistribution(np.asarray(weights)))
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


def _peek_script(policy: Scripted) -> int | None:
    if policy._cursor < len(policy.sequence):
        return policy.sequence[policy._cursor]
    return None
