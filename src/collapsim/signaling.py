"""Quantifies (no-)signaling through one side's marginals.

Under Born collapse, nothing Alice does moves Bob's outcome statistics
(max_tv = 0, zero channel capacity). A deviating policy on an entangled
state turns Alice's choice between two settings into a classical channel
to Bob; its capacity in bits is the natural size of the opened side channel.

Each setting is a pair (tables, policy). The tables are quantum.paired_born's
for Alice's measurement in that setting and Bob's one measurement: her Born
distribution, and Bob's distribution after each of her outcomes. The analytic
marginal weights those rows by her policy; the empirical one samples them
through policies.paired_block, with a G-test of Alice's setting against Bob's
outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .policies import (
    CollapsePolicy,
    _chi2_sf,
    compile_policy,
    paired_block,
    policy_distribution,
    total_variation,
)
from .quantum import ZERO_PROB, ProbabilityDistribution, within
from .rng import cumulative, run_blocks


#: paired_born's (Alice's Born distribution, Bob's conditional table)
PairedTables = tuple[ProbabilityDistribution, np.ndarray]


@dataclass(frozen=True)
class SignalingReport:
    """Bob-side marginals per Alice setting, and how far apart they are."""

    bob_marginals: dict[str, tuple[float, ...]]
    max_tv: float
    channel_bits: float
    independence_pvalue: float | None  # empirical mode only
    trials_per_setting: int
    mode: str
    seed: int | None = None


def bob_marginal_analytic(
    tables: PairedTables, alice_policy: CollapsePolicy
) -> ProbabilityDistribution:
    """Bob's exact outcome distribution given Alice's tables and policy.

    Sums, over Alice's outcomes j with nonzero policy probability, Bob's
    distribution after outcome j (row j of his table), weighted by the policy
    probability of j. No sampling is involved.
    """
    alice_born, bob_born = tables
    weights = policy_distribution(alice_policy, alice_born).probs
    used = weights > ZERO_PROB
    marginal = (weights[used, None] * bob_born[used]).sum(axis=0)
    return ProbabilityDistribution(marginal)


def channel_capacity(transition: np.ndarray) -> float:
    """Capacity in bits of a two-input channel given row-stochastic `transition`.

    For rows a != b, I(p) at weight p on a is concave with slope D(a||q_p) - D(b||q_p),
    q_p = p a + (1-p) b, which falls strictly (by -sum (a-b)^2/q_p); bisection on its
    sign finds the optimum (Gallager 1968, Thm 4.5.1) to float resolution.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2 or w.shape[0] != 2:
        raise BadParameter("transition must be a row-stochastic matrix with two rows")
    if (w < -ZERO_PROB).any() or not within(w.sum(axis=1), 1.0):
        raise BadParameter("transition rows must be probability distributions")
    a, b = w.clip(0.0, 1.0).tolist()
    if a == b:
        return 0.0
    # slope = H(b) - H(a) - sum_k d_k ln q_k, d = a - b; q_k = 0 (underflow) is skipped
    gap = _entropy(b) - _entropy(a)
    moving = [(y, x - y) for x, y in zip(a, b) if x != y]
    lo, hi = 0.0, 1.0
    for _ in range(53):  # to width 2^-53 even where rounding hides the slope's sign
        p = 0.5 * (lo + hi)
        slope = 0.0  # summed in moving's order, as sum() over a generator did
        for y, d in moving:
            if (q := y + p * d) > 0.0:
                slope += d * math.log(q)
        if slope < gap:
            lo = p
        else:
            hi = p
    q = [p * x + (1.0 - p) * y for x, y in zip(a, b)]
    return max((_entropy(q) - p * _entropy(a) - (1.0 - p) * _entropy(b)) / math.log(2), 0.0)


def independence_pvalue(counts: np.ndarray) -> float:
    """G-test of independence of a (settings, outcomes) count table: G = 2 sum
    O ln(O/E) over the outcomes seen at all, df = their number less one."""
    seen = counts[:, counts.sum(axis=0) > 0]
    expected = seen.sum(axis=1)[:, None] * seen.sum(axis=0) / seen.sum()  # np.outer's product
    g = 2.0 * float((seen * np.log(np.where(seen > 0, seen / expected, 1.0))).sum())
    return _chi2_sf(g, seen.shape[1] - 1)


def _entropy(r: list[float]) -> float:
    """Shannon entropy in nats."""
    return -sum(x * math.log(x) for x in r if x > 0.0)


def signaling_experiment(
    settings: dict[str, tuple[PairedTables, CollapsePolicy]],
    trials: int | None = None,
    seed: int = 0,
) -> SignalingReport:
    """Compare Bob's marginals across Alice's two settings.

    Each setting maps its label to (paired_born tables, Alice's policy); Bob's
    outcomes are the columns of his tables. trials=None runs in analytic mode
    (exact marginals); an integer runs sampled trials per setting (trial t of
    setting s reads trial_rng(seed, s, t), Philox counter [t, s, 0, block]) and
    adds the independence G-test.
    """
    if len(settings) != 2:
        raise BadParameter("exactly two Alice settings are required")
    for label, ((alice_born, bob_born), _) in settings.items():
        if bob_born.shape[0] != len(alice_born):
            raise DimensionMismatch(
                f"setting {label}: Bob's table has {bob_born.shape[0]} rows "
                f"for {len(alice_born)} Alice outcomes"
            )
    widths = {bob_born.shape[1] for (_, bob_born), _ in settings.values()}
    if len(widths) != 1:
        raise DimensionMismatch(f"Bob's tables differ in outcome count: {sorted(widths)}")
    (width,) = widths
    if trials is None:
        rows = np.array([bob_marginal_analytic(*setting).probs for setting in settings.values()])
        mode, per_setting, pvalue = "analytic", 0, None
    else:
        if trials < 1:
            raise BadParameter("trials must be positive")
        counts = np.zeros((len(settings), width))
        for s, ((alice_born, bob_born), policy) in enumerate(settings.values()):
            plan = compile_policy(policy, alice_born, trials)
            bob_cums = cumulative(bob_born)
            for drawn in run_blocks(seed, (s,), trials, partial(paired_block, plan, bob_cums)):
                counts[s] += np.bincount(drawn.bob_outcome, minlength=width)
        rows = counts / trials
        mode, per_setting, pvalue = "empirical", trials, independence_pvalue(counts)

    return SignalingReport(
        bob_marginals=dict(zip(settings, map(tuple, rows.tolist()))),
        max_tv=total_variation(*rows),
        channel_bits=channel_capacity(rows / rows.sum(axis=1, keepdims=True)),
        independence_pvalue=pvalue,
        trials_per_setting=per_setting,
        mode=mode,
        seed=seed if trials is not None else None,
    )

