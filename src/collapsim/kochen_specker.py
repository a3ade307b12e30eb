"""The 18-ray / 9-context value-assignment obstruction and TWIN correlations.

Rays are unnormalized integer 4-vectors kept in exact arithmetic, so
orthogonality and identity checks carry no floating-point ambiguity;
normalization to unit vectors happens only when quantum states are built.

The Free Will Theorem pair is the paired protocol on the twin state: Alice
measures a context under her policy, and Bob detects one ray on the state
her outcome leaves. Per context, Alice's Born distribution and Bob's
conditional table for all 18 rays come from one quantum.paired_born call,
cached. One block code (policies.paired_block on those tables) makes
the record codes of the batched fwt_trials and of fwt_trial, its one-trial
face. A code names a record of the context's alphabet (fwt_alphabet), the
one place the TWIN rule is stated: Bob's value agrees with Alice's for his
ray whenever that ray lies in her context.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidTable, TooLarge
from .policies import CollapsePolicy, PolicyPlan, compile_policy, paired_block, trial_plan
from .quantum import (
    ProbabilityDistribution,
    ProjectiveMeasurement,
    StateVector,
    paired_born,
)
from .rng import TrialStreams, cumulative, run_blocks

RAY_DIM = 4
#: the coloring search memoizes at most 2^contexts uncovered-context sets
MAX_CONTEXTS = 10


@dataclass(frozen=True, order=True)
class Ray:
    """Unnormalized measurement direction in canonical integer form.

    Canonical means: components share no common factor and the first
    nonzero component is positive, so each direction has one representation.
    """

    components: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        comps = tuple(map(int, self.components))
        if len(comps) != RAY_DIM:
            raise InvalidTable(f"a ray needs {RAY_DIM} components, got {len(comps)}")
        if not any(comps):
            raise InvalidTable("the zero vector is not a ray")
        divisor = math.gcd(*comps)
        comps = tuple(c // divisor for c in comps)
        first = next(c for c in comps if c != 0)
        if first < 0:
            comps = tuple(-c for c in comps)
        object.__setattr__(self, "components", comps)

    def dot(self, other: "Ray") -> int:
        return sum(a * b for a, b in zip(self.components, other.components))

    def unit_vector(self) -> np.ndarray:
        vec = np.asarray(self.components, dtype=float)
        return vec / np.linalg.norm(vec)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class Context:
    """An ordered measurement basis of four mutually orthogonal rays."""

    rays: tuple[Ray, Ray, Ray, Ray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rays", tuple(self.rays))

    def measurement(self) -> ProjectiveMeasurement:
        return ProjectiveMeasurement.from_basis(
            np.stack([ray.unit_vector() for ray in self.rays])
        )


@dataclass(frozen=True)
class KSTable:
    """A family of contexts with a reverse index from ray to occurrences."""

    contexts: tuple[Context, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "contexts", tuple(self.contexts))

    @cached_property
    def ray_index(self) -> dict[Ray, tuple[tuple[int, int], ...]]:
        """Map each canonical ray to its (context, position) occurrences."""
        occurrences: dict[Ray, list[tuple[int, int]]] = {}
        for c, context in enumerate(self.contexts):
            for p, ray in enumerate(context.rays):
                occurrences.setdefault(ray, []).append((c, p))
        return {ray: tuple(occ) for ray, occ in occurrences.items()}

    @cached_property
    def distinct_rays(self) -> tuple[Ray, ...]:
        return tuple(sorted(self.ray_index))


@dataclass(frozen=True)
class ColoringResult:
    colorable: bool
    assignments_found: int
    search_space_size: int


# Table 1 rows with typography normalized (missing commas restored, signs
# canonicalized). Machine-checked ground truth: every context orthogonal in
# integer arithmetic, 18 distinct rays, each ray in exactly two contexts.
_BUILTIN_ROWS: tuple[tuple[tuple[int, int, int, int], ...], ...] = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


@lru_cache(maxsize=1)
def builtin_ks_table() -> KSTable:
    """The built-in 9-context, 18-ray table."""
    return KSTable(
        tuple(Context(tuple(Ray(c) for c in row)) for row in _BUILTIN_ROWS)
    )


def _context_violations(table: KSTable) -> Iterator[str]:
    """Each context's faults, in order: it needs four distinct, orthogonal rays."""
    for c, context in enumerate(table.contexts, start=1):
        if len(context.rays) != RAY_DIM:
            yield f"S_{c}: expected {RAY_DIM} rays, found {len(context.rays)}"
            continue
        if len(set(context.rays)) != RAY_DIM:
            yield f"S_{c}: contains a repeated ray"
        for a, b in itertools.combinations(context.rays, 2):
            if a.dot(b) != 0:
                yield f"S_{c}: rays {a} and {b} are not orthogonal"


def validate_table(table: KSTable) -> list[str]:
    """All structural violations of a table; empty means fully valid.

    Context-level checks: four distinct, pairwise-orthogonal rays each.
    Table-level checks: exactly 18 distinct rays, each in exactly 2 contexts.
    """
    violations = list(_context_violations(table))
    if len(table.ray_index) != 18:
        violations.append(f"table has {len(table.ray_index)} distinct rays, expected 18")
    for ray, occurrences in sorted(table.ray_index.items()):
        if len(occurrences) != 2:
            violations.append(
                f"ray {ray} occurs in {len(occurrences)} contexts, expected 2"
            )
    return violations


def _require_valid_contexts(table: KSTable) -> None:
    for violation in _context_violations(table):
        raise InvalidTable(violation)


def ks_coloring_search(table: KSTable) -> ColoringResult:
    """Count the consistent 1-per-context value assignments, for n <= MAX_CONTEXTS.

    Each context must assign value 1 to exactly one of its four rays and 0
    to the rest, and a ray shared between contexts must receive the same
    value everywhere. The rays set to 1 then cover each context exactly once:
    this counts exact covers of the contexts by the rays' context sets (Knuth's
    Algorithm X, arXiv cs/0011047), memoized on the uncovered set within the
    call. search_space_size is still the 4^n per-context choices.
    """
    _require_valid_contexts(table)
    n = len(table.contexts)
    if n == 0:
        raise InvalidTable("a table needs at least one context")
    if n > MAX_CONTEXTS:
        raise TooLarge(f"{n} contexts exceed the search's cap of {MAX_CONTEXTS}")
    mask = {ray: sum(1 << c for c, _ in occ) for ray, occ in table.ray_index.items()}
    options = [[mask[ray] for ray in context.rays] for context in table.contexts]

    @cache
    def covers(uncovered: int) -> int:
        if not uncovered:
            return 1
        lowest = options[(uncovered & -uncovered).bit_length() - 1]
        return sum(covers(uncovered ^ m) for m in lowest if m & uncovered == m)

    found = covers((1 << n) - 1)
    return ColoringResult(
        colorable=found > 0, assignments_found=found, search_space_size=RAY_DIM**n
    )


def parity_certificate(table: KSTable) -> bool:
    """Non-colorability certificate that needs no search.

    True iff the context count is odd while every ray occurs an even number
    of times: any assignment would sum to an odd number context-by-context
    but to an even number ray-by-ray.
    """
    _require_valid_contexts(table)
    odd_contexts = len(table.contexts) % 2 == 1
    even_multiplicities = all(
        len(occ) % 2 == 0 for occ in table.ray_index.values()
    )
    return odd_contexts and even_multiplicities


def format_table(table: KSTable) -> str:
    """One context per line, four rays as comma-separated ints in parens."""
    return "\n".join(
        " ".join(str(ray) for ray in context.rays) for context in table.contexts
    )


@lru_cache(maxsize=1)
def twin_state() -> StateVector:
    """Maximally entangled two-ququart state (1/2) sum_k |k>|k>.

    Its coefficient matrix is (1/2)*identity in the product basis of any of
    the table's contexts, so both parties measuring the same context always
    find the same outcome.
    """
    amps = np.zeros(16, dtype=complex)
    for k in range(RAY_DIM):
        amps[k * RAY_DIM + k] = 0.5
    return StateVector(amps)


@dataclass(frozen=True)
class FwtTrial:
    """Outcome record of one paired-measurement trial: its context, Bob's ray
    and the fields of its record in fwt_alphabet(alice_context)."""

    alice_context: int
    alice_outcome: int
    bob_ray: Ray
    bob_value: int
    in_context: bool
    alice_value_for_bob_ray: int | None
    agree: bool | None


@lru_cache(maxsize=None)
def _paired_tables(context_index: int) -> tuple[ProbabilityDistribution, np.ndarray]:
    """Alice's Born distribution in context S_j (1-based) on the twin state, and
    Bob's conditional table: row r * RAY_DIM + a is the detect/miss distribution
    of distinct ray r on the state Alice's outcome a leaves."""
    context = builtin_ks_table().contexts[context_index - 1]
    return paired_born(
        twin_state(), (RAY_DIM, RAY_DIM), context.measurement(), _bob_detections()
    )


@lru_cache(maxsize=9)
def _block_tables(context_index: int) -> np.ndarray:
    """Context S_j's cumulative rows of Bob's _paired_tables table: read-only."""
    bob_cums = cumulative(_paired_tables(context_index)[1])
    bob_cums.flags.writeable = False
    return bob_cums


@lru_cache(maxsize=9)
def fwt_alphabet(context_index: int) -> tuple[tuple[dict[str, Any], ...], np.ndarray]:
    """fwt's record alphabet in context S_j (1-based), one tuple per context,
    and its read-only (144, 3) int table of each record's bob_value,
    in_context and agree (0 where null), so that a run's per-code counts
    times the table are its detections, in-context trials and agreements.

    Record (ray * RAY_DIM + alice_outcome) * 2 + bob_value, for ray an index
    into the table's distinct rays, holds Alice's value for Bob's ray and
    their agreement, both null out of context.
    """
    table = builtin_ks_table()
    if not 1 <= context_index <= len(table.contexts):
        raise InvalidTable(f"context index {context_index} out of range 1..9")
    rays = table.contexts[context_index - 1].rays
    records = []
    for ray in table.distinct_rays:
        for alice_outcome in range(RAY_DIM):
            value = int(rays[alice_outcome] == ray) if ray in rays else None
            records.extend(
                {"alice_outcome": alice_outcome, "bob_ray": str(ray), "bob_value": bob_value,
                 "in_context": value is not None, "alice_value_for_bob_ray": value,
                 "agree": None if value is None else value == bob_value}
                for bob_value in (0, 1)
            )
    counted = np.array([[r["bob_value"], r["in_context"], r["agree"] is True] for r in records])
    counted.flags.writeable = False
    return tuple(records), counted


@lru_cache(maxsize=1)
def _bob_detections() -> tuple[ProjectiveMeasurement, ...]:
    """Bob's detect/miss measurement of each distinct ray, checked once for all contexts."""
    return tuple(
        ProjectiveMeasurement.detection(ray.unit_vector())
        for ray in builtin_ks_table().distinct_rays
    )


def fwt_trial(
    alice_context: int,
    bob_ray: Ray,
    alice_policy: CollapsePolicy,
    rng: TrialStreams,
    trial: int = 0,
) -> FwtTrial:
    """Trial `trial` of a run of the paired protocol on the built-in table.

    Alice measures the shared state in context S_j (1-based index) under her
    collapse policy. The joint state after her outcome is computed by
    projection (never by assuming the mirrored outcome), and Bob measures
    the detect/miss observable of his ray on it with Born statistics. This
    is fwt_trials' block code on rng's stream as it stands, so draws a
    caller made from rng first (a random ray, say) come before Alice's.
    """
    (code,) = _fwt_block(
        alice_context, bob_ray, lambda born: trial_plan(alice_policy, born, trial)
    )(rng, np.array([trial])).code.tolist()
    record = fwt_alphabet(alice_context)[0][code]
    return FwtTrial(alice_context=alice_context, **{**record, "bob_ray": bob_ray})


class FwtBlock(NamedTuple):
    """A block of paired-measurement trials: each trial's index and the code
    of its record in fwt_alphabet of the run's context."""

    trial: np.ndarray
    code: np.ndarray


def fwt_trials(
    alice_context: int,
    bob_ray: Ray | None,
    alice_policy: CollapsePolicy,
    seed: int,
    trials: int,
) -> Iterator[FwtBlock]:
    """Trials 0..trials-1 of the paired protocol, TRIAL_BLOCK trials at a time.

    Trial t reads trial_rng(seed, t), Philox counter [t, 0, 0, block]: Bob's
    ray first when bob_ray is None (integers over the 18 distinct rays), then
    Alice's outcome, then Bob's. Every code names the record fwt_trial gives
    at trial t on that stream after the ray draw. The policy plan is
    compiled, and every check run, before the first block.
    """
    block = _fwt_block(
        alice_context, bob_ray, lambda born: compile_policy(alice_policy, born, trials)
    )
    return run_blocks(seed, (), trials, block)


def _fwt_block(
    alice_context: int,
    bob_ray: Ray | None,
    plan: Callable[[ProbabilityDistribution], PolicyPlan],
) -> Callable[[TrialStreams, np.ndarray], FwtBlock]:
    """The block code of fwt_trial and fwt_trials.

    Checks the context and the ray, then compiles Alice's plan (plan applied
    to her Born distribution) and takes the context's _block_tables: Bob's
    rows for every distinct ray (ray * RAY_DIM + Alice's outcome). Bob's
    settings are every ray's index, or a fixed ray's one index. Returns
    block(streams, t): the FwtBlock of trials t, drawn from streams by
    policies.paired_block, whose code is (ray * RAY_DIM + Alice's outcome)
    * 2 + Bob's value (1 for a detection, outcome 0).
    """
    table = builtin_ks_table()
    if not 1 <= alice_context <= len(table.contexts):
        raise InvalidTable(f"context index {alice_context} out of range 1..9")
    if bob_ray is not None and bob_ray not in table.ray_index:
        raise InvalidTable(f"ray {bob_ray} is not one of the table's 18 directions")
    alice = plan(_paired_tables(alice_context)[0])
    bob_cums = _block_tables(alice_context)
    settings = np.arange(len(table.distinct_rays))  # Bob's ray indices
    if bob_ray is not None:  # one setting: no ray is drawn
        settings = settings[[table.distinct_rays.index(bob_ray)]]

    def block(streams: TrialStreams, t: np.ndarray) -> FwtBlock:
        ray, alice_outcome, bob_outcome = paired_block(alice, bob_cums, streams, t, settings)
        return FwtBlock(t, (ray * RAY_DIM + alice_outcome) * 2 + (bob_outcome == 0))

    return block
