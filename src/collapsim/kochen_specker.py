"""The 18-ray / 9-context value-assignment obstruction and TWIN correlations.

Rays are unnormalized integer 4-vectors kept in exact arithmetic, so
orthogonality and identity checks carry no floating-point ambiguity;
normalization to unit vectors happens only when quantum states are built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidTable, TooLarge
from .policies import Born, CollapsePolicy, compile_policy, sample_from_born
from .quantum import (
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
    collapse,
)
from .rng import TrialStreams, cumulative, sample_indices, trial_blocks

RAY_DIM = 4
#: the coloring search holds contexts × 4^contexts indices: 84 MB at this cap
MAX_CONTEXTS = 10


@dataclass(frozen=True, order=True)
class Ray:
    """Unnormalized measurement direction in canonical integer form.

    Canonical means: components share no common factor and the first
    nonzero component is positive, so each direction has one representation.
    """

    components: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        comps = tuple(int(c) for c in self.components)
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

    def is_orthogonal(self) -> bool:
        rays = self.rays
        return all(
            rays[i].dot(rays[j]) == 0
            for i in range(len(rays))
            for j in range(i + 1, len(rays))
        )

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

    @property
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


def validate_table(table: KSTable) -> list[str]:
    """All structural violations of a table; empty means fully valid.

    Context-level checks: four distinct, pairwise-orthogonal rays each.
    Table-level checks: exactly 18 distinct rays, each in exactly 2 contexts.
    """
    violations: list[str] = []
    for c, context in enumerate(table.contexts, start=1):
        if len(context.rays) != RAY_DIM:
            violations.append(f"S_{c}: expected {RAY_DIM} rays, found {len(context.rays)}")
            continue
        if len(set(context.rays)) != RAY_DIM:
            violations.append(f"S_{c}: contains a repeated ray")
        for i in range(RAY_DIM):
            for j in range(i + 1, RAY_DIM):
                if context.rays[i].dot(context.rays[j]) != 0:
                    violations.append(
                        f"S_{c}: rays {context.rays[i]} and {context.rays[j]}"
                        " are not orthogonal"
                    )
    if len(table.ray_index) != 18:
        violations.append(f"table has {len(table.ray_index)} distinct rays, expected 18")
    for ray, occurrences in sorted(table.ray_index.items()):
        if len(occurrences) != 2:
            violations.append(
                f"ray {ray} occurs in {len(occurrences)} contexts, expected 2"
            )
    return violations


def _require_valid_contexts(table: KSTable) -> None:
    for c, context in enumerate(table.contexts, start=1):
        if len(context.rays) != RAY_DIM or len(set(context.rays)) != RAY_DIM:
            raise InvalidTable(f"S_{c} is not a set of {RAY_DIM} distinct rays")
        if not context.is_orthogonal():
            raise InvalidTable(f"S_{c} is not an orthogonal basis")


def ks_coloring_search(table: KSTable) -> ColoringResult:
    """Exhaustively search for a consistent 1-per-context value assignment.

    Each context must assign value 1 to exactly one of its four rays and 0
    to the rest, and a ray shared between contexts must receive the same
    value everywhere. Enumerates all 4^n per-context choices, for n <= MAX_CONTEXTS.
    """
    _require_valid_contexts(table)
    n = len(table.contexts)
    if n == 0:
        raise InvalidTable("a table needs at least one context")
    if n > MAX_CONTEXTS:
        raise TooLarge(f"{n} contexts exceed the search's cap of {MAX_CONTEXTS}")
    size = RAY_DIM**n
    choices = np.indices((RAY_DIM,) * n).reshape(n, size).T
    consistent = np.ones(size, dtype=bool)
    for occurrences in table.ray_index.values():
        if len(occurrences) < 2:
            continue
        c0, p0 = occurrences[0]
        first = choices[:, c0] == p0
        for c, p in occurrences[1:]:
            consistent &= (choices[:, c] == p) == first
    found = int(consistent.sum())
    return ColoringResult(
        colorable=found > 0, assignments_found=found, search_space_size=size
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


def parse_table(text: str) -> KSTable:
    """Inverse of format_table (used by external checkers)."""
    contexts = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        groups = re.findall(r"\(([^)]*)\)", line)
        if len(groups) != RAY_DIM:
            raise InvalidTable(f"expected {RAY_DIM} rays per line, got {len(groups)}")
        rays = tuple(
            Ray(tuple(int(c) for c in group.split(","))) for group in groups
        )
        contexts.append(Context(rays))
    return KSTable(tuple(contexts))


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


def context_coefficient_matrix(state: StateVector, context: Context) -> np.ndarray:
    """Amplitudes of a 4x4 bipartite state in the context's product basis."""
    basis = np.stack([ray.unit_vector() for ray in context.rays])
    psi = state.amplitudes.reshape(RAY_DIM, RAY_DIM)
    return basis.conj() @ psi @ basis.T.conj()


@dataclass(frozen=True)
class FwtTrial:
    """Outcome record of one paired-measurement trial."""

    alice_context: int
    alice_outcome: int
    bob_ray: Ray
    bob_value: int
    in_context: bool
    alice_value_for_bob_ray: int | None

    @property
    def agree(self) -> bool | None:
        if not self.in_context:
            return None
        return self.alice_value_for_bob_ray == self.bob_value


@lru_cache(maxsize=32)
def _alice_measurement(context_index: int) -> ProjectiveMeasurement:
    context = builtin_ks_table().contexts[context_index - 1]
    return context.measurement().embed((RAY_DIM, RAY_DIM), "A")


@lru_cache(maxsize=64)
def _bob_measurement(ray: Ray) -> ProjectiveMeasurement:
    return ProjectiveMeasurement.detection(ray.unit_vector()).embed(
        (RAY_DIM, RAY_DIM), "B"
    )


# The shared state is fixed, so everything up to the random draws is a pure
# function of (context, outcome, ray) and is memoized across trials.


@lru_cache(maxsize=32)
def _alice_born(context_index: int):
    return born_distribution(twin_state(), _alice_measurement(context_index))


@lru_cache(maxsize=64)
def _post_alice_state(context_index: int, outcome: int) -> StateVector:
    return collapse(twin_state(), _alice_measurement(context_index), outcome)


@lru_cache(maxsize=1024)
def _bob_born(context_index: int, alice_outcome: int, ray: Ray):
    return born_distribution(
        _post_alice_state(context_index, alice_outcome), _bob_measurement(ray)
    )


def fwt_trial(
    alice_context: int,
    bob_ray: Ray,
    alice_policy: CollapsePolicy,
    rng: np.random.Generator,
    trial: int = 0,
) -> FwtTrial:
    """Trial `trial` of a run of the paired protocol on the built-in table.

    Alice measures the shared state in context S_j (1-based index) under her
    collapse policy. The joint state after her outcome is computed by
    projection (never by assuming the mirrored outcome), and Bob measures
    the detect/miss observable of his ray on it with Born statistics.
    """
    context = _trial_context(alice_context, (bob_ray,))
    alice_sample = sample_from_born(alice_policy, _alice_born(alice_context), rng, trial)
    bob_sample = sample_from_born(
        Born(), _bob_born(alice_context, alice_sample.outcome, bob_ray), rng
    )
    bob_value = 1 if bob_sample.outcome == 0 else 0

    in_context = bob_ray in context.rays
    alice_value: int | None = None
    if in_context:
        alice_value = 1 if context.rays[alice_sample.outcome] == bob_ray else 0
    return FwtTrial(
        alice_context=alice_context,
        alice_outcome=alice_sample.outcome,
        bob_ray=bob_ray,
        bob_value=bob_value,
        in_context=in_context,
        alice_value_for_bob_ray=alice_value,
    )


def _trial_context(alice_context: int, bob_rays: tuple[Ray, ...]) -> Context:
    table = builtin_ks_table()
    if not 1 <= alice_context <= len(table.contexts):
        raise InvalidTable(f"context index {alice_context} out of range 1..9")
    for bob_ray in bob_rays:
        if bob_ray not in table.ray_index:
            raise InvalidTable(f"ray {bob_ray} is not one of the table's 18 directions")
    return table.contexts[alice_context - 1]


class FwtBlock(NamedTuple):
    """A block of paired-measurement trials, one array entry per trial."""

    trial: np.ndarray
    bob_ray: np.ndarray  # index into builtin_ks_table().distinct_rays
    alice_outcome: np.ndarray
    bob_value: np.ndarray
    in_context: np.ndarray
    alice_value_for_bob_ray: np.ndarray  # meaningful where in_context

    @property
    def agree(self) -> np.ndarray:
        """Agreement where in_context (False elsewhere)."""
        return self.in_context & (self.alice_value_for_bob_ray == self.bob_value)


def fwt_trials(
    alice_context: int,
    bob_ray: Ray | None,
    alice_policy: CollapsePolicy,
    seed: int,
    trials: int,
) -> Iterator[FwtBlock]:
    """Trials 0..trials-1 of fwt_trial, TRIAL_BLOCK trials at a time.

    Trial t draws from trial_rng(seed, t) in fwt_trial's order: Bob's ray
    first when bob_ray is None (integers over the 18 distinct rays), then
    Alice's outcome, then Bob's. Every record equals fwt_trial's at trial t. The
    Born tables, policy plan and Bob's conditionals are built, and every
    check is run, once before the first block.
    """
    context = _trial_context(alice_context, () if bob_ray is None else (bob_ray,))
    all_rays = builtin_ks_table().distinct_rays
    if bob_ray is None:
        ray_ids = np.arange(len(all_rays))
    else:
        ray_ids = np.array([all_rays.index(bob_ray)])
    alice = compile_policy(alice_policy, _alice_born(alice_context), trials)
    # Bob's conditional table, row ray_slot * RAY_DIM + Alice's outcome
    bob_cums = np.stack([
        cumulative(_bob_born(alice_context, outcome, all_rays[r]).probs)
        for r in ray_ids
        for outcome in range(RAY_DIM)
    ])
    # each ray's position in Alice's context, -1 where it is absent
    position = np.array([
        context.rays.index(all_rays[r]) if all_rays[r] in context.rays else -1
        for r in ray_ids
    ])
    return _fwt_blocks(alice, bob_cums, position, ray_ids, seed, trials)


def _fwt_blocks(alice, bob_cums, position, ray_ids, seed, trials):
    for t in trial_blocks(trials):
        streams = TrialStreams(seed, (), t)
        if len(ray_ids) > 1:
            slot = streams.integers(len(ray_ids))
        else:  # a fixed ray draws nothing
            slot = np.zeros(t.size, dtype=np.intp)
        alice_outcome = alice.sample(streams.random(), t)
        bob_outcome = sample_indices(
            streams.random(), bob_cums, slot * RAY_DIM + alice_outcome
        )
        ray_position = position[slot]
        yield FwtBlock(
            trial=t,
            bob_ray=ray_ids[slot],
            alice_outcome=alice_outcome,
            bob_value=(bob_outcome == 0).astype(np.int64),
            in_context=ray_position >= 0,
            alice_value_for_bob_ray=(ray_position == alice_outcome).astype(np.int64),
        )
