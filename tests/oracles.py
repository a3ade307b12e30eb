"""Scalar reference implementations of the sampled experiments.

One trial at a time, one numpy Generator per trial, and the inverse-CDF
rule written out here: these loops are the independent reference the
batched engine is checked against. Trial t under the stream prefix p reads
numpy's Generator(Philox(key=seed, counter=<its block-0 counter> - 1)),
since numpy steps its counter before making each block; every trial draws
at most three words, so each oracle asserts that it stayed inside block 0's
four. Nothing here reads collapsim.rng.

The paired experiments' conditional Born tables are referenced the same way:
conditional_born lifts the measurements onto the whole space and collapses
the state once per outcome, where the package reads the coefficient matrix.

The sat harness is referenced by the state-vector decide_sat the package
once ran: the whole 2^(n+1) oracle state, collapsed through its registers,
with both draws made by sample_from_born from one trial_generator. The
DIMACS reader is referenced by the parser that converted one token at a time.

The command line is referenced by the argparse parser the package once used,
derived from cli.SPECS: reference_raw_config is the flat config it read
from argv.

Philox4x64-10 itself is written out in plain Python ints (philox4x64), so
the stream words can be checked against the published generator and not
only against numpy's.

Helpers that only the tests use live here too: product states (tensor),
state equality up to a global phase (same_state), the partial trace of a
bipartite pure state (reduced_state) and tr(rho^2) (purity), a bipartite
state's coefficient matrix in a context's product basis
(context_coefficient_matrix), the reader of the `ks --dump-table` text
(parse_table) and an oracle's truth table as a tuple of ints (truth_table).
"""

from __future__ import annotations

import argparse
import re
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from collapsim import agent, cli, kochen_specker, policies
from collapsim.errors import (
    BadParameter,
    DimensionMismatch,
    ForbiddenOutcome,
    InvalidTable,
    TooLarge,
)
from collapsim.policies import Born, Forced, sample_from_born
from collapsim.quantum import (
    ATOL,
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
    collapse,
    collapse_register,
    make_state,
    register_born,
)
from collapsim.sat import MAX_BITS, OracleFunction, SatResult, build_sat_state

ALL_COUNTERS = 2**256
WORD = 2**64
#: Philox4x64's round multipliers and its key's Weyl increments (Salmon,
#: Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox4x64(counter: int, key: tuple[int, int]) -> tuple[int, int, int, int]:
    """The Philox4x64-10 block at a 256-bit counter (word 0 least significant)
    and a two-word key: ten rounds, the key bumped between them."""
    x0, x1, x2, x3 = (counter >> 64 * i & WORD - 1 for i in range(4))
    k0, k1 = key
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * x0, PHILOX_M[1] * x2  # each hi:lo in one int
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 % WORD, (p0 >> 64) ^ x3 ^ k1, p0 % WORD
        k0, k1 = (k0 + PHILOX_W[0]) % WORD, (k1 + PHILOX_W[1]) % WORD
    return x0, x1, x2, x3


def trial_counter(t: int, prefix=(), block: int = 0) -> int:
    """Trial t's block `block` counter under prefix, as numpy's 256-bit integer
    (word 0 least significant): the words [t, *prefix padded to two, block]."""
    words = [t, *prefix, 0, 0][:3] + [block]
    return sum(w << 64 * i for i, w in enumerate(words))


def trial_generator(seed: int, t: int, prefix=(), block: int = 0) -> np.random.Generator:
    """numpy's Generator whose first block is the one at trial t's counter."""
    counter = (trial_counter(t, prefix, block) - 1) % ALL_COUNTERS
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def within_block(rng: np.random.Generator, t: int, prefix=(), block: int = 0) -> bool:
    """Whether rng, a Generator on trial t's stream, made no block past `block`:
    its counter has not stepped past that block's counter."""
    words = rng.bit_generator.state["state"]["counter"]
    counter = sum(int(w) << 64 * i for i, w in enumerate(words))
    last = trial_counter(t, prefix, block)
    return counter in ((last - 1) % ALL_COUNTERS, last)


def assert_block_0_only(rng: np.random.Generator, t: int, prefix=()) -> None:
    """rng, trial_generator(seed, t, prefix), made at most block 0."""
    assert within_block(rng, t, prefix), f"trial {t} left block 0"


def inverse_cdf(rng: np.random.Generator, probs) -> int:
    """An index of a (possibly sub-normalized) probability vector: the first
    whose cumulative sum exceeds a uniform times the total, clipped to the last."""
    cum = np.cumsum(np.asarray(probs, dtype=float))
    return min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), len(cum) - 1)


def policy_outcome(policy, born, rng: np.random.Generator, trial: int) -> int:
    """Trial `trial`'s outcome under a policy: one draw from its distribution."""
    return inverse_cdf(rng, policies.policy_distribution(policy, born, trial).probs)


# --- states ------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Product state; amplitude at index j*b.dim + k is a[j] * b[k]."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def same_state(a: StateVector, b: StateVector) -> bool:
    """State equality up to global phase: |<a|b>| >= 1 - ATOL."""
    if a.dim != b.dim:
        return False
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - ATOL)


def reduced_state(state: StateVector, dims: tuple[int, int], keep: str) -> DensityOperator:
    """Partial trace of a bipartite pure state; keep subsystem 'A' or 'B'."""
    d_a, d_b = dims
    if state.dim != d_a * d_b:
        raise DimensionMismatch(f"state dim {state.dim} != {d_a}*{d_b}")
    psi = state.amplitudes.reshape(d_a, d_b)
    if keep == "A":
        return DensityOperator(psi @ psi.conj().T)
    if keep == "B":
        return DensityOperator(np.einsum("ai,aj->ij", psi, psi.conj()))
    raise DimensionMismatch("keep must be 'A' or 'B'")


def purity(rho: DensityOperator) -> float:
    """tr(rho^2): 1 for a pure state, 1/d for the maximally mixed one."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


# --- bipartite tables ----------------------------------------------------------


def lift(
    measurement: ProjectiveMeasurement, dims: tuple[int, int], side: str
) -> ProjectiveMeasurement:
    """The measurement lifted onto one factor of a bipartite space: P ⊗ 1 on
    side "A", 1 ⊗ P on side "B", one Kronecker product of the whole array."""
    other = dims[1] if side == "A" else dims[0]
    eye = np.eye(other)[None]
    pair = (measurement.projectors, eye) if side == "A" else (eye, measurement.projectors)
    return ProjectiveMeasurement(np.kron(*pair))


def conditional_born(
    state: StateVector,
    first: ProjectiveMeasurement,
    seconds: Sequence[ProjectiveMeasurement],
) -> tuple[ProbabilityDistribution, np.ndarray]:
    """The Born distribution of `first`, and a table of what follows it, by collapse.

    Measurements act on the whole space (lift them first). Row s * k + j of the
    table (k = first.n_outcomes) is the Born distribution of seconds[s] on the
    state outcome j of `first` leaves; rows of zero-Born outcomes are NaN.
    """
    if len({second.n_outcomes for second in seconds}) != 1:
        raise DimensionMismatch("the second measurements need one common outcome count")
    born = born_distribution(state, first)
    k = first.n_outcomes
    table = np.full((len(seconds) * k, seconds[0].n_outcomes), np.nan)
    for j in sorted(born.support()):
        after = collapse(state, first, j)
        for s, second in enumerate(seconds):
            table[s * k + j] = born_distribution(after, second).probs
    return born, table


# --- fwt ---------------------------------------------------------------------


def context_coefficient_matrix(state: StateVector, context: kochen_specker.Context) -> np.ndarray:
    """Amplitudes of a 4x4 bipartite state in the context's product basis."""
    basis = np.stack([ray.unit_vector() for ray in context.rays])
    return basis.conj() @ state.amplitudes.reshape(4, 4) @ basis.T.conj()


def parse_table(text: str) -> kochen_specker.KSTable:
    """The ray table `ks --dump-table` prints: one context per line, four rays
    as comma-separated integers in parentheses."""
    contexts = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        groups = re.findall(r"\(([^)]*)\)", line)
        if len(groups) != 4:
            raise InvalidTable(f"expected 4 rays per line, got {len(groups)}")
        try:
            components = [tuple(int(c) for c in group.split(",")) for group in groups]
        except ValueError:
            raise InvalidTable(f"line {number}: ray components must be integers") from None
        rays = (kochen_specker.Ray(c) for c in components)
        contexts.append(kochen_specker.Context(tuple(rays)))
    return kochen_specker.KSTable(tuple(contexts))


@lru_cache(maxsize=None)
def _alice(context: int) -> ProjectiveMeasurement:
    table = kochen_specker.builtin_ks_table()
    return lift(table.contexts[context - 1].measurement(), (4, 4), "A")


@lru_cache(maxsize=None)
def _bob_born(context: int, ray: kochen_specker.Ray, alice_outcome: int):
    """Bob's detect/miss distribution on the state Alice's outcome leaves."""
    bob = lift(ProjectiveMeasurement.detection(ray.unit_vector()), (4, 4), "B")
    after = collapse(kochen_specker.twin_state(), _alice(context), alice_outcome)
    return born_distribution(after, bob)


def fwt_record(context: int, ray, alice: int, bob_value: int) -> dict:
    """The fields of an fwt record: Bob's ray and value, Alice's outcome in
    context S_j and, in context, her value for Bob's ray and their agreement."""
    context_rays = kochen_specker.builtin_ks_table().contexts[context - 1].rays
    in_context = ray in context_rays
    alice_value = int(context_rays[alice] == ray) if in_context else None
    return {
        "alice_outcome": alice, "bob_ray": str(ray), "bob_value": bob_value,
        "in_context": in_context, "alice_value_for_bob_ray": alice_value,
        "agree": alice_value == bob_value if in_context else None,
    }


def fwt_records(seed, trials, context=1, ray_text="random", policy_text="born") -> list[dict]:
    """The per-trial records of an fwt run, trial by trial."""
    table = kochen_specker.builtin_ks_table()
    rays = table.distinct_rays
    fixed = None
    if ray_text != "random":
        fixed = kochen_specker.Ray(tuple(int(c) for c in ray_text.split(",")))
    policy = policies.parse_policy(policy_text)
    alice_born = born_distribution(kochen_specker.twin_state(), _alice(context))
    records = []
    for t in range(trials):
        rng = trial_generator(seed, t)
        ray = fixed or rays[int(rng.integers(len(rays)))]
        alice = policy_outcome(policy, alice_born, rng, t)
        bob_value = int(inverse_cdf(rng, _bob_born(context, ray, alice).probs) == 0)
        assert_block_0_only(rng, t)
        record = fwt_record(context, ray, alice, bob_value)
        records.append({"record": "trial", "trial": t, **record})
    return records


# --- asc ---------------------------------------------------------------------


def _act(alternatives, norm, rng: np.random.Generator, mixing: float) -> tuple[int, bool]:
    """One collapse-agent episode: (chosen, tie_broken)."""
    born = ProbabilityDistribution(np.abs(agent.attention(alternatives).amplitudes) ** 2)
    probs, admissible = born.probs, sorted(born.support())
    if mixing >= 1.0 or rng.random() < mixing:
        scores = [norm.value(alternatives.labels[j]) for j in admissible]
        tied = [j for j, s in zip(admissible, scores) if s == max(scores)]
        if len(tied) == 1:
            chosen, tie_broken = tied[0], False
        else:
            chosen, tie_broken = tied[inverse_cdf(rng, probs[tied])], True
    else:
        chosen, tie_broken = admissible[inverse_cdf(rng, probs[admissible])], False
    assert policy_outcome(policies.Forced(chosen), born, rng, 0) == chosen  # the collapse
    return chosen, tie_broken


def asc_records(seed, trials, labels, priorities, norm_values, mixing, kind="collapse") -> list[dict]:
    """The per-trial records of an asc run, episode by episode."""
    alternatives = agent.AlternativeSet(labels, priorities)
    norm = agent.NormFunction(dict(zip(labels, norm_values)))
    records = []
    for t in range(trials):
        if kind == "collapse":
            rng = trial_generator(seed, t)
            chosen, tie_broken = _act(alternatives, norm, rng, mixing)
            assert_block_0_only(rng, t)
            shape = agent.COLLAPSE_STAGE_SHAPE
        else:  # the robot draws nothing
            robot = agent.robot_act(alternatives, norm)
            chosen, tie_broken, shape = robot.final_outcome, None, robot.stage_shape
        records.append({
            "record": "trial", "trial": t, "outcome": chosen, "label": labels[chosen],
            "stage_shape": list(shape), "tie_broken": tie_broken,
        })
    return records


# --- empirical signal ----------------------------------------------------------


def basis(name: str) -> ProjectiveMeasurement:
    if name == "z":
        return ProjectiveMeasurement.computational(2)
    return ProjectiveMeasurement.from_basis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def signal_outcomes(seed, trials, policy_texts, bases, bob_basis) -> list[list[int]]:
    """Bob's outcome per trial and setting: trial t of setting s under prefix (s,)."""
    shared = make_state([1, 0, 0, 1])
    bob = lift(basis(bob_basis), (2, 2), "B")
    outcomes = []
    for s, (policy_text, alice_basis) in enumerate(zip(policy_texts, bases)):
        policy = policies.parse_policy(policy_text)
        alice = lift(basis(alice_basis), (2, 2), "A")
        alice_born = born_distribution(shared, alice)
        per_trial = []
        for t in range(trials):
            rng = trial_generator(seed, t, (s,))
            a = policy_outcome(policy, alice_born, rng, t)
            per_trial.append(inverse_cdf(rng, born_distribution(collapse(shared, alice, a), bob).probs))
            assert_block_0_only(rng, t, (s,))
        outcomes.append(per_trial)
    return outcomes


# --- satisfiability ----------------------------------------------------------


def truth_table(f: OracleFunction) -> tuple[int, ...]:
    """f's truth table as a tuple of ints: the bytes of its 0/1 int8 values."""
    return tuple(f._bits.tobytes())


def reference_decide_sat(oracle: OracleFunction, rng) -> SatResult:
    """Decide satisfiability by forcing the flag register to |1>.

    Unsatisfiable functions leave the flag with zero Born weight on |1>, so
    the forcing attempt is forbidden and the answer is negative; otherwise
    the input register is measured (Born) for a witness, which is verified
    against the oracle before being returned. rng is one trial's stream, such
    as trial_generator(seed, t): the flag draw and the witness draw are its
    first two uniforms.
    """
    size = oracle.domain_size
    state = build_sat_state(oracle)  # size oracle evaluations
    dims = (size, 2)
    flag_born = register_born(state, dims, "B")
    try:
        flag_sample = sample_from_born(Forced(1), flag_born, rng)
    except ForbiddenOutcome:
        return SatResult(
            satisfiable=False,
            witness=None,
            queries_quantum=size,
            queries_classical_oracle=0,
        )
    after_flag = collapse_register(state, dims, "B", flag_sample.outcome)
    witness_sample = sample_from_born(
        Born(), register_born(after_flag, dims, "A"), rng
    )
    witness = witness_sample.outcome
    if oracle.evaluate(witness) != 1:  # one verification query
        raise AssertionError(f"collapsed witness {witness} fails the oracle")
    return SatResult(
        satisfiable=True,
        witness=witness,
        queries_quantum=size,
        queries_classical_oracle=1,
    )


def reference_parse_dimacs(text: str) -> OracleFunction:
    """Compile a DIMACS CNF into a truth table, one token at a time.

    Variable i (1-based) reads bit i-1 of the input integer. Clauses are
    whitespace-separated literal lists terminated by 0; 'c' lines are
    comments and the 'p cnf <vars> <clauses>' header is required. Every
    input is evaluated at once: each literal is a 2^n-bit word whose bit j
    is its value at input j, a clause ORs its literals and the formula ANDs
    its clauses.
    """
    n_vars: int | None = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise BadParameter(f"malformed problem line: {raw_line!r}")
            n_vars = _integer(parts[2], raw_line)
            continue
        for token in line.split():
            literal = _integer(token, raw_line)
            if literal == 0:
                if current:
                    clauses.append(current)
                    current = []
            else:
                current.append(literal)
    if current:
        clauses.append(current)
    if n_vars is None:
        raise BadParameter("missing 'p cnf' header")
    if n_vars < 1:
        raise BadParameter("a CNF needs at least one variable")
    if n_vars > MAX_BITS:
        raise TooLarge(f"n={n_vars} exceeds the cap of {MAX_BITS} bits")
    for clause in clauses:
        for literal in clause:
            if not 1 <= abs(literal) <= n_vars:
                raise BadParameter(f"literal {literal} outside 1..{n_vars}")

    size = 2**n_vars
    variables = _variable_words(n_vars)
    everywhere = (1 << size) - 1
    formula = everywhere
    for clause in clauses:
        word = 0
        for literal in clause:
            value = variables[abs(literal) - 1]
            word |= value if literal > 0 else everywhere ^ value
        formula &= word
    table = np.unpackbits(
        np.frombuffer(formula.to_bytes((size + 7) // 8, "little"), dtype=np.uint8),
        count=size,
        bitorder="little",
    )
    return OracleFunction(n_vars, table)


@cache
def _variable_words(n: int) -> tuple[int, ...]:
    """Word i (0-based) has bit j set, of 2^n bits, when bit i of j is 1."""
    inputs = np.arange(2**n)
    return tuple(
        int.from_bytes(np.packbits((inputs >> i) & 1, bitorder="little").tobytes(), "little")
        for i in range(n)
    )


def _integer(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise BadParameter(f"not an integer: {token!r} in line {line!r}") from exc


# --- command line ------------------------------------------------------------


@lru_cache(maxsize=1)
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line, derived from cli.SPECS."""
    # SUPPRESS keeps absent flags out of the namespace, so a subcommand
    # parser cannot clobber a flag given before the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--out", type=str)
    common.add_argument("--format", dest="output_format", choices=cli.OUTPUT_FORMATS)
    common.add_argument("--config", type=str)
    common.add_argument("--per-trial", dest="per_trial", action="store_true")
    parser = argparse.ArgumentParser(prog="collapsim", parents=[common])
    sub = parser.add_subparsers(dest="experiment")
    for name, spec in cli.SPECS.items():
        experiment_parser = sub.add_parser(
            name, parents=[common], argument_default=argparse.SUPPRESS
        )
        for param in spec.params:
            if param.positional:
                experiment_parser.add_argument(param.name, choices=param.choices)
                continue
            flag = "--" + param.name.replace("_", "-")
            parse = {"action": "store_true"} if param.kind is bool else {"type": param.kind}
            experiment_parser.add_argument(flag, dest=param.name, **parse)
    return parser


def reference_raw_config(argv: list[str]) -> dict:
    """The flat config argv spells to the argparse parser, values typed by
    it, with the --out and --config paths under "out" and "config"."""
    args = reference_parser().parse_args(argv)
    return {key: value for key, value in vars(args).items() if value is not None}
