"""Satisfiability decided by forcing a flag register's collapse.

The oracle state sums |j>|f(j)> over all n-bit inputs; forcing the flag
qubit to |1> succeeds exactly when f has a satisfying input (the flag's
Born probability is the satisfying fraction), and the input register then
collapses to a uniformly random witness. Building the state evaluates f on
all 2^n inputs, so this demonstrates the decision logic, not a speed-up;
query counts are reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameter, ForbiddenOutcome, TooLarge
from .policies import Born, Forced, sample_from_born
from .quantum import StateVector, collapse_register, register_born
from .rng import trial_rng

#: dense state dimension is 2**(n+1); n above this is refused
MAX_BITS = 12


@dataclass(frozen=True, eq=False)
class OracleFunction:
    """Total binary function over n-bit inputs, stored as a truth table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParameter("n must be a positive integer")
        if self.n > MAX_BITS:
            raise TooLarge(f"n={self.n} exceeds the cap of {MAX_BITS} bits")
        table = tuple(int(v) for v in self.table)
        if len(table) != 2**self.n:
            raise BadParameter(
                f"truth table has {len(table)} entries, expected {2 ** self.n}"
            )
        if any(v not in (0, 1) for v in table):
            raise BadParameter("truth table entries must be 0 or 1")
        object.__setattr__(self, "table", table)

    def evaluate(self, j: int) -> int:
        return self.table[j]

    @property
    def domain_size(self) -> int:
        return 2**self.n

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[int], int]) -> "OracleFunction":
        if n > MAX_BITS:
            raise TooLarge(f"n={n} exceeds the cap of {MAX_BITS} bits")
        return cls(n, tuple(int(fn(j)) for j in range(2**n)))

    @classmethod
    def from_truth_table(cls, bits: Sequence[int]) -> "OracleFunction":
        size = len(bits)
        n = size.bit_length() - 1
        if size < 2 or 2**n != size:
            raise BadParameter(f"truth table length {size} is not a power of two >= 2")
        return cls(n, tuple(int(b) for b in bits))


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: int | None
    queries_quantum: int
    queries_classical_oracle: int

    def __post_init__(self) -> None:
        if self.satisfiable != (self.witness is not None):
            raise BadParameter("witness must be present iff satisfiable")


def build_sat_state(oracle: OracleFunction) -> StateVector:
    """Uniform superposition sum_j |j>|f(j)> over the oracle's inputs."""
    size = oracle.domain_size
    amps = np.zeros(2 * size, dtype=complex)
    scale = 1.0 / np.sqrt(size)
    for j in range(size):
        amps[2 * j + oracle.evaluate(j)] = scale
    return StateVector(amps)


def decide_sat(oracle: OracleFunction, rng: np.random.Generator | None = None) -> SatResult:
    """Decide satisfiability by forcing the flag register to |1>.

    Unsatisfiable functions leave the flag with zero Born weight on |1>, so
    the forcing attempt is forbidden and the answer is negative; otherwise
    the input register is measured (Born) for a witness, which is verified
    against the oracle before being returned.
    """
    if rng is None:
        rng = trial_rng(0)
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


def classical_brute_force(oracle: OracleFunction) -> SatResult:
    """Linear scan over all inputs; first satisfying input is the witness."""
    for j in range(oracle.domain_size):
        if oracle.evaluate(j) == 1:
            return SatResult(
                satisfiable=True,
                witness=j,
                queries_quantum=0,
                queries_classical_oracle=j + 1,
            )
    return SatResult(
        satisfiable=False,
        witness=None,
        queries_quantum=0,
        queries_classical_oracle=oracle.domain_size,
    )


def parse_truth_table(text: str) -> OracleFunction:
    """Truth-table file: the characters 0/1 in input order, whitespace ignored."""
    bits = [c for c in text if not c.isspace()]
    if any(c not in "01" for c in bits):
        raise BadParameter("truth table files may contain only 0, 1 and whitespace")
    return OracleFunction.from_truth_table([int(c) for c in bits])


def parse_dimacs(text: str) -> OracleFunction:
    """Compile a DIMACS CNF into a truth table.

    Variable i (1-based) reads bit i-1 of the input integer. Clauses are
    whitespace-separated literal lists terminated by 0; 'c' lines are
    comments and the 'p cnf <vars> <clauses>' header is required.
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

    def evaluate(j: int) -> int:
        for clause in clauses:
            satisfied = False
            for literal in clause:
                bit = (j >> (abs(literal) - 1)) & 1
                if (literal > 0) == bool(bit):
                    satisfied = True
                    break
            if not satisfied:
                return 0
        return 1

    return OracleFunction.from_callable(n_vars, evaluate)


def _integer(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise BadParameter(f"not an integer: {token!r} in line {line!r}") from exc
