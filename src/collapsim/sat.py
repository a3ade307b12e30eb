"""Satisfiability decided by forcing a flag register's collapse.

The oracle state sums |j>|f(j)> over all n-bit inputs; forcing the flag
qubit to |1> succeeds exactly when f has a satisfying input (the flag's
Born probability is the satisfying fraction), and the input register then
collapses to a uniformly random witness. Building the state evaluates f on
all 2^n inputs, so this demonstrates the decision logic, not a speed-up;
query counts are reported honestly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadParameter, ForbiddenOutcome, TooLarge
from .policies import Born, Forced, sample_from_born
from .quantum import StateVector, collapse_register, register_born
from .rng import TrialRng, trial_rng

#: dense state dimension is 2**(n+1); n above this is refused
MAX_BITS = 12


@dataclass(frozen=True, eq=False)
class OracleFunction:
    """Total binary function over n-bit inputs, stored as a truth table."""

    n: int
    table: tuple[int, ...]
    #: the table as a read-only int8 array, for the whole-table paths
    _bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParameter("n must be a positive integer")
        if self.n > MAX_BITS:
            raise TooLarge(f"n={self.n} exceeds the cap of {MAX_BITS} bits")
        values = np.asarray(self.table)
        if values.shape != (2**self.n,):
            raise BadParameter(
                f"truth table has {len(self.table)} entries, expected {2 ** self.n}"
            )
        if not np.all((values == 0) | (values == 1)):
            raise BadParameter("truth table entries must be 0 or 1")
        bits = values.astype(np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "_bits", bits)
        # iterating the bytes of 0/1 int8 values yields those ints, faster than tolist
        object.__setattr__(self, "table", tuple(bits.tobytes()))

    def evaluate(self, j: int) -> int:
        return self.table[j]

    @property
    def domain_size(self) -> int:
        return 2**self.n

    @classmethod
    def from_truth_table(cls, bits: Sequence[int]) -> "OracleFunction":
        size = len(bits)
        n = size.bit_length() - 1
        if size < 2 or 2**n != size:
            raise BadParameter(f"truth table length {size} is not a power of two >= 2")
        return cls(n, bits)


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
    amps[2 * np.arange(size) + oracle._bits] = 1.0 / np.sqrt(size)
    return StateVector(amps)


def decide_sat(oracle: OracleFunction, rng: TrialRng | None = None) -> SatResult:
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
    j = int(np.argmax(oracle._bits))  # the first 1, or 0 when there is none
    if oracle._bits[j] == 1:
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


_DROP_BITS = str.maketrans("", "", "01")


def parse_truth_table(text: str) -> OracleFunction:
    """Truth-table file: the characters 0/1 in input order, whitespace ignored."""
    bits = "".join(text.split())
    if bits.translate(_DROP_BITS):
        raise BadParameter("truth table files may contain only 0, 1 and whitespace")
    return OracleFunction.from_truth_table(
        np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    )


def parse_dimacs(text: str) -> OracleFunction:
    """Compile a DIMACS CNF into a truth table.

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


@functools.cache
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
