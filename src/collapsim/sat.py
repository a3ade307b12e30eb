"""Satisfiability decided by forcing a flag register's collapse.

The oracle state sums |j>|f(j)> over all n-bit inputs; forcing the flag
qubit to |1> succeeds exactly when f has a satisfying input (the flag's
Born probability is the satisfying fraction), and the input register then
collapses to a uniformly random witness. Only the satisfying inputs carry
Born weight after that collapse, so `decide_sat` samples the witness over
them alone, with the weights the collapsed state gives them; `build_sat_state`
builds the whole 2^(n+1) state. Evaluating f on all 2^n inputs is the cost
either way, so this demonstrates the decision logic, not a speed-up; query
counts are reported honestly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadParameter, TooLarge
from .quantum import ZERO_PROB, StateVector
from .rng import cumulative, sample_indices, trial_words, uniforms

#: dense state dimension is 2**(n+1); n above this is refused
MAX_BITS = 12


@dataclass(frozen=True, eq=False, init=False)
class OracleFunction:
    """Total binary function over n-bit inputs, stored as a truth table."""

    n: int
    #: the truth table as a read-only int8 array
    _bits: np.ndarray = field(repr=False)

    def __init__(self, n: int, table: Sequence[int]) -> None:
        if n < 1:
            raise BadParameter("n must be a positive integer")
        if n > MAX_BITS:
            raise TooLarge(f"n={n} exceeds the cap of {MAX_BITS} bits")
        values = np.asarray(table)
        if values.shape != (2**n,):
            raise BadParameter(f"truth table has {len(table)} entries, expected {2 ** n}")
        if not np.all((values == 0) | (values == 1)):
            raise BadParameter("truth table entries must be 0 or 1")
        bits = values.astype(np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", bits)

    @functools.cached_property
    def table(self) -> tuple[int, ...]:
        """The truth table as a tuple of ints, built on first read."""
        # iterating the bytes of 0/1 int8 values yields those ints, faster than tolist
        return tuple(self._bits.tobytes())

    def evaluate(self, j: int) -> int:
        return int(self._bits[j])

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


def decide_sat(oracle: OracleFunction, seed: int = 0, trial: int = 0) -> SatResult:
    """Decide satisfiability by forcing the flag register to |1>.

    Unsatisfiable functions leave the flag with zero Born weight on |1>, so
    the forcing attempt is forbidden and the answer is negative, drawn from
    no stream. Otherwise trial `trial`'s stream gives two uniforms: the
    forced flag draw, spent on a point mass, and the Born draw of the input
    register after the flag collapsed, the witness. It is verified against
    the oracle before being returned.
    """
    size = oracle.domain_size
    satisfying = np.flatnonzero(oracle._bits)
    if satisfying.size / size <= ZERO_PROB:  # the flag's Born weight on |1>
        return SatResult(
            satisfiable=False,
            witness=None,
            queries_quantum=size,
            queries_classical_oracle=0,
        )
    _flag_u, witness_u = uniforms(trial_words(seed, (), [trial])[0, :2])
    # The collapsed amplitudes as collapse_register divides them: its weight
    # is one vdot over the interleaved |j>|1> vector, and that sum's rounding
    # depends on where the satisfying inputs sit in it.
    flagged = np.zeros(2 * size, dtype=complex)
    flagged[2 * satisfying + 1] = 1.0 / np.sqrt(size)
    collapsed = flagged[2 * satisfying + 1] / np.sqrt(np.vdot(flagged, flagged).real)
    # Every other input has Born weight 0, which adds nothing to a cumulative
    # table, so the search over these entries picks what the 2^n-entry one would.
    pick = sample_indices(np.array([witness_u]), cumulative(np.abs(collapsed) ** 2))[0]
    witness = int(satisfying[pick])
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
    literals: list[int] = []
    clause_lines: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            literals += _literals(clause_lines)  # a bad token above fails first
            clause_lines = []
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise BadParameter(f"malformed problem line: {raw_line!r}")
            n_vars = _integer(parts[2], raw_line)
            continue
        clause_lines.append(raw_line)
    literals += _literals(clause_lines)
    if n_vars is None:
        raise BadParameter("missing 'p cnf' header")
    if n_vars < 1:
        raise BadParameter("a CNF needs at least one variable")
    if n_vars > MAX_BITS:
        raise TooLarge(f"n={n_vars} exceeds the cap of {MAX_BITS} bits")
    if literals and max(map(abs, literals)) > n_vars:
        literal = next(literal for literal in literals if abs(literal) > n_vars)
        raise BadParameter(f"literal {literal} outside 1..{n_vars}")

    size = 2**n_vars
    words = _literal_words(n_vars)
    formula = (1 << size) - 1
    clause = 0
    for literal in literals:
        if literal:
            clause |= words[literal]
        elif clause:  # every literal's word is nonzero, so 0 is no open clause
            formula &= clause
            clause = 0
    if clause:
        formula &= clause
    table = np.unpackbits(
        np.frombuffer(formula.to_bytes((size + 7) // 8, "little"), dtype=np.uint8),
        count=size,
        bitorder="little",
    )
    return OracleFunction(n_vars, table)


def _literals(lines: list[str]) -> list[int]:
    """The tokens of the clause lines as ints, in order; the first that int()
    refuses is reported with its line."""
    try:
        return list(map(int, " ".join(lines).split()))
    except ValueError:
        return [_integer(token, line) for line in lines for token in line.split()]


@functools.cache
def _literal_words(n: int) -> dict[int, int]:
    """The word of each literal +-i over 2^n bits: bit j of +i's is bit i-1
    of j, and -i's is its complement."""
    inputs = np.arange(2**n)
    everywhere = (1 << 2**n) - 1
    words = {}
    for i in range(1, n + 1):
        bits = np.packbits((inputs >> (i - 1)) & 1, bitorder="little")
        words[i] = int.from_bytes(bits.tobytes(), "little")
        words[-i] = everywhere ^ words[i]
    return words


def _integer(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise BadParameter(f"not an integer: {token!r} in line {line!r}") from exc
