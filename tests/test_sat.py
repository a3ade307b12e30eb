import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from collapsim import cli, quantum, sat
from collapsim.errors import BadParameter, TooLarge
from collapsim.quantum import collapse_register, register_born
from collapsim.rng import cumulative
from collapsim.sat import (
    OracleFunction,
    SatResult,
    build_sat_state,
    classical_brute_force,
    decide_sat,
    parse_dimacs,
    parse_truth_table,
)
from oracles import reference_decide_sat, reference_parse_dimacs, trial_generator, truth_table


def oracle_from_bits(*bits):
    return OracleFunction.from_truth_table(bits)


def oracle_from_callable(n, fn):
    """The oracle of f on the n-bit inputs, evaluated input by input."""
    return OracleFunction(n, tuple(int(fn(j)) for j in range(2**n)))


class TestOracleFunction:
    def test_truth_table_round_trip(self):
        f = oracle_from_bits(0, 1, 1, 0)
        assert f.n == 2
        assert [f.evaluate(j) for j in range(4)] == [0, 1, 1, 0]

    def test_bad_lengths(self):
        with pytest.raises(BadParameter):
            OracleFunction.from_truth_table([0, 1, 1])
        with pytest.raises(BadParameter):
            OracleFunction(2, (0, 1))

    def test_bit_cap(self):
        with pytest.raises(TooLarge):
            oracle_from_callable(13, lambda j: 0)

    def test_non_binary_rejected(self):
        with pytest.raises(BadParameter):
            OracleFunction(1, (0, 2))


class TestBuildSatState:
    def test_constant_zero_function(self):
        f = oracle_from_callable(1, lambda j: 0)
        state = build_sat_state(f)
        expected = np.zeros(4)
        expected[0] = expected[2] = 1 / np.sqrt(2)  # |0>|0> and |1>|0>
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_and_function_enumerated(self):
        # oracle: enumerate f = AND on 4 inputs -> flag set only for j=3
        f = oracle_from_callable(2, lambda j: int(j == 3))
        state = build_sat_state(f)
        expected = np.zeros(8)
        for j in range(4):
            expected[2 * j + (1 if j == 3 else 0)] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_flag_probability_is_satisfying_fraction(self):
        # oracle: brute-force count of satisfying inputs
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            table = rng.integers(0, 2, size=2**n)
            f = OracleFunction.from_truth_table(table.tolist())
            count = sum(1 for j in range(2**n) if f.evaluate(j) == 1)
            flag = register_born(build_sat_state(f), (2**n, 2), "B")
            assert flag[1] == pytest.approx(count / 2**n, abs=1e-12)


class TestDecideSat:
    def test_constant_zero_unsatisfiable(self):
        f = oracle_from_callable(3, lambda j: 0)
        result = decide_sat(f, 1)
        assert result.satisfiable is False and result.witness is None
        assert result.queries_quantum == 8

    def test_unique_witness(self):
        f = oracle_from_callable(3, lambda j: int(j == 5))
        assert classical_brute_force(f).witness == 5  # brute force confirms unique
        result = decide_sat(f, 2)
        assert result.satisfiable is True and result.witness == 5

    def test_and_witness(self):
        f = oracle_from_callable(2, lambda j: int(j == 3))
        assert decide_sat(f, 3).witness == 3

    def test_witness_always_satisfies(self):
        rng_master = np.random.default_rng(62)
        for trial in range(200):
            n = int(rng_master.integers(1, 6))
            table = rng_master.integers(0, 2, size=2**n)
            f = OracleFunction.from_truth_table(table.tolist())
            result = decide_sat(f, 63, trial)
            if result.satisfiable:
                assert f.evaluate(result.witness) == 1

    def test_witnesses_uniform_over_satisfying_set(self):
        # four satisfying inputs; chi-square at significance 0.001 over 1e4 runs
        satisfying = [1, 4, 9, 14]
        f = oracle_from_callable(4, lambda j: int(j in satisfying))
        runs = 10_000
        counts = {j: 0 for j in satisfying}
        for t in range(runs):
            counts[decide_sat(f, 64, t).witness] += 1
        expected = runs / len(satisfying)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < scipy_stats.chi2.ppf(0.999, len(satisfying) - 1)

    def test_unsat_exactly_when_no_satisfying_input(self):
        rng_master = np.random.default_rng(65)
        for trial in range(100):
            n = int(rng_master.integers(1, 5))
            table = rng_master.integers(0, 2, size=2**n)
            if trial % 4 == 0:
                table[:] = 0
            f = OracleFunction.from_truth_table(table.tolist())
            result = decide_sat(f, 66, trial)
            assert result.satisfiable == bool(table.any())


class TestClassicalBruteForce:
    def test_unsatisfiable(self):
        result = classical_brute_force(oracle_from_callable(2, lambda j: 0))
        assert not result.satisfiable
        assert result.queries_classical_oracle == 4

    def test_first_witness_returned(self):
        result = classical_brute_force(oracle_from_callable(2, lambda j: 1))
        assert result.witness == 0
        assert result.queries_classical_oracle == 1

    def test_agreement_with_decide_on_random_n8(self):
        rng_master = np.random.default_rng(67)
        for trial in range(200):
            table = rng_master.integers(0, 2, size=256)
            f = OracleFunction.from_truth_table(table.tolist())
            assert (
                decide_sat(f, 68, trial).satisfiable
                == classical_brute_force(f).satisfiable
            )


class TestExhaustiveSmallN:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_functions(self, n):
        size = 2**n
        for bits in itertools.product((0, 1), repeat=size):
            f = OracleFunction.from_truth_table(bits)
            quantum = decide_sat(f, 69)
            classical = classical_brute_force(f)
            assert quantum.satisfiable == classical.satisfiable == any(bits)


class TestSatResultInvariants:
    def test_witness_presence_enforced(self):
        with pytest.raises(BadParameter):
            SatResult(True, None, 1, 0)
        with pytest.raises(BadParameter):
            SatResult(False, 3, 1, 0)


class TestParsers:
    def test_truth_table_whitespace(self):
        f = parse_truth_table("01\n10\n")
        assert f.n == 2 and truth_table(f) == (0, 1, 1, 0)

    def test_truth_table_bad_chars(self):
        with pytest.raises(BadParameter):
            parse_truth_table("01x1")

    def test_truth_table_too_large(self):
        with pytest.raises(TooLarge):
            parse_truth_table("0" * 2**14)

    def test_dimacs_against_enumeration(self):
        # (x1 or not x2) and (x2 or x3): oracle by direct evaluation
        text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
        f = parse_dimacs(text)

        def direct(j):
            x = [(j >> b) & 1 for b in range(3)]
            return int((x[0] or not x[1]) and (x[1] or x[2]))

        assert truth_table(f) == tuple(direct(j) for j in range(8))

    def test_dimacs_multiline_clause(self):
        f = parse_dimacs("p cnf 2 1\n1\n2 0\n")
        assert truth_table(f) == tuple(int(bool(j & 1) or bool(j & 2)) for j in range(4))

    def test_dimacs_missing_header(self):
        with pytest.raises(BadParameter):
            parse_dimacs("1 2 0\n")

    def test_dimacs_variable_cap(self):
        with pytest.raises(TooLarge):
            parse_dimacs("p cnf 20 1\n1 0\n")

    @pytest.mark.parametrize("text", ["p cnf 2 1\n1.5 0\n", "p cnf x 1\n1 0\n"])
    def test_dimacs_non_integer_token(self, text):
        with pytest.raises(BadParameter, match="not an integer"):
            parse_dimacs(text)

    def test_dimacs_bad_literal(self):
        with pytest.raises(BadParameter):
            parse_dimacs("p cnf 2 1\n5 0\n")


# --- differential gate: the bitset compile against per-input evaluation ------


def _reference_evaluate(clauses):
    """The per-input CNF evaluation parse_dimacs used before the bitset compile."""

    def evaluate(j):
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

    return evaluate


def _reference_sat_state(oracle):
    amps = np.zeros(2 * oracle.domain_size, dtype=complex)
    scale = 1.0 / np.sqrt(oracle.domain_size)
    for j in range(oracle.domain_size):
        amps[2 * j + oracle.evaluate(j)] = scale
    return amps


def _reference_brute_force(oracle):
    for j in range(oracle.domain_size):
        if oracle.evaluate(j) == 1:
            return SatResult(True, j, 0, j + 1)
    return SatResult(False, None, 0, oracle.domain_size)


def _random_clauses(rng, n, n_clauses, max_width=5):
    """Clauses of width 1..max_width over variables 1..n; a literal may
    repeat or meet its complement within a clause."""
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.integers(1, max_width + 1))
        variables = rng.integers(1, n + 1, size=width)
        signs = rng.choice([-1, 1], size=width)
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return clauses


def _dimacs(n, clauses):
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _compiled_and_reference(n, clauses):
    compiled = parse_dimacs(_dimacs(n, clauses))
    reference = oracle_from_callable(n, _reference_evaluate(clauses))
    return compiled, reference


class TestBitsetCompile:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_cnfs_match_per_input_evaluation(self, n):
        rng = np.random.default_rng(700 + n)
        for n_clauses in (0, 1, 2, 5, int(rng.integers(6, 40))):
            clauses = _random_clauses(rng, n, n_clauses)
            compiled, reference = _compiled_and_reference(n, clauses)
            assert compiled.n == n
            assert truth_table(compiled) == truth_table(reference)

    @pytest.mark.parametrize(
        "n, clauses",
        [
            (3, [[1, -1]]),  # x or not x: a tautology clause
            (3, [[2, 2, 2]]),  # repeated literal
            (4, [[1, -1, 2], [-3, -3], [3, 4, -4]]),
            (2, [[1], [-1]]),  # contradiction
            (5, []),  # no clauses: constant 1
            (6, [[2], [-5]]),  # variables 1, 3, 4 and 6 unused
            (12, [[12, -1], [-12, 1], [6]]),
        ],
    )
    def test_edge_cnfs_match_per_input_evaluation(self, n, clauses):
        compiled, reference = _compiled_and_reference(n, clauses)
        assert truth_table(compiled) == truth_table(reference)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_results_and_states_match_reference(self, seed):
        rng = np.random.default_rng(710 + seed)
        kinds = set()
        for _ in range(12):
            n = int(rng.integers(1, 11))
            # about 4.26 clauses per variable sits near the 3-SAT threshold,
            # so both satisfiable and unsatisfiable formulas turn up
            clauses = _random_clauses(rng, n, int(rng.integers(0, 5 * n + 1)), max_width=3)
            compiled, reference = _compiled_and_reference(n, clauses)
            result = decide_sat(compiled, seed, n)
            assert result == decide_sat(reference, seed, n)
            assert classical_brute_force(compiled) == _reference_brute_force(reference)
            assert classical_brute_force(reference) == _reference_brute_force(reference)
            assert np.array_equal(
                build_sat_state(compiled).amplitudes, _reference_sat_state(reference)
            )
            kinds.add(result.satisfiable)
        assert kinds == {True, False}

    def test_truth_table_parse_matches_characters(self):
        rng = np.random.default_rng(720)
        for n in range(1, 13):
            bits = rng.integers(0, 2, size=2**n)
            text = "".join(map(str, bits))
            spaced = " \n".join(text[i:i + 7] for i in range(0, len(text), 7))
            f = parse_truth_table(spaced + "\t\n")
            assert truth_table(f) == tuple(int(b) for b in bits)
            assert np.array_equal(build_sat_state(f).amplitudes, _reference_sat_state(f))
            assert classical_brute_force(f) == _reference_brute_force(f)

    def test_table_is_a_tuple_of_ints(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert type(truth_table(f)) is tuple and all(type(v) is int for v in truth_table(f))
        assert truth_table(f) == (0, 1, 1, 1)

    @pytest.mark.parametrize("text", ["01x1", "01\u00e91", "0 1 2 1", "01\x001"])
    def test_truth_table_bad_characters_named(self, text):
        with pytest.raises(BadParameter, match="only 0, 1 and whitespace"):
            parse_truth_table(text)

    def test_bits_are_read_only(self):
        f = parse_truth_table("0110")
        with pytest.raises(ValueError):
            f._bits[0] = 1


# --- differential gate: the satisfying-set draw against the state vector ------


@st.composite
def oracle_tables(draw):
    """n-bit tables: empty, full, one to three ones, or a random density."""
    n = draw(st.integers(1, 12))
    size = 2**n
    kind = draw(st.sampled_from(["empty", "full", "few", "density"]))
    table = np.zeros(size, dtype=int)
    if kind == "full":
        table[:] = 1
    elif kind == "few":
        table[draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))] = 1
    elif kind == "density":
        density = draw(st.floats(0.0, 1.0))
        generator = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = (generator.random(size) < density).astype(int)
    return OracleFunction(n, table)


SEEDS = st.integers(0, 2**64 - 1)


class TestSatisfyingSetDraw:
    @settings(max_examples=300, deadline=None)
    @given(oracle=oracle_tables(), seed=SEEDS,
           trial=st.one_of(st.integers(1, 1000), SEEDS))
    @example(oracle=OracleFunction(1, (0, 0)), seed=0, trial=1)
    @example(oracle=OracleFunction(12, (1,) * 4096), seed=2**64 - 1, trial=2**64 - 1)
    def test_matches_the_state_vector_reference(self, oracle, seed, trial):
        expected = reference_decide_sat(oracle, trial_generator(seed, trial))
        assert decide_sat(oracle, seed, trial) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_witness_table_is_the_collapsed_born_table_on_satisfying_inputs(
        self, n, monkeypatch
    ):
        # the weights must round as collapse_register's vdot over the whole
        # interleaved vector rounds them, which no shorter sum reproduces
        searched = []
        sample_indices = sat.sample_indices

        def recording(u, cums):
            searched.append(cums)
            return sample_indices(u, cums)

        monkeypatch.setattr(sat, "sample_indices", recording)
        generator = np.random.default_rng(730 + n)
        size = 2**n
        for _ in range(40):
            table = (generator.random(size) < generator.random()).astype(int)
            satisfying = np.flatnonzero(table)
            if satisfying.size < 2:  # a lone satisfying input is drawn whatever its weight
                continue
            f = OracleFunction(n, table)
            decide_sat(f, 7)
            collapsed = collapse_register(build_sat_state(f), (size, 2), "B", 1)
            born = register_born(collapsed, (size, 2), "A").probs
            assert np.array_equal(searched.pop(), cumulative(born)[satisfying])


class TestWeakCompatibilityGate:
    def test_unsatisfiable_reads_no_stream(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("an unsatisfiable oracle read a stream")

        monkeypatch.setattr(sat, "trial_rng", no_stream)
        for n in (1, 6, 12):
            result = decide_sat(OracleFunction(n, (0,) * 2**n), 5, 3)
            assert result == SatResult(False, None, 2**n, 0)

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--cnf", "p cnf 12 2\n1 -12 0\n-1 12 0\n"),
            ("--cnf", "p cnf 3 2\n1 0\n-1 0\n"),
            ("--truth-table", "0" * 4095 + "1"),
        ],
        ids=["cnf-n12", "cnf-unsatisfiable", "truth-table-n12"],
    )
    def test_cli_builds_no_state_vector(self, flag, text, tmp_path, monkeypatch, capsys):
        def no_state(self):
            raise AssertionError("the sat path built a StateVector")

        monkeypatch.setattr(quantum.StateVector, "__post_init__", no_state)
        path = tmp_path / "f.txt"
        path.write_text(text)
        assert cli.main(["sat", flag, str(path), "--seed", "3"]) == 0
        assert '"satisfiable"' in capsys.readouterr().out


# --- differential gate: the one-pass DIMACS reader against the token loop -----


LITERAL_FAULTS = ["1.5", "x", "-", "2a", "0x1", "", "+3", "1_0", "\u0663", "-+1"]
BAD_HEADERS = ["p", "p cnf", "p cnf 3", "p dnf 3 2", "p cnf x 2", "p cnf 2.0 1", "pcnf 3 2"]


@st.composite
def dimacs_texts(draw):
    """A CNF text, then a few of: a bad or integer-like token, a malformed or
    moved or missing header, an out-of-range literal, too many variables."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=6))
    lines = [" ".join(map(str, clause)) + " 0" for clause in clauses]
    header = f"p cnf {n} {len(clauses)}"
    faults = draw(st.lists(st.sampled_from(
        ["token", "bad_header", "late_header", "range", "too_many", "no_header",
         "comment", "split"]), max_size=3))
    for fault in faults:
        at = draw(st.integers(0, len(lines)))
        if fault == "token":
            lines.insert(at, f"{draw(literal)} {draw(st.sampled_from(LITERAL_FAULTS))} 0")
        elif fault == "bad_header":
            lines.insert(at, draw(st.sampled_from(BAD_HEADERS)))
        elif fault == "late_header" and header is not None:
            lines.append(header)
            header = None
        elif fault == "range":
            lines.insert(at, f"{draw(st.sampled_from([n + 1, -(n + 1), 99]))} 0")
        elif fault == "too_many":
            header = f"p cnf {draw(st.integers(13, 20))} {len(clauses)}"
        elif fault == "no_header":
            header = None
        elif fault == "comment":
            lines.insert(at, draw(st.sampled_from(["c x 1.5", "% 0", "", "  \t"])))
        else:  # a clause over two lines, and a bare terminator
            lines.insert(at, f"{draw(literal)}\n{draw(literal)} 0\n0")
    if header is not None:
        lines.insert(0, header)
    return "\n".join(lines) + "\n"


def parsed(parse, text):
    try:
        f = parse(text)
    except (BadParameter, TooLarge) as exc:
        return type(exc), str(exc)
    return f.n, truth_table(f)


class TestDimacsParity:
    @settings(max_examples=400, deadline=None)
    @given(text=dimacs_texts())
    @example(text="p cnf 2 1\n1 x 0\np dnf 2 1\n")  # the bad token comes first
    @example(text="p cnf 2 1\np dnf 2 1\n1 x 0\n")  # the bad header comes first
    @example(text="1 -2 0\n2 0\np cnf 2 2\n")  # a header after its clauses
    @example(text="p cnf 20 1\n1 x 0\n")  # a bad token before the cap
    @example(text="p cnf +3 1\n+3 1_0 0\n")
    # spellings int() reads that the compiler's word table does not hold
    @example(text="p cnf 2 2\n+1 -2 0\n+2 0\n")
    @example(text="p cnf 2 1\n01 -02 0\n")
    @example(text="p cnf 2 2\n1 -2 -0\n2 0\n")  # -0 ends a clause
    @example(text="p cnf 12 1\n1_0 -1_2 0\n")
    @example(text="p cnf 2 1\n\u0661 -2 0\n")  # an Arabic-Indic one
    @example(text="p cnf 2 1\n+3 0\n")  # an unusual spelling out of range
    @example(text="01 -2 0\n\u0661 0\np cnf 2 2\n")  # before a late header
    @example(text="+1 0\np cnf 13 1\n")  # before a header past the cap
    def test_same_table_or_same_error_as_the_token_loop(self, text):
        assert parsed(parse_dimacs, text) == parsed(reference_parse_dimacs, text)


class TestCompiledOracle:
    @settings(max_examples=60, deadline=None)
    @given(text=dimacs_texts())
    @example(text="p cnf 12 2\n1 -12 0\n+3 0\n")
    def test_table_is_read_only_int8_and_the_references(self, text):
        try:
            expected = reference_parse_dimacs(text)
        except (BadParameter, TooLarge):
            return  # the parity test above compares the errors
        bits = parse_dimacs(text)._bits
        assert bits.dtype == np.int8 and bits.shape == (2**expected.n,)
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0] = 1
        assert bits.tobytes() == expected._bits.tobytes()
