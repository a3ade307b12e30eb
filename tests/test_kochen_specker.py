import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest

from collapsim import kochen_specker
from collapsim.cli import build_config, run
from collapsim.errors import ForbiddenOutcome, InvalidTable, TooLarge
from collapsim.kochen_specker import (
    MAX_CONTEXTS,
    RAY_DIM,
    ColoringResult,
    Context,
    KSTable,
    Ray,
    builtin_ks_table,
    format_table,
    fwt_alphabet,
    fwt_trial,
    fwt_trials,
    ks_coloring_search,
    parity_certificate,
    twin_state,
    validate_table,
    _block_tables,
    _bob_detections,
    _paired_tables,
)
from collapsim.policies import Biased, Born, Forced, Scripted
from collapsim.quantum import (
    ProbabilityDistribution,
    ProjectiveMeasurement,
    born_distribution,
    collapse,
)
from collapsim.rng import trial_rng
from oracles import conditional_born, context_coefficient_matrix, fwt_record, lift, parse_table

DISJOINT_CONTEXT = Context(
    (Ray((1, 1, 1, 1)), Ray((1, 1, -1, -1)), Ray((1, -1, 1, -1)), Ray((1, -1, -1, 1)))
)


def brute_force_color_count(table: KSTable) -> int:
    """Independent oracle: plain nested-loop enumeration of assignments."""
    n = len(table.contexts)
    count = 0
    for choice in itertools.product(range(4), repeat=n):
        consistent = True
        for occurrences in table.ray_index.values():
            values = {choice[c] == p for c, p in occurrences}
            if len(values) > 1:
                consistent = False
                break
        count += consistent
    return count


def enumeration_coloring(table: KSTable) -> ColoringResult:
    """Second, fast oracle: all 4^n per-context choices as rows of a numpy
    array, filtered on each shared ray; int8 choices keep 4^10 rows at 10 MB."""
    n = len(table.contexts)
    size = RAY_DIM**n
    choices = np.indices((RAY_DIM,) * n, dtype=np.int8).reshape(n, size).T
    consistent = np.ones(size, dtype=bool)
    for occurrences in table.ray_index.values():
        c0, p0 = occurrences[0]
        first = choices[:, c0] == p0
        for c, p in occurrences[1:]:
            consistent &= (choices[:, c] == p) == first
    found = int(consistent.sum())
    return ColoringResult(colorable=found > 0, assignments_found=found, search_space_size=size)


class TestRay:
    def test_canonical_gcd(self):
        assert Ray((2, -2, 0, 0)).components == (1, -1, 0, 0)

    def test_canonical_sign(self):
        assert Ray((-1, 1, 1, 1)).components == (1, -1, -1, -1)

    def test_zero_ray_rejected(self):
        with pytest.raises(InvalidTable):
            Ray((0, 0, 0, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidTable):
            Ray((1, 0, 0))

    def test_integer_dot(self):
        assert Ray((1, 1, 0, 0)).dot(Ray((1, -1, 0, 0))) == 0
        assert Ray((1, 1, 0, 0)).dot(Ray((1, 1, 1, 0))) == 2


class TestBuiltinTable:
    def test_nine_contexts(self):
        assert len(builtin_ks_table().contexts) == 9

    def test_eighteen_distinct_rays(self):
        assert len(builtin_ks_table().ray_index) == 18

    def test_every_ray_occurs_exactly_twice(self):
        for occurrences in builtin_ks_table().ray_index.values():
            assert len(occurrences) == 2

    def test_shared_ray_between_first_two_contexts(self):
        # the ray common to S_1 and S_2 is (0,0,0,1)
        table = builtin_ks_table()
        shared = set(table.contexts[0].rays) & set(table.contexts[1].rays)
        assert shared == {Ray((0, 0, 0, 1))}

    def test_validates_clean(self):
        assert validate_table(builtin_ks_table()) == []


class TestValidateTable:
    def test_orthogonality_violation_names_context(self):
        rows = [list(ctx.rays) for ctx in builtin_ks_table().contexts]
        rows[0][2] = Ray((1, 1, 1, 0))
        mutated = KSTable(tuple(Context(tuple(row)) for row in rows))
        violations = validate_table(mutated)
        assert any("S_1" in v and "orthogonal" in v for v in violations)

    def test_multiplicity_violation(self):
        table = KSTable((builtin_ks_table().contexts[0], DISJOINT_CONTEXT))
        violations = validate_table(table)
        assert any("occurs in 1" in v for v in violations)


class TestColoringSearch:
    def test_builtin_not_colorable(self):
        result = ks_coloring_search(builtin_ks_table())
        assert result.colorable is False
        assert result.assignments_found == 0
        assert result.search_space_size == 4**9 == 262144

    def test_single_context(self):
        table = KSTable((builtin_ks_table().contexts[0],))
        result = ks_coloring_search(table)
        assert result.colorable and result.assignments_found == 4
        assert result.search_space_size == 4

    def test_two_contexts_sharing_one_ray_oracle(self):
        table = KSTable(builtin_ks_table().contexts[:2])
        expected = brute_force_color_count(table)
        assert expected == 10  # 16 pairs minus 6 inconsistent on the shared ray
        assert ks_coloring_search(table).assignments_found == expected

    def test_matches_brute_force_on_small_tables(self):
        contexts = builtin_ks_table().contexts
        for take in (1, 2, 3, 4):
            table = KSTable(contexts[:take])
            assert (
                ks_coloring_search(table).assignments_found
                == brute_force_color_count(table)
            )

    def test_full_table_matches_brute_force(self):
        # independent pure-python enumeration of all 262144 assignments
        assert brute_force_color_count(builtin_ks_table()) == 0

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(31)
        base = KSTable(builtin_ks_table().contexts[:3])
        expected = ks_coloring_search(base).assignments_found
        for _ in range(5):
            contexts = list(base.contexts)
            rng.shuffle(contexts)
            shuffled = []
            for ctx in contexts:
                rays = list(ctx.rays)
                rng.shuffle(rays)
                shuffled.append(Context(tuple(rays)))
            assert ks_coloring_search(KSTable(tuple(shuffled))).assignments_found == expected
        full = ks_coloring_search(builtin_ks_table()).assignments_found
        contexts = list(builtin_ks_table().contexts)
        rng.shuffle(contexts)
        assert ks_coloring_search(KSTable(tuple(contexts))).assignments_found == full

    def test_invalid_context_rejected(self):
        bad = KSTable(
            (Context((Ray((1, 0, 0, 0)), Ray((1, 1, 0, 0)), Ray((0, 0, 1, 0)), Ray((0, 0, 0, 1)))),)
        )
        # the search and the certificate refuse on validate_table's first fault
        first = re.escape(validate_table(bad)[0])
        for check in (ks_coloring_search, parity_certificate):
            with pytest.raises(InvalidTable, match=f"^{first}$"):
                check(bad)

    def test_matches_enumeration_on_every_subset(self):
        contexts = builtin_ks_table().contexts
        for take in range(1, len(contexts) + 1):
            for subset in itertools.combinations(contexts, take):
                table = KSTable(subset)
                assert ks_coloring_search(table) == enumeration_coloring(table), subset

    def test_matches_enumeration_on_random_multisets(self):
        # contexts drawn with repetition, rays shuffled within each, so a ray
        # occurs 1 to MAX_CONTEXTS times and at different positions
        rng = np.random.default_rng(2024)
        pool = builtin_ks_table().contexts + (DISJOINT_CONTEXT,)
        multiplicities = set()
        for _ in range(150):
            picks = rng.integers(len(pool), size=rng.integers(1, MAX_CONTEXTS + 1))
            table = KSTable(tuple(
                Context(tuple(pool[i].rays[j] for j in rng.permutation(RAY_DIM)))
                for i in picks
            ))
            multiplicities.update(len(occ) for occ in table.ray_index.values())
            assert ks_coloring_search(table) == enumeration_coloring(table), picks
        assert {1, 2, 3, 4, 5} <= multiplicities

    def test_memo_is_local_to_each_call(self):
        # a second call on the same table counts again: the package's Python
        # calls during the search are the same in number both times
        table = builtin_ks_table()
        table.ray_index  # computed once per table, outside the counted calls
        counts = []
        for _ in range(2):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call" and frame.f_code.co_filename == kochen_specker.__file__

            sys.setprofile(profile)
            try:
                result = ks_coloring_search(table)
            finally:
                sys.setprofile(None)
            assert result == ColoringResult(False, 0, 4**9)
            counts.append(calls)
        assert counts[0] == counts[1] > 2**4

    def test_context_cap_refused_before_allocating(self):
        # a parsed table may have any number of lines; 13 contexts would take
        # 13 x 4^13 indices (about 7 GB)
        text = format_table(builtin_ks_table())
        table = parse_table(text + "\n" + "\n".join(text.splitlines()[:4]))
        assert len(table.contexts) == 13 > MAX_CONTEXTS
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"cap of {MAX_CONTEXTS}"):
                ks_coloring_search(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"the refused search peaked at {peak / 2**20:.1f} MB"

    def test_context_cap_inclusive(self):
        table = KSTable(builtin_ks_table().contexts + builtin_ks_table().contexts[:1])
        assert len(table.contexts) == MAX_CONTEXTS
        assert ks_coloring_search(table).search_space_size == 4**MAX_CONTEXTS


class TestParityCertificate:
    def test_builtin_true(self):
        assert parity_certificate(builtin_ks_table()) is True

    def test_two_disjoint_contexts_false(self):
        table = KSTable((builtin_ks_table().contexts[0], DISJOINT_CONTEXT))
        assert parity_certificate(table) is False

    def test_builtin_minus_one_context_false(self):
        # removing S_9 leaves 8 contexts (even) and gives its rays odd counts
        contexts = builtin_ks_table().contexts[:8]
        table = KSTable(contexts)
        odd_multiplicity = [
            ray for ray, occ in table.ray_index.items() if len(occ) % 2 == 1
        ]
        assert odd_multiplicity  # recount confirms broken multiplicities
        assert parity_certificate(table) is False

    def test_agrees_with_search_on_builtin(self):
        assert parity_certificate(builtin_ks_table()) is True
        assert ks_coloring_search(builtin_ks_table()).colorable is False


class TestTableFormat:
    def test_round_trip(self):
        # the text `ks --dump-table` prints reads back as the built-in table
        dump = "".join(run(build_config({"experiment": "ks", "dump_table": True})).plain_output)
        assert parse_table(dump).contexts == builtin_ks_table().contexts

    @pytest.mark.parametrize("ray", ["(1,x,0,0)", "(1,,0,0)", "(1.5,0,0,0)"])
    def test_non_integer_component_names_line(self, ray):
        text = format_table(builtin_ks_table()).splitlines()[0]
        text += f"\n\n{ray} (0,1,0,0) (0,0,1,0) (0,0,0,1)"
        with pytest.raises(InvalidTable, match="^line 3: ray components must be integers$"):
            parse_table(text)

    def test_format_shape(self):
        lines = format_table(builtin_ks_table()).splitlines()
        assert len(lines) == 9
        assert lines[0].count("(") == 4


class TestTwinState:
    def test_reduced_states_maximally_mixed(self):
        psi = twin_state().amplitudes.reshape(4, 4)
        for rho in (psi @ psi.conj().T, psi.T @ psi.conj()):  # keep A, keep B
            np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_coefficient_matrix_half_identity_in_all_contexts(self):
        for context in builtin_ks_table().contexts:
            coeffs = context_coefficient_matrix(twin_state(), context)
            np.testing.assert_allclose(coeffs, np.eye(4) / 2, atol=1e-10)

    def test_schmidt_coefficients_svd_oracle(self):
        psi = twin_state().amplitudes.reshape(4, 4)
        singular_values = np.linalg.svd(psi, compute_uv=False)
        np.testing.assert_allclose(singular_values, [0.5] * 4, atol=1e-12)


@pytest.mark.parametrize("context_index", range(1, 10))
def test_paired_tables_match_direct_born_after_collapse(context_index):
    # fwt_trial and fwt_trials both read this table, so it is pinned against
    # Bob's Born distribution on each collapsed state (the collapse oracle),
    # to 1e-15 with the NaN pattern exact: the coefficient-matrix arithmetic
    # agrees with the collapse path to 2.2e-16 here, not bit for bit
    dims = (RAY_DIM, RAY_DIM)
    table = builtin_ks_table()
    alice = lift(table.contexts[context_index - 1].measurement(), dims, "A")
    bobs = [
        lift(ProjectiveMeasurement.detection(ray.unit_vector()), dims, "B")
        for ray in table.distinct_rays
    ]
    alice_born, bob_born = _paired_tables(context_index)
    oracle_born, oracle_table = conditional_born(twin_state(), alice, bobs)
    np.testing.assert_allclose(alice_born.probs, oracle_born.probs, rtol=0, atol=1e-15)
    assert bob_born.shape == oracle_table.shape == (18 * RAY_DIM, 2)
    assert np.array_equal(np.isnan(bob_born), np.isnan(oracle_table))
    np.testing.assert_allclose(bob_born, oracle_table, rtol=0, atol=1e-15)
    for r, bob in enumerate(bobs):
        for a in range(RAY_DIM):
            direct = born_distribution(collapse(twin_state(), alice, a), bob).probs
            assert np.array_equal(oracle_table[r * RAY_DIM + a], direct)


def test_paired_tables_check_each_measurement_once(monkeypatch):
    # 9 Alice contexts plus 18 Bob detections shared by all of them; building
    # the detections per context would check 9 x (1 + 18) = 171 measurements
    checked = 0
    check = ProjectiveMeasurement.__post_init__

    def counting_check(self):
        nonlocal checked
        checked += 1
        check(self)

    monkeypatch.setattr(ProjectiveMeasurement, "__post_init__", counting_check)
    _paired_tables.cache_clear()
    _bob_detections.cache_clear()
    for context_index in range(1, 10):
        _paired_tables(context_index)
    assert checked == 27


def test_block_tables_read_only_one_per_context():
    for context_index in list(range(1, 10)) * 2:
        fwt_trials(context_index, None, Born(), 0, 1)
        records, counted = fwt_alphabet(context_index)
        # one alphabet object per context, so its report templates are made once
        assert fwt_alphabet(context_index)[0] is records
        for table in (_block_tables(context_index), counted):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
    for bad in (0, 10):
        with pytest.raises(InvalidTable):
            fwt_trial(bad, builtin_ks_table().distinct_rays[0], Born(), trial_rng(0))
        with pytest.raises(InvalidTable):
            fwt_alphabet(bad)
    for cached in (_block_tables, fwt_alphabet):
        info = cached.cache_info()
        assert info.maxsize == 9 and info.currsize <= 9


@pytest.mark.parametrize("context_index", range(1, 10))
def test_alphabet_records_follow_the_twin_rule(context_index):
    # every code (ray * RAY_DIM + alice_outcome) * 2 + bob_value against the
    # oracle's rule, and its row of the count table against the record
    records, counted = fwt_alphabet(context_index)
    rays = builtin_ks_table().distinct_rays
    assert len(records) == counted.shape[0] == len(rays) * RAY_DIM * 2
    for code, record in enumerate(records):
        ray_outcome, bob_value = divmod(code, 2)
        ray, alice_outcome = divmod(ray_outcome, RAY_DIM)
        expected = fwt_record(context_index, rays[ray], alice_outcome, bob_value)
        assert record == expected
        assert counted[code].tolist() == [
            expected["bob_value"], expected["in_context"], expected["agree"] is True
        ]


@pytest.mark.parametrize("ray_text", ["1,1,0,0", "1,-1,1,-1"])
def test_fwt_trial_returns_its_codes_record(ray_text):
    # the one-trial face fills its fields from the record of the code
    # fwt_trials draws for that trial
    ray = Ray(tuple(map(int, ray_text.split(","))))
    policy = Biased(ProbabilityDistribution(np.array([0.1, 0.2, 0.3, 0.4])))
    (block,) = fwt_trials(3, ray, policy, 17, 40)
    records = fwt_alphabet(3)[0]
    for t, code in zip(block.trial.tolist(), block.code.tolist()):
        trial = fwt_trial(3, ray, policy, trial_rng(17, t), trial=t)
        assert vars(trial) == {**records[code], "alice_context": 3, "bob_ray": ray}


class TestFwtTrial:
    # the loops of thousands of trials read fwt_trials, the block code
    # fwt_trial runs at one trial, and each record's bob_value, in_context
    # and agree from the count table of the context's alphabet

    def test_in_context_agreement_exact(self):
        counted = fwt_alphabet(1)[1]
        for ray in builtin_ks_table().contexts[0].rays:
            for block in fwt_trials(1, ray, Born(), 101, 10_000):
                assert counted[block.code, 1].all()
                assert counted[block.code, 2].all()

    def test_agreement_policy_independent(self):
        context = builtin_ks_table().contexts[4]
        counted = fwt_alphabet(5)[1]
        policies = [
            Forced(0),
            Biased(ProbabilityDistribution(np.array([0.1, 0.2, 0.3, 0.4]))),
            Scripted((3, 2, 1, 0), Born()),
        ]
        for p_idx, policy in enumerate(policies):
            for ray in context.rays:
                for block in fwt_trials(5, ray, policy, 202 + p_idx, 2000):
                    assert counted[block.code, 2].all()

    def test_forced_fixes_alice_outcome(self):
        context = builtin_ks_table().contexts[0]
        for t in range(100):
            trial = fwt_trial(1, context.rays[2], Forced(2), trial_rng(303, t))
            assert trial.alice_outcome == 2
            assert trial.bob_value == 1 and trial.alice_value_for_bob_ray == 1

    def test_out_of_context_detection_rate_matches_overlap(self):
        # oracle: Bob's detection probability is |<bob|alice outcome ray>|^2,
        # averaged over Alice's uniform outcomes
        bob_ray = Ray((1, -1, 1, -1))
        context = builtin_ks_table().contexts[0]
        assert bob_ray not in context.rays
        overlaps = [
            abs(np.dot(bob_ray.unit_vector(), r.unit_vector())) ** 2
            for r in context.rays
        ]
        expected = float(np.mean(overlaps))
        trials = 8000
        counted = fwt_alphabet(1)[1]
        detections = sum(
            int(counted[block.code, 0].sum())
            for block in fwt_trials(1, bob_ray, Born(), 404, trials)
        )
        rate = detections / trials
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 3 * sigma

    def test_per_outcome_detection_matches_overlap(self):
        bob_ray = Ray((1, 1, 1, 1))
        context = builtin_ks_table().contexts[0]
        records = fwt_alphabet(1)[0]
        code = np.concatenate([block.code for block in fwt_trials(1, bob_ray, Born(), 505, 8000)])
        outcome = np.array([records[c]["alice_outcome"] for c in code.tolist()])
        detected = np.array([records[c]["bob_value"] for c in code.tolist()])
        hits = np.bincount(outcome, weights=detected, minlength=4)
        totals = np.bincount(outcome, minlength=4)
        for j in range(4):
            expected = (
                abs(np.dot(bob_ray.unit_vector(), context.rays[j].unit_vector())) ** 2
            )
            sigma = max(np.sqrt(expected * (1 - expected) / totals[j]), 1e-9)
            assert abs(hits[j] / totals[j] - expected) <= 4 * sigma

    def test_trial_plays_only_its_own_script_entry(self):
        # trial 0 would fall back to an inadmissible forced:7; trial 1 plays
        # its admissible entry and never reaches the fallback
        policy = Scripted((7, 1), Forced(7))
        ray = builtin_ks_table().contexts[0].rays[1]
        with pytest.raises(ForbiddenOutcome):
            fwt_trial(1, ray, policy, trial_rng(0), trial=0)
        trial = fwt_trial(1, ray, policy, trial_rng(0, 1), trial=1)
        assert trial.alice_outcome == 1 and trial.agree is True

    def test_context_index_validated(self):
        with pytest.raises(InvalidTable):
            fwt_trial(0, Ray((0, 0, 0, 1)), Born(), trial_rng(0))

    def test_ray_must_be_in_table(self):
        with pytest.raises(InvalidTable):
            fwt_trial(1, Ray((1, 2, 3, 4)), Born(), trial_rng(0))
