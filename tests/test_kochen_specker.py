import itertools
import tracemalloc

import numpy as np
import pytest

from collapsim.errors import InvalidTable, TooLarge
from collapsim.kochen_specker import (
    MAX_CONTEXTS,
    Context,
    KSTable,
    Ray,
    builtin_ks_table,
    context_coefficient_matrix,
    format_table,
    fwt_trial,
    ks_coloring_search,
    parity_certificate,
    parse_table,
    twin_state,
    validate_table,
)
from collapsim.policies import Biased, Born, Forced, Scripted
from collapsim.quantum import ProbabilityDistribution, reduced_state
from collapsim.rng import trial_rng

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
        with pytest.raises(InvalidTable):
            ks_coloring_search(bad)

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
        table = builtin_ks_table()
        parsed = parse_table(format_table(table))
        assert parsed.contexts == table.contexts

    def test_format_shape(self):
        lines = format_table(builtin_ks_table()).splitlines()
        assert len(lines) == 9
        assert lines[0].count("(") == 4


class TestTwinState:
    def test_reduced_states_maximally_mixed(self):
        for keep in ("A", "B"):
            rho = reduced_state(twin_state(), (4, 4), keep)
            np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_coefficient_matrix_half_identity_in_all_contexts(self):
        for context in builtin_ks_table().contexts:
            coeffs = context_coefficient_matrix(twin_state(), context)
            np.testing.assert_allclose(coeffs, np.eye(4) / 2, atol=1e-10)

    def test_schmidt_coefficients_svd_oracle(self):
        psi = twin_state().amplitudes.reshape(4, 4)
        singular_values = np.linalg.svd(psi, compute_uv=False)
        np.testing.assert_allclose(singular_values, [0.5] * 4, atol=1e-12)


class TestFwtTrial:
    def test_in_context_agreement_exact(self):
        context = builtin_ks_table().contexts[0]
        for t in range(10_000):
            rng = trial_rng(101, t)
            ray = context.rays[int(rng.integers(4))]
            trial = fwt_trial(1, ray, Born(), rng)
            assert trial.in_context
            assert trial.agree is True

    def test_agreement_policy_independent(self):
        context = builtin_ks_table().contexts[4]
        policies = [
            Forced(0),
            Biased(ProbabilityDistribution(np.array([0.1, 0.2, 0.3, 0.4]))),
            Scripted((3, 2, 1, 0), Born()),
        ]
        for p_idx, policy in enumerate(policies):
            for t in range(2000):
                rng = trial_rng(202 + p_idx, t)
                ray = context.rays[int(rng.integers(4))]
                assert fwt_trial(5, ray, policy, rng, trial=t).agree is True

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
        detections = sum(
            fwt_trial(1, bob_ray, Born(), trial_rng(404, t)).bob_value
            for t in range(trials)
        )
        rate = detections / trials
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 3 * sigma

    def test_per_outcome_detection_matches_overlap(self):
        bob_ray = Ray((1, 1, 1, 1))
        context = builtin_ks_table().contexts[0]
        by_outcome = {j: [0, 0] for j in range(4)}
        for t in range(8000):
            trial = fwt_trial(1, bob_ray, Born(), trial_rng(505, t))
            by_outcome[trial.alice_outcome][0] += trial.bob_value
            by_outcome[trial.alice_outcome][1] += 1
        for j, (hits, total) in by_outcome.items():
            expected = (
                abs(np.dot(bob_ray.unit_vector(), context.rays[j].unit_vector())) ** 2
            )
            sigma = max(np.sqrt(expected * (1 - expected) / total), 1e-9)
            assert abs(hits / total - expected) <= 4 * sigma

    def test_context_index_validated(self):
        with pytest.raises(InvalidTable):
            fwt_trial(0, Ray((0, 0, 0, 1)), Born(), trial_rng(0))

    def test_ray_must_be_in_table(self):
        with pytest.raises(InvalidTable):
            fwt_trial(1, Ray((1, 2, 3, 4)), Born(), trial_rng(0))
