import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from collapsim import agent, behavior, cli, harnesses, kochen_specker, rng
from collapsim.cli import build_config, main, render_report, run, validate
from collapsim.errors import ConfigError
from collapsim.quantum import ProjectiveMeasurement
from collapsim.rng import TRIAL_BLOCK
from oracles import reference_raw_config


def run_lines(raw):
    report = run(build_config(raw))
    return render_report(report, "json-lines").splitlines()


def stripped(lines):
    """Report lines with the timing record removed."""
    return [ln for ln in lines if '"record": "timing"' not in ln]


def aggregate_of(lines):
    for line in lines:
        record = json.loads(line)
        if record["record"] == "aggregate":
            return record
    raise AssertionError("no aggregate record")


class TestValidate:
    def test_valid_ks_config(self):
        assert validate({"experiment": "ks", "seed": 0}) == []

    def test_unknown_experiment_named(self):
        violations = validate({"experiment": "xyz"})
        assert len(violations) == 1 and violations[0].startswith("experiment:")

    def test_unknown_key_rejected(self):
        violations = validate({"experiment": "ks", "turbo": True})
        assert any(v.startswith("turbo:") for v in violations)

    def test_sat_bit_cap_violation(self, tmp_path):
        table = tmp_path / "big.tt"
        table.write_text("0" * 2**14)  # n = 13
        violations = validate({"experiment": "sat", "truth_table": str(table)})
        assert any("cap of 12 bits" in v for v in violations)

    def test_sat_requires_exactly_one_source(self, tmp_path):
        assert any(
            "exactly one" in v for v in validate({"experiment": "sat", "seed": 0})
        )

    def test_bad_seed(self):
        assert any("seed" in v for v in validate({"experiment": "ks", "seed": -1}))

    def test_bad_policy_reported_by_key(self):
        violations = validate({"experiment": "signal", "policy0": "warp:9"})
        assert any(v.startswith("policy0:") for v in violations)

    def test_fwt_context_range(self):
        assert any(
            "context" in v for v in validate({"experiment": "fwt", "context": 12})
        )

    def test_fwt_ray_membership(self):
        violations = validate({"experiment": "fwt", "bob_ray": "1,2,3,4"})
        assert any("18 directions" in v for v in violations)

    def test_behavior_requires_mode(self):
        assert any("mode" in v for v in validate({"experiment": "behavior"}))

    def test_build_config_raises_on_violation(self):
        with pytest.raises(ConfigError):
            build_config({"experiment": "nope"})

    @pytest.mark.parametrize(
        "raw, violation",
        [
            ({"experiment": "fwt", "trials": 10**15}, "trials: must be at most 100000000"),
            ({"experiment": "behavior", "mode": "generate", "length": 10**12},
             "length: must be at most 10000000"),
            ({"experiment": "fwt", "context": 2.7}, "context: expected int, got 2.7"),
            ({"experiment": "fwt", "context": True}, "context: expected int, got True"),
            ({"experiment": "asc", "mixing": True}, "mixing: expected float, got True"),
            ({"experiment": "behavior", "mode": "generate", "length": 2.5e3},
             "length: expected int, got 2500.0"),
            ({"experiment": "behavior", "mode": "generate", "rate": "nan"},
             "rate: must be positive"),
            ({"experiment": "energy", "h_diag": ",".join(["1"] * 65)},
             "h_diag/h_matrix: dimension must be at most 64"),
            ({"experiment": "energy", "h_matrix": ";".join([",".join(["0"] * 65)] * 65)},
             "h_diag/h_matrix: dimension must be at most 64"),
            # each once ended in a traceback or an exit-1 ZeroVector
            ({"experiment": "energy", "h_matrix": "1,2;3,4"},
             "h_matrix: hamiltonian must be Hermitian"),
            ({"experiment": "energy", "weights": "0.5,0.5000000005"},
             "weights: must be a probability vector"),
            ({"experiment": "energy", "h_diag": ","},
             "h_diag: must not have an empty field (split by ',')"),
            ({"experiment": "energy", "h_matrix": ";"},
             "h_matrix: must not have an empty field (split by ';')"),
            # text parameters once took any JSON value through str()
            ({"experiment": "asc", "labels": ["a", "b"]}, "labels: expected str, got ['a', 'b']"),
            ({"experiment": "energy", "h_diag": 5}, "h_diag: expected str, got 5"),
            # an infinite threshold was once echoed as Infinity, which is not JSON
            ({"experiment": "behavior", "mode": "classify", "input": "seq.txt",
              "noise_threshold": math.inf}, "noise_threshold: must be finite"),
            ({"experiment": "behavior", "mode": "classify", "input": "seq.txt",
              "levy_threshold": math.inf}, "levy_threshold: must be finite"),
        ],
    )
    def test_rejected_before_running_exit_2(self, raw, violation, tmp_path, capsys):
        assert validate(raw) == [violation]
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(raw))
        assert main(["--config", str(config_file)]) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": "fwt", "trials": 10**8},
            {"experiment": "behavior", "mode": "generate", "length": 10**7},
            {"experiment": "fwt", "context": "3"},
            {"experiment": "asc", "mixing": 1},
            {"experiment": "behavior", "mode": "generate", "rate": "2.5"},
            {"experiment": "energy", "h_diag": ",".join(["1"] * harnesses.MAX_ENERGY_DIM)},
        ],
    )
    def test_caps_inclusive_and_numeric_text_accepted(self, raw):
        assert validate(raw) == []

    def test_energy_dimension_cap_from_flags_exit_2(self, capsys):
        assert main(["energy", "--h-diag", ",".join(["1"] * 65)]) == 2
        assert capsys.readouterr().err == (
            "config error: h_diag/h_matrix: dimension must be at most 64\n"
        )

    @pytest.mark.parametrize(
        "argv, violation",
        [
            (["asc", "--labels", "a,b", "--priorities", "1,,1"],
             "priorities: must not have an empty field (split by ',')"),
            (["asc", "--norm", "0,,1"], "norm: must not have an empty field (split by ',')"),
            (["asc", "--labels", "a,,b"], "labels: must not have an empty field (split by ',')"),
            (["energy", "--h-diag", "1,-1,"],
             "h_diag: must not have an empty field (split by ',')"),
            (["energy", "--h-matrix", "1,0;0,1;"],
             "h_matrix: must not have an empty field (split by ';')"),
            (["energy", "--h-matrix", "1,0;0,"],
             "h_matrix: must not have an empty field (split by ',')"),
            (["energy", "--state", "1,,1"], "state: must not have an empty field (split by ',')"),
            (["energy", "--eigenvalues", "0,,1"],
             "eigenvalues: must not have an empty field (split by ',')"),
            (["energy", "--weights", "0.5,,0.5"],
             "weights: must be 'born' or comma-separated finite numbers"),
        ],
    )
    def test_empty_list_field_exit_2(self, argv, violation, capsys):
        # an empty field was once dropped from some lists and refused in others
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    def test_non_integer_cnf_token_exit_2(self, tmp_path, capsys):
        # found by test_fuzzed_config_exits_0_1_or_2: a float in a CNF file
        # raised an uncaught ValueError
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1.5 0\n")
        violation = "cnf: not an integer: '1.5' in line '1.5 0'"
        assert validate({"experiment": "sat", "cnf": str(cnf)}) == [violation]
        assert main(["sat", "--cnf", str(cnf)]) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    def test_float_overflow_is_a_violation(self):
        violations = validate({"experiment": "asc", "mixing": 10**400})
        assert len(violations) == 1 and violations[0].startswith("mixing: expected float")


class TestRunKs:
    def test_aggregate_values(self):
        aggregate = aggregate_of(run_lines({"experiment": "ks", "seed": 0}))
        assert aggregate["colorable"] is False
        assert aggregate["assignments_found"] == 0
        assert aggregate["search_space_size"] == 262144
        assert aggregate["parity_certificate"] is True
        assert aggregate["table_violations"] == []


class TestRunSignal:
    def test_forced_pair(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "signal",
                    "seed": 0,
                    "policy0": "forced:0",
                    "policy1": "forced:1",
                }
            )
        )
        assert aggregate["max_tv"] == pytest.approx(1.0)
        assert aggregate["channel_bits"] == pytest.approx(1.0, abs=1e-6)

    def test_empirical_mode(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "signal",
                    "seed": 4,
                    "mode": "empirical",
                    "trials": 500,
                    "policy1": "forced:1",
                }
            )
        )
        assert aggregate["mode"] == "empirical"
        assert aggregate["trials_per_setting"] == 500

    def test_basis_checked_once_and_refusals_not_cached(self, monkeypatch):
        checked = 0
        check = ProjectiveMeasurement.__post_init__

        def counting_check(self):
            nonlocal checked
            checked += 1
            check(self)

        monkeypatch.setattr(ProjectiveMeasurement, "__post_init__", counting_check)
        harnesses._basis_measurement.cache_clear()
        hadamard = harnesses._basis_measurement("x", 2)
        for _ in range(3):
            assert harnesses._basis_measurement("x", 2) is hadamard
            with pytest.raises(ConfigError, match="unsupported basis 'x' in dimension 3"):
                harnesses._basis_measurement("x", 3)
        assert checked == 1


    def test_hadamard_projectors_exact(self):
        projectors = harnesses._basis_measurement("x", 2).projectors
        assert (projectors == [[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]]).all()

    @pytest.mark.parametrize("bases", ["zxz", "xzz", "zxx", "xzx"])
    def test_born_null_across_z_and_x_reads_zero(self, bases):
        # with rows of 1/sqrt(2) the Hadamard rows summed to 1 - 4e-16 and
        # these read max_tv 1.1e-16
        raw = {"experiment": "signal", "alice_basis0": bases[0], "alice_basis1": bases[1],
               "bob_basis": bases[2]}
        aggregate = aggregate_of(run_lines(raw))
        assert aggregate["max_tv"] == 0.0 and aggregate["channel_bits"] == 0.0


# every (Alice basis, Bob basis) pair, analytic and empirical
SIGNAL_JOBS = [
    {"experiment": "signal", "seed": 3, "policy0": "forced:0", "policy1": "biased:0.7,0.3",
     "alice_basis0": alice, "alice_basis1": "x" if alice == "z" else "z", "bob_basis": bob,
     **mode}
    for alice in "zx" for bob in "zx" for mode in ({}, {"mode": "empirical", "trials": 300})
]

FRESH_RUN = """
import json, sys
from collapsim.cli import build_config, render_report, run
lines = render_report(run(build_config(json.loads(sys.argv[1]))), "json-lines").splitlines()
print("\\n".join(line for line in lines if '"record": "timing"' not in line))
"""


class TestProcessCaches:
    """The Bell state's paired tables and the ks aggregate are built once per
    process; no job may see what another did with them."""

    def test_signal_bytes_independent_of_job_order(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        fresh = [
            subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(raw)], env=env,
                           capture_output=True, text=True, check=True, timeout=120
                           ).stdout.splitlines()
            for raw in SIGNAL_JOBS
        ]
        harnesses._bell_tables.cache_clear()
        forward = [stripped(run_lines(raw)) for raw in SIGNAL_JOBS]
        backward = [stripped(run_lines(raw)) for raw in reversed(SIGNAL_JOBS)]
        assert forward == fresh and backward[::-1] == fresh

    def test_cached_arrays_refuse_writes(self):
        born, table = harnesses._bell_tables("x", "z")
        for array in (born.probs, table):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_ks_aggregate_computed_once_and_copied(self, monkeypatch):
        calls = []
        search = kochen_specker.ks_coloring_search
        monkeypatch.setattr(kochen_specker, "ks_coloring_search",
                            lambda table: calls.append(1) or search(table))
        harnesses._ks_aggregate.cache_clear()
        config = build_config({"experiment": "ks"})
        first, second = run(config).aggregate, run(config).aggregate
        assert calls == [1]
        assert first == second and first is not second
        first["table_violations"].append("edited")
        assert second["table_violations"] == [] == run(config).aggregate["table_violations"]


class TestRunSat:
    def test_unsatisfiable_truth_table(self, tmp_path):
        table = tmp_path / "zeros.tt"
        table.write_text("0" * 16)
        aggregate = aggregate_of(
            run_lines({"experiment": "sat", "seed": 0, "truth_table": str(table)})
        )
        assert aggregate["satisfiable"] is False
        assert aggregate["witness"] is None
        assert aggregate["brute_force_agrees"] is True

    def test_cnf_input(self, tmp_path):
        cnf = tmp_path / "sample.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n2 0\n")
        aggregate = aggregate_of(
            run_lines({"experiment": "sat", "seed": 0, "cnf": str(cnf)})
        )
        assert aggregate["satisfiable"] is True
        assert aggregate["witness"] == 3


class TestRunFwt:
    def test_exact_agreement_aggregate(self):
        aggregate = aggregate_of(
            run_lines({"experiment": "fwt", "seed": 1, "trials": 300})
        )
        assert aggregate["agreement_exact"] is True
        assert aggregate["in_context_trials"] + 0 <= 300

    def test_fixed_ray_and_policy(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "fwt",
                    "seed": 1,
                    "trials": 100,
                    "context": 1,
                    "bob_ray": "0,0,0,1",
                    "policy": "forced:0",
                }
            )
        )
        assert aggregate["in_context_trials"] == 100
        assert aggregate["agreements"] == 100

    def test_scripted_policy_with_fallback(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "fwt",
                    "seed": 1,
                    "trials": 50,
                    "context": 2,
                    "policy": "scripted:3,2,1,0;fallback=born",
                }
            )
        )
        assert aggregate["agreement_exact"] is True
        assert aggregate["policy"] == "scripted:3,2,1,0;fallback=born"


class TestRunAsc:
    def test_deviation_aggregate(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "asc",
                    "seed": 2,
                    "trials": 400,
                    "labels": "keep,swerve",
                    "priorities": "0.75,0.25",
                    "norm": "0,1",
                }
            )
        )
        assert aggregate["counts"]["swerve"] == 400
        assert aggregate["tv"] == pytest.approx(0.75, abs=1e-9)

    def test_compute_agent(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "asc",
                    "seed": 2,
                    "trials": 10,
                    "agent": "compute",
                    "labels": "a,b",
                    "priorities": "1,1",
                    "norm": "1,0",
                }
            )
        )
        assert aggregate["counts"]["a"] == 10


class TestNewSurfaces:
    def test_ks_dump_table_plain_output(self):
        report = run(build_config({"experiment": "ks", "dump_table": True}))
        lines = "".join(report.plain_output).strip().splitlines()
        assert len(lines) == 9
        assert all(line.count("(") == 4 for line in lines)

    def test_energy_dense_matrix(self):
        aggregate = aggregate_of(
            run_lines(
                {
                    "experiment": "energy",
                    "h_matrix": "0,1;1,0",
                    "state": "1,0",
                    "basis": "x",
                    "eigenvalues": "1,-1",
                }
            )
        )
        assert aggregate["commutes"] is True
        assert aggregate["delta"] == pytest.approx(0.0, abs=1e-12)

    def test_energy_matrix_and_diag_exclusive(self):
        violations = validate(
            {"experiment": "energy", "h_diag": "1,-1", "h_matrix": "1,0;0,-1"}
        )
        assert any("not both" in v for v in violations)

    def test_energy_non_square_matrix(self):
        violations = validate({"experiment": "energy", "h_matrix": "1,0,0;0,1,0"})
        assert any("square" in v for v in violations)

    def test_classifier_threshold_override(self, tmp_path):
        generate = build_config(
            {"experiment": "behavior", "seed": 21, "mode": "generate",
             "kind": "pareto", "length": 2000}
        )
        data = tmp_path / "seq.txt"
        data.write_text("".join(run(generate).plain_output))
        aggregate = aggregate_of(
            run_lines(
                {"experiment": "behavior", "mode": "classify", "input": str(data),
                 "levy_threshold": 0.2, "noise_threshold": 0.3}
            )
        )
        assert aggregate["classification"] == "noise_like"

    def test_bad_thresholds_rejected(self, tmp_path):
        data = tmp_path / "seq.txt"
        data.write_text("1.0\n2.0\n")
        violations = validate(
            {"experiment": "behavior", "mode": "classify", "input": str(data),
             "levy_threshold": 3.0, "noise_threshold": 2.0}
        )
        assert any("levy_threshold" in v for v in violations)


class TestRunBehavior:
    def test_classify_roundtrip(self, tmp_path):
        generate = build_config(
            {
                "experiment": "behavior",
                "seed": 3,
                "mode": "generate",
                "kind": "pareto",
                "length": 10_000,
            }
        )
        sequence_text = "".join(run(generate).plain_output)
        data = tmp_path / "seq.txt"
        data.write_text(sequence_text)
        aggregate = aggregate_of(
            run_lines({"experiment": "behavior", "mode": "classify", "input": str(data)})
        )
        assert aggregate["classification"] == "levy_like"


class TestDeterminism:
    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": "ks", "seed": 0},
            {"experiment": "fwt", "seed": 5, "trials": 200, "per_trial": True},
            {
                "experiment": "signal",
                "seed": 6,
                "mode": "empirical",
                "trials": 300,
                "policy1": "biased:0.9,0.1",
            },
            {
                "experiment": "asc",
                "seed": 7,
                "trials": 150,
                "per_trial": True,
                "labels": "x,y",
                "priorities": "0.3,0.7",
                "norm": "1,1",
            },
        ],
    )
    def test_reports_byte_identical_modulo_timing(self, raw):
        assert stripped(run_lines(raw)) == stripped(run_lines(raw))

    def test_generate_sequence_byte_identical(self):
        raw = {
            "experiment": "behavior",
            "seed": 8,
            "mode": "generate",
            "kind": "exponential",
            "length": 500,
        }
        first = run(build_config(raw)).plain_output
        second = run(build_config(raw)).plain_output
        assert first is not None and "".join(first) == "".join(second)


def reference_records(raw):
    """Each trial's record as a dict, built trial by trial from the engine's
    blocks: the records the report's trial lines must dump to."""
    config = build_config(raw)
    p, trials = config.params, config.params["trials"]
    if config.experiment == "fwt":
        # each block's codes name records of the context's alphabet
        records = kochen_specker.fwt_alphabet(p["context"])[0]
        blocks = kochen_specker.fwt_trials(
            p["context"], p["bob_ray"], p["policy"], p["seed"], trials
        )
        for block in blocks:
            for t, code in zip(block.trial.tolist(), block.code.tolist()):
                yield {"record": "trial", "trial": t, **records[code]}
        return
    labels = p["labels"]
    alternatives = agent.AlternativeSet(labels, tuple(p["priorities"]))
    norm = agent.NormFunction(dict(zip(labels, p["norm"])))
    if p["agent"] == "collapse":
        for block in agent.act_trials(alternatives, norm, p["seed"], trials, p["mixing"]):
            for t, outcome, tie in zip(*(column.tolist() for column in block)):
                yield {"record": "trial", "trial": t, "outcome": outcome,
                       "label": labels[outcome],
                       "stage_shape": list(agent.COLLAPSE_STAGE_SHAPE), "tie_broken": tie}
        return
    robot = agent.robot_act(alternatives, norm)
    for t in range(trials):
        yield {"record": "trial", "trial": t, "outcome": robot.final_outcome,
               "label": labels[robot.final_outcome], "stage_shape": list(robot.stage_shape),
               "tie_broken": None}


SEEDS = st.integers(0, 2**64 - 1)
TRIAL_COUNTS = st.one_of(st.integers(1, 300), st.just(TRIAL_BLOCK + 3))
FWT_CONFIGS = st.fixed_dictionaries({
    "experiment": st.just("fwt"), "seed": SEEDS, "trials": TRIAL_COUNTS,
    "per_trial": st.just(True), "context": st.integers(1, 9),
    "bob_ray": st.sampled_from(["random", "1,1,0,0", "0,0,0,1", "1,1,1,-1"]),
    "policy": st.sampled_from(["born", "forced:2", "biased:0.1,0.2,0.3,0.4",
                               "scripted:3,0,1;fallback=born"]),
})
# any text but the list separator: quotes, backslashes, non-ASCII, controls
LABELS = st.lists(st.text(st.characters(blacklist_characters=","), min_size=1, max_size=6),
                  min_size=1, max_size=4, unique=True)


@st.composite
def asc_configs(draw):
    labels = draw(LABELS)
    n = len(labels)
    priorities = draw(st.lists(st.sampled_from([0, 0.5, 1, 2]), min_size=n, max_size=n)
                      .filter(any))
    norm = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    return {
        "experiment": "asc", "seed": draw(SEEDS), "trials": draw(TRIAL_COUNTS),
        "per_trial": True, "labels": ",".join(labels),
        "priorities": ",".join(map(str, priorities)), "norm": ",".join(map(str, norm)),
        "mixing": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "agent": draw(st.sampled_from(["collapse", "compute"])),
    }


class TestTrialLines:
    """The report's trial lines, rendered from one template per record of
    its alphabet, against json.dumps of each record."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=st.one_of(FWT_CONFIGS, asc_configs()))
    # a fixed ray outside context 1: every trial out of context, both nullable fields null
    @example(raw={"experiment": "fwt", "seed": 3, "trials": 50, "per_trial": True,
                  "context": 1, "bob_ray": "1,1,1,-1", "policy": "born"})
    # across a TRIAL_BLOCK boundary, the ray drawn
    @example(raw={"experiment": "fwt", "seed": 4, "trials": TRIAL_BLOCK + 1,
                  "per_trial": True, "context": 2, "bob_ray": "random", "policy": "born"})
    @example(raw={"experiment": "asc", "seed": 5, "trials": TRIAL_BLOCK + 1,
                  "per_trial": True, "labels": 'q"t\\,caf\u00e9 \u20ac,\x00\x1f\n,"trial": 7',
                  "priorities": "1,1,1,1", "norm": "0,1,1,1", "mixing": 0.5,
                  "agent": "collapse"})
    # the robot: tie_broken null
    @example(raw={"experiment": "asc", "seed": 6, "trials": 20, "per_trial": True,
                  "labels": '\\",\ud83d\ude00', "priorities": "1,2", "norm": "1,1",
                  "mixing": 1.0, "agent": "compute"})
    def test_lines_equal_json_dumps_of_each_record(self, raw):
        expected = [json.dumps(record, sort_keys=True) for record in reference_records(raw)]
        assert run_lines(raw)[1:-2] == expected

    @pytest.mark.parametrize("raw", [
        pytest.param({"experiment": "fwt"}, id="fwt"),
        pytest.param({"experiment": "asc"}, id="asc"),
        # one ray, in context 1: 4 of the alphabet's 144 records occur
        pytest.param({"experiment": "fwt", "bob_ray": "1,1,0,0"}, id="fwt-fixed-ray"),
    ])
    def test_templates_only_with_per_trial(self, raw, monkeypatch):
        rendered = []
        real_dumps = harnesses.dumps

        def dumps(obj):
            rendered.append(obj)
            return real_dumps(obj)

        def templates():
            return [record for record in rendered if record["record"] == "trial"]

        monkeypatch.setattr(harnesses, "dumps", dumps)
        # as in a fresh process: no alphabet's templates made yet
        harnesses._fwt_templates.cache_clear()
        harnesses._asc_templates.cache_clear()
        made = []
        for per_trial, trials in [(False, 5000), (True, 1), (True, 5000)]:
            report = run(build_config({**raw, "seed": 1, "trials": trials,
                                       "per_trial": per_trial}))
            assert (report.trials is not None) == per_trial
            text = render_report(report, "json-lines")
            assert len(text.splitlines()) == 3 + (trials if per_trial else 0)
            made.append(templates())
            # a second render of the same report makes none
            rendered.clear()
            assert render_report(report, "json-lines") == text
            assert templates() == []
        # none without --per-trial; one per record of the alphabet, all made by
        # the first job that keeps records, whichever of them its trials use;
        # none by a later job over the same alphabet
        alphabet = {"fwt": 144, "asc": 2 * 2}[raw["experiment"]]
        assert [len(m) for m in made] == [0, alphabet, 0]
        assert len({json.dumps(record, sort_keys=True) for record in made[1]}) == alphabet

    def test_every_template_dumps_its_record(self):
        # every code of every alphabet, not only the codes a run reaches
        def check(templates, records):
            heads, tails = templates
            assert len(heads) == len(tails) == len(records)
            for c, record in enumerate(records):
                for t in (0, 9, TRIAL_BLOCK + 1, 999_999):
                    expected = json.dumps({"record": "trial", "trial": t, **record},
                                          sort_keys=True)
                    assert heads[c] + str(t) + tails[c] == expected + "\n"

        for context in range(1, 10):
            check(harnesses._fwt_templates(context), kochen_specker.fwt_alphabet(context)[0])
        labels = ("a", 'q"t\\', "caf\u00e9 \u20ac", "\x00\x1f\n", '"trial": 7', "\ud83d\ude00")
        for shape, tie_values in [
            (agent.COLLAPSE_STAGE_SHAPE, (False, True)),  # the collapse agent's tie flag
            (agent.COLLAPSE_STAGE_SHAPE, (False,)),  # no tie values but False
            ((agent.ComputeStage.__name__,), (None,)),  # the robot's null tie_broken
        ]:
            records = [{"outcome": chosen, "label": label, "stage_shape": list(shape),
                        "tie_broken": tie}
                       for chosen, label in enumerate(labels) for tie in tie_values]
            check(harnesses._asc_templates(labels, shape, tie_values), records)

    @pytest.mark.parametrize("experiment", ["fwt", "asc"])
    def test_chunks_join_to_the_whole_report(self, experiment, monkeypatch):
        report = run(build_config({"experiment": experiment, "seed": 2, "trials": 100,
                                   "per_trial": True}))
        whole = render_report(report, "json-lines")
        for chunk in (1, 7, 99, 100):
            monkeypatch.setattr(harnesses, "TRIAL_BLOCK", chunk)
            assert render_report(report, "json-lines") == whole

    def test_render_peak_within_twice_and_a_half_the_report(self):
        # the per-trial lines are joined once per TRIAL_BLOCK trials and once
        # for the report, never kept as one string per trial
        report = run(build_config({"experiment": "fwt", "seed": 1, "trials": 100_000,
                                   "per_trial": True}))
        tracemalloc.start()
        try:
            size = len(render_report(report, "json-lines"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size, f"peak {peak / size:.2f}x the report's length"


class TestConfigEcho:
    def test_echo_revalidates(self, tmp_path):
        table = tmp_path / "f.tt"
        table.write_text("0110")
        for raw in (
            {"experiment": "ks", "seed": 0},
            {"experiment": "sat", "seed": 1, "truth_table": str(table)},
            {"experiment": "fwt", "seed": 2, "trials": 50, "policy": "forced:1"},
        ):
            lines = run_lines(raw)
            echo = json.loads(lines[0])
            assert echo.pop("record") == "config"
            assert validate(echo) == []

    FWT_RECORD = {"experiment": "fwt", "seed": 0, "output_format": "json-lines",
                  "per_trial": False}

    @pytest.mark.parametrize("raw, record, trials", [
        ({"experiment": "fwt"}, FWT_RECORD, 1000),
        ({"experiment": "fwt", "trials": None}, FWT_RECORD, 1000),
        ({"experiment": "asc", "seed": 5, "trials": 20, "output_format": "json-lines",
          "per_trial": True, "labels": "a,b", "mixing": 1, "agent": "compute"},
         {"experiment": "asc", "seed": 5, "trials": 20, "output_format": "json-lines",
          "per_trial": True, "labels": "a,b", "mixing": 1.0, "agent": "compute"}, 20),
    ])
    def test_record(self, raw, record, trials):
        # every run key but an unset trials, and only the parameters the
        # config sets, each spelled as its typed value (mixing 1.0, not 1)
        lines = run_lines(raw)
        assert lines[0] == json.dumps({"record": "config", **record}, sort_keys=True)
        assert aggregate_of(lines)["trials"] == trials


ENVELOPE_ARGV = {
    "fwt-per-trial": ["fwt", "--trials", str(TRIAL_BLOCK + 1), "--per-trial", "--seed", "3"],
    "asc-per-trial": ["asc", "--trials", "300", "--per-trial", "--labels", "a,\u00e9,\"c\"",
                      "--priorities", "1,1,0", "--norm", "1,1,0", "--mixing", "0.5"],
    "csv": ["signal", "--format", "csv", "--policy1", "biased:0.3,0.7"],
    "ks-dump-table": ["ks", "--dump-table"],
    "behavior-generate": ["behavior", "generate", "--length", "6000", "--seed", "3"],
}


class TestEnvelope:
    """The bytes --out gets equal what stdout gets, timing line aside."""

    @pytest.mark.parametrize("capture", ["capsys", "string-io"])
    @pytest.mark.parametrize("job", sorted(ENVELOPE_ARGV))
    def test_out_file_bytes_equal_stdout(self, job, capture, tmp_path, capsys):
        argv = ENVELOPE_ARGV[job]
        out = tmp_path / "report.txt"
        assert main(argv + ["--out", str(out)]) == 0
        if capture == "capsys":
            assert main(argv) == 0
            printed = capsys.readouterr().out
        else:  # a text stream with no .buffer
            with contextlib.redirect_stdout(io.StringIO()) as stream:
                assert main(argv) == 0
            printed = stream.getvalue()
        untimed = [line for line in out.read_bytes().splitlines(keepends=True)
                   if b'"record": "timing"' not in line]
        assert b"".join(untimed) == "".join(stripped(printed.splitlines(keepends=True))).encode()
        assert len(untimed) > 1


class TestMainEntry:
    def test_exit_zero_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        code = main(["--seed", "0", "ks", "--out", str(out)])
        assert code == 0
        assert '"record": "aggregate"' in out.read_text()

    def test_output_written_in_slices(self, tmp_path, capsys):
        argv = ["behavior", "generate", "--length", "1000", "--seed", "4"]
        expected = run(build_config({"experiment": "behavior", "mode": "generate",
                                     "length": 1000, "seed": 4})).plain_output
        expected = "".join(expected)
        out = tmp_path / "seq.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == expected
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_per_trial_report_written_chunk_by_chunk(self, tmp_path):
        # each TRIAL_BLOCK of records is written as it is rendered; a report
        # joined before writing holds the chunks and their copy, over twice it
        out = tmp_path / "report.jsonl"
        tracemalloc.start()
        try:
            assert main(["fwt", "--trials", "300000", "--per-trial", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert peak <= 1.5 * size, f"peak {peak / size:.2f}x the report's size"

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"experiment": "fwt", "trials": 10, "seed": 1}))
        out = tmp_path / "report.jsonl"
        code = main(["--config", str(config_file), "--trials", "25", "--out", str(out)])
        assert code == 0
        echo = json.loads(out.read_text().splitlines()[0])
        assert echo["trials"] == 25

    def test_unknown_experiment_exit_2(self, capsys):
        assert main(["--seed", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_boolean_trials_exit_2(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"experiment": "fwt", "trials": True}))
        assert main(["--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: trials: must be a positive integer\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fwt", "--trials", str(cli.MAX_PER_TRIAL + 1), "--per-trial"],
             "per_trial: at most 1000000 trials keep per-trial records"),
            (["asc", "--trials", str(cli.MAX_TRIALS), "--per-trial"],
             "per_trial: at most 1000000 trials keep per-trial records"),
            (["fwt", "--trials", "10", "--per-trial", "--format", "csv"],
             "per_trial: a csv report has no per-trial records; use json-lines"),
            (["ks", "--per-trial", "--format", "csv"],
             "per_trial: a csv report has no per-trial records; use json-lines"),
            (["ks", "--per-trial"], "per_trial: experiment 'ks' keeps no per-trial records"),
            (["signal", "--mode", "empirical", "--per-trial"],
             "per_trial: experiment 'signal' keeps no per-trial records"),
            (["energy", "--per-trial"],
             "per_trial: experiment 'energy' keeps no per-trial records"),
            (["sat", "--per-trial"],
             "per_trial: experiment 'sat' keeps no per-trial records"),
            (["behavior", "generate", "--per-trial"],
             "per_trial: experiment 'behavior' keeps no per-trial records"),
        ],
        ids=["fwt-over-cap", "asc-at-max-trials", "fwt-csv", "ks-csv", "ks", "signal",
             "energy", "sat", "behavior"],
    )
    def test_per_trial_refusals_exit_2_before_any_trial(self, argv, message, monkeypatch, capsys):
        def no_trials(*args):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(rng.TrialStreams, "__init__", no_trials)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""

    def test_per_trial_cap_is_inclusive(self):
        assert validate({"experiment": "fwt", "trials": cli.MAX_PER_TRIAL, "per_trial": True}) == []
        assert validate({"experiment": "fwt", "trials": cli.MAX_TRIALS}) == []
        assert validate({"experiment": "fwt", "output_format": "csv"}) == []

    def test_files_and_policies_parsed_once_per_job(self, tmp_path, monkeypatch):
        # validation parses each parameter into what the runner reads, so a
        # file is read and compiled, and a policy text parsed, once per job
        from collapsim import policies, sat

        (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 0\n2 0\n")
        (tmp_path / "f.tt").write_text("0110")
        calls = []
        for module, name in ((sat, "parse_dimacs"), (sat, "parse_truth_table"),
                             (policies, "parse_policy")):
            parse = getattr(module, name)
            monkeypatch.setattr(module, name, lambda text, parse=parse, name=name:
                                calls.append(name) or parse(text))
        cases = [
            (["sat", "--cnf", "f.cnf"], ["parse_dimacs"]),
            (["sat", "--truth-table", "f.tt"], ["parse_truth_table"]),
            (["fwt", "--trials", "5", "--policy", "forced:0"], ["parse_policy"]),
            (["signal", "--policy0", "forced:0", "--policy1", "biased:0.5,0.5"],
             ["parse_policy", "parse_policy"]),
        ]
        monkeypatch.chdir(tmp_path)
        for argv, parsed in cases:
            calls.clear()
            assert main(argv + ["--out", "r.jsonl"]) == 0
            assert calls == parsed, argv

    @pytest.mark.parametrize(
        "text",
        ['{"experiment": "ks", "seed": ' + "1" * 5000 + "}", "[" * 100_000],
        ids=["5000-digit-int", "deep-nesting"],
    )
    def test_unparseable_config_exit_2(self, text, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(text)
        assert main(["--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["sat", "--cnf", "{dir}"], "cnf"),
            (["sat", "--truth-table", "{dir}"], "truth_table"),
            (["behavior", "classify", "--input", "{dir}"], "input"),
            (["--config", "{dir}"], "config"),
            (["sat", "--cnf", "{latin1}"], "cnf"),
            (["behavior", "classify", "--input", "{latin1}"], "input"),
            (["ks", "--out", "{dir}"], "out"),
            (["ks", "--out", "{dir}/missing/x.json"], "out"),
        ],
        ids=["cnf-dir", "truth-table-dir", "input-dir", "config-dir", "cnf-latin1",
             "input-latin1", "out-dir", "out-missing-parent"],
    )
    def test_unusable_path_exit_2(self, argv, key, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("p cnf 1 1\n1 0\nc caf\xe9\n".encode("latin-1"))
        assert main([arg.format(dir=tmp_path, latin1=latin1) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, message", [
        ("missing/x.jsonl", "cannot write {out}: No such file or directory"),
        ("file.txt/x.jsonl", "cannot write {out}: Not a directory"),
        ("", "cannot write {out}: Is a directory"),
        ("a\x00b", "embedded null byte"),  # as open() would refuse it
    ], ids=["missing-No such file or directory", "file.txt-Not a directory",
            "directory", "null-byte"])
    def test_out_directory_checked_before_the_run(self, name, message, tmp_path,
                                                  monkeypatch, capsys):
        # the same line that writing the report would end in, but without the run
        (tmp_path / "file.txt").write_text("kept")

        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / name
        assert main(["fwt", "--trials", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: out: {message.format(out=out)}\n"
        assert (tmp_path / "file.txt").read_text() == "kept"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv, key", [
        (["ks", "--out", ""], "out"),
        (["ks", "--out="], "out"),
        (["--config", "", "ks"], "config"),
        (["--config=", "ks"], "config"),
    ])
    def test_empty_path_exit_2(self, argv, key, monkeypatch, capsys):
        # an empty --out wrote the report to stdout, and an empty --config
        # was dropped, as if neither flag were given; both end before the run
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run", no_run)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"experiment": "behavior", "mode": "classify", "input": "a\x00b"}, "input"),
            ({"experiment": "sat", "cnf": "a\x00b"}, "cnf"),
            ({"experiment": "sat", "truth_table": "a\x00b"}, "truth_table"),
            (None, "config"),
        ],
    )
    def test_null_byte_in_path_exit_2(self, raw, key, tmp_path, capsys):
        # open refuses such a path with a ValueError, which a classify input
        # let through as a traceback; a config file can carry one
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(raw))
        assert main(["--config", "a\x00b" if raw is None else str(config_file)]) == 2
        assert capsys.readouterr().err == f"config error: {key}: embedded null byte\n"

    def test_non_numeric_intervals_exit_1(self, tmp_path, capsys):
        # found by test_fuzzed_config_exits_0_1_or_2: classifying a CNF file
        # raised an uncaught ValueError
        data = tmp_path / "f.cnf"
        data.write_text("p cnf 2 1\n1 0\n")
        assert main(["behavior", "classify", "--input", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("collapsim.errors.BadParameter: not an interval file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_interval_exit_1(self, bad, tmp_path, capsys):
        # a NaN interval gave "tail_exponent": NaN, which is not JSON, and an
        # infinite one levy_like; both exited 0
        data = tmp_path / "seq.txt"
        assert main(["behavior", "generate", "--length", "2000", "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        lines[1234] = bad
        data.write_text("\n".join(lines) + "\n")
        assert main(["behavior", "classify", "--input", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "collapsim.errors.BadParameter: all intervals must be positive and finite\n"
        )

    def test_interval_count_cap_exit_2(self, tmp_path, monkeypatch, capsys):
        # classify reads at most the count generate writes, a cap like --length's
        monkeypatch.setattr(behavior, "MAX_LENGTH", 1000)
        data = tmp_path / "seq.txt"
        assert main(["behavior", "generate", "--length", "1000", "--out", str(data)]) == 0
        assert main(["behavior", "classify", "--input", str(data)]) == 0
        data.write_text(data.read_text() + "1.5\n")
        capsys.readouterr()
        assert main(["behavior", "classify", "--input", str(data)]) == 2
        assert capsys.readouterr() == ("", "config error: input: must hold at most 1000 intervals\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["energy", "--weights", "nan,1"],
             "config error: weights: must be 'born' or comma-separated finite numbers"),
            (["energy", "--state", "nan,1"],
             "config error: state: must be comma-separated finite numbers"),
            (["energy", "--h-matrix", "nan,0;0,1"],
             "config error: h_matrix: must be comma-separated finite numbers"),
            (["energy", "--h-diag", "inf,1"],
             "config error: h_diag: must be comma-separated finite numbers"),
            (["energy", "--eigenvalues", "0,-inf"],
             "config error: eigenvalues: must be comma-separated finite numbers"),
            (["asc", "--norm", "nan,1", "--trials", "5"],
             "config error: norm: must be comma-separated finite numbers"),
            (["asc", "--priorities", "1,inf", "--trials", "5"],
             "config error: priorities: must be comma-separated finite numbers"),
            (["behavior", "generate", "--rate", "inf", "--length", "100"],
             "config error: rate: must be finite"),
            (["behavior", "generate", "--kind", "pareto", "--xmin", "inf", "--length", "100"],
             "config error: xmin: must be finite"),
            (["fwt", "--policy", "biased:1,1"],
             "config error: policy: bad biased weights in 'biased:1,1': "
             "probabilities sum to 2.0, not 1"),
            (["fwt", "--policy", "biased:nan,1,1,1"],
             "config error: policy: bad biased weights in 'biased:nan,1,1,1': "
             "probabilities sum to nan, not 1"),
            (["behavior", "generate", "--kind", "pareto", "--alpha", "1e-300", "--length", "100"],
             "collapsim.errors.BadParameter: pareto intervals overflow a float at these parameters"),
            (["behavior", "generate", "--kind", "pareto", "--xmin", "1e308", "--length", "100"],
             "collapsim.errors.BadParameter: pareto intervals overflow a float at these parameters"),
            (["behavior", "generate", "--rate", "1e-320", "--length", "100"],
             "collapsim.errors.BadParameter: "
             "exponential intervals overflow a float at these parameters"),
            (["energy", "--h-matrix", "1e308,1e308;1e308,1e308"],  # Tr(H rho) = 2e308
             "collapsim.errors.BadParameter: mean energy overflows a float at these parameters"),
            # -1.53e308 before the update, 1.7e308 after it
            (["energy", "--h-diag", "1.7e308,-1.7e308", "--state", "1,4.358898943540674",
              "--weights", "1,0"],
             "collapsim.errors.BadParameter: mean energy overflows a float at these parameters"),
            (["energy", "--h-diag", "1.7e308,1.7e308", "--eigenvalues", "0,2"],  # 2 * 1.7e308
             "collapsim.errors.BadParameter: the commutator overflows a float at these parameters"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else "",
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
    def test_non_finite_or_overflowing_numbers_one_line_error(
        self, argv, message, tmp_path, capsys
    ):
        # these ended in tracebacks, or wrote inf or 2.2e-308 intervals, or
        # (energy) warned and wrote Infinity, which is not JSON
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == (2 if message.startswith("config") else 1)
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key, expected",
        [
            (["energy", "--state", "1e308,1e308", "--h-diag", "1,2"], "e_before", 1.5),
            (["asc", "--priorities", "1e308,1e308", "--trials", "5"], "born_reference",
             [0.5, 0.5]),
        ],
        ids=["energy-state", "asc-priorities"],
    )
    def test_huge_finite_numbers_run(self, argv, key, expected, tmp_path, capsys):
        # the sum of squares or of priorities overflows; both once failed
        # (a traceback and a ZeroVector)
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert aggregate_of(out.read_text().splitlines())[key] == pytest.approx(expected)

    def test_near_hermitian_matrix_runs(self, tmp_path, capsys):
        # Hermitian within tolerance: it once failed the energy's reality check
        out = tmp_path / "out.txt"
        assert main(["energy", "--h-matrix", "1,5e-11j;0,1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert aggregate_of(out.read_text().splitlines())["e_before"] == pytest.approx(1.0)

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        out = str(tmp_path / "r.jsonl")
        assert main(["fwt", "--trials", "1", "--out", out]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["fwt", "--trials", "1", "--out", out]) == 0
        assert built == []

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"experiment": "ks", "bogus": 1}))
        assert main(["--config", str(config_file)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["ks", "--format", "csv", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert "colorable" in header.split(",")
        assert "False" in row

    def test_behavior_generate_plain_lines(self, tmp_path):
        out = tmp_path / "seq.txt"
        code = main(
            ["behavior", "generate", "--kind", "exponential", "--length", "150",
             "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        values = [float(x) for x in out.read_text().split()]
        assert len(values) == 150 and all(v > 0 for v in values)


# numpy is the package's only runtime dependency; scipy is the tests' reference
SCIPY_FREE_RUN = """
import json
import math
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # from here on, importing scipy fails
from collapsim.cli import main
runs = [["asc", "--trials", "10"]] if sys.argv[1] == "blocked" else [
    ["ks"], ["fwt", "--trials", "10"], ["signal"],
    ["signal", "--mode", "empirical", "--trials", "10"], ["energy"],
    ["sat", "--truth-table", "f.tt"], ["asc", "--trials", "10"],
    ["behavior", "generate", "--length", "1000", "--out", "seq.txt"],
    ["behavior", "classify", "--input", "seq.txt"],
]
codes = [main(argv) for argv in runs]
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


@pytest.mark.parametrize("mode", ["blocked", "every-experiment"])
def test_experiments_load_no_scipy(mode, tmp_path):
    (tmp_path / "f.tt").write_text("0010")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, mode],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert set(outcome["codes"]) == {0}
    assert outcome["scipy_modules"] == []


# Every flag of every subcommand, and every global flag, mapped to the config
# echo it produces; defaults are never echoed.
SURFACE_CASES = [
    (["--seed", "3", "ks"], {"seed": 3}),
    (["ks", "--seed", "3"], {"seed": 3}),
    (["ks", "--format", "csv"], {"output_format": "csv"}),
    (["ks", "--dump-table"], {"dump_table": True}),
    (["--trials", "7", "fwt"], {"trials": 7}),
    (["fwt", "--trials", "7", "--per-trial"], {"trials": 7, "per_trial": True}),
    (["fwt", "--trials", "7", "--context", "2"], {"trials": 7, "context": 2}),
    (["fwt", "--trials", "7", "--bob-ray", "0,0,0,1"], {"trials": 7, "bob_ray": "0,0,0,1"}),
    (["fwt", "--trials", "7", "--policy", "forced:0"], {"trials": 7, "policy": "forced:0"}),
    (["signal", "--policy0", "forced:0"], {"policy0": "forced:0"}),
    (["signal", "--policy1", "biased:0.9,0.1"], {"policy1": "biased:0.9,0.1"}),
    (["signal", "--alice-basis0", "x"], {"alice_basis0": "x"}),
    (["signal", "--alice-basis1", "x"], {"alice_basis1": "x"}),
    (["signal", "--bob-basis", "x"], {"bob_basis": "x"}),
    (["signal", "--mode", "empirical", "--trials", "9"], {"mode": "empirical", "trials": 9}),
    (["energy", "--h-diag", "2,-2"], {"h_diag": "2,-2"}),
    (["energy", "--h-matrix", "0,1;1,0"], {"h_matrix": "0,1;1,0"}),
    (["energy", "--state", "1,0"], {"state": "1,0"}),
    (["energy", "--basis", "x"], {"basis": "x"}),
    (["energy", "--weights", "1,0"], {"weights": "1,0"}),
    (["energy", "--eigenvalues", "1,-1"], {"eigenvalues": "1,-1"}),
    (["sat", "--cnf", "f.cnf"], {"cnf": "f.cnf"}),
    (["sat", "--truth-table", "f.tt"], {"truth_table": "f.tt"}),
    (["asc", "--trials", "5", "--labels", "a,b"], {"trials": 5, "labels": "a,b"}),
    (["asc", "--trials", "5", "--priorities", "1,3"], {"trials": 5, "priorities": "1,3"}),
    (["asc", "--trials", "5", "--norm", "1,0"], {"trials": 5, "norm": "1,0"}),
    (["asc", "--trials", "5", "--mixing", "0.5"], {"trials": 5, "mixing": 0.5}),
    (["asc", "--trials", "5", "--agent", "compute"], {"trials": 5, "agent": "compute"}),
    (["behavior", "generate"], {"mode": "generate"}),
    (["behavior", "generate", "--kind", "pareto"], {"mode": "generate", "kind": "pareto"}),
    (["behavior", "generate", "--rate", "2"], {"mode": "generate", "rate": 2.0}),
    (["behavior", "generate", "--kind", "pareto", "--alpha", "2.5"],
     {"mode": "generate", "kind": "pareto", "alpha": 2.5}),
    (["behavior", "generate", "--kind", "pareto", "--xmin", "0.5"],
     {"mode": "generate", "kind": "pareto", "xmin": 0.5}),
    (["behavior", "generate", "--length", "200"], {"mode": "generate", "length": 200}),
    (["behavior", "classify", "--input", "seq.txt"], {"mode": "classify", "input": "seq.txt"}),
    (["behavior", "classify", "--input", "seq.txt", "--levy-threshold", "1.5"],
     {"mode": "classify", "input": "seq.txt", "levy_threshold": 1.5}),
    (["behavior", "classify", "--input", "seq.txt", "--noise-threshold", "4.5"],
     {"mode": "classify", "input": "seq.txt", "noise_threshold": 4.5}),
    (["--config", "config.json"], {"trials": 4, "seed": 2, "context": 3}),
    (["--config", "config.json", "--trials", "6"], {"trials": 6, "seed": 2, "context": 3}),
    (["--config", "config.json", "fwt", "--context", "5"], {"trials": 4, "seed": 2, "context": 5}),
]


class TestCliSurface:
    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 0\n2 0\n")
        (tmp_path / "f.tt").write_text("0110")
        (tmp_path / "seq.txt").write_text("".join(f"{1 + i / 7}\n" for i in range(1000)))
        (tmp_path / "config.json").write_text(
            json.dumps({"experiment": "fwt", "trials": 4, "seed": 2, "context": 3})
        )

    @pytest.mark.parametrize(
        "argv, echoed", SURFACE_CASES, ids=[" ".join(argv) for argv, _ in SURFACE_CASES]
    )
    def test_argv_maps_to_config_echo(self, argv, echoed, inputs, monkeypatch):
        from collapsim import cli

        reports = []
        real_run = cli.run

        def recording_run(config):
            reports.append(real_run(config))
            return reports[-1]

        monkeypatch.setattr(cli, "run", recording_run)
        assert main(argv + ["--out", "report.txt"]) == 0
        experiment = "fwt" if argv[0] == "--config" else next(a for a in argv if a in cli.EXPERIMENTS)
        expected = {"experiment": experiment, "seed": 0, "output_format": "json-lines",
                    "per_trial": False, **echoed}
        assert json.dumps(reports[0].config, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("experiment", ["ks", "fwt", "signal", "energy", "sat", "asc", "behavior"])
    def test_subcommand_help_exits_zero(self, experiment, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([experiment, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: collapsim {experiment}")

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "1", "-h"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert usage.startswith("usage: collapsim [flags] EXPERIMENT")
        assert all(name in usage for name in cli.EXPERIMENTS)
        for name, spec in cli.SPECS.items():
            with pytest.raises(SystemExit):
                main([name, "-h"])
            usage = capsys.readouterr().out
            flags = [f"--{p.name.replace('_', '-')} " for p in spec.params if not p.positional]
            assert all(f"\n  {flag}" in usage for flag in [*flags, "--seed ", "--per-trial "])


# --- the argv reader against the argparse parser it replaced -------------------

# values argparse also reads as values: none starts with "-"
_ARG_TEXT = st.text(alphabet="abz019,.;:=_ ", max_size=8)
_ARG_VALUES = {int: st.integers(0, 10**6).map(str), float: st.floats(0, 1e6).map(repr),
               str: _ARG_TEXT}
_GLOBAL_ARGS = {"--seed": _ARG_VALUES[int], "--trials": _ARG_VALUES[int], "--out": _ARG_TEXT,
                "--format": st.sampled_from(cli.OUTPUT_FORMATS), "--config": _ARG_TEXT,
                "--per-trial": None}


@st.composite
def argv_lists(draw):
    """An argv of one experiment's flags and global flags, in any order, each
    flag's value as the next argument or after "=", one flag maybe repeated."""
    experiment = draw(st.sampled_from(cli.EXPERIMENTS))
    spec = cli.SPECS[experiment]
    own = {f"--{p.name.replace('_', '-')}": None if p.kind is bool else _ARG_VALUES[p.kind]
           for p in spec.params if not p.positional}
    flags = draw(st.lists(st.sampled_from(sorted({**_GLOBAL_ARGS, **own})), unique=True,
                          max_size=7))
    if flags and draw(st.booleans()):
        flags.append(draw(st.sampled_from(flags)))  # given again, later: it wins
    before, after = [], []
    for i, flag in enumerate(flags):
        values = _GLOBAL_ARGS.get(flag, own.get(flag))
        if values is None:
            group = [flag]
        elif draw(st.booleans()):
            group = [f"{flag}={draw(values)}"]
        else:
            group = [flag, draw(values)]
        # a global flag may precede the experiment name; the last flag, which
        # may be the repeat, stays last
        ahead = flag in _GLOBAL_ARGS and i < len(flags) - 1 and draw(st.booleans())
        (before if ahead else after).append(group)
    for param in spec.params:
        if param.positional:
            after.insert(draw(st.integers(0, len(after))), [draw(st.sampled_from(param.choices))])
    head = [arg for group in draw(st.permutations(before)) for arg in group]
    return head + [experiment] + [arg for group in after for arg in group]


def _typed(raw):
    params = {p.name: p for p in cli.SPECS[raw["experiment"]].params}
    return {key: params[key].coerce(value) if key in params else value
            for key, value in raw.items()}


@settings(max_examples=300, deadline=None)
@given(argv=argv_lists())
def test_argv_reads_as_the_argparse_parser_read_it(argv):
    # the reader leaves parameter values as text for Param.coerce, which
    # types them as the argparse parser's type= did
    assert _typed(cli._read_argv(argv)) == _typed(reference_raw_config(argv))


class TestArgvDifferences:
    """What the argparse parser read, or refused with a usage block, and the
    reader refuses in one line or runs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fwt", "--tri", "5"], "--tri: unknown flag for experiment 'fwt'"),
            (["fwt", "--bogus", "1"], "--bogus: unknown flag for experiment 'fwt'"),
            (["fwt", "--mixing", "0.5"], "--mixing: unknown flag for experiment 'fwt'"),
            (["--context", "2", "fwt"], "--context: unknown flag before the experiment"),
            (["fwt", "--trials"], "--trials: needs a value"),
            (["fwt", "--policy", "--trials", "5"], "--policy: needs a value"),
            (["ks", "--dump-table=1"], "--dump-table: takes no value"),
            (["ks", "1"], "unexpected argument '1' after 'ks'"),
            (["fwtt"], "experiment: unknown experiment 'fwtt'"),
            (["fwt", "--seed", "x"], "seed: expected int, got 'x'"),
        ],
        ids=["prefix", "unknown", "other-experiment", "before-experiment", "missing-value",
             "flag-for-value", "presence-value", "stray-argument", "experiment", "int"],
    )
    def test_one_config_error_line_exit_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""

    def test_prefix_no_longer_abbreviates(self, capsys):
        # a typo must not silently pick another flag
        assert reference_raw_config(["fwt", "--tri", "5"])["trials"] == 5
        assert main(["fwt", "--tri", "5"]) == 2

    def test_negative_number_value_runs(self, tmp_path, capsys):
        with pytest.raises(SystemExit):  # argparse took -1,1 for a flag
            reference_raw_config(["energy", "--h-diag", "-1,1"])
        out = tmp_path / "r.jsonl"
        assert main(["energy", "--h-diag", "-1,1", "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0])["h_diag"] == "-1,1"


class TestErrorsStayOnOneLine:
    """A line break in an argument, a path or a config key is escaped where
    main prints, and a failed write to stdout is a config error: every
    failure is one stderr line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fwt", "--bogus\nx"], "--bogus\\nx: unknown flag for experiment 'fwt'"),
            (["fwt", "--bogus\rx"], "--bogus\\rx: unknown flag for experiment 'fwt'"),
            (["sat", "--cnf", "missing\n"], "cnf: file not found: missing\\n"),
        ],
        ids=["flag-newline", "flag-return", "path-newline"],
    )
    def test_argv_line_break_is_escaped(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_config_key_line_break_is_escaped(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"experiment": "ks", "a\nb": 1}))
        assert main(["--config", str(config_file)]) == 2
        assert capsys.readouterr().err == "config error: a\\nb: unknown key for experiment 'ks'\n"

    @staticmethod
    def _entry_point(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return [sys.executable, "-m", "collapsim.cli", *args], env

    def test_closed_stdout_pipe_is_one_config_error_line(self):
        # a reader that stops after one line: far more than a pipe buffer is left
        argv, env = self._entry_point("fwt", "--trials", "20000", "--per-trial")
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b'{"experiment": "fwt"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
        assert err == "config error: out: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_one_config_error_line(self):
        argv, env = self._entry_point("fwt", "--trials", "10")
        with open("/dev/full", "w") as full:
            result = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE,
                                    text=True, timeout=120)
        assert result.returncode == 2
        assert result.stderr == "config error: out: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_file_is_one_config_error_line(self, capsys):
        # --out is written as bytes through a buffered file: the failed write
        # surfaces at its flush or close, and is still one line
        assert main(["fwt", "--trials", "10", "--out", "/dev/full"]) == 2
        assert capsys.readouterr() == (
            "", "config error: out: cannot write /dev/full: No space left on device\n")

    @pytest.mark.parametrize("args", [
        ("asc", "--trials", "50", "--per-trial", "--labels", "a,\u00e9", "--priorities", "1,1",
         "--norm", "0,1", "--seed", "4"),
        ("signal", "--format", "csv", "--policy1", "biased:0.3,0.7"),
    ], ids=["json-lines", "csv"])
    def test_out_file_bytes_equal_stdout_in_a_fresh_process(self, args, tmp_path):
        # the interpreter's own stdout against the UTF-8 bytes --out gets
        argv, env = self._entry_point(*args)
        printed = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        out = tmp_path / "report"
        written = subprocess.run(argv + ["--out", str(out)], env=env, capture_output=True,
                                 timeout=120)
        assert (printed.returncode, written.returncode, written.stdout) == (0, 0, b"")

        def untimed(data):
            return [line for line in data.splitlines(keepends=True)
                    if b'"record": "timing"' not in line]

        assert untimed(out.read_bytes()) == untimed(printed.stdout)
        assert len(untimed(printed.stdout)) > 1


#: runs `python -m collapsim.cli ARGS` under a 1.5 GiB address-space limit (a
#: guard, should a read grow without bound) with stdout sent to os.devnull,
#: reaps it with wait4 and prints its exit code and peak RSS in KiB; a process
#: inherits its parent's peak RSS across exec, so this small launcher, not the
#: test process, is the parent
CAPPED_CLI = """
import os, resource, sys
pid = os.fork()
if pid == 0:
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "collapsim.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestInputCaps:
    """A file read whole (--config, --cnf, --truth-table) holds at most
    harnesses.MAX_FILE_BYTES bytes, and an interval file's tokens at most
    behavior.MAX_TOKEN characters; past either cap the read stops, with one
    config error line and exit code 2."""

    @pytest.mark.skipif(sys.platform != "linux" or not os.path.exists("/dev/zero"),
                        reason="needs /dev/zero, reads Linux rusage, RSS in KiB")
    @pytest.mark.parametrize("argv, message", [
        (["--config"], "config: must be at most 16777216 bytes: /dev/zero"),
        (["sat", "--cnf"], "cnf: must be at most 16777216 bytes: /dev/zero"),
        (["sat", "--truth-table"], "truth_table: must be at most 16777216 bytes: /dev/zero"),
        (["behavior", "classify", "--input"], "input: a token must be at most 1048576 characters"),
    ], ids=["config", "cnf", "truth_table", "input"])
    def test_endless_file_is_one_config_error_line(self, argv, message):
        # each used to grow until a MemoryError traceback, or the machine's memory ran out
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        result = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv, "/dev/zero"], env=env,
                                capture_output=True, text=True, check=True, timeout=120)
        code, rss = map(int, result.stdout.split())
        assert (code, result.stderr) == (2, f"config error: {message}\n")
        assert rss < 100 * 1024, f"peak RSS {rss / 1024:.0f} MB"

    @pytest.mark.parametrize("chunk", [1, 3, 16, 1 << 17])
    def test_whole_file_cap_counts_bytes_as_they_arrive(self, chunk, tmp_path, monkeypatch):
        # 16 bytes of 8 characters once "\r\n" is read as "\n"
        path = tmp_path / "f.txt"
        path.write_bytes("\u00e9\r\n".encode() * 4)
        monkeypatch.setattr(harnesses, "READ_CHUNK", chunk)
        assert "".join(harnesses.read_text("cnf", str(path), 16)) == "\u00e9\n" * 4
        with pytest.raises(ConfigError, match=r"^cnf: must be at most 15 bytes: "):
            "".join(harnesses.read_text("cnf", str(path), 15))

    def test_config_file_at_the_cap_is_read(self, tmp_path, capsys):
        head = json.dumps({"experiment": "ks"})
        path = tmp_path / "config.json"
        path.write_text(head + " " * (harnesses.MAX_FILE_BYTES - len(head)))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(path, "a") as file:
            file.write(" ")
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config: must be at most {harnesses.MAX_FILE_BYTES} bytes: {path}\n")

    @pytest.mark.parametrize("key, text", [("cnf", "p cnf 2 1\n1 -2 0\n"),
                                           ("truth_table", "0110\n")])
    def test_oracle_file_at_the_cap_is_read(self, key, text, tmp_path, monkeypatch, capsys):
        path = tmp_path / "oracle"
        path.write_text(text)
        argv = ["sat", "--" + key.replace("_", "-"), str(path), "--out", str(tmp_path / "out")]
        monkeypatch.setattr(harnesses, "MAX_FILE_BYTES", len(text))
        assert main(argv) == 0
        monkeypatch.setattr(harnesses, "MAX_FILE_BYTES", len(text) - 1)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {key}: must be at most {len(text) - 1} bytes: {path}\n")

    def test_interval_token_at_the_cap_is_read(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        assert main(["behavior", "generate", "--length", "1000", "--out", str(path)]) == 0
        intervals = path.read_text()
        argv = ["behavior", "classify", "--input", str(path), "--out", str(tmp_path / "out")]
        for zeros in (behavior.MAX_TOKEN - 2, behavior.MAX_TOKEN - 1):
            path.write_text(intervals + "1." + "0" * zeros + "\n2.5\n")
            assert main(argv) == (0 if zeros == behavior.MAX_TOKEN - 2 else 2)
        assert capsys.readouterr().err == (
            f"config error: input: a token must be at most {behavior.MAX_TOKEN} characters\n")


def test_cli_imports_no_argparse():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    check = 'import sys, collapsim.cli; assert "argparse" not in sys.modules'
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=120)


# --- fuzz: main on flat config dicts drawn from SPECS -------------------------

# wrong types for any key
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
# well-formed and malformed text per parameter, so runs get past validation
# too; number lists also carry nan, infinities and magnitudes near the float
# range's ends
_TEXT = {
    "policy": ["born", "forced:0", "forced:3", "biased:0.5,0.5", "biased:0.1,0.2,0.3,0.4",
               "scripted:0,7,1;fallback=forced:2", "scripted:1,0",
               "scripted:1;fallback=scripted:0", "biased:1,1", "biased:nan,1,1,1",
               "biased:1e308,1e308,0,0", "scripted:1;fallback=biased:inf,0,0,0"],
    "bob_ray": ["random", "0,0,0,1", "1,1,1,1", "1,-1,1,-1", "2,0,0,0", "0,1"],
    "h_diag": ["1,-1", "0,1,2", "x", "nan,1", "inf,1", "1e308,-1e308", "1e-300,1", ","],
    "h_matrix": ["1,0;0,-1", "0,1;1,0", "1,2;3", "1,2,3", "nan,0;0,1", "1e308,0;0,-inf",
                 "1,2;3,4", "1,5e-11j;0,1", ","],
    "state": ["1,1", "1,0,0", "1j,1", "0,0", "nan,1", "1e308,1e308", "1e-300,1e-300",
              "-inf,1"],
    "weights": ["born", "0.5,0.5", "1,0", "1,0,0", "-1,2", "nan,1", "inf,-inf",
                "0.5,0.5000000005"],
    "eigenvalues": ["0,1", "1", "0,1,2", "0,inf", "1e308,1e-300", "nan,nan"],
    "labels": ["0,1", "a,b,c", "a,a", ""],
    "priorities": ["1,1", "0,1,2", "0,0", "1,-1", "1e308,1e308", "1e-300,1", "nan,1",
                   "inf,1"],
    "norm": ["0,1", "1,0,1", "1", "nan,1", "-inf,1e308"],
}
_TEXT["policy0"] = _TEXT["policy1"] = _TEXT["policy"]
# file parameters name one of the files made by fuzz_files
_FILES = ("f.cnf", "f.tt", "seq.txt", "unsat.tt", "latin1.txt", "missing.txt", ".")
_SMALL = {"trials": (1, 50), "length": (100, 300)}
_CAPS = {"trials": cli.MAX_TRIALS, "length": behavior.MAX_LENGTH}


def _values(name, kind, choices=()):
    """Well-typed values of a key, and wrong types or out-of-range ones."""
    if name in _SMALL:  # small when valid, so a run takes milliseconds
        low, high = _SMALL[name]
        return st.integers(low, high), st.one_of(
            st.integers(max_value=low - 1), st.integers(min_value=_CAPS[name] + 1), _JUNK)
    if choices:
        return st.sampled_from(choices), st.one_of(st.text(max_size=8), _JUNK)
    if kind is bool:
        return st.booleans(), _JUNK
    if kind is int:
        return st.integers(-2, 12), st.one_of(st.integers(), _JUNK)
    if kind is float:
        return (st.one_of(st.floats(0, 1), st.floats(0, 10),
                          st.sampled_from(["0.5", "1e308", "1e-300"])),
                st.one_of(st.floats(), st.sampled_from(["nan", "inf", "-inf", "-1", "1e400"]),
                          _JUNK))
    if name in ("cnf", "truth_table", "input"):
        return st.sampled_from(_FILES), _JUNK
    return st.sampled_from(_TEXT.get(name, ["x"])), st.one_of(st.text(max_size=8), _JUNK)


_GLOBALS = {
    "seed": (st.integers(0, 2**64 - 1), st.one_of(st.integers(), _JUNK)),
    "trials": _values("trials", int),
    "output_format": _values("output_format", str, cli.OUTPUT_FORMATS),
    "per_trial": _values("per_trial", bool),
}
_KEYS = {
    name: {**_GLOBALS, **{p.name: _values(p.name, p.kind, p.choices) for p in spec.params}}
    for name, spec in cli.SPECS.items()
}
_OTHER_KEYS = sorted({key for keys in _KEYS.values() for key in keys} | {"bogus"})


@st.composite
def flat_configs(draw):
    # mostly well-typed values; in one config of three up to two keys are
    # spoiled, in one of ten a foreign key is added or the experiment is junk
    rare = st.integers(0, 9).map(lambda i: i == 0)
    experiment = draw(_JUNK) if draw(rare) else draw(st.sampled_from(cli.EXPERIMENTS))
    own = _KEYS[experiment] if experiment in cli.EXPERIMENTS else _GLOBALS
    keys = draw(st.lists(st.sampled_from(sorted(own)), unique=True, max_size=6))
    spoiled = ()
    if keys and draw(st.integers(0, 2)) == 0:
        spoiled = draw(st.sets(st.sampled_from(keys), max_size=2))
    raw = {key: draw(own[key][1] if key in spoiled else own[key][0]) for key in keys}
    if draw(rare):
        raw[draw(st.sampled_from(_OTHER_KEYS))] = draw(_JUNK)
    if experiment is not None or draw(st.booleans()):
        raw["experiment"] = experiment
    return raw


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "f.cnf").write_text("p cnf 2 2\n1 0\n2 0\n")
    (root / "f.tt").write_text("0110")
    (root / "unsat.tt").write_text("0000")
    (root / "seq.txt").write_text("".join(f"{1 + i / 7}\n" for i in range(1000)))
    (root / "latin1.txt").write_bytes("p cnf 1 1\n1 0\nc caf\xe9\n".encode("latin-1"))
    return root


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=flat_configs())
@example(raw={"experiment": "sat", "cnf": "x\n"})  # a file name with a line break
def test_fuzzed_config_exits_0_1_or_2(raw, fuzz_files):
    for key in ("cnf", "truth_table", "input"):
        if isinstance(raw.get(key), str):
            raw[key] = str(fuzz_files / raw[key])
    config_file = fuzz_files / "config.json"
    config_file.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(config_file)])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().count("\n") == 1
    plain = raw.get("dump_table") is True or raw.get("mode") == "generate"
    if code == 0 and raw.get("output_format", "json-lines") == "json-lines" and not plain:
        for line in out.getvalue().splitlines():  # strict JSON: no NaN or Infinity
            json.loads(line, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")
