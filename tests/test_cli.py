import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import cli, harnesses
from collapsim.cli import build_config, main, render_report, run, validate
from collapsim.errors import ConfigError


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
            ({"experiment": "energy", "h_diag": ","}, "h_diag: must not be empty"),
            ({"experiment": "energy", "h_matrix": ";"}, "h_matrix: must not be empty"),
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
        lines = report.plain_output.strip().splitlines()
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
        data.write_text(run(generate).plain_output)
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
        sequence_text = run(generate).plain_output
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
        assert first is not None and first == second


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


class TestMainEntry:
    def test_exit_zero_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        code = main(["--seed", "0", "ks", "--out", str(out)])
        assert code == 0
        assert '"record": "aggregate"' in out.read_text()

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

    def test_non_numeric_intervals_exit_1(self, tmp_path, capsys):
        # found by test_fuzzed_config_exits_0_1_or_2: classifying a CNF file
        # raised an uncaught ValueError
        data = tmp_path / "f.cnf"
        data.write_text("p cnf 2 1\n1 0\n")
        assert main(["behavior", "classify", "--input", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("collapsim.errors.BadParameter: not an interval file")
        assert err.count("\n") == 1

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
_CAPS = {"trials": cli.MAX_TRIALS, "length": cli.MAX_LENGTH}


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
def test_fuzzed_config_exits_0_1_or_2(raw, fuzz_files):
    for key in ("cnf", "truth_table", "input"):
        if isinstance(raw.get(key), str):
            raw[key] = str(fuzz_files / raw[key])
    config_file = fuzz_files / "config.json"
    config_file.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(config_file)])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().count("\n") == 1
