"""Single command-line entry point for all experiment harnesses.

Every experiment takes a master seed and emits a machine-readable report:
a config echo, optional per-trial records, an aggregate record and a
timing record. Re-running the same config byte-reproduces everything but
the timing line. Unknown config keys are rejected rather than ignored so a
typo cannot silently corrupt a comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats as scipy_stats

from . import agent, behavior, kochen_specker, policies, sat, signaling
from .energy import Hamiltonian, audit_measurement
from .errors import CollapsimError, ConfigError
from .quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    make_state,
)
from .rng import trial_blocks, trial_rng

EXPERIMENTS = ("ks", "fwt", "signal", "energy", "sat", "asc", "behavior")
OUTPUT_FORMATS = ("json-lines", "csv")

#: experiment-specific parameter names and coercion types
PARAM_SPECS: dict[str, dict[str, type]] = {
    "ks": {"dump_table": bool},
    "fwt": {"context": int, "bob_ray": str, "policy": str},
    "signal": {
        "policy0": str,
        "policy1": str,
        "alice_basis0": str,
        "alice_basis1": str,
        "bob_basis": str,
        "mode": str,
    },
    "energy": {
        "h_diag": str,
        "h_matrix": str,
        "state": str,
        "basis": str,
        "weights": str,
        "eigenvalues": str,
    },
    "sat": {"cnf": str, "truth_table": str},
    "asc": {
        "labels": str,
        "priorities": str,
        "norm": str,
        "mixing": float,
        "agent": str,
    },
    "behavior": {
        "mode": str,
        "kind": str,
        "rate": float,
        "alpha": float,
        "xmin": float,
        "length": int,
        "input": str,
        "levy_threshold": float,
        "noise_threshold": float,
    },
}

GLOBAL_KEYS = ("experiment", "seed", "trials", "output_format", "per_trial")

DEFAULT_TRIALS = {"fwt": 1000, "signal": 10_000, "asc": 1000}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int | None = None
    output_format: str = "json-lines"
    per_trial: bool = False
    params: dict[str, Any] = field(default_factory=dict)

    def flat(self) -> dict[str, Any]:
        base: dict[str, Any] = {
            "experiment": self.experiment,
            "seed": self.seed,
            "output_format": self.output_format,
            "per_trial": self.per_trial,
        }
        if self.trials is not None:
            base["trials"] = self.trials
        base.update(self.params)
        return base

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return DEFAULT_TRIALS.get(self.experiment, 1)


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, Any]
    trials: list[dict[str, Any]]
    aggregate: dict[str, Any]
    duration_seconds: float
    #: set for plain-file outputs (interval sequences, ray-table dumps)
    plain_output: str | None = None


def validate(raw: dict[str, Any]) -> list[str]:
    """All violations of a flat config mapping; empty means runnable."""
    violations: list[str] = []
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        violations.append(f"experiment: unknown experiment {experiment!r}")
        return violations
    spec = PARAM_SPECS[experiment]
    for key in raw:
        if key not in GLOBAL_KEYS and key not in spec:
            violations.append(f"{key}: unknown key for experiment {experiment!r}")
    violations.extend(_validate_globals(raw))
    params, param_errors = _coerce_params(experiment, raw)
    violations.extend(param_errors)
    if not violations:
        violations.extend(_validate_experiment(experiment, params))
    return violations


def _validate_globals(raw: dict[str, Any]) -> list[str]:
    violations = []
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        violations.append("seed: must be a 64-bit unsigned integer")
    trials = raw.get("trials")
    if trials is not None and (
        not isinstance(trials, int) or isinstance(trials, bool) or trials < 1
    ):
        violations.append("trials: must be a positive integer")
    output_format = raw.get("output_format", "json-lines")
    if output_format not in OUTPUT_FORMATS:
        violations.append(f"output_format: must be one of {OUTPUT_FORMATS}")
    per_trial = raw.get("per_trial", False)
    if not isinstance(per_trial, bool):
        violations.append("per_trial: must be a boolean")
    return violations


def _coerce_params(
    experiment: str, raw: dict[str, Any]
) -> tuple[dict[str, Any], list[str]]:
    spec = PARAM_SPECS[experiment]
    params: dict[str, Any] = {}
    errors: list[str] = []
    for key, kind in spec.items():
        if key not in raw:
            continue
        value = raw[key]
        if kind is bool:
            if isinstance(value, bool):
                params[key] = value
            else:
                errors.append(f"{key}: expected a boolean, got {value!r}")
            continue
        try:
            params[key] = kind(value)
        except (TypeError, ValueError):
            errors.append(f"{key}: expected {kind.__name__}, got {value!r}")
    return params, errors


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _validate_experiment(experiment: str, params: dict[str, Any]) -> list[str]:
    violations: list[str] = []
    if experiment == "fwt":
        context = params.get("context", 1)
        if not 1 <= context <= 9:
            violations.append("context: must lie in 1..9")
        ray_text = params.get("bob_ray", "random")
        if ray_text != "random":
            try:
                ray = kochen_specker.Ray(tuple(int(c) for c in str(ray_text).split(",")))
            except (ValueError, CollapsimError):
                violations.append(f"bob_ray: not a ray: {ray_text!r}")
            else:
                if ray not in kochen_specker.builtin_ks_table().ray_index:
                    violations.append(
                        f"bob_ray: {ray} is not one of the table's 18 directions"
                    )
        _check_policy(params.get("policy", "born"), "policy", violations)
    elif experiment == "signal":
        for key in ("policy0", "policy1"):
            _check_policy(params.get(key, "born"), key, violations)
        for key in ("alice_basis0", "alice_basis1", "bob_basis"):
            if params.get(key, "z") not in ("z", "x"):
                violations.append(f"{key}: must be 'z' or 'x'")
        if params.get("mode", "analytic") not in ("analytic", "empirical"):
            violations.append("mode: must be 'analytic' or 'empirical'")
    elif experiment == "energy":
        if "h_diag" in params and "h_matrix" in params:
            violations.append("h_matrix: provide h_diag or h_matrix, not both")
            return violations
        try:
            if "h_matrix" in params:
                matrix = _parse_matrix(params["h_matrix"])
                if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                    violations.append("h_matrix: must be square (rows split by ';')")
                    return violations
                dim = matrix.shape[0]
            else:
                dim = len(_float_list(params.get("h_diag", "1,-1")))
            state_text = params.get("state")
            if state_text is not None:
                state = [complex(tok.strip()) for tok in str(state_text).split(",")]
                if len(state) != dim:
                    violations.append("state: length must match the hamiltonian")
        except ValueError:
            violations.append("h_diag/h_matrix/state: must be comma-separated numbers")
            return violations
        if params.get("basis", "z") not in ("z", "x"):
            violations.append("basis: must be 'z' or 'x'")
        elif params.get("basis", "z") == "x" and dim != 2:
            violations.append("basis: 'x' requires dimension 2")
        weights = params.get("weights", "born")
        if weights != "born":
            try:
                w = _float_list(weights)
                if len(w) != dim:
                    violations.append("weights: length must match the hamiltonian")
                elif abs(sum(w) - 1.0) > 1e-9 or any(x < 0 for x in w):
                    violations.append("weights: must be a probability vector")
            except ValueError:
                violations.append("weights: must be 'born' or comma-separated numbers")
        if "eigenvalues" in params:
            try:
                if len(_float_list(params["eigenvalues"])) != dim:
                    violations.append("eigenvalues: length must match the hamiltonian")
            except ValueError:
                violations.append("eigenvalues: must be comma-separated numbers")
    elif experiment == "sat":
        sources = [key for key in ("cnf", "truth_table") if key in params]
        if len(sources) != 1:
            violations.append("sat: provide exactly one of cnf or truth_table")
        else:
            violations.extend(_check_sat_source(sources[0], params[sources[0]]))
    elif experiment == "asc":
        labels = [tok for tok in str(params.get("labels", "0,1")).split(",") if tok]
        try:
            priorities = _float_list(params.get("priorities", "1,1"))
            norm_values = _float_list(params.get("norm", "0,1"))
        except ValueError:
            violations.append("priorities/norm: must be comma-separated numbers")
            return violations
        if len(set(labels)) != len(labels):
            violations.append("labels: must be distinct")
        if len(priorities) != len(labels):
            violations.append("priorities: length must match labels")
        elif any(p < 0 for p in priorities) or not any(p > 0 for p in priorities):
            violations.append("priorities: need non-negative values, at least one positive")
        if len(norm_values) != len(labels):
            violations.append("norm: length must match labels")
        if not 0.0 <= params.get("mixing", 1.0) <= 1.0:
            violations.append("mixing: must lie in [0, 1]")
        if params.get("agent", "collapse") not in ("collapse", "compute"):
            violations.append("agent: must be 'collapse' or 'compute'")
    elif experiment == "behavior":
        mode = params.get("mode")
        if mode not in ("generate", "classify"):
            violations.append("mode: must be 'generate' or 'classify'")
        elif mode == "generate":
            if params.get("kind", "exponential") not in ("exponential", "pareto"):
                violations.append("kind: must be 'exponential' or 'pareto'")
            if params.get("length", 10_000) < 100:
                violations.append("length: must be at least 100")
            for key in ("rate", "alpha", "xmin"):
                if key in params and params[key] <= 0:
                    violations.append(f"{key}: must be positive")
        else:
            if "input" not in params:
                violations.append("input: required for classify")
            elif not Path(params["input"]).exists():
                violations.append(f"input: file not found: {params['input']}")
            levy = params.get("levy_threshold", behavior.LEVY_THRESHOLD)
            noise = params.get("noise_threshold", behavior.NOISE_THRESHOLD)
            if not 0 < levy <= noise:
                violations.append("levy_threshold: must satisfy 0 < levy <= noise")
    return violations


def _check_policy(text: str, key: str, violations: list[str]) -> None:
    try:
        policies.parse_policy(str(text))
    except CollapsimError as exc:
        violations.append(f"{key}: {exc}")


def _check_sat_source(kind: str, path_text: str) -> list[str]:
    path = Path(path_text)
    if not path.exists():
        return [f"{kind}: file not found: {path_text}"]
    try:
        if kind == "cnf":
            sat.parse_dimacs(path.read_text())
        else:
            sat.parse_truth_table(path.read_text())
    except CollapsimError as exc:
        return [f"{kind}: {exc}"]
    return []


def build_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Construct a validated config; raises ConfigError listing violations."""
    violations = validate(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    experiment = raw["experiment"]
    params, _ = _coerce_params(experiment, raw)
    return ExperimentConfig(
        experiment=experiment,
        seed=raw.get("seed", 0),
        trials=raw.get("trials"),
        output_format=raw.get("output_format", "json-lines"),
        per_trial=raw.get("per_trial", False),
        params=params,
    )


# --- experiment runners ---------------------------------------------------


RunnerOutput = tuple[list[dict], dict, str | None]


def _run_ks(config: ExperimentConfig) -> RunnerOutput:
    table = kochen_specker.builtin_ks_table()
    if config.params.get("dump_table"):
        # ray-table text format for external checkers
        return [], {}, kochen_specker.format_table(table) + "\n"
    result = kochen_specker.ks_coloring_search(table)
    aggregate = {
        "colorable": result.colorable,
        "assignments_found": result.assignments_found,
        "search_space_size": result.search_space_size,
        "parity_certificate": kochen_specker.parity_certificate(table),
        "table_violations": kochen_specker.validate_table(table),
        "contexts": len(table.contexts),
        "distinct_rays": len(table.ray_index),
    }
    return [], aggregate, None


def _run_fwt(config: ExperimentConfig) -> RunnerOutput:
    context = config.params.get("context", 1)
    ray_text = config.params.get("bob_ray", "random")
    fixed_ray = None
    if ray_text != "random":
        fixed_ray = kochen_specker.Ray(tuple(int(c) for c in ray_text.split(",")))
    policy = policies.parse_policy(config.params.get("policy", "born"))
    trials = config.resolved_trials()
    ray_names = [str(ray) for ray in kochen_specker.builtin_ks_table().distinct_rays]

    records = []
    in_context = agreements = detections = 0
    for block in kochen_specker.fwt_trials(context, fixed_ray, policy, config.seed, trials):
        detections += int(block.bob_value.sum())
        in_context += int(block.in_context.sum())
        agreements += int(block.agree.sum())
        if config.per_trial:
            records.extend(_fwt_records(block, ray_names))
    aggregate = {
        "trials": trials,
        "context": context,
        "policy": policies.describe_policy(policy),
        "in_context_trials": in_context,
        "agreements": agreements,
        "agreement_exact": agreements == in_context,
        "detections": detections,
        "detection_rate": detections / trials,
    }
    return records, aggregate, None


def _fwt_records(block: kochen_specker.FwtBlock, ray_names: list[str]) -> list[dict]:
    columns = zip(
        block.trial.tolist(),
        block.alice_outcome.tolist(),
        block.bob_ray.tolist(),
        block.bob_value.tolist(),
        block.in_context.tolist(),
        block.alice_value_for_bob_ray.tolist(),
        block.agree.tolist(),
    )
    return [
        {
            "record": "trial",
            "trial": t,
            "alice_outcome": alice_outcome,
            "bob_ray": ray_names[ray],
            "bob_value": bob_value,
            "in_context": in_ctx,
            "alice_value_for_bob_ray": alice_value if in_ctx else None,
            "agree": agree if in_ctx else None,
        }
        for t, alice_outcome, ray, bob_value, in_ctx, alice_value, agree in columns
    ]


def _basis_measurement(name: str, dim: int) -> ProjectiveMeasurement:
    if name == "z":
        return ProjectiveMeasurement.computational(dim)
    if name == "x" and dim == 2:
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        return ProjectiveMeasurement.from_basis(h)
    raise ConfigError(f"unsupported basis {name!r} in dimension {dim}")


def _run_signal(config: ExperimentConfig) -> RunnerOutput:
    shared = make_state([1, 0, 0, 1])  # (|00> + |11>)/sqrt(2)
    dims = (2, 2)
    settings = {}
    for label in ("0", "1"):
        basis = config.params.get(f"alice_basis{label}", "z")
        policy = policies.parse_policy(config.params.get(f"policy{label}", "born"))
        settings[label] = (_basis_measurement(basis, 2), policy)
    bob_measurement = _basis_measurement(config.params.get("bob_basis", "z"), 2)
    mode = config.params.get("mode", "analytic")
    trials = config.resolved_trials() if mode == "empirical" else None
    report = signaling.signaling_experiment(
        shared, dims, bob_measurement, settings, trials=trials, seed=config.seed
    )
    aggregate = {
        "mode": report.mode,
        "max_tv": report.max_tv,
        "channel_bits": report.channel_bits,
        "trials_per_setting": report.trials_per_setting,
        "seed": report.seed,
    }
    for label, marginal in report.bob_marginals.items():
        aggregate[f"bob_marginal_{label}"] = list(marginal)
    return [], aggregate, None


def _parse_matrix(text: str) -> np.ndarray:
    """Dense matrix literal: rows separated by ';', entries by ','."""
    rows = [
        [complex(tok.strip()) for tok in row.split(",") if tok.strip()]
        for row in text.split(";")
        if row.strip()
    ]
    return np.asarray(rows, dtype=complex)


def _config_hamiltonian(config: ExperimentConfig) -> Hamiltonian:
    if "h_matrix" in config.params:
        return Hamiltonian(_parse_matrix(config.params["h_matrix"]))
    return Hamiltonian.diagonal(_float_list(config.params.get("h_diag", "1,-1")))


def _run_energy(config: ExperimentConfig) -> RunnerOutput:
    hamiltonian = _config_hamiltonian(config)
    default_state = ",".join(["1"] * hamiltonian.dim)
    amplitudes = [
        complex(tok.strip())
        for tok in config.params.get("state", default_state).split(",")
    ]
    rho = DensityOperator.from_state(make_state(amplitudes))
    measurement = _basis_measurement(config.params.get("basis", "z"), hamiltonian.dim)
    eigenvalues = (
        _float_list(config.params["eigenvalues"])
        if "eigenvalues" in config.params
        else list(range(measurement.n_outcomes))
    )
    weights_text = config.params.get("weights", "born")
    weights = (
        None
        if weights_text == "born"
        else ProbabilityDistribution(np.asarray(_float_list(weights_text)))
    )
    audit = audit_measurement(rho, measurement, eigenvalues, hamiltonian, weights)
    aggregate = {
        "e_before": audit.e_before,
        "e_after": audit.e_after,
        "delta": audit.delta,
        "commutes": audit.commutes,
        "weights_were_born": audit.weights_were_born,
    }
    return [], aggregate, None


def _run_sat(config: ExperimentConfig) -> RunnerOutput:
    if "cnf" in config.params:
        oracle = sat.parse_dimacs(Path(config.params["cnf"]).read_text())
    else:
        oracle = sat.parse_truth_table(Path(config.params["truth_table"]).read_text())
    result = sat.decide_sat(oracle, trial_rng(config.seed))
    brute = sat.classical_brute_force(oracle)
    aggregate = {
        "n": oracle.n,
        "satisfiable": result.satisfiable,
        "witness": result.witness,
        "queries_quantum": result.queries_quantum,
        "queries_classical_oracle": result.queries_classical_oracle,
        "brute_force_satisfiable": brute.satisfiable,
        "brute_force_agrees": brute.satisfiable == result.satisfiable,
    }
    return [], aggregate, None


def _run_asc(config: ExperimentConfig) -> RunnerOutput:
    labels = tuple(tok for tok in config.params.get("labels", "0,1").split(",") if tok)
    priorities = tuple(_float_list(config.params.get("priorities", "1,1")))
    norm_values = _float_list(config.params.get("norm", "0,1"))
    alternatives = agent.AlternativeSet(labels, priorities)
    norm = agent.NormFunction(dict(zip(labels, norm_values)))
    mixing = config.params.get("mixing", 1.0)
    kind = config.params.get("agent", "collapse")
    trials = config.resolved_trials()

    records = []
    counts = np.zeros(len(labels), dtype=int)
    if kind == "collapse":
        blocks = agent.act_trials(alternatives, norm, config.seed, trials, mixing)
        shape = list(agent.COLLAPSE_STAGE_SHAPE)
    else:
        # the robot draws nothing: every trial computes the same argmax
        robot = agent.robot_act(alternatives, norm)
        blocks = (
            agent.ActBlock(t, np.full(t.size, robot.final_outcome), np.full(t.size, None))
            for t in trial_blocks(trials)
        )
        shape = list(robot.stage_shape)
    for block in blocks:
        counts += np.bincount(block.chosen, minlength=len(labels))
        if config.per_trial:
            records.extend(
                {
                    "record": "trial",
                    "trial": t,
                    "outcome": outcome,
                    "label": labels[outcome],
                    "stage_shape": shape,
                    "tie_broken": tie_broken,
                }
                for t, outcome, tie_broken in zip(
                    block.trial.tolist(), block.chosen.tolist(), block.tie_broken.tolist()
                )
            )
    reference = agent.born_reference(alternatives)
    stats = policies.deviation_statistic(counts, reference)
    df = max(len(reference.support()) - 1, 1)
    aggregate = {
        "trials": trials,
        "agent": kind,
        "counts": {label: int(c) for label, c in zip(labels, counts)},
        "born_reference": [float(p) for p in reference.probs],
        "tv": stats.tv,
        "chi2": stats.chi2,
        "chi2_df": df,
        "chi2_pvalue": float(scipy_stats.chi2.sf(stats.chi2, df)),
    }
    return records, aggregate, None


def _run_behavior(config: ExperimentConfig) -> RunnerOutput:
    mode = config.params["mode"]
    if mode == "generate":
        sequence = behavior.generate_sequence(
            config.params.get("kind", "exponential"),
            config.params.get("length", 10_000),
            trial_rng(config.seed),
            rate=config.params.get("rate", 1.0),
            alpha=config.params.get("alpha", 1.5),
            xmin=config.params.get("xmin", 1.0),
        )
        return [], {}, behavior.format_intervals(sequence)
    sequence = behavior.read_intervals(Path(config.params["input"]).read_text())
    report = behavior.classify(
        sequence,
        levy_threshold=config.params.get("levy_threshold", behavior.LEVY_THRESHOLD),
        noise_threshold=config.params.get("noise_threshold", behavior.NOISE_THRESHOLD),
    )
    aggregate = {
        "mode": "classify",
        "tail_exponent": report.tail_exponent,
        "classification": report.classification,
        "sample_size": report.sample_size,
    }
    return [], aggregate, None


RUNNERS: dict[str, Callable[[ExperimentConfig], RunnerOutput]] = {
    "ks": _run_ks,
    "fwt": _run_fwt,
    "signal": _run_signal,
    "energy": _run_energy,
    "sat": _run_sat,
    "asc": _run_asc,
    "behavior": _run_behavior,
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a validated config to its harness and assemble the report."""
    start = time.perf_counter()
    trial_records, aggregate, plain = RUNNERS[config.experiment](config)
    duration = time.perf_counter() - start
    return ExperimentReport(
        config=config.flat(),
        trials=trial_records if config.per_trial else [],
        aggregate=aggregate,
        duration_seconds=duration,
        plain_output=plain,
    )


def render_report(report: ExperimentReport, output_format: str) -> str:
    """Serialize a report; only the timing line varies between reruns."""
    if output_format == "csv":
        keys = sorted(report.aggregate)
        row = [_csv_cell(report.aggregate[k]) for k in keys]
        return ",".join(keys) + "\n" + ",".join(row) + "\n"
    lines = [json.dumps({"record": "config", **report.config}, sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in report.trials)
    lines.append(json.dumps({"record": "aggregate", **report.aggregate}, sort_keys=True))
    lines.append(
        json.dumps(
            {"record": "timing", "duration_seconds": report.duration_seconds},
            sort_keys=True,
        )
    )
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True).replace(",", ";")
    return str(value)


def _add_global_args(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps absent flags out of the namespace, so a subcommand
    # parser cannot clobber a flag given before the subcommand
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed (default 0)")
    parser.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    parser.add_argument("--format", dest="output_format", choices=OUTPUT_FORMATS,
                        default=argparse.SUPPRESS)
    parser.add_argument("--config", type=str, default=argparse.SUPPRESS,
                        help="JSON config file (flags override file values)")
    parser.add_argument("--per-trial", dest="per_trial", action="store_true",
                        default=argparse.SUPPRESS, help="emit one record per trial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsim", description="collapse-policy experiment harnesses"
    )
    _add_global_args(parser)
    sub = parser.add_subparsers(dest="experiment")

    def add_experiment(name: str) -> argparse.ArgumentParser:
        experiment_parser = sub.add_parser(name)
        _add_global_args(experiment_parser)
        return experiment_parser

    ks_parser = add_experiment("ks")
    ks_parser.add_argument("--dump-table", dest="dump_table", action="store_true",
                           default=argparse.SUPPRESS,
                           help="print the built-in ray table and exit")
    fwt = add_experiment("fwt")
    fwt.add_argument("--context", type=int, default=None)
    fwt.add_argument("--bob-ray", dest="bob_ray", type=str, default=None)
    fwt.add_argument("--policy", type=str, default=None)

    signal = add_experiment("signal")
    signal.add_argument("--policy0", type=str, default=None)
    signal.add_argument("--policy1", type=str, default=None)
    signal.add_argument("--alice-basis0", dest="alice_basis0", type=str, default=None)
    signal.add_argument("--alice-basis1", dest="alice_basis1", type=str, default=None)
    signal.add_argument("--bob-basis", dest="bob_basis", type=str, default=None)
    signal.add_argument("--mode", type=str, default=None)

    energy = add_experiment("energy")
    energy.add_argument("--h-diag", dest="h_diag", type=str, default=None)
    energy.add_argument("--h-matrix", dest="h_matrix", type=str, default=None,
                        help="dense matrix; rows split by ';', entries by ','")
    energy.add_argument("--state", type=str, default=None)
    energy.add_argument("--basis", type=str, default=None)
    energy.add_argument("--weights", type=str, default=None)
    energy.add_argument("--eigenvalues", type=str, default=None)

    sat_parser = add_experiment("sat")
    sat_parser.add_argument("--cnf", type=str, default=None)
    sat_parser.add_argument("--truth-table", dest="truth_table", type=str, default=None)

    asc = add_experiment("asc")
    asc.add_argument("--labels", type=str, default=None)
    asc.add_argument("--priorities", type=str, default=None)
    asc.add_argument("--norm", type=str, default=None)
    asc.add_argument("--mixing", type=float, default=None)
    asc.add_argument("--agent", type=str, default=None)

    behavior_parser = add_experiment("behavior")
    behavior_parser.add_argument("mode", choices=("generate", "classify"))
    behavior_parser.add_argument("--kind", type=str, default=None)
    behavior_parser.add_argument("--rate", type=float, default=None)
    behavior_parser.add_argument("--alpha", type=float, default=None)
    behavior_parser.add_argument("--xmin", type=float, default=None)
    behavior_parser.add_argument("--length", type=int, default=None)
    behavior_parser.add_argument("--input", type=str, default=None)
    behavior_parser.add_argument("--levy-threshold", dest="levy_threshold",
                                 type=float, default=None)
    behavior_parser.add_argument("--noise-threshold", dest="noise_threshold",
                                 type=float, default=None)
    return parser


def _raw_config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    raw: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config: file not found: {config_path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        raw.update(loaded)
    skip = {"config", "out"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        raw[key] = value
    if "seed" not in raw:
        raw["seed"] = 0
    return raw


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _raw_config_from_args(args)
        if raw.get("experiment") is None:
            raise ConfigError("experiment: no experiment selected")
        config = build_config(raw)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CollapsimError as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if report.plain_output is not None:
        text = report.plain_output
    else:
        text = render_report(report, config.output_format)
    out_path = getattr(args, "out", None)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
