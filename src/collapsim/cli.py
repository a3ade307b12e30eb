"""Single command-line entry point for all experiment harnesses.

Every experiment takes a master seed and emits a machine-readable report:
a config echo, optional per-trial records, an aggregate record and a
timing record. Re-running the same config byte-reproduces everything but
the timing line. Unknown config keys are rejected rather than ignored so a
typo cannot silently corrupt a comparison.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection

from . import behavior, harnesses, kochen_specker, policies
from .errors import CollapsimError, ConfigError
from .harnesses import complex_list, fixed_ray, float_list, label_list, parse_matrix

OUTPUT_FORMATS = ("json-lines", "csv")
GLOBAL_KEYS = ("experiment", "seed", "trials", "output_format", "per_trial")
BASES = ("z", "x")

#: caps that keep a config from asking for years of trials or a
#: multi-gigabyte interval sequence (float64 intervals, 8 bytes each)
MAX_TRIALS = 10**8
MAX_LENGTH = 10**7
#: energy's dense update holds d projectors of d×d: 4 MB at this cap
MAX_ENERGY_DIM = 64


@dataclass(frozen=True)
class Param:
    """One experiment parameter, stated once: its config key, type, default
    and single-field check. Its flag is --key with '-' for '_', unless it is
    positional."""

    name: str
    kind: type
    default: Any = None
    choices: tuple[str, ...] = ()
    #: what is wrong with a typed value, or None
    check: Callable[[Any], str | None] | None = None
    positional: bool = False
    #: checked only when the experiment's mode is this (the runner reads it only then)
    when_mode: str | None = None
    help: str | None = None

    def coerce(self, value: Any) -> Any:
        """The typed value. Numbers are strict: a boolean is no number and a
        float is no int; raises ValueError, TypeError or OverflowError."""
        if self.kind is bool:
            if not isinstance(value, bool):
                raise ValueError(value)
            return value
        if self.kind is not str and (
            isinstance(value, bool) or (self.kind is int and isinstance(value, float))
        ):
            raise ValueError(value)
        return self.kind(value)


@dataclass(frozen=True)
class Experiment:
    """An experiment's runner, the check of what spans several of its
    parameters (called with the defaulted values and the keys the config
    sets, once every single-field check passed), its default trial count
    and its parameters."""

    runner: Callable[[ExperimentConfig], harnesses.RunnerOutput]
    check: Callable[[dict[str, Any], Collection[str]], list[str]] | None
    trials: int
    params: tuple[Param, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int | None = None
    output_format: str = "json-lines"
    per_trial: bool = False
    #: only the parameters the config sets, so defaults are never echoed
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

    def resolved_params(self) -> dict[str, Any]:
        """Every parameter of the experiment, defaults filled in."""
        return {
            p.name: self.params.get(p.name, p.default)
            for p in SPECS[self.experiment].params
        }

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return SPECS[self.experiment].trials


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, Any]
    trials: list[dict[str, Any]]
    aggregate: dict[str, Any]
    duration_seconds: float
    #: set for plain-file outputs (interval sequences, ray-table dumps)
    plain_output: str | None = None


def validate(raw: dict[str, Any]) -> list[str]:
    """All violations of a flat config mapping; empty means runnable. The
    classify input file is read, and reported if unreadable, only by the run."""
    violations: list[str] = []
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        violations.append(f"experiment: unknown experiment {experiment!r}")
        return violations
    spec = SPECS[experiment]
    names = {p.name for p in spec.params}
    for key in raw:
        if key not in GLOBAL_KEYS and key not in names:
            violations.append(f"{key}: unknown key for experiment {experiment!r}")
    violations.extend(_validate_globals(raw))
    values, param_errors = _coerce_params(spec, raw)
    violations.extend(param_errors)
    if not violations and spec.check:
        violations.extend(spec.check(values, raw.keys()))
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
    elif trials is not None and trials > MAX_TRIALS:
        violations.append(f"trials: must be at most {MAX_TRIALS}")
    output_format = raw.get("output_format", "json-lines")
    if output_format not in OUTPUT_FORMATS:
        violations.append(f"output_format: must be one of {OUTPUT_FORMATS}")
    per_trial = raw.get("per_trial", False)
    if not isinstance(per_trial, bool):
        violations.append("per_trial: must be a boolean")
    return violations


def _coerce_params(
    spec: Experiment, raw: dict[str, Any]
) -> tuple[dict[str, Any], list[str]]:
    """Typed values of every parameter, defaults filled in, and the
    violations of the single-field checks."""
    values: dict[str, Any] = {}
    errors: list[str] = []
    for param in spec.params:
        value = raw.get(param.name, param.default)
        if param.name in raw:
            try:
                value = param.coerce(value)
            except (TypeError, ValueError, OverflowError):
                expected = "a boolean" if param.kind is bool else param.kind.__name__
                errors.append(f"{param.name}: expected {expected}, got {value!r}")
                continue
        values[param.name] = value
        if param.when_mode not in (None, values.get("mode")):
            continue
        if param.choices and value not in param.choices:
            errors.append(f"{param.name}: must be " + " or ".join(map(repr, param.choices)))
        elif param.check and (problem := param.check(value)):
            errors.append(f"{param.name}: {problem}")
    return values, errors


def build_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Construct a validated config; raises ConfigError listing violations."""
    violations = validate(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    params = {
        p.name: p.coerce(raw[p.name]) for p in SPECS[raw["experiment"]].params if p.name in raw
    }
    return ExperimentConfig(params=params, **{k: raw[k] for k in GLOBAL_KEYS if k in raw})


# --- checks ----------------------------------------------------------------


def _within(low: float, high: float, message: str) -> Callable[[Any], str | None]:
    return lambda value: None if low <= value <= high else message


def _positive(value: float) -> str | None:
    if not value > 0:  # NaN is not positive
        return "must be positive"
    return None if math.isfinite(value) else "must be finite"


def _length_problem(length: int) -> str | None:
    if length < 100:
        return "must be at least 100"
    if length > MAX_LENGTH:
        return f"must be at most {MAX_LENGTH}"
    return None


def _policy_problem(text: str) -> str | None:
    try:
        policies.parse_policy(text)
    except CollapsimError as exc:
        return str(exc)
    return None


def _check_fwt(p: dict[str, Any], given: Collection[str]) -> list[str]:
    try:
        ray = fixed_ray(p["bob_ray"])
    except (ValueError, CollapsimError):
        return [f"bob_ray: not a ray: {p['bob_ray']!r}"]
    if ray is not None and ray not in kochen_specker.builtin_ks_table().ray_index:
        return [f"bob_ray: {ray} is not one of the table's 18 directions"]
    return []


def _check_energy(p: dict[str, Any], given: Collection[str]) -> list[str]:
    if "h_diag" in given and "h_matrix" in given:
        return ["h_matrix: provide h_diag or h_matrix, not both"]
    violations = []
    try:
        if p["h_matrix"] is not None:
            matrix = parse_matrix(p["h_matrix"])
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                return ["h_matrix: must be square (rows split by ';')"]
            dim = matrix.shape[0]
        else:
            dim = len(float_list(p["h_diag"]))
        if dim > MAX_ENERGY_DIM:
            return [f"h_diag/h_matrix: dimension must be at most {MAX_ENERGY_DIM}"]
        if p["state"] is not None and len(complex_list(p["state"])) != dim:
            violations.append("state: length must match the hamiltonian")
    except ValueError:
        return ["h_diag/h_matrix/state: must be comma-separated finite numbers"]
    if p["basis"] == "x" and dim != 2:
        violations.append("basis: 'x' requires dimension 2")
    if p["weights"] != "born":
        try:
            w = float_list(p["weights"])
            if len(w) != dim:
                violations.append("weights: length must match the hamiltonian")
            elif abs(sum(w) - 1.0) > 1e-9 or any(x < 0 for x in w):
                violations.append("weights: must be a probability vector")
        except ValueError:
            violations.append("weights: must be 'born' or comma-separated finite numbers")
    if p["eigenvalues"] is not None:
        try:
            if len(float_list(p["eigenvalues"])) != dim:
                violations.append("eigenvalues: length must match the hamiltonian")
        except ValueError:
            violations.append("eigenvalues: must be comma-separated finite numbers")
    return violations


def _check_sat(p: dict[str, Any], given: Collection[str]) -> list[str]:
    sources = [key for key in ("cnf", "truth_table") if p[key] is not None]
    if len(sources) != 1:
        return ["sat: provide exactly one of cnf or truth_table"]
    try:
        harnesses.load_oracle(p)
    except ConfigError as exc:  # the file cannot be read
        return [str(exc)]
    except CollapsimError as exc:
        return [f"{sources[0]}: {exc}"]
    return []


def _check_asc(p: dict[str, Any], given: Collection[str]) -> list[str]:
    labels = label_list(p["labels"])
    try:
        priorities = float_list(p["priorities"])
        norm_values = float_list(p["norm"])
    except ValueError:
        return ["priorities/norm: must be comma-separated finite numbers"]
    violations = []
    if len(set(labels)) != len(labels):
        violations.append("labels: must be distinct")
    if len(priorities) != len(labels):
        violations.append("priorities: length must match labels")
    elif any(x < 0 for x in priorities) or not any(x > 0 for x in priorities):
        violations.append("priorities: need non-negative values, at least one positive")
    if len(norm_values) != len(labels):
        violations.append("norm: length must match labels")
    return violations


def _check_behavior(p: dict[str, Any], given: Collection[str]) -> list[str]:
    if p["mode"] != "classify":
        return []
    violations = []
    if p["input"] is None:
        violations.append("input: required for classify")
    if not 0 < p["levy_threshold"] <= p["noise_threshold"]:
        violations.append("levy_threshold: must satisfy 0 < levy <= noise")
    return violations


# --- the experiments ---------------------------------------------------------


SPECS: dict[str, Experiment] = {
    "ks": Experiment(harnesses.run_ks, None, 1, (
        Param("dump_table", bool, False, help="print the built-in ray table and exit"),
    )),
    "fwt": Experiment(harnesses.run_fwt, _check_fwt, 1000, (
        Param("context", int, 1, check=_within(1, 9, "must lie in 1..9")),
        Param("bob_ray", str, "random"),
        Param("policy", str, "born", check=_policy_problem),
    )),
    "signal": Experiment(harnesses.run_signal, None, 10_000, (
        Param("policy0", str, "born", check=_policy_problem),
        Param("policy1", str, "born", check=_policy_problem),
        Param("alice_basis0", str, "z", choices=BASES),
        Param("alice_basis1", str, "z", choices=BASES),
        Param("bob_basis", str, "z", choices=BASES),
        Param("mode", str, "analytic", choices=("analytic", "empirical")),
    )),
    "energy": Experiment(harnesses.run_energy, _check_energy, 1, (
        Param("h_diag", str, "1,-1"),
        Param("h_matrix", str, help="dense matrix; rows split by ';', entries by ','"),
        Param("state", str),
        Param("basis", str, "z", choices=BASES),
        Param("weights", str, "born"),
        Param("eigenvalues", str),
    )),
    "sat": Experiment(harnesses.run_sat, _check_sat, 1, (
        Param("cnf", str),
        Param("truth_table", str),
    )),
    "asc": Experiment(harnesses.run_asc, _check_asc, 1000, (
        Param("labels", str, "0,1"),
        Param("priorities", str, "1,1"),
        Param("norm", str, "0,1"),
        Param("mixing", float, 1.0, check=_within(0.0, 1.0, "must lie in [0, 1]")),
        Param("agent", str, "collapse", choices=("collapse", "compute")),
    )),
    "behavior": Experiment(harnesses.run_behavior, _check_behavior, 1, (
        Param("mode", str, choices=("generate", "classify"), positional=True),
        Param("kind", str, "exponential", choices=("exponential", "pareto"),
              when_mode="generate"),
        Param("rate", float, 1.0, check=_positive, when_mode="generate"),
        Param("alpha", float, 1.5, check=_positive, when_mode="generate"),
        Param("xmin", float, 1.0, check=_positive, when_mode="generate"),
        Param("length", int, 10_000, check=_length_problem, when_mode="generate"),
        Param("input", str),
        Param("levy_threshold", float, behavior.LEVY_THRESHOLD),
        Param("noise_threshold", float, behavior.NOISE_THRESHOLD),
    )),
}

EXPERIMENTS = tuple(SPECS)


def run(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a validated config to its harness and assemble the report."""
    start = time.perf_counter()
    trial_records, aggregate, plain = SPECS[config.experiment].runner(config)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, derived from SPECS; built once per process."""
    # SUPPRESS keeps absent flags out of the namespace, so a subcommand
    # parser cannot clobber a flag given before the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--trials", type=int)
    common.add_argument("--out", type=str, help="output path (default stdout)")
    common.add_argument("--format", dest="output_format", choices=OUTPUT_FORMATS)
    common.add_argument("--config", type=str,
                        help="JSON config file (flags override file values)")
    common.add_argument("--per-trial", dest="per_trial", action="store_true",
                        help="emit one record per trial")
    parser = argparse.ArgumentParser(
        prog="collapsim", description="collapse-policy experiment harnesses", parents=[common]
    )
    sub = parser.add_subparsers(dest="experiment")
    for name, spec in SPECS.items():
        experiment_parser = sub.add_parser(
            name, parents=[common], argument_default=argparse.SUPPRESS
        )
        for param in spec.params:
            if param.positional:
                experiment_parser.add_argument(param.name, choices=param.choices)
                continue
            flag = "--" + param.name.replace("_", "-")
            parse = {"action": "store_true"} if param.kind is bool else {"type": param.kind}
            experiment_parser.add_argument(flag, dest=param.name, help=param.help, **parse)
    return parser


def _raw_config_from_args(args: argparse.Namespace) -> dict[str, Any]:
    raw: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        text = harnesses.read_text("config", config_path)
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ConfigError(f"config: not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        raw.update(loaded)
    skip = {"config", "out"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        raw[key] = value
    return raw


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = _raw_config_from_args(args)
        if raw.get("experiment") is None:
            raise ConfigError("experiment: no experiment selected")
        config = build_config(raw)
        report = run(config)
        if report.plain_output is not None:
            text = report.plain_output
        else:
            text = render_report(report, config.output_format)
        out_path = getattr(args, "out", None)
        if out_path:
            try:
                Path(out_path).write_text(text)
            except OSError as exc:
                raise ConfigError(f"out: cannot write {out_path}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CollapsimError as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
