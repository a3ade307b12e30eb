"""Single command-line entry point for all experiment harnesses.

Every experiment takes a master seed and emits a machine-readable report:
a config echo, optional per-trial records, an aggregate record and a
timing record. Re-running the same config byte-reproduces everything but
the timing line. Unknown config keys are rejected rather than ignored so a
typo cannot silently corrupt a comparison.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable

from . import behavior, harnesses
from .errors import CollapsimError, ConfigError

OUTPUT_FORMATS = ("json-lines", "csv")
#: the keys of every experiment's run, with their defaults; an unset trials
#: is the experiment's own count
RUN_KEYS: dict[str, Any] = {"seed": 0, "trials": None, "output_format": "json-lines",
                            "per_trial": False}
BASES = ("z", "x")

#: the cap that keeps a config from asking for years of trials (an interval
#: sequence's is behavior.MAX_LENGTH)
MAX_TRIALS = 10**8
#: the experiments whose runs keep per-trial records
PER_TRIAL_EXPERIMENTS = ("fwt", "asc")
#: a per-trial run holds its trials and record codes in memory, and its
#: report is written as it is rendered, 4096 records to a string:
#: 10^6 fwt records peak near 70 MB
MAX_PER_TRIAL = 10**6


@dataclass(frozen=True)
class Param:
    """One experiment parameter, stated once: its config key, type, default
    and parser. Its flag is --key with '-' for '_', unless it is positional."""

    name: str
    kind: type
    default: Any = None
    choices: tuple[str, ...] = ()
    #: from the typed value, when not None, to what the runner reads; a
    #: ValueError or CollapsimError it raises is the parameter's violation
    parse: Callable[[Any], Any] | None = None
    positional: bool = False
    #: parsed only when the experiment's mode is this (the runner reads it only then)
    when_mode: str | None = None
    help: str | None = None

    def coerce(self, value: Any) -> Any:
        """The typed value. Text and booleans are strict, and so are numbers: a
        boolean is no number and a float is no int, though numeric text is a
        number; raises ValueError, TypeError or OverflowError."""
        if self.kind in (bool, str):
            if not isinstance(value, self.kind):
                raise ValueError(value)
            return value
        if isinstance(value, bool) or (self.kind is int and isinstance(value, float)):
            raise ValueError(value)
        return self.kind(value)


@dataclass(frozen=True)
class Experiment:
    """An experiment's runner, the check of what spans several of its
    parameters (called with the parsed values and the keys the config sets,
    once every parameter parsed), its default trial count and its parameters."""

    runner: Callable[[dict[str, Any]], harnesses.RunnerOutput]
    check: Callable[[dict[str, Any], Collection[str]], list[str]] | None
    trials: int
    params: tuple[Param, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    #: the config record: the experiment, every run key but an unset trials,
    #: and the typed value of each parameter the config sets, so parameter
    #: defaults are never echoed
    echo: dict[str, Any]
    #: what the runner reads: every parameter's parsed value, defaults filled
    #: in, and every run key's, trials resolved to the experiment's count
    params: dict[str, Any]


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, Any]
    #: the per-trial records, present only when the config asks for them
    trials: harnesses.TrialTable | None
    aggregate: dict[str, Any]
    duration_seconds: float
    #: set for plain-file outputs (interval sequences, ray-table dumps): their pieces
    plain_output: Iterable[str] | None = None


def validate(raw: dict[str, Any]) -> list[str]:
    """All violations of a flat config mapping; empty means runnable. The
    classify input file is read, and reported if unreadable, only by the run."""
    return _parse(raw)[1]


def build_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Construct a validated config; raises ConfigError listing violations."""
    config, violations = _parse(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    return config


def _parse(raw: dict[str, Any]) -> tuple[ExperimentConfig | None, list[str]]:
    """The config of a flat mapping, each parameter parsed once, and all the
    mapping's violations; the config is None when there are any."""
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        return None, [f"experiment: unknown experiment {experiment!r}"]
    spec = SPECS[experiment]
    keys = _KEYS[experiment]
    violations = [
        f"{key}: unknown key for experiment {experiment!r}" for key in raw if key not in keys
    ]
    run_values = {key: raw.get(key, default) for key, default in RUN_KEYS.items()}
    violations.extend(_validate_run(experiment, run_values))
    echo = {"experiment": experiment}
    echo.update((k, v) for k, v in run_values.items() if v is not None)
    params: dict[str, Any] = {}
    for param in spec.params:
        value = raw.get(param.name, param.default)
        if param.name in raw:
            try:
                value = echo[param.name] = param.coerce(value)
            except (TypeError, ValueError, OverflowError):
                expected = "a boolean" if param.kind is bool else param.kind.__name__
                violations.append(f"{param.name}: expected {expected}, got {value!r}")
                continue
        params[param.name] = value
        if param.when_mode is not None and param.when_mode != params.get("mode"):
            continue
        if param.choices and value not in param.choices:
            violations.append(f"{param.name}: must be " + " or ".join(map(repr, param.choices)))
        elif param.parse and value is not None:
            try:
                params[param.name] = param.parse(value)
            except ConfigError as exc:  # names its key itself
                violations.append(str(exc))
            except (ValueError, CollapsimError) as exc:
                violations.append(f"{param.name}: {exc}")
    if not violations and spec.check:
        violations.extend(spec.check(params, raw.keys()))
    if violations:
        return None, violations
    params.update(run_values, trials=run_values["trials"] or spec.trials)
    return ExperimentConfig(experiment, echo, params), []


def _validate_run(experiment: str, values: dict[str, Any]) -> list[str]:
    """The violations of the run keys' values, defaults filled in."""
    violations = []
    seed, trials = values["seed"], values["trials"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        violations.append("seed: must be a 64-bit unsigned integer")
    if trials is not None and (
        not isinstance(trials, int) or isinstance(trials, bool) or trials < 1
    ):
        violations.append("trials: must be a positive integer")
    elif trials is not None and trials > MAX_TRIALS:
        violations.append(f"trials: must be at most {MAX_TRIALS}")
    output_format, per_trial = values["output_format"], values["per_trial"]
    if output_format not in OUTPUT_FORMATS:
        violations.append(f"output_format: must be one of {OUTPUT_FORMATS}")
    if not isinstance(per_trial, bool):
        violations.append("per_trial: must be a boolean")
    elif per_trial and output_format == "csv":
        violations.append("per_trial: a csv report has no per-trial records; use json-lines")
    elif per_trial and experiment not in PER_TRIAL_EXPERIMENTS:
        violations.append(f"per_trial: experiment {experiment!r} keeps no per-trial records")
    elif per_trial and isinstance(trials, int) and trials > MAX_PER_TRIAL:
        violations.append(f"per_trial: at most {MAX_PER_TRIAL} trials keep per-trial records")
    return violations


# --- parsers and checks -----------------------------------------------------


def _within(low: float, high: float, message: str) -> Callable[[Any], Any]:
    def parse(value: Any) -> Any:
        if not low <= value <= high:
            raise ValueError(message)
        return value

    return parse


def _positive(value: float) -> float:
    if not value > 0:  # NaN is not positive
        raise ValueError("must be positive")
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _length(length: int) -> int:
    if length < 100:
        raise ValueError("must be at least 100")
    if length > behavior.MAX_LENGTH:
        raise ValueError(f"must be at most {behavior.MAX_LENGTH}")
    return length


def _check_energy(p: dict[str, Any], given: Collection[str]) -> list[str]:
    if "h_diag" in given and "h_matrix" in given:
        return ["h_matrix: provide h_diag or h_matrix, not both"]
    dim = (p["h_matrix"] or p["h_diag"]).dim
    violations = [
        f"{key}: length must match the hamiltonian"
        for key in ("state", "weights", "eigenvalues")
        if p[key] is not None and len(p[key]) != dim
    ]
    if p["basis"] == "x" and dim != 2:
        violations.append("basis: 'x' requires dimension 2")
    return violations


def _check_sat(p: dict[str, Any], given: Collection[str]) -> list[str]:
    if (p["cnf"] is None) == (p["truth_table"] is None):
        return ["sat: provide exactly one of cnf or truth_table"]
    return []


def _check_asc(p: dict[str, Any], given: Collection[str]) -> list[str]:
    labels, priorities = p["labels"], p["priorities"]
    violations = []
    if len(set(labels)) != len(labels):
        violations.append("labels: must be distinct")
    if len(priorities) != len(labels):
        violations.append("priorities: length must match labels")
    elif any(x < 0 for x in priorities) or not any(x > 0 for x in priorities):
        violations.append("priorities: need non-negative values, at least one positive")
    if len(p["norm"]) != len(labels):
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
    "fwt": Experiment(harnesses.run_fwt, None, 1000, (
        Param("context", int, 1, parse=_within(1, 9, "must lie in 1..9")),
        Param("bob_ray", str, "random", parse=harnesses.table_ray),
        Param("policy", str, "born", parse=harnesses.collapse_policy),
    )),
    "signal": Experiment(harnesses.run_signal, None, 10_000, (
        Param("policy0", str, "born", parse=harnesses.collapse_policy),
        Param("policy1", str, "born", parse=harnesses.collapse_policy),
        Param("alice_basis0", str, "z", choices=BASES),
        Param("alice_basis1", str, "z", choices=BASES),
        Param("bob_basis", str, "z", choices=BASES),
        Param("mode", str, "analytic", choices=("analytic", "empirical")),
    )),
    "energy": Experiment(harnesses.run_energy, _check_energy, 1, (
        Param("h_diag", str, "1,-1", parse=harnesses.diagonal_hamiltonian),
        Param("h_matrix", str, parse=harnesses.dense_hamiltonian,
              help="dense matrix; rows split by ';', entries by ','"),
        Param("state", str, parse=harnesses.complex_list),
        Param("basis", str, "z", choices=BASES),
        Param("weights", str, "born", parse=harnesses.energy_weights),
        Param("eigenvalues", str, parse=harnesses.float_list),
    )),
    "sat": Experiment(harnesses.run_sat, _check_sat, 1, (
        Param("cnf", str, parse=harnesses.cnf_oracle),
        Param("truth_table", str, parse=harnesses.truth_table_oracle),
    )),
    "asc": Experiment(harnesses.run_asc, _check_asc, 1000, (
        Param("labels", str, "0,1", parse=harnesses.label_list),
        Param("priorities", str, "1,1", parse=harnesses.float_list),
        Param("norm", str, "0,1", parse=harnesses.float_list),
        Param("mixing", float, 1.0, parse=_within(0.0, 1.0, "must lie in [0, 1]")),
        Param("agent", str, "collapse", choices=("collapse", "compute")),
    )),
    "behavior": Experiment(harnesses.run_behavior, _check_behavior, 1, (
        Param("mode", str, choices=("generate", "classify"), positional=True),
        Param("kind", str, "exponential", choices=("exponential", "pareto"),
              when_mode="generate"),
        Param("rate", float, 1.0, parse=_positive, when_mode="generate"),
        Param("alpha", float, 1.5, parse=_positive, when_mode="generate"),
        Param("xmin", float, 1.0, parse=_positive, when_mode="generate"),
        Param("length", int, 10_000, parse=_length, when_mode="generate"),
        Param("input", str),
        Param("levy_threshold", float, behavior.LEVY_THRESHOLD, parse=_positive),
        Param("noise_threshold", float, behavior.NOISE_THRESHOLD, parse=_positive),
    )),
}

EXPERIMENTS = tuple(SPECS)
#: the keys a config of each experiment may set
_KEYS = {name: {"experiment", *RUN_KEYS, *(p.name for p in s.params)} for name, s in SPECS.items()}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a validated config to its harness and assemble the report."""
    start = time.perf_counter()
    trials, aggregate, plain = SPECS[config.experiment].runner(config.params)
    duration = time.perf_counter() - start
    return ExperimentReport(
        config=config.echo,
        trials=trials,
        aggregate=aggregate,
        duration_seconds=duration,
        plain_output=plain,
    )


def render_report(report: ExperimentReport, output_format: str) -> str:
    """Serialize a report; only the timing line varies between reruns."""
    return "".join(_report_chunks(report, output_format))


def _report_chunks(report: ExperimentReport, output_format: str) -> Iterable[str]:
    """The serialized report in consecutive pieces: the config, aggregate and
    timing lines rendered now, and between them the per-trial lines, joined by
    the trial table (harnesses.TrialTable.chunks) as they are asked for."""
    if output_format == "csv":
        keys = sorted(report.aggregate)
        row = [_csv_cell(report.aggregate[k]) for k in keys]
        return [",".join(keys) + "\n" + ",".join(row) + "\n"]
    config = harnesses.dumps({"record": "config", **report.config})
    chunks = [] if report.trials is None else report.trials.chunks()
    aggregate = harnesses.dumps({"record": "aggregate", **report.aggregate})
    # dumps's bytes for the one float: its repr, keys sorted
    timing = f'{{"duration_seconds": {float(report.duration_seconds)!r}, "record": "timing"}}'
    return itertools.chain([config + "\n"], chunks, [f"{aggregate}\n{timing}\n"])


def _csv_cell(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return harnesses.dumps(value).replace(",", ";")
    return str(value)


#: the flags of every experiment: flag -> (raw config key, value type, its
#: name in the usage, help); a bool flag takes no value, an int one is read
#: as an int, the rest as text
GLOBAL_FLAGS: dict[str, tuple[str, type, str, str]] = {
    "--seed": ("seed", int, "INT", "master seed (default 0)"),
    "--trials": ("trials", int, "INT", "trial count"),
    "--out": ("out", str, "PATH", "output path (default stdout)"),
    "--format": ("output_format", str, "FORMAT", "json-lines or csv (default json-lines)"),
    "--config": ("config", str, "PATH", "JSON config file (flags override file values)"),
    "--per-trial": ("per_trial", bool, "",
                    f"emit one record per trial ({' and '.join(PER_TRIAL_EXPERIMENTS)} only)"),
}


@functools.cache
def _flags(experiment: str | None) -> dict[str, tuple[str, type, str, str]]:
    """The flags valid after the experiment name (before it when None)."""
    flags = dict(GLOBAL_FLAGS)
    if experiment is None:
        return flags
    spec = SPECS[experiment]
    flags["--trials"] = ("trials", int, "INT", f"trial count (default {spec.trials})")
    for param in spec.params:
        if param.positional:
            continue
        text = param.help or ("" if param.default is None else f"default {param.default}")
        if param.choices:
            text = " or ".join(param.choices) + (f" ({text})" if text else "")
        flag = "--" + param.name.replace("_", "-")
        if param.kind is bool:
            flags[flag] = (param.name, bool, "", text)
        else:
            flags[flag] = (param.name, str, param.kind.__name__.upper(), text)
    return flags


def _read_argv(argv: list[str]) -> dict[str, Any]:
    """The raw config argv spells, read in one left-to-right pass, with the
    "out" and "config" paths among its keys; a later flag overrides an
    earlier one.

    Global flags go before or after the experiment name, its own flags after
    it. A flag is spelled in full, with its value as the next argument or
    after "="; a next argument that starts with "--" is no value. --seed and
    --trials are read as ints; every other value stays text for _parse.
    Raises ConfigError at the first argument it cannot read; -h or --help
    prints the usage and exits 0.
    """
    raw: dict[str, Any] = {}
    experiment = None
    positional: list[Param] = []
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            _emit([_usage(experiment)], None)
            raise SystemExit(0)
        if not arg.startswith("--"):
            if experiment is None:
                if arg not in SPECS:
                    raise ConfigError(f"experiment: unknown experiment {arg!r}")
                experiment = raw["experiment"] = arg
                positional = [p for p in SPECS[arg].params if p.positional]
            elif positional:
                raw[positional.pop(0).name] = arg
            else:
                raise ConfigError(f"unexpected argument {arg!r} after {experiment!r}")
            continue
        flag, equals, value = arg.partition("=")
        known = _flags(experiment).get(flag)
        if known is None:
            where = f"for experiment {experiment!r}" if experiment else "before the experiment"
            raise ConfigError(f"{flag}: unknown flag {where}")
        key, kind, _, _ = known
        if kind is bool:
            if equals:
                raise ConfigError(f"{flag}: takes no value")
            raw[key] = True
            continue
        if not equals:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{flag}: needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"{key}: expected int, got {value!r}") from None
        raw[key] = value
    return raw


def _usage(experiment: str | None) -> str:
    """The --help text, from SPECS."""
    if experiment is None:
        lines = ["usage: collapsim [flags] EXPERIMENT [flags]", "",
                 "experiments: " + ", ".join(SPECS) + "; EXPERIMENT --help lists its flags"]
    else:
        words = ["{" + ",".join(p.choices) + "}" for p in SPECS[experiment].params if p.positional]
        lines = [" ".join(["usage: collapsim", experiment, *words, "[flags]"])]
    lines += ["", "flags:"]
    for flag, (_, _, metavar, text) in _flags(experiment).items():
        spelled = f"{flag} {metavar}" if metavar else flag
        lines.append(f"  {spelled:<26}{text}".rstrip())
    return "\n".join(lines) + "\n"


def _read_config(path: str) -> dict[str, Any]:
    """The flat mapping of a JSON config file."""
    try:
        loaded = json.loads("".join(harnesses.read_text("config", path, harnesses.MAX_FILE_BYTES)))
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigError(f"config: not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config: top level must be a JSON object")
    return loaded


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write each chunk whole to stdout when out_path is None, or as UTF-8 to
    out_path's buffered binary file, and flush it. A failed write is a
    ConfigError, an empty path too; after one, stdout's fd points at os.devnull,
    so the interpreter's flush at exit has nowhere left to fail."""
    to_stdout = out_path is None
    try:
        with contextlib.nullcontext(sys.stdout) if to_stdout else open(out_path, "wb") as out:
            out.writelines(chunks if to_stdout else map(str.encode, chunks))
            out.flush()
    except OSError as exc:
        if to_stdout:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = "stdout" if to_stdout else out_path
        raise ConfigError(f"out: cannot write {where}: {exc.strerror}") from exc


#: a message's line breaks, escaped so that it prints as one line
_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r"})


def main(argv: list[str] | None = None) -> int:
    try:
        raw = _read_argv(sys.argv[1:] if argv is None else argv)
        out_path, config_path = raw.pop("out", None), raw.pop("config", None)
        if config_path is not None:
            raw = {**_read_config(config_path), **raw}
        if raw.get("experiment") is None:
            raise ConfigError("experiment: no experiment selected")
        config = build_config(raw)
        if out_path is not None:  # a path open() would refuse, found before the run
            if "\0" in out_path:
                raise ConfigError("out: embedded null byte")
            try:
                if os.path.isdir(out_path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                os.stat(os.path.join(os.path.dirname(out_path), ".") if out_path else out_path)
            except OSError as exc:
                raise ConfigError(f"out: cannot write {out_path}: {exc.strerror}") from exc
        report = run(config)
        chunks = report.plain_output
        if chunks is None:
            chunks = _report_chunks(report, config.params["output_format"])
        _emit(chunks, out_path)
    except CollapsimError as exc:
        bad_config = isinstance(exc, ConfigError)
        kind = "config error" if bad_config else f"{type(exc).__module__}.{type(exc).__name__}"
        print(f"{kind}: {exc}".translate(_ONE_LINE), file=sys.stderr)
        return 2 if bad_config else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
