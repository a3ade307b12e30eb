"""The seven experiment harnesses behind the command line.

Each runner takes a validated config, whose parameters validation already
parsed with the parsers below, and returns the per-trial records, the
aggregate record and, for plain-file outputs, the text to write instead of a
report. No runner parses parameter text; only the classify input file is
read by its run.
"""

from __future__ import annotations

import cmath
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

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

if TYPE_CHECKING:
    from .cli import ExperimentConfig

RunnerOutput = tuple[list[dict], dict, str | None]


# --- parameter text ----------------------------------------------------------
# Validation parses each parameter once, with these parsers, into the object
# its runner reads. What a parser raises, a ValueError or a CollapsimError, is
# that parameter's violation; a ConfigError names its key itself. Library
# parsers are called through their modules (sat.parse_dimacs), so a rebound
# module attribute is the one that runs.

#: energy's dense update holds d projectors of d×d: 4 MB at this cap
MAX_ENERGY_DIM = 64


def _numbers(convert: Callable[[str], Any], tokens: list[str]) -> list:
    """The finite numbers the tokens spell; ValueError otherwise."""
    try:
        values = [convert(tok) for tok in tokens]
        if all(map(cmath.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ValueError("must be comma-separated finite numbers")


def float_list(text: str) -> list[float]:
    return _numbers(float, [tok for tok in text.split(",") if tok.strip()])


def complex_list(text: str) -> list[complex]:
    return _numbers(complex, [tok.strip() for tok in text.split(",")])


def label_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def collapse_policy(text: str) -> policies.CollapsePolicy:
    return policies.parse_policy(text)


def table_ray(text: str) -> kochen_specker.Ray | None:
    """The built-in table's ray a bob_ray value names; None for 'random'."""
    if text == "random":
        return None
    try:
        ray = kochen_specker.Ray(tuple(int(c) for c in text.split(",")))
    except (ValueError, CollapsimError):
        raise ValueError(f"not a ray: {text!r}") from None
    if ray not in kochen_specker.builtin_ks_table().ray_index:
        raise ValueError(f"{ray} is not one of the table's 18 directions")
    return ray


def _energy_levels(dim: int) -> None:
    if dim < 1:
        raise ValueError("must not be empty")
    if dim > MAX_ENERGY_DIM:
        raise ConfigError(f"h_diag/h_matrix: dimension must be at most {MAX_ENERGY_DIM}")


def diagonal_hamiltonian(text: str) -> Hamiltonian:
    energies = float_list(text)
    _energy_levels(len(energies))
    return Hamiltonian.diagonal(energies)


def dense_hamiltonian(text: str) -> Hamiltonian:
    """Dense matrix literal: rows separated by ';', entries by ','."""
    rows = [
        _numbers(complex, [tok.strip() for tok in row.split(",") if tok.strip()])
        for row in text.split(";")
        if row.strip()
    ]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("must be square (rows split by ';')")
    _energy_levels(len(rows))
    return Hamiltonian(np.array(rows, dtype=complex))


def energy_weights(text: str) -> ProbabilityDistribution | None:
    """The update's outcome weights; None for 'born'."""
    if text == "born":
        return None
    try:
        weights = np.asarray(float_list(text))
    except ValueError:
        raise ValueError("must be 'born' or comma-separated finite numbers") from None
    try:
        with np.errstate(over="ignore"):  # an overflowing sum is refused
            return ProbabilityDistribution(weights)
    except ValueError:
        raise ValueError("must be a probability vector") from None


def cnf_oracle(path: str) -> sat.OracleFunction:
    return sat.parse_dimacs(read_text("cnf", path))


def truth_table_oracle(path: str) -> sat.OracleFunction:
    return sat.parse_truth_table(read_text("truth_table", path))


def read_text(key: str, path: str) -> str:
    """The UTF-8 text of the file config key `key` names; ConfigError if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"{key}: file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{key}: not UTF-8 text: {path}: {exc.reason}") from exc


def _basis_measurement(name: str, dim: int) -> ProjectiveMeasurement:
    if name == "z":
        return ProjectiveMeasurement.computational(dim)
    if name == "x" and dim == 2:
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        return ProjectiveMeasurement.from_basis(h)
    raise ConfigError(f"unsupported basis {name!r} in dimension {dim}")


# --- runners -----------------------------------------------------------------


def run_ks(config: ExperimentConfig) -> RunnerOutput:
    table = kochen_specker.builtin_ks_table()
    if config.params["dump_table"]:
        # ray-table text format for external checkers
        return [], {}, kochen_specker.format_table(table) + "\n"
    aggregate = {
        **asdict(kochen_specker.ks_coloring_search(table)),
        "parity_certificate": kochen_specker.parity_certificate(table),
        "table_violations": kochen_specker.validate_table(table),
        "contexts": len(table.contexts),
        "distinct_rays": len(table.ray_index),
    }
    return [], aggregate, None


def run_fwt(config: ExperimentConfig) -> RunnerOutput:
    p = config.params
    trials = config.resolved_trials()
    ray_names = [str(ray) for ray in kochen_specker.builtin_ks_table().distinct_rays]

    records = []
    in_context = agreements = detections = 0
    blocks = kochen_specker.fwt_trials(
        p["context"], p["bob_ray"], p["policy"], config.seed, trials
    )
    for block in blocks:
        detections += int(block.bob_value.sum())
        in_context += int(block.in_context.sum())
        agreements += int(block.agree.sum())
        if config.per_trial:
            records.extend(_fwt_records(block, ray_names))
    aggregate = {
        "trials": trials,
        "context": p["context"],
        "policy": policies.describe_policy(p["policy"]),
        "in_context_trials": in_context,
        "agreements": agreements,
        "agreement_exact": agreements == in_context,
        "detections": detections,
        "detection_rate": detections / trials,
    }
    return records, aggregate, None


def _fwt_records(block: kochen_specker.FwtBlock, ray_names: list[str]) -> list[dict]:
    columns = zip(*(column.tolist() for column in block), block.agree.tolist())
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
        for t, ray, alice_outcome, bob_value, in_ctx, alice_value, agree in columns
    ]


def run_signal(config: ExperimentConfig) -> RunnerOutput:
    shared = make_state([1, 0, 0, 1])  # (|00> + |11>)/sqrt(2)
    dims = (2, 2)
    p = config.params
    settings = {
        label: (_basis_measurement(p[f"alice_basis{label}"], 2), p[f"policy{label}"])
        for label in ("0", "1")
    }
    bob_measurement = _basis_measurement(p["bob_basis"], 2)
    trials = config.resolved_trials() if p["mode"] == "empirical" else None
    report = signaling.signaling_experiment(
        shared, dims, bob_measurement, settings, trials=trials, seed=config.seed
    )
    aggregate = asdict(report)
    for label, marginal in aggregate.pop("bob_marginals").items():
        aggregate[f"bob_marginal_{label}"] = list(marginal)
    return [], aggregate, None


def run_energy(config: ExperimentConfig) -> RunnerOutput:
    p = config.params
    # validation left at most one of them set, and no list empty
    hamiltonian = p["h_matrix"] or p["h_diag"]
    # the state defaults to the uniform superposition
    rho = DensityOperator.from_state(make_state(p["state"] or [1] * hamiltonian.dim))
    measurement = _basis_measurement(p["basis"], hamiltonian.dim)
    eigenvalues = p["eigenvalues"] or list(range(measurement.n_outcomes))
    audit = audit_measurement(rho, measurement, eigenvalues, hamiltonian, p["weights"])
    return [], asdict(audit), None


def run_sat(config: ExperimentConfig) -> RunnerOutput:
    oracle = config.params["cnf"] or config.params["truth_table"]
    result = sat.decide_sat(oracle, trial_rng(config.seed))
    brute = sat.classical_brute_force(oracle)
    aggregate = {
        **asdict(result),
        "n": oracle.n,
        "brute_force_satisfiable": brute.satisfiable,
        "brute_force_agrees": brute.satisfiable == result.satisfiable,
    }
    return [], aggregate, None


def run_asc(config: ExperimentConfig) -> RunnerOutput:
    p = config.params
    labels = p["labels"]
    alternatives = agent.AlternativeSet(labels, tuple(p["priorities"]))
    norm = agent.NormFunction(dict(zip(labels, p["norm"])))
    trials = config.resolved_trials()

    records = []
    counts = np.zeros(len(labels), dtype=int)
    if p["agent"] == "collapse":
        blocks = agent.act_trials(alternatives, norm, config.seed, trials, p["mixing"])
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
                for t, outcome, tie_broken in zip(*(column.tolist() for column in block))
            )
    reference = agent.born_reference(alternatives)
    stats = policies.deviation_statistic(counts, reference)
    aggregate = {
        "trials": trials,
        "agent": p["agent"],
        "counts": {label: int(c) for label, c in zip(labels, counts)},
        "born_reference": [float(x) for x in reference.probs],
        "tv": stats.tv,
        "chi2": stats.chi2,
        "chi2_df": stats.df,
        "chi2_pvalue": stats.pvalue,
    }
    return records, aggregate, None


def run_behavior(config: ExperimentConfig) -> RunnerOutput:
    p = config.params
    if p["mode"] == "generate":
        sequence = behavior.generate_sequence(
            p["kind"],
            p["length"],
            trial_rng(config.seed),
            rate=p["rate"],
            alpha=p["alpha"],
            xmin=p["xmin"],
        )
        return [], {}, behavior.format_intervals(sequence)
    report = behavior.classify(
        behavior.read_intervals(read_text("input", p["input"])),
        levy_threshold=p["levy_threshold"],
        noise_threshold=p["noise_threshold"],
    )
    return [], {"mode": "classify", **asdict(report)}, None
