"""The seven experiment harnesses behind the command line.

Each runner takes the parsed parameters of a validated config (a dict), run
keys included: seed, output_format, per_trial and trials, resolved to the
experiment's count. Validation already parsed every value with the parsers
below. A runner returns the per-trial table, the aggregate record and, for
plain-file outputs, the pieces of text to write instead of a report. No
runner parses parameter text; only the classify input file is read by its run.

fwt and asc draw one int code per trial into a record alphabet: fwt's 144
records are a constant of the context (kochen_specker.fwt_alphabet), asc's
depend on its labels alone. Their runners count the codes (_tally; asc, with
no per-trial records, counts labels alone) for the aggregate and keep them as
a TrialTable only for per-trial records, with the trial-line templates of
every record of the alphabet, made once per alphabet and process.
"""

from __future__ import annotations

import cmath
import codecs
import io
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import agent, behavior, kochen_specker, policies, sat, signaling
from .energy import Hamiltonian, audit_measurement
from .errors import CollapsimError, ConfigError
from .quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    make_state,
    paired_born,
)
from .rng import TRIAL_BLOCK, trial_blocks

#: json.dumps(obj, sort_keys=True), whose every call builds an encoder, made once
dumps = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True)
class TrialTable:
    """Per-trial records from a record alphabet. Row i's line, the dumps of
    its record and a newline, is heads[c] + str(trial[i]) + tails[c] for its
    code c = code[i]. The templates are made once per alphabet and shared."""

    trial: np.ndarray
    code: np.ndarray
    heads: tuple[str, ...]
    tails: tuple[str, ...]

    def chunks(self) -> Iterator[str]:
        """Each row's line, joined TRIAL_BLOCK rows to a string as it is asked for."""
        heads, tails = self.heads, self.tails
        for start in range(0, self.trial.size, TRIAL_BLOCK):
            codes = self.code[start:start + TRIAL_BLOCK].tolist()
            trials = self.trial[start:start + TRIAL_BLOCK].tolist()
            yield "".join([f"{heads[c]}{t}{tails[c]}" for c, t in zip(codes, trials)])


def _templates(records: Iterable[dict[str, Any]]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Each record's head and tail: the dumps of its trial record with "trial":
    0, split at its trial value, and a newline. A string value escapes its
    quotes, so only the key matches."""
    split = [dumps({"record": "trial", "trial": 0, **r}).partition('"trial": 0') for r in records]
    return tuple(h + '"trial": ' for h, _, _ in split), tuple(t + "\n" for _, _, t in split)


#: (the per-trial table, kept only with per_trial; the aggregate record;
#: the pieces of the plain-file text that replaces the report, if any)
RunnerOutput = tuple[TrialTable | None, dict, Iterable[str] | None]


# --- parameter text ----------------------------------------------------------
# Validation parses each parameter once, with these parsers, into the object
# its runner reads. What a parser raises, a ValueError or a CollapsimError, is
# that parameter's violation; a ConfigError names its key itself. Library
# parsers are called through their modules (sat.parse_dimacs), so a rebound
# module attribute is the one that runs.

#: energy's dense update holds d projectors of d×d: 4 MB at this cap
MAX_ENERGY_DIM = 64
#: input files are read and decoded this many bytes at a time, each read into
#: one buffer, and an interval file is parsed a piece at a time: about 10500
#: lines, in arrays the reader makes once, for its largest piece, some eleven
#: bytes per byte of it. Parsing 10**6 values took 6% less time than with
#: 2**17-byte pieces and 14% less with 2**19, but at 2**19 the reader held a
#: 3.7 MB file's reading at 3.5 times its length, against 2.1 here
READ_CHUNK = 3 << 16
#: the most bytes of a file read whole (config, cnf, truth_table): 4000 n=12 tables
MAX_FILE_BYTES = 1 << 24


def _numbers(convert: Callable[[str], Any], tokens: list[str]) -> list:
    """The finite numbers the tokens spell; ValueError otherwise."""
    try:
        values = [convert(tok) for tok in tokens]
        if all(map(cmath.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ValueError("must be comma-separated finite numbers")


def _fields(text: str, sep: str = ",") -> list[str]:
    """The fields of text between each sep; ValueError if one is empty."""
    fields = text.split(sep)
    if "" in fields:
        raise ValueError(f"must not have an empty field (split by {sep!r})")
    return fields


def float_list(text: str) -> list[float]:
    return _numbers(float, _fields(text))


def complex_list(text: str) -> list[complex]:
    return _numbers(complex, [tok.strip() for tok in _fields(text)])


def label_list(text: str) -> tuple[str, ...]:
    return tuple(_fields(text))


def collapse_policy(text: str) -> policies.CollapsePolicy:
    return policies.parse_policy(text)


def table_ray(text: str) -> kochen_specker.Ray | None:
    """The built-in table's ray a bob_ray value names; None for 'random'."""
    if text == "random":
        return None
    try:
        ray = kochen_specker.Ray(tuple(map(int, text.split(","))))
    except (ValueError, CollapsimError):
        raise ValueError(f"not a ray: {text!r}") from None
    if ray not in kochen_specker.builtin_ks_table().ray_index:
        raise ValueError(f"{ray} is not one of the table's 18 directions")
    return ray


def _energy_levels(dim: int) -> None:
    if dim > MAX_ENERGY_DIM:
        raise ConfigError(f"h_diag/h_matrix: dimension must be at most {MAX_ENERGY_DIM}")


def diagonal_hamiltonian(text: str) -> Hamiltonian:
    energies = float_list(text)
    _energy_levels(len(energies))
    return Hamiltonian.diagonal(energies)


def dense_hamiltonian(text: str) -> Hamiltonian:
    """Dense matrix literal: rows separated by ';', entries by ','."""
    rows = [complex_list(row) for row in _fields(text, ";")]
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
    return sat.parse_dimacs("".join(read_text("cnf", path, MAX_FILE_BYTES)))


def truth_table_oracle(path: str) -> sat.OracleFunction:
    return sat.parse_truth_table("".join(read_text("truth_table", path, MAX_FILE_BYTES)))


def read_text(key: str, path: str, max_bytes: float = float("inf")) -> Iterator[str]:
    """The UTF-8 text of the file config key `key` names, as open(path,
    encoding="utf-8") reads it, one READ_CHUNK-byte read call at a time; a
    ConfigError as soon as more than max_bytes bytes have arrived."""
    try:
        with open(path, "rb", buffering=0) as file:
            lines = io.IncrementalNewlineDecoder(None, True)
            # each read lands in one buffer, after the bytes of a character the
            # last read cut short (three at most)
            buffer = memoryview(bytearray(READ_CHUNK + 3))
            kept = arrived = 0
            while size := file.readinto(buffer[kept:kept + READ_CHUNK]):
                if (arrived := arrived + size) > max_bytes:
                    raise ConfigError(f"{key}: must be at most {max_bytes} bytes: {path}")
                text, used = codecs.utf_8_decode(buffer[:kept + size], "strict", False)
                kept += size - used
                buffer[:kept] = buffer[used:used + kept]
                yield lines.decode(text)
            yield lines.decode(codecs.utf_8_decode(buffer[:kept], "strict", True)[0], final=True)
    except FileNotFoundError as exc:
        raise ConfigError(f"{key}: file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{key}: not UTF-8 text: {path}: {exc.reason}") from exc
    except ValueError as exc:  # a path open refuses, such as one with a NUL
        raise ConfigError(f"{key}: {exc}") from exc


@lru_cache(maxsize=4)
def _basis_measurement(name: str, dim: int) -> ProjectiveMeasurement:
    """The named basis, checked once per process: measurements are immutable."""
    if name == "z":
        return ProjectiveMeasurement.computational(dim)
    if name == "x" and dim == 2:
        # |+><+| and |-><-| exactly: rows of 1/sqrt(2) would give entries 0.4999999999999999
        return ProjectiveMeasurement([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]])
    raise ConfigError(f"unsupported basis {name!r} in dimension {dim}")


# No argument of a call changes the results below, so each is computed once
# per process; what they return is read-only, or copied per job.

@lru_cache(maxsize=4)
def _bell_tables(alice_basis: str, bob_basis: str) -> signaling.PairedTables:
    """paired_born of the signal experiment's shared state (|00> + |11>)/sqrt(2)
    for one basis pair: read-only arrays."""
    return paired_born(
        make_state([1, 0, 0, 1]), (2, 2), _basis_measurement(alice_basis, 2),
        [_basis_measurement(bob_basis, 2)],
    )


@lru_cache(maxsize=1)
def _ks_aggregate() -> dict[str, Any]:
    """The ks aggregate of the built-in table; run_ks hands out copies."""
    table = kochen_specker.builtin_ks_table()
    return {
        **vars(kochen_specker.ks_coloring_search(table)),
        "parity_certificate": kochen_specker.parity_certificate(table),
        "table_violations": tuple(kochen_specker.validate_table(table)),
        "contexts": len(table.contexts),
        "distinct_rays": len(table.ray_index),
    }


@lru_cache(maxsize=9)
def _fwt_templates(context: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The templates of fwt's record alphabet in a context."""
    return _templates(kochen_specker.fwt_alphabet(context)[0])


@lru_cache(maxsize=16)
def _asc_templates(
    labels: tuple[str, ...], shape: tuple[str, ...], tie_values: tuple[bool | None, ...]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """asc's templates, of record chosen * len(tie_values) + tie_broken."""
    return _templates(
        {"outcome": chosen, "label": label, "stage_shape": shape, "tie_broken": tie}
        for chosen, label in enumerate(labels)
        for tie in tie_values
    )


# --- runners -----------------------------------------------------------------


def run_ks(p: dict[str, Any]) -> RunnerOutput:
    if p["dump_table"]:
        # ray-table text format for external checkers
        return None, {}, [kochen_specker.format_table(kochen_specker.builtin_ks_table()) + "\n"]
    aggregate = _ks_aggregate()
    # the cached values are immutable; each job gets its own list of violations
    return None, {**aggregate, "table_violations": list(aggregate["table_violations"])}, None


def run_fwt(p: dict[str, Any]) -> RunnerOutput:
    trials = p["trials"]
    blocks = kochen_specker.fwt_trials(
        p["context"], p["bob_ray"], p["policy"], p["seed"], trials
    )
    records, counted = kochen_specker.fwt_alphabet(p["context"])
    templates = _fwt_templates(p["context"]) if p["per_trial"] else None
    per_code, table = _tally(blocks, len(records), templates)
    detections, in_context, agreements = (per_code @ counted).tolist()
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
    return table, aggregate, None


def _tally(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    size: int,
    templates: tuple[tuple[str, ...], tuple[str, ...]] | None = None,
) -> tuple[np.ndarray, TrialTable | None]:
    """Each of the size codes' count in the blocks' (trials, codes), of which a
    run has at least one; and, given the alphabet's templates, their per-trial table."""
    if templates is not None:
        trial, code = map(np.concatenate, zip(*blocks))
        return np.bincount(code, minlength=size), TrialTable(trial, code, *templates)
    return reduce(np.add, (np.bincount(code, minlength=size) for _, code in blocks)), None


def run_signal(p: dict[str, Any]) -> RunnerOutput:
    settings = {
        label: (_bell_tables(p[f"alice_basis{label}"], p["bob_basis"]), p[f"policy{label}"])
        for label in ("0", "1")
    }
    trials = p["trials"] if p["mode"] == "empirical" else None
    report = signaling.signaling_experiment(settings, trials=trials, seed=p["seed"])
    aggregate = dict(vars(report))
    if report.independence_pvalue is None:  # analytic marginals carry no noise
        del aggregate["independence_pvalue"]
    for label, marginal in aggregate.pop("bob_marginals").items():
        aggregate[f"bob_marginal_{label}"] = list(marginal)
    return None, aggregate, None


def run_energy(p: dict[str, Any]) -> RunnerOutput:
    # validation left at most one of them set, and no list empty
    hamiltonian = p["h_matrix"] or p["h_diag"]
    # the state defaults to the uniform superposition
    rho = DensityOperator.from_state(make_state(p["state"] or [1] * hamiltonian.dim))
    measurement = _basis_measurement(p["basis"], hamiltonian.dim)
    eigenvalues = p["eigenvalues"] or list(range(measurement.n_outcomes))
    audit = audit_measurement(rho, measurement, eigenvalues, hamiltonian, p["weights"])
    return None, dict(vars(audit)), None


def run_sat(p: dict[str, Any]) -> RunnerOutput:
    oracle = p["cnf"] or p["truth_table"]
    result = sat.decide_sat(oracle, p["seed"])
    brute = sat.classical_brute_force(oracle)
    aggregate = {
        **vars(result),
        "n": oracle.n,
        "brute_force_satisfiable": brute.satisfiable,
        "brute_force_agrees": brute.satisfiable == result.satisfiable,
    }
    return None, aggregate, None


def run_asc(p: dict[str, Any]) -> RunnerOutput:
    labels = p["labels"]
    alternatives = agent.AlternativeSet(labels, tuple(p["priorities"]))
    norm = agent.NormFunction(dict(zip(labels, p["norm"])))
    trials = p["trials"]

    if p["agent"] == "collapse":
        shape, tie_values = agent.COLLAPSE_STAGE_SHAPE, (False, True)
        # only a per-trial record reads the tie flag: the aggregate counts choices
        blocks = (
            (b.trial, b.chosen * len(tie_values) + b.tie_broken if p["per_trial"] else b.chosen)
            for b in agent.act_trials(alternatives, norm, p["seed"], trials, p["mixing"])
        )
    else:
        # the robot draws nothing: one argmax for every trial, and a null tie_broken
        robot = agent.robot_act(alternatives, norm)
        shape, tie_values = robot.stage_shape, (None,)
        blocks = ((t, np.full(t.size, robot.final_outcome)) for t in trial_blocks(trials))
    if p["per_trial"]:
        templates = _asc_templates(labels, shape, tie_values)
        per_code, table = _tally(blocks, len(templates[0]), templates)
        counts = per_code.reshape(len(labels), len(tie_values)).sum(axis=1)
    else:
        counts, table = _tally(blocks, len(labels))
    reference = agent.born_reference(alternatives)
    stats = policies.deviation_statistic(counts, reference)
    aggregate = {
        "trials": trials,
        "agent": p["agent"],
        "counts": dict(zip(labels, counts.tolist())),
        "born_reference": reference.probs.tolist(),
        "tv": stats.tv,
        "chi2": stats.chi2,
        "chi2_df": stats.df,
        "chi2_pvalue": stats.pvalue,
    }
    return table, aggregate, None


def run_behavior(p: dict[str, Any]) -> RunnerOutput:
    if p["mode"] == "generate":
        sequence = behavior.generate_sequence(
            p["kind"],
            p["length"],
            np.random.Generator(np.random.Philox(key=p["seed"])),
            rate=p["rate"],
            alpha=p["alpha"],
            xmin=p["xmin"],
        )
        return None, {}, behavior.format_intervals(sequence)
    report = behavior.classify(
        behavior.read_intervals(read_text("input", p["input"])),
        levy_threshold=p["levy_threshold"],
        noise_threshold=p["noise_threshold"],
    )
    return None, {"mode": "classify", **vars(report)}, None
