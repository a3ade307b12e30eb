"""Invariant checks on each job's output; no digests are pinned.

Each check reads the file the job wrote through `--out` and returns a list
of problems (empty means the job passed). References are computed here,
independently of the program: Bob's marginals on the Bell state, binary
channel capacity, CNF truth tables, and mean energies of rank-1 updates.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import ALL_RAYS, CONTEXT_RAYS, Job

ASC_STAGES = ["AttentionStage", "SelectionStage", "CollapseStage"]


def check(job: Job, rc: int | None, stderr: str) -> list[str]:
    if job.kind == "energy" and job.expect["forbidden"]:
        return _check_forbidden(job, rc, stderr)
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:300]}"]
    if not job.out.exists():
        return ["no output file"]
    return CHECKS[job.kind](job)


def deterministic_text(job: Job) -> str:
    """Everything a rerun must reproduce byte for byte: all but the timing line."""
    if not job.out.exists():
        return ""
    return "".join(line for line in job.out.read_text().splitlines(keepends=True)
                   if '"record": "timing"' not in line)


def _records(job: Job):
    """(aggregate, trial records) of a json-lines report, checking its frame."""
    with job.out.open() as fh:
        lines = [json.loads(line) for line in fh]
    kinds = [rec["record"] for rec in lines]
    trials = kinds.count("trial")
    if kinds != ["config"] + ["trial"] * trials + ["aggregate", "timing"]:
        raise ValueError(f"unexpected record sequence starting {kinds[:4]}")
    return lines[-2], lines[1:-2]


def _check_fwt(job: Job) -> list[str]:
    ex = job.expect
    agg, trials = _records(job)
    problems = []
    if agg["agreement_exact"] is not True:
        problems.append("agreement_exact is not true")
    if agg["trials"] != ex["trials"] or agg["context"] != ex["context"]:
        problems.append("aggregate trials/context do not echo the config")
    context = CONTEXT_RAYS[ex["context"] - 1]
    if ex["ray"] is not None:
        expected_in = ex["trials"] if ex["ray"] in context else 0
        if agg["in_context_trials"] != expected_in:
            problems.append(f"in_context_trials {agg['in_context_trials']} != {expected_in}")
    if not ex["per_trial"]:
        return problems
    if len(trials) != ex["trials"]:
        return problems + [f"{len(trials)} trial records for {ex['trials']} trials"]
    forced = ex["policy"]["target"] if ex["policy"]["kind"] == "forced" else None
    for rec in trials:
        ray = rec["bob_ray"]
        if ray not in ALL_RAYS or (ex["ray"] is not None and ray != ex["ray"]):
            return problems + [f"trial {rec['trial']}: unexpected ray {ray}"]
        if forced is not None and rec["alice_outcome"] != forced:
            return problems + [f"trial {rec['trial']}: forced:{forced} gave {rec['alice_outcome']}"]
        if rec["in_context"] != (ray in context) or (rec["in_context"] and rec["agree"] is not True):
            return problems + [f"trial {rec['trial']}: in-context disagreement"]
    return problems


def _policy_point(policy: dict, t: int, analytic: bool) -> list[float]:
    """Alice's outcome distribution on trial t (Born is uniform on the Bell state).

    A scripted policy plays its script once per sample, then falls back to
    Born; an out-of-range entry falls back too. Analytic mode peeks entry 0.
    """
    kind = policy["kind"]
    if kind == "forced":
        return [1.0 - policy["target"], float(policy["target"])]
    if kind == "biased":
        return list(policy["weights"])
    if kind == "scripted":
        script = policy["script"]
        entry = script[0] if analytic else (script[t] if t < len(script) else None)
        if entry in (0, 1):
            return [1.0 - entry, float(entry)]
    return [0.5, 0.5]


def _bob_zero_probs(setting: dict, bob_basis: str, trials: int, analytic: bool) -> list[float]:
    """Bob's probability of outcome 0 on each trial: Alice's outcome when the
    bases match (the Bell state is perfectly correlated in z and in x), else 1/2."""
    if setting["basis"] != bob_basis:
        return [0.5] * trials
    return [_policy_point(setting["policy"], t, analytic)[0] for t in range(trials)]


def _tv(p, q) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def _check_signal_empirical(job: Job) -> list[str]:
    ex = job.expect
    agg, _ = _records(job)
    problems = []
    if agg["mode"] != "empirical" or agg["trials_per_setting"] != ex["trials"]:
        problems.append("mode/trials_per_setting do not echo the config")
    for label, setting in enumerate(ex["settings"]):
        probs = np.array(_bob_zero_probs(setting, ex["bob_basis"], ex["trials"], False))
        mean = probs.mean()
        sigma = math.sqrt(float((probs * (1 - probs)).sum())) / ex["trials"]
        got = agg[f"bob_marginal_{label}"]
        if abs(got[0] - mean) > 5 * sigma + 1e-12 or abs(sum(got) - 1) > 1e-9:
            problems.append(f"setting {label}: marginal {got} vs {mean:.4f} +- 5*{sigma:.2e}")
    if abs(agg["max_tv"] - _tv(agg["bob_marginal_0"], agg["bob_marginal_1"])) > 1e-12:
        problems.append("max_tv is not the TV of the reported marginals")
    return problems


def binary_capacity(rows: list[list[float]]) -> float:
    """Capacity in bits of a two-input, two-output channel, by ternary search
    over the input distribution (mutual information is concave in it)."""
    def h(p):
        return -sum(x * math.log2(x) for x in p if x > 0)

    def info(a):
        out = [a * rows[0][k] + (1 - a) * rows[1][k] for k in (0, 1)]
        return h(out) - a * h(rows[0]) - (1 - a) * h(rows[1])

    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if info(m1) < info(m2):
            lo = m1
        else:
            hi = m2
    return max(info((lo + hi) / 2), 0.0)


def _check_signal_analytic(job: Job) -> list[str]:
    ex = job.expect
    agg, _ = _records(job)
    problems = []
    refs = []
    for label, setting in enumerate(ex["settings"]):
        p0 = _bob_zero_probs(setting, ex["bob_basis"], 1, True)[0]
        refs.append([p0, 1 - p0])
        got = agg[f"bob_marginal_{label}"]
        if _tv(got, refs[-1]) > 1e-9:
            problems.append(f"setting {label}: marginal {got} != {refs[-1]}")
    if abs(agg["max_tv"] - _tv(*refs)) > 1e-9:
        problems.append(f"max_tv {agg['max_tv']} != {_tv(*refs)}")
    if abs(agg["channel_bits"] - binary_capacity(refs)) > 1e-6:
        problems.append(f"channel_bits {agg['channel_bits']} != {binary_capacity(refs)}")
    kinds = [s["policy"].get("kind") for s in ex["settings"]]
    if kinds == ["born", "born"] and agg["max_tv"] > 1e-12:
        problems.append(f"Born vs Born max_tv {agg['max_tv']} > 1e-12")
    targets = [s["policy"].get("target") for s in ex["settings"]]
    bases = {s["basis"] for s in ex["settings"]} | {ex["bob_basis"]}
    if targets == [0, 1] and len(bases) == 1 and abs(agg["channel_bits"] - 1) > 1e-9:
        problems.append(f"forced:0 vs forced:1 channel_bits {agg['channel_bits']} != 1")
    return problems


def _check_asc(job: Job) -> list[str]:
    ex = job.expect
    agg, trials = _records(job)
    labels, priorities = ex["labels"], ex["priorities"]
    problems = []
    counts = agg["counts"]
    if list(counts) != sorted(labels) or sum(counts.values()) != ex["trials"]:
        problems.append(f"counts {counts} do not cover {ex['trials']} trials")
    if any(counts.get(lab, 0) for lab, p in zip(labels, priorities) if p == 0):
        problems.append("a zero-priority alternative was chosen")
    total = sum(priorities)
    if _tv(agg["born_reference"], [p / total for p in priorities]) > 1e-12:
        problems.append("born_reference is not the normalized priorities")
    if not ex["per_trial"]:
        return problems
    if len(trials) != ex["trials"]:
        return problems + [f"{len(trials)} trial records for {ex['trials']} trials"]
    top = max(v for v, p in zip(ex["norm"], priorities) if p > 0)
    tally = dict.fromkeys(labels, 0)
    for rec in trials:
        label = labels[rec["outcome"]]
        tally[label] += 1
        if rec["label"] != label or rec["stage_shape"] != ASC_STAGES:
            return problems + [f"trial {rec['trial']}: inconsistent record"]
        if rec["tie_broken"] and ex["norm"][rec["outcome"]] != top:
            return problems + [f"trial {rec['trial']}: tie broken off the norm optimum"]
    if tally != counts:
        problems.append("per-trial outcomes do not tally to the aggregate counts")
    return problems


def _check_sat(job: Job) -> list[str]:
    ex = job.expect
    agg, _ = _records(job)
    problems = []
    if agg["n"] != ex["n"] or agg["satisfiable"] != ex["satisfiable"]:
        problems.append(f"satisfiable={agg['satisfiable']}, generator says {ex['satisfiable']}")
    if agg["brute_force_agrees"] is not True:
        problems.append("brute force disagrees")
    witness = agg["witness"]
    if ex["satisfiable"] and (witness is None or not ex["truth"][witness]):
        problems.append(f"witness {witness} does not satisfy the instance")
    return problems


def _check_ks(job: Job) -> list[str]:
    agg, _ = _records(job)
    if (agg["colorable"], agg["assignments_found"], agg["search_space_size"],
            agg["parity_certificate"], agg["table_violations"]) != (False, 0, 262144, True, []):
        return [f"unexpected ks aggregate {agg}"]
    return []


def _energy_reference(ex: dict):
    h = np.array(ex["h"], dtype=float)
    dim = h.shape[0]
    state = np.array(ex["state"], dtype=float)
    state /= np.linalg.norm(state)
    basis = np.eye(dim) if ex["basis"] == "z" else np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    born = (basis @ state) ** 2
    weights = born if ex["weights"] is None else np.array(ex["weights"])
    branch_energy = np.einsum("ji,ik,jk->j", basis, h, basis)
    e_after = float(sum(w * e for w, e in zip(weights, branch_energy) if w > 1e-12))
    observable = sum(j * np.outer(b, b) for j, b in enumerate(basis))
    commutes = bool(np.max(np.abs(observable @ h - h @ observable)) < 1e-10)
    return float(state @ h @ state), e_after, commutes


def _check_energy(job: Job) -> list[str]:
    agg, _ = _records(job)
    e_before, e_after, commutes = _energy_reference(job.expect)
    problems = []
    if abs(agg["e_before"] - e_before) > 1e-9 or abs(agg["e_after"] - e_after) > 1e-9:
        problems.append(f"energies {agg['e_before']}, {agg['e_after']} != {e_before}, {e_after}")
    if abs(agg["delta"] - (agg["e_after"] - agg["e_before"])) > 1e-12:
        problems.append("delta is not e_after - e_before")
    if agg["commutes"] != commutes or agg["weights_were_born"] != (job.expect["weights"] is None):
        problems.append("commutes/weights_were_born flags wrong")
    return problems


def _check_forbidden(job: Job, rc: int | None, stderr: str) -> list[str]:
    lines = stderr.splitlines()
    if rc != 1 or len(lines) != 1 or "ForbiddenOutcome" not in lines[0]:
        return [f"expected exit 1 with one ForbiddenOutcome line, got {rc}: {stderr[:300]!r}"]
    if job.out.exists():
        return ["a forbidden job wrote an output file"]
    return []


def _check_generate(job: Job) -> list[str]:
    # a byte scan, not a parse: the paired classify job parses every value
    data = b"\n" + job.out.read_bytes()
    lines = data.count(b"\n") - 1
    if lines != job.expect["length"] or not data.endswith(b"\n"):
        return [f"{lines} interval lines, expected {job.expect['length']}"]
    if b"\n-" in data or b"\n0.0\n" in data:
        return ["a negative or zero interval"]
    return []


def _check_classify(job: Job) -> list[str]:
    agg, _ = _records(job)
    if agg["classification"] != job.expect["label"]:
        return [f"classified {agg['classification']}, generated {job.expect['label']}"]
    if agg["sample_size"] != job.expect["length"]:
        return [f"sample_size {agg['sample_size']} != {job.expect['length']}"]
    return []


CHECKS = {
    "fwt": _check_fwt,
    "signal-empirical": _check_signal_empirical,
    "signal-analytic": _check_signal_analytic,
    "asc": _check_asc,
    "sat-cnf": _check_sat,
    "sat-tt": _check_sat,
    "ks": _check_ks,
    "energy": _check_energy,
    "behavior-generate": _check_generate,
    "behavior-classify": _check_classify,
}
