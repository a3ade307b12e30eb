"""Seeded job lists for the three benchmark workloads.

Every input a job needs (argv, CNF and truth-table files) is made here from
the workload seed before any timing starts; interval files for
`behavior classify` are written by the `behavior generate` job just before
it in the list. Job sizes form a log-uniform grid (see `log_grid`); the seed
draws every other parameter, assigns the sizes and shuffles the job order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep_sampled", "exact_decide", "per_trial_io")

# generator parameters, also recorded in BENCHMARK.json and bench/README.md
TRIALS_RANGE = (100, 10_000)  # sampled trials per job (signal: both settings)
INTERVALS_RANGE = (100_000, 1_000_000)  # lines per behavior interval file
SAT_BITS = (8, 9, 10, 11, 12)
CLAUSE_RATIO = 4.26
POLICY_KINDS = ("born", "forced", "biased", "scripted")

# Table 1 of the source paper: 9 contexts of 4 mutually orthogonal rays
KS_CONTEXTS = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def ray_text(ray) -> str:
    """Canonical ray form as reports print it: no common factor, first nonzero > 0."""
    divisor = math.gcd(*ray)
    comps = [c // divisor for c in ray]
    if next(c for c in comps if c) < 0:
        comps = [-c for c in comps]
    return "(" + ",".join(str(c) for c in comps) + ")"


CONTEXT_RAYS = tuple(tuple(ray_text(r) for r in ctx) for ctx in KS_CONTEXTS)
ALL_RAYS = tuple(sorted({r for ctx in CONTEXT_RAYS for r in ctx}))


@dataclass
class Job:
    """One `collapsim.cli.main(argv)` call and what its output must satisfy."""

    id: str
    kind: str
    argv: list[str]
    out: Path  # the scratch directory, until _finish names the output file in it
    units: int
    expect: dict = field(default_factory=dict)


# --- sizes and policies ----------------------------------------------------


def log_grid(rng: random.Random, lo: int, hi: int, m: int,
             cell: int = 0, cells: int = 1) -> list[int]:
    """m sizes from a grid evenly spaced in log from lo to hi, in an order
    the seed picks.

    The grid has m * cells points and cell `cell` takes every cells-th one,
    so the cells of a job kind together cover it without repeats; the last
    cell holds hi. A fixed grid rather than independent draws keeps the work
    mix, the job-time quantiles and the largest job (which sets peak memory)
    the same for every seed; the seed decides which configuration gets
    which size.
    """
    points = max(m * cells - 1, 1)
    sizes = [int(round(lo * (hi / lo) ** ((i * cells + cell) / points))) for i in range(m)]
    rng.shuffle(sizes)
    return sizes


def draw_policy(rng: random.Random, kind: str, n_outcomes: int) -> dict:
    """A policy of the given kind whose every request is admissible except
    the scripted out-of-range entry, which forces a fallback."""
    if kind == "born":
        return {"kind": "born"}
    if kind == "forced":
        return {"kind": "forced", "target": rng.randrange(n_outcomes)}
    if kind == "biased" and n_outcomes == 2:
        # at least 0.15 from uniform: the capacity of a channel with a Born
        # row converges slowly as the rows meet (0.60 vs 0.62 took 0.4 s)
        w = rng.uniform(0.15, 0.35)
        return {"kind": "biased", "weights": [w, 1 - w] if rng.random() < 0.5 else [1 - w, w]}
    if kind == "biased":
        raw = [rng.uniform(1.0, 4.0) for _ in range(n_outcomes)]
        return {"kind": "biased", "weights": [x / sum(raw) for x in raw]}
    script = [rng.randrange(n_outcomes) for _ in range(rng.randint(1, 4))]
    script.insert(rng.randrange(len(script) + 1), rng.randint(n_outcomes, 9))
    return {"kind": "scripted", "script": script}


def policy_text(policy: dict) -> str:
    kind = policy["kind"]
    if kind == "born":
        return "born"
    if kind == "forced":
        return f"forced:{policy['target']}"
    if kind == "biased":
        return "biased:" + ",".join(repr(w) for w in policy["weights"])
    return "scripted:" + ",".join(str(i) for i in policy["script"])


# --- sampled harness jobs --------------------------------------------------


def _fwt_jobs(rng, work, per_trial, strata):
    jobs = []
    cells = [(ray_mode, kind) for ray_mode in ("random", "fixed") for kind in POLICY_KINDS]
    for cell, (ray_mode, kind) in enumerate(cells):
        for trials in log_grid(rng, *TRIALS_RANGE, strata, cell, len(cells)):
            context = rng.randint(1, 9)
            policy = draw_policy(rng, kind, 4)
            ray = None
            if ray_mode == "fixed":
                # half the fixed rays lie in Alice's context, so agreement
                # is checked on every trial of those jobs
                pool = CONTEXT_RAYS[context - 1] if rng.random() < 0.5 else ALL_RAYS
                ray = rng.choice(pool)
            argv = ["fwt", "--trials", str(trials), "--context", str(context),
                    "--policy", policy_text(policy)]
            if ray is not None:
                argv += ["--bob-ray", ray.strip("()")]
            jobs.append(Job("", "fwt", argv, work, trials, {
                "trials": trials, "context": context, "ray": ray,
                "policy": policy, "per_trial": per_trial,
            }))
    return jobs


def _signal_empirical_jobs(rng, work, strata):
    jobs = []
    for cell, kind in enumerate(POLICY_KINDS):
        for units in log_grid(rng, *TRIALS_RANGE, strata, cell, len(POLICY_KINDS)):
            trials = units // 2
            # setting 0 is a forced:0 reference and all bases match, so Bob's
            # two marginals are either equal or far apart. Sampled marginals
            # that are only nearly equal (Born against Born) would make the
            # channel capacity converge slowly by an amount the sampling
            # noise decides; exact_decide times that case deterministically.
            basis = rng.choice("zx")
            settings = [{"policy": {"kind": "forced", "target": 0}, "basis": basis},
                        {"policy": draw_policy(rng, kind, 2), "basis": basis}]
            jobs.append(Job("", "signal-empirical",
                            ["signal", "--mode", "empirical", "--trials", str(trials)]
                            + _signal_args(settings, basis),
                            work, 2 * trials,
                            {"trials": trials, "settings": settings, "bob_basis": basis}))
    return jobs


def _signal_args(settings, bob_basis):
    argv = []
    for label, setting in enumerate(settings):
        argv += [f"--policy{label}", policy_text(setting["policy"]),
                 f"--alice-basis{label}", setting["basis"]]
    return argv + ["--bob-basis", bob_basis]


def _asc_jobs(rng, work, per_trial, m):
    jobs = []
    for trials in log_grid(rng, *TRIALS_RANGE, m):
        k = rng.randint(2, 5)
        labels = [f"a{i}" for i in range(k)]
        priorities = [round(rng.uniform(0.1, 1.0), 3) for _ in range(k)]
        if k >= 3 and rng.random() < 0.5:
            priorities[rng.randrange(k)] = 0.0  # a never-admissible alternative
        positive = [i for i in range(k) if priorities[i] > 0]
        norm = [float(rng.randint(0, 1)) for _ in range(k)]
        # the norm optimum among admissible labels is a tie in half the jobs
        for i in rng.sample(positive, rng.randint(1, 2)):
            norm[i] = 2.0
        mixing = round(rng.uniform(0.3, 0.95), 3)
        argv = ["asc", "--trials", str(trials), "--labels", ",".join(labels),
                "--priorities", ",".join(repr(p) for p in priorities),
                "--norm", ",".join(repr(v) for v in norm), "--mixing", repr(mixing)]
        jobs.append(Job("", "asc", argv, work, trials, {
            "trials": trials, "labels": labels, "priorities": priorities,
            "norm": norm, "per_trial": per_trial,
        }))
    return jobs


def _behavior_pairs(rng, work, per_kind):
    pairs = []
    for kind in ("exponential", "pareto"):
        for length in log_grid(rng, *INTERVALS_RANGE, per_kind):
            if kind == "exponential":
                params = ["--rate", repr(round(rng.uniform(0.5, 2.0), 3))]
                label = "noise_like"
            else:
                params = ["--alpha", repr(round(rng.uniform(1.2, 2.0), 3)),
                          "--xmin", repr(round(rng.uniform(0.5, 2.0), 3))]
                label = "levy_like"
            gen = Job("", "behavior-generate",
                      ["behavior", "generate", "--kind", kind, "--length", str(length),
                       "--seed", str(rng.randrange(2**32))] + params,
                      work, length, {"length": length})
            cls = Job("", "behavior-classify", ["behavior", "classify"], work, length,
                      {"length": length, "label": label, "input_of": gen})
            pairs.append([gen, cls])
    return pairs


# --- exact (trial-free) jobs -----------------------------------------------


def cnf_truth(n: int, clauses: list[list[int]]) -> np.ndarray:
    """Truth table of a CNF; variable i reads bit i-1 of the input index."""
    inputs = np.arange(2**n)
    value = np.ones(2**n, dtype=bool)
    for clause in clauses:
        sat = np.zeros(2**n, dtype=bool)
        for lit in clause:
            bit = (inputs >> (abs(lit) - 1)) & 1
            sat |= bit == (1 if lit > 0 else 0)
        value &= sat
    return value


def _sat_jobs(rng, work):
    jobs = []
    for n in SAT_BITS:
        for _ in range(16):
            m = round(CLAUSE_RATIO * n)
            clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(m)]
            table = cnf_truth(n, clauses)
            text = f"c random 3-CNF, ratio {CLAUSE_RATIO}\np cnf {n} {m}\n" + "".join(
                " ".join(map(str, c)) + " 0\n" for c in clauses)
            jobs.append(_sat_job(rng, work, "sat-cnf", "--cnf", ".cnf", text, n, table))
        for i in range(8):
            table = np.zeros(2**n, dtype=bool)
            if i % 2:  # sparse satisfiable: 1 to 3 true inputs
                table[rng.sample(range(2**n), rng.randint(1, 3))] = True
            text = "".join("1" if b else "0" for b in table)
            text = "\n".join(text[j:j + 64] for j in range(0, len(text), 64)) + "\n"
            jobs.append(_sat_job(rng, work, "sat-tt", "--truth-table", ".tt", text, n, table))
    return jobs


def _sat_job(rng, work, kind, flag, suffix, text, n, table):
    path = work / f"input-{rng.getrandbits(64):016x}{suffix}"
    path.write_text(text)
    return Job("", kind, ["sat", flag, str(path), "--seed", str(rng.randrange(2**32))],
               work, 1, {"n": n, "truth": table, "satisfiable": bool(table.any())})


def _signal_analytic_jobs(rng, work):
    jobs = []
    for i in range(40):
        basis = rng.choice("zx")
        if i < 10:  # no-signaling null: max_tv and capacity vanish
            settings = [{"policy": {"kind": "born"}, "basis": rng.choice("zx")}
                        for _ in range(2)]
            bob = rng.choice("zx")
        elif i < 20:  # the 1-bit forced channel
            settings = [{"policy": {"kind": "forced", "target": t}, "basis": basis}
                        for t in (0, 1)]
            bob = basis
        elif i < 22:  # a channel just off the null: capacity converges slowly
            w = 0.5 + (0.03, 0.05)[i - 20] * rng.choice((1, -1))
            settings = [{"policy": {"kind": "born"}, "basis": basis},
                        {"policy": {"kind": "biased", "weights": [w, 1 - w]}, "basis": basis}]
            bob = basis
        else:  # Born reference against each policy kind
            settings = [{"policy": {"kind": "born"}, "basis": rng.choice("zx")},
                        {"policy": draw_policy(rng, POLICY_KINDS[i % 4], 2),
                         "basis": rng.choice("zx")}]
            bob = rng.choice("zx")
        jobs.append(Job("", "signal-analytic", ["signal"] + _signal_args(settings, bob),
                        work, 1, {"settings": settings, "bob_basis": bob}))
    return jobs


def _energy_jobs(rng, work):
    jobs = []
    for i in range(30):
        x_basis = 18 <= i < 24
        forbidden = i >= 24
        dim = 2 if x_basis else rng.randint(2, 4)
        energies = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(dim)]
        if x_basis and i % 2:
            off = round(rng.uniform(-1.0, 1.0), 3)
            h = [[energies[0], off], [off, energies[1]]]
            h_args = ["--h-matrix=" + ";".join(",".join(repr(v) for v in row) for row in h)]
        else:
            h = [[energies[r] if r == c else 0.0 for c in range(dim)] for r in range(dim)]
            h_args = ["--h-diag=" + ",".join(repr(e) for e in energies)]
        state = [round(rng.uniform(-1.0, 1.0), 3) or 0.5 for _ in range(dim)]
        zero = rng.randrange(dim)
        if dim > 2 or forbidden:
            state[zero] = 0.0  # an outcome with zero Born probability
        weights = None
        if forbidden or (i % 3 == 0 and not x_basis):
            support = [j for j in range(dim) if state[j] != 0.0]
            raw = [rng.uniform(1.0, 3.0) if (j in support or (forbidden and j == zero))
                   else 0.0 for j in range(dim)]
            weights = [x / sum(raw) for x in raw]
        # "=" keeps argparse from reading a leading minus sign as a flag
        argv = ["energy", *h_args, "--state=" + ",".join(repr(a) for a in state),
                "--basis", "x" if x_basis else "z"]
        if weights is not None:
            argv += ["--weights", ",".join(repr(w) for w in weights)]
        jobs.append(Job("", "energy", argv, work, 1, {
            "h": h, "state": state, "basis": "x" if x_basis else "z",
            "weights": weights, "forbidden": forbidden,
        }))
    return jobs


def _ks_jobs(work, count):
    return [Job("", "ks", ["ks"], work, 1, {}) for _ in range(count)]


# --- assembly --------------------------------------------------------------


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """The workload's job list for `seed`; input files are written to `work`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep_sampled":
        units = [[j] for j in _fwt_jobs(rng, work, False, 7)
                 + _signal_empirical_jobs(rng, work, 7) + _asc_jobs(rng, work, False, 28)]
    elif workload == "exact_decide":
        units = [[j] for j in _sat_jobs(rng, work) + _signal_analytic_jobs(rng, work)
                 + _energy_jobs(rng, work) + _ks_jobs(work, 10)]
    elif workload == "per_trial_io":
        units = ([[j] for j in _fwt_jobs(rng, work, True, 7) + _asc_jobs(rng, work, True, 24)]
                 + _behavior_pairs(rng, work, 5))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)  # a generate job stays just before its classify job
    jobs = [job for unit in units for job in unit]
    return _finish(jobs, rng, "")


def _finish(jobs: list[Job], rng: random.Random, prefix: str) -> list[Job]:
    for i, job in enumerate(jobs):
        job.id = f"{prefix}{i:03d}-{job.kind}"
        job.out = job.out / f"out-{job.id}.txt"
        if "--seed" not in job.argv:
            job.argv += ["--seed", str(rng.randrange(2**32))]
        if job.expect.get("per_trial"):
            job.argv.append("--per-trial")
        job.argv += ["--out", str(job.out)]
    for job in jobs:
        source = job.expect.get("input_of")
        if source is not None:
            job.argv[2:2] = ["--input", str(source.out)]
    return jobs


def warmup(work: Path) -> list[Job]:
    """One tiny job of each experiment kind, the same for every seed."""
    rng = random.Random("warmup")
    fwt = Job("", "fwt", ["fwt", "--trials", "5", "--context", "2",
                          "--policy", "scripted:7,1"], work, 5, {
        "trials": 5, "context": 2, "ray": None,
        "policy": {"kind": "scripted", "script": [7, 1]}, "per_trial": True})
    clauses = [[1, -2, 3], [-1, 2, 3], [1, 2, -3], [-1, -2, -3]]
    cnf = "p cnf 3 4\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    gen, cls = _behavior_pairs(random.Random("warmup-behavior"), work, 1)[1]
    for job in (gen, cls):  # a 1000-line interval file instead of 10^5..10^6
        job.units = job.expect["length"] = 1000
    gen.argv[gen.argv.index("--length") + 1] = "1000"
    jobs = [
        Job("", "ks", ["ks"], work, 1, {}),
        fwt,
        Job("", "signal-analytic", ["signal", "--policy0", "born", "--policy1", "born"],
            work, 1, {"settings": [{"policy": {"kind": "born"}, "basis": "z"}] * 2,
                      "bob_basis": "z"}),
        Job("", "signal-empirical",
            ["signal", "--mode", "empirical", "--trials", "5",
             "--policy0", "born", "--policy1", "forced:1"],
            work, 10, {"trials": 5, "bob_basis": "z", "settings": [
                {"policy": {"kind": "born"}, "basis": "z"},
                {"policy": {"kind": "forced", "target": 1}, "basis": "z"}]}),
        Job("", "energy", ["energy", "--weights", "0.25,0.75"], work, 1, {
            "h": [[1.0, 0.0], [0.0, -1.0]], "state": [1.0, 1.0], "basis": "z",
            "weights": [0.25, 0.75], "forbidden": False}),
        _sat_job(rng, work, "sat-cnf", "--cnf", ".cnf", cnf, 3, cnf_truth(3, clauses)),
        _sat_job(rng, work, "sat-tt", "--truth-table", ".tt", "0000\n0100\n", 3,
                 np.array([c == "1" for c in "00000100"])),
        Job("", "asc", ["asc", "--trials", "5", "--labels", "a,b,c",
                        "--priorities", "1,1,0", "--norm", "1,1,0", "--mixing", "0.5"],
            work, 5, {"trials": 5, "labels": ["a", "b", "c"], "priorities": [1.0, 1.0, 0.0],
                      "norm": [1.0, 1.0, 0.0], "per_trial": False}),
        gen,
        cls,
    ]
    return _finish(jobs, rng, "warmup-")
