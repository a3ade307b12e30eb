"""Fit each sampled job kind's cost as a fixed part plus a part per trial, for
a git revision and for this tree, timed in the same interpreters.

    python tools/fixed_cost.py --parent REV [--out fit.json]

The jobs are the sweep_sampled list of workload seed SEED, built by
bench/workloads.py, imported as it is: fwt, asc and empirical signal jobs of
10^2 to 10^4 trials. REV's src/collapsim is extracted with `git archive` and
imported under another name beside this tree's collapsim, uncommitted
changes included. Each run is a fresh interpreter that imports both
packages, REV's first in even-numbered runs and this tree's first in odd
ones, since the package imported second reads up to a few percent slower;
RUNS is even, so that offset falls on each tree equally often. A run passes
over the jobs PASSES times, each job through both packages' cli.main one
right after the other, the order swapped from pass to pass, and keeps each
job's fastest time per package; a first pass, not counted, warms both up. A
least-squares line, time = fixed + per_trial * trials, is then fitted per
kind, trials being the job's trial units (an empirical signal job's two
settings count twice).

Two columns: "stringio" drops the job's --out and takes stdout into an
io.StringIO; "out" writes the job's own --out file, rewritten every pass as
the benchmark does. It prints, per column and kind, each run's fixed µs and
ns per trial for both trees, the relative change of the fixed part (change
/ parent - 1) and its median over the runs, and writes the same as JSON,
with the tree each run imported first, to the --out path, if given.
Exit status: 0 when the fit ran, 2 when it could not.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import multiprocessing
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: the name REV's package is imported under
PARENT_PACKAGE = "collapsim_parent"
COLUMNS = ("stringio", "out")
TREES = ("parent", "change")
#: the sweep_sampled seed whose jobs are timed
SEED = 7
#: counted passes per run; each job keeps its fastest time
PASSES = 7
#: runs per column, each in a fresh interpreter; even, so each tree is
#: imported first in half of them
RUNS = 10


def extract_parent(rev: str, into: Path) -> None:
    """REV's src/collapsim, written to into/PARENT_PACKAGE; RuntimeError if git fails."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/collapsim"],
                          capture_output=True)
    if done.returncode != 0:
        raise RuntimeError(f"cannot read {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into, filter="data")
    (into / "src" / "collapsim").rename(into / PARENT_PACKAGE)


def import_order(run: int) -> tuple[str, str]:
    """The trees in the order run number `run` imports them."""
    return TREES if run % 2 == 0 else TREES[::-1]


def without_out(argv: list[str]) -> list[str]:
    """argv with its --out flag and path left out."""
    at = argv.index("--out")
    return argv[:at] + argv[at + 2:]


def time_job(main: Callable, argv: list[str]) -> float:
    """Seconds one main(argv) call takes, stdout into an io.StringIO;
    RuntimeError unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {' '.join(argv)}")
    return elapsed


def measure(mains: dict[str, Callable], jobs: list, column: str) -> dict:
    """Each job's fastest time, in seconds, per tree, after one pass that
    warms both trees up and is not counted."""
    best = {tree: [float("inf")] * len(jobs) for tree in mains}
    order = list(mains)
    for counted in [False] + [True] * PASSES:
        for i, job in enumerate(jobs):
            argv = job.argv if column == "out" else without_out(job.argv)
            for tree in order:
                elapsed = time_job(mains[tree], argv)
                if counted:
                    best[tree][i] = min(best[tree][i], elapsed)
        order.reverse()
    return best


def fit(jobs: list, seconds: list[float]) -> dict[str, tuple[float, float]]:
    """Per kind, the least-squares (fixed µs, ns per trial) of the jobs' times."""
    by_kind = defaultdict(list)
    for job, s in zip(jobs, seconds):
        by_kind[job.kind].append((job.units, s))
    fits = {}
    for kind, points in sorted(by_kind.items()):
        units, times = np.array(points).T
        per_trial, fixed = np.polyfit(units, times, 1).tolist()
        fits[kind] = (round(fixed * 1e6, 1), round(per_trial * 1e9, 1))
    return fits


def one_run(temp: str, column: str, run: int) -> dict[str, dict[str, tuple[float, float]]]:
    """Per tree, the fits of one run of `column`, in this (fresh) interpreter:
    the packages imported in run's order, REV's found under temp."""
    sys.path[:0] = [str(ROOT / "bench"), temp, str(ROOT / "src")]
    import workloads

    modules = {"parent": f"{PARENT_PACKAGE}.cli", "change": "collapsim.cli"}
    mains = {tree: importlib.import_module(modules[tree]).main for tree in import_order(run)}
    work = Path(temp) / "work"
    work.mkdir(exist_ok=True)
    jobs = workloads.build("sweep_sampled", SEED, work)
    return {tree: fit(jobs, seconds) for tree, seconds in measure(mains, jobs, column).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    parser.add_argument("--out", help="the path to write the fit to as JSON")
    args = parser.parse_args(argv)

    result = {
        "how": (f"cli.main on each job of sweep_sampled's seed-{SEED} list, {args.parent}'s "
                "package and this tree's alternating job by job, the order swapped every "
                f"pass; min of {PASSES} passes per job after one uncounted pass; "
                "least-squares fit time = fixed + per_trial * trials per kind; "
                f"{RUNS} runs per column, each in a fresh interpreter, {args.parent}'s "
                "package imported first in even-numbered runs and this tree's in odd ones. "
                "'stringio': the job's --out removed and stdout into an io.StringIO; 'out': "
                "the job's own --out file, rewritten every pass"),
        "parent": args.parent,
        "imported_first": [import_order(run)[0] for run in range(RUNS)],
    }
    # one fresh interpreter per run, one at a time
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="fixed-cost-") as temp, \
            spawn.Pool(1, maxtasksperchild=1) as pool:
        try:
            extract_parent(args.parent, Path(temp))
        except RuntimeError as exc:
            print(f"fixed_cost: {exc}", file=sys.stderr)
            return 2
        try:
            for column in COLUMNS:
                table = defaultdict(lambda: {"fixed_us": {tree: [] for tree in TREES},
                                             "ns_per_trial": {tree: [] for tree in TREES},
                                             "fixed_change": []})
                for run in range(RUNS):
                    fits = pool.apply(one_run, (temp, column, run))
                    for kind in fits["parent"]:
                        entry = table[kind]
                        for tree in TREES:
                            fixed, per_trial = fits[tree][kind]
                            entry["fixed_us"][tree].append(fixed)
                            entry["ns_per_trial"][tree].append(per_trial)
                        parent, change = (entry["fixed_us"][tree][-1] for tree in TREES)
                        entry["fixed_change"].append(round(change / parent - 1, 3))
                for entry in table.values():
                    entry["fixed_change_median"] = round(statistics.median(entry["fixed_change"]), 4)
                result[column] = dict(table)
        except RuntimeError as exc:
            print(f"fixed_cost: a job failed: {exc}", file=sys.stderr)
            return 2
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for column in COLUMNS:
        for kind, entry in result[column].items():
            fixed, per_trial = entry["fixed_us"], entry["ns_per_trial"]
            print(f"{column} {kind}: fixed {fixed['parent']} -> {fixed['change']} us "
                  f"(change {entry['fixed_change']}, median {entry['fixed_change_median']}), "
                  f"per trial {per_trial['parent']} -> {per_trial['change']} ns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
