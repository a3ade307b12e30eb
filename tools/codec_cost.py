"""Time the interval codec of a git revision and of this tree, and count the
page faults of a fresh `behavior generate` and `classify` under each.

    python tools/codec_cost.py --parent REV [--out codec.json]

Codec time: format_intervals and read_intervals on LENGTH Pareto and
exponential values (seed SEED, rate 2), in ms per 10^6 values. REV's
src/collapsim is extracted with `git archive` and imported under another name
beside this tree's collapsim, uncommitted changes included. Each run is a
fresh interpreter that imports both packages, REV's first in even-numbered
runs and this tree's first in odd ones (RUNS is even); within a run the trees
take turns, the order swapped every repeat, and each keeps its fastest of
REPEATS. Formatting is timed to its last piece; reading is timed on the text
cut as harnesses.read_text cuts a file, at each tree's own READ_CHUNK.

Fresh processes: FAULT_RUNS runs, the trees alternating within each, of a
fresh `python -m <package>.cli` process per tree for a bare `ks`, a
`behavior generate --length LENGTH` to a file and a `behavior classify` of
it: each job's wall time from spawn to exit, and its minor faults and peak RSS
read by wait4 and taken above the bare `ks` of the same tree, as
tests/test_behavior.py's fault tests take them (faults, and faults per page of
extra peak RSS; peak RSS in MB). Each is measured with glibc's malloc left at its
defaults and with its trim threshold fixed at 128 KiB (MALLOC_TRIM_THRESHOLD_,
set in the child only).

It prints the medians, and for each job the runs the change was faster in,
and writes every run and the medians as JSON to the --out path, if given, for
a BENCH_<n>.json to embed.
Exit status: 0 when every run ran, 2 when one could not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from fixed_cost import PARENT_PACKAGE, ROOT, TREES, extract_parent, import_order  # noqa: E402

#: values per codec timing and per generated file
LENGTH = 10**6
KINDS = ("pareto", "exponential")
SEED = 45
#: fresh interpreters timing the codec; even, so each tree is imported first in half
RUNS = 6
#: timings per tree, step and kind in one run; each keeps the fastest
REPEATS = 5
#: fresh ks, generate and classify processes per tree and malloc setting
FAULT_RUNS = 11
#: the malloc settings the fault runs use, added to the child's environment
SETTINGS = {"default": {}, "trim_131072": {"MALLOC_TRIM_THRESHOLD_": "131072"}}
PACKAGES = {"parent": PARENT_PACKAGE, "change": "collapsim"}

#: spawns `python -m PACKAGE.cli ARGS` with stdout sent to os.devnull, reaps it
#: with wait4 so the counts are its own, and prints its exit code, minor faults,
#: peak RSS in KiB and seconds from spawn to exit; a process inherits its
#: parent's peak RSS across exec, so this small launcher, not the tool, is the
#: parent
CHILD_USAGE = """
import os, sys, time
argv = [sys.executable, "-m", sys.argv[1] + ".cli", *sys.argv[2:]]
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, argv, os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_minflt, usage.ru_maxrss,
      time.perf_counter() - start)
"""


def time_codec(packages: dict[str, str], order: tuple[str, ...]) -> dict:
    """Per tree and kind, the fastest ms per 10^6 values of formatting and of
    reading, the trees taking turns."""
    behavior = {tree: importlib.import_module(f"{packages[tree]}.behavior") for tree in order}
    chunk = {tree: importlib.import_module(f"{packages[tree]}.harnesses").READ_CHUNK
             for tree in order}
    best = {tree: {kind: {"format": float("inf"), "read": float("inf")} for kind in KINDS}
            for tree in order}
    for kind in KINDS:
        draws = behavior["change"].generate_sequence(
            kind, LENGTH, np.random.Generator(np.random.Philox(key=SEED)), rate=2.0).intervals
        text = "".join(behavior["change"].format_intervals(behavior["change"].EventSequence(draws)))
        pieces = {tree: [text[i:i + chunk[tree]] for i in range(0, len(text), chunk[tree])]
                  for tree in order}
        sequences = {tree: behavior[tree].EventSequence(draws) for tree in order}
        turn = list(order)
        for _ in range(REPEATS):
            for tree in turn:
                start = time.perf_counter()
                written = sum(map(len, behavior[tree].format_intervals(sequences[tree])))
                formatted = time.perf_counter() - start
                start = time.perf_counter()
                read = behavior[tree].read_intervals(pieces[tree]).intervals
                reading = time.perf_counter() - start
                if written != len(text) or read.tobytes() != draws.tobytes():
                    raise RuntimeError(f"{tree}: {kind} values do not round-trip")
                entry = best[tree][kind]
                entry["format"] = min(entry["format"], formatted * 1e3 * 10**6 / LENGTH)
                entry["read"] = min(entry["read"], reading * 1e3 * 10**6 / LENGTH)
            turn.reverse()
    return {tree: {kind: {step: round(ms, 2) for step, ms in steps.items()}
                   for kind, steps in kinds.items()} for tree, kinds in best.items()}


def one_run(temp: str, run: int) -> dict:
    """time_codec in this (fresh) interpreter, the packages imported in run's
    order, REV's found under temp."""
    sys.path[:0] = [temp, str(ROOT / "src")]
    return time_codec(PACKAGES, import_order(run))


def child_usage(package: str, path: str, args: list[str], environ: dict) -> tuple:
    """(minor faults, peak RSS in KiB, seconds) of one fresh `package.cli ARGS`
    process found on path; RuntimeError unless it exits 0."""
    env = {**os.environ, **environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", CHILD_USAGE, package, *args], env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{package} {' '.join(args)}: {done.stderr.strip()}")
    code, faults, rss, seconds = done.stdout.split()
    if code != "0":
        raise RuntimeError(f"{package} {' '.join(args)}: exit {code}")
    return int(faults), int(rss), float(seconds)


def above_base(usage: tuple, base: tuple) -> dict:
    """A job's minor faults above the bare run's, those faults per page of
    extra peak RSS, its peak RSS in MB and its seconds, from (faults, RSS KiB,
    seconds) of the job and of the bare run."""
    pages = (usage[1] - base[1]) / 4
    return {"faults": usage[0] - base[0], "faults_per_page": round((usage[0] - base[0]) / pages, 3),
            "peak_rss_mb": round(usage[1] / 1024, 1), "wall_s": round(usage[2], 4)}


def fault_runs(temp: str) -> dict:
    """Per malloc setting, job and tree, the runs of above_base."""
    paths = {"parent": temp, "change": str(ROOT / "src")}
    out = str(Path(temp) / "intervals.txt")
    jobs = {"generate": ["behavior", "generate", "--kind", "pareto", "--length", str(LENGTH),
                         "--seed", "3", "--out", out],
            "classify": ["behavior", "classify", "--input", out]}
    table = {setting: {job: {tree: [] for tree in TREES} for job in jobs} for setting in SETTINGS}
    for setting, environ in SETTINGS.items():
        for run in range(FAULT_RUNS):
            for tree in import_order(run):
                base = child_usage(PACKAGES[tree], paths[tree], ["ks"], environ)
                for job, args in jobs.items():
                    usage = child_usage(PACKAGES[tree], paths[tree], args, environ)
                    table[setting][job][tree].append(above_base(usage, base))
    return table


def medians(runs: list[dict]) -> dict:
    """The median of each field over runs."""
    return {field: round(statistics.median(run[field] for run in runs), 3) for field in runs[0]}


def summary(codec_runs: list[dict], faults: dict) -> dict:
    """Per kind and step the runs' ms for each tree, their medians and the
    median's relative change (change / parent - 1); per malloc setting, job
    and tree the fresh-process runs and their medians, and per job the runs
    whose change process took less time than the parent's."""
    codec = {}
    for kind in KINDS:
        for step in ("format", "read"):
            runs = {tree: [run[tree][kind][step] for run in codec_runs] for tree in TREES}
            middle = {tree: statistics.median(runs[tree]) for tree in TREES}
            codec[f"{kind}_{step}_ms"] = {
                "runs": runs, "median": middle,
                "change": round(middle["change"] / middle["parent"] - 1, 4)}
    usage = {setting: {job: {**{tree: {"runs": runs, "median": medians(runs)}
                                for tree, runs in trees.items()},
                             "change_faster": sum(change["wall_s"] < parent["wall_s"] for
                                                  parent, change in zip(*trees.values()))}
                       for job, trees in jobs.items()}
             for setting, jobs in faults.items()}
    return {"codec_ms_per_million": codec, "fresh_processes": usage}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    parser.add_argument("--out", help="the path to write the runs and medians to as JSON")
    args = parser.parse_args(argv)

    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="codec-cost-") as temp, \
            spawn.Pool(1, maxtasksperchild=1) as pool:
        try:
            extract_parent(args.parent, Path(temp))
            codec_runs = [pool.apply(one_run, (temp, run)) for run in range(RUNS)]
            faults = fault_runs(temp)
        except RuntimeError as exc:
            print(f"codec_cost: {exc}", file=sys.stderr)
            return 2
    result = {
        "how": (f"format_intervals and read_intervals of {LENGTH} values per kind, {args.parent}'s "
                f"package and this tree's in one fresh interpreter per run, taking turns, fastest "
                f"of {REPEATS} each; {RUNS} runs, {args.parent}'s package imported first in "
                "even-numbered ones; ms per 10^6 values. Fresh processes: `behavior generate "
                f"--length {LENGTH}` and `classify`, seconds from spawn to exit, and faults, "
                f"faults per page and peak RSS above a bare `ks` run, {FAULT_RUNS} runs per tree and "
                "malloc setting, the trees alternating"),
        "parent": args.parent,
        "imported_first": [import_order(run)[0] for run in range(RUNS)],
        **summary(codec_runs, faults),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for name, entry in result["codec_ms_per_million"].items():
        middle = entry["median"]
        print(f"{name}: {middle['parent']:.1f} -> {middle['change']:.1f} ({entry['change']:+.1%})")
    for setting, jobs in result["fresh_processes"].items():
        for job, trees in jobs.items():
            parent, change = (trees[tree]["median"] for tree in TREES)
            print(f"{setting} {job}: {parent['wall_s']:.3f} -> {change['wall_s']:.3f} s "
                  f"(change faster in {trees['change_faster']} of {FAULT_RUNS}), faults "
                  f"{parent['faults']:.0f} -> {change['faults']:.0f}, per page "
                  f"{parent['faults_per_page']} -> {change['faults_per_page']}, peak RSS "
                  f"{parent['peak_rss_mb']} -> {change['peak_rss_mb']} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
