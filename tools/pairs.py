"""Run a benchmark workload in alternating pairs, a git revision against this
tree, and summarise every end-to-end metric.

    python tools/pairs.py --parent REV --workload per_trial_io --seeds 4401-4410 [--out F]

The parent side is `git archive REV` of src, bench and BENCHMARK.json; the
change side is a copy of the same paths of this tree, uncommitted changes
included. Each lives in its own temporary directory, so the benchmark's
.bench_work/ never lands in the checkout. Pair i takes the i-th seed (the
seed syntax of tools/compare.py) and runs `bench/run.py --workload W --seed
S_i --trace 0 --seconds T` on both sides, one run at a time, T being
BENCHMARK.json's run_seconds; the parent runs first in even-numbered pairs
and the change in odd ones.

For each end_to_end metric of BENCHMARK.json it reports each side's
inclusive quartiles and median, the pairs the change won (ties count for
neither side), the relative change of the medians signed so that positive is
better, the metric's bound, whether the change stays within it, and whether
the gap between the medians exceeds the parent's interquartile range. The
--out file holds that summary, laid out as BENCH_<n>.json's end_to_end
entry of one workload, and every run. Exit status: 0 when every run is
correct, 1 when any run fails, 2 when the comparison cannot run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare import seed_list  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: what each side holds: all that bench/run.py reads
PATHS = ("src", "bench", "BENCHMARK.json")
SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair number `pair` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    """The inclusive quartiles and median of values, and their count."""
    # Python before 3.13 wants two points; one run's quartiles are its value
    points = values if len(values) > 1 else values * 2
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": len(values)}


def summary(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The end_to_end entry of one workload from its runs, two to a pair: each
    run {"pair", "seed", "side", "result"}, result being bench/run.py's last
    line, or None when the run gave none."""
    seeds = [run["seed"] for run in sorted(runs, key=lambda run: run["pair"])
             if run["side"] == "parent"]
    correct = all(run["result"] is not None and run["result"]["correct"] for run in runs)
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: {} for side in SIDES}  # side -> pair -> value
        for run in runs:
            if run["result"] is not None and name in run["result"]["metrics"]:
                values[run["side"]][run["pair"]] = run["result"]["metrics"][name]["value"]
        if not all(values.values()):
            continue
        parent, change = (quartiles(list(values[side].values())) for side in SIDES)
        paired = [pair for pair in values["parent"] if pair in values["change"]]
        gain = sign * (change["median"] - parent["median"]) / parent["median"]
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (values["change"][i] - values["parent"][i]) > 0
                               for i in paired),
            "relative_gain": round(gain, 4),
            "bound": spec["bound"],
            "within_bound": gain >= -spec["bound"],
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return {"seeds": seeds, "pairs": len(seeds), "all_correct": correct, "metrics": metrics}


def make_sides(rev: str, temp: Path) -> dict[str, Path]:
    """The parent and change directories under temp; RuntimeError if git fails."""
    sides = {side: temp / side for side in SIDES}
    done = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *PATHS], capture_output=True)
    if done.returncode != 0:
        raise RuntimeError(f"cannot read {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(sides["parent"], filter="data")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work", "*.egg-info")
    for path in PATHS:
        if (ROOT / path).is_dir():
            shutil.copytree(ROOT / path, sides["change"] / path, ignore=ignore)
        else:
            shutil.copy2(ROOT / path, sides["change"] / path)
    return sides


def bench_run(side: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """bench/run.py's last stdout line, run in side; None when it printed no result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--seconds", str(seconds)],
        cwd=side, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"pairs: seed {seed} in {side.name} gave no result:\n{done.stderr}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="one seed per pair: 0-3, 5 or 0,2,4-5")
    parser.add_argument("--out", help="the path to write the summary and the runs to as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"pairs: no workload {args.workload!r} in BENCHMARK.json", file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as temp:
        try:
            sides = make_sides(args.parent, Path(temp))
        except (RuntimeError, OSError) as exc:
            print(f"pairs: {exc}", file=sys.stderr)
            return 2
        for pair, seed in enumerate(args.seeds):
            for side in order(pair):
                result = bench_run(sides[side], args.workload, seed, spec["run_seconds"])
                runs.append({"workload": args.workload, "pair": pair, "seed": seed,
                             "side": side, "result": result})
    entry = summary(runs, spec["end_to_end"])
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"parent": args.parent, "end_to_end": {args.workload: entry}, "runs": runs},
            indent=1) + "\n")
    print(f"{args.workload}: {entry['pairs']} pairs against {args.parent}, "
          f"all correct: {entry['all_correct']}")
    for name, m in entry["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], "
              f"change {m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
              f"{m['change']['q3']:.6g}], gain {m['relative_gain']:+.2%}, "
              f"wins {m['change_wins']}/{entry['pairs']}, within bound {m['within_bound']}, "
              f"gap beyond parent IQR {m['median_gap_exceeds_parent_iqr']}")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
