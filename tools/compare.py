"""Compare the output of every job of a benchmark workload between a git
revision and this tree.

    python tools/compare.py --parent REV --workload per_trial_io --seeds 0-3

The job lists are built by bench/workloads.py, imported as it is. Every
input file is written once into one work directory, so a report that echoes
an input path (sat, behavior classify) echoes the same path in both trees.
REV is checked out with `git worktree add --detach` into a temporary
directory, removed afterwards; this tree is the working tree this script
lives in, uncommitted changes included. Each tree runs every job, in order,
through its own collapsim.cli.main in one fresh Python process.

For each job it compares the exit code, stderr, stdout and the file the job
writes (its --out path): a json-lines report line by line with its timing
record left out, any other file by its sha256. It prints the differing jobs
by kind and, for json-lines records, each differing field (record.key) with
the number of jobs it differs in. Exit status: 0 when nothing differs, 1
when anything does, 2 when the comparison could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMING = '"record": "timing"'


def seed_list(text: str) -> list[int]:
    """The seeds "0-3", "5" or "0,2,4-5" name, in order."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def untimed(text: str) -> list[str]:
    """A report's lines without its timing record."""
    return [line for line in text.splitlines() if TIMING not in line]


# --- the worker: one tree's process ------------------------------------------


def work(src: str, jobs_path: str, results_path: str) -> int:
    """Run each job of jobs_path with the collapsim of src, in order, and write
    one JSON line per job to results_path."""
    sys.path.insert(0, src)
    from collapsim import cli

    jobs = json.loads(Path(jobs_path).read_text())
    with open(results_path, "w", encoding="utf-8") as results:
        for job in jobs:
            out = Path(job["out"])
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(job["argv"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc = None
                    stderr.write(traceback.format_exc())
            written = None
            if out.exists():
                data = out.read_bytes()
                if data.startswith(b"{"):  # a json-lines report
                    written = {"lines": untimed(data.decode("utf-8"))}
                else:
                    written = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
                if job["kind"] != "behavior-generate":  # its classify job reads it next
                    out.unlink()
            record = {"seed": job["seed"], "id": job["id"], "kind": job["kind"], "rc": rc,
                      "stderr": stderr.getvalue(), "stdout": untimed(stdout.getvalue()),
                      "out": written}
            results.write(json.dumps(record) + "\n")
    return 0


# --- the comparison ----------------------------------------------------------


def line_fields(a: list[str], b: list[str]) -> set[str]:
    """What differs between two lists of report lines: for JSON objects each
    differing field as record.key, where a field's JSON text differs."""
    fields = set()
    if len(a) != len(b):
        fields.add("(line count)")
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            rx, ry = json.loads(x), json.loads(y)
        except ValueError:
            fields.add("(not JSON)")
            continue
        if not (isinstance(rx, dict) and isinstance(ry, dict)):
            fields.add("(not a JSON object)")
            continue
        record = rx.get("record", "?")
        keys = {k for k in rx.keys() | ry.keys()
                if k not in rx or k not in ry or json.dumps(rx[k]) != json.dumps(ry[k])}
        fields.update(f"{record}.{k}" for k in keys)
        if not keys:
            fields.add(f"{record}.(layout)")
    return fields


def differences(a: dict, b: dict) -> set[str]:
    """What differs between two trees' results of one job."""
    found = set()
    if a["rc"] != b["rc"]:
        found.add("exit code")
    if a["stderr"] != b["stderr"]:
        found.add("stderr")
    found.update(f"stdout {f}" for f in line_fields(a["stdout"], b["stdout"]))
    out_a, out_b = a["out"], b["out"]
    if (out_a is None) != (out_b is None):
        found.add("out file written by one tree only")
    elif out_a is not None and out_a != out_b:
        if "lines" in out_a and "lines" in out_b:
            found.update(line_fields(out_a["lines"], out_b["lines"]))
        else:
            found.add("out file (sha256)")
    return found


def compare(parent_results: Path, results: Path) -> tuple[Counter, dict, dict]:
    """Jobs per kind, the differing job names per kind, and per kind how many
    jobs each difference occurs in."""
    jobs, differing, counts = Counter(), defaultdict(list), defaultdict(Counter)
    with open(parent_results, encoding="utf-8") as fa, open(results, encoding="utf-8") as fb:
        for line_a, line_b in zip(fa, fb, strict=True):
            a, b = json.loads(line_a), json.loads(line_b)
            kind = a["kind"]
            jobs[kind] += 1
            found = differences(a, b)
            if found:
                differing[kind].append(f"seed {a['seed']} {a['id']}")
                counts[kind].update(found)
    return jobs, differing, counts


def run_tree(tree: Path, jobs_path: Path, results: Path) -> None:
    """One tree's worker process; RuntimeError if it fails."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree / "src"),
         str(jobs_path), str(results)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the worker for {tree} failed:\n{done.stderr}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return work(*argv[1:])
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="0-3", type=seed_list,
                        help="workload seeds: 0-3, 5 or 0,2,4-5 (default 0-3)")
    args = parser.parse_args(argv)

    temp = Path(tempfile.mkdtemp(prefix="compare-"))
    parent = temp / "parent"
    try:
        added = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(parent),
             args.parent], capture_output=True, text=True,
        )
        if added.returncode != 0:
            print(f"compare: cannot check out {args.parent}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        inputs = temp / "work"
        inputs.mkdir()
        jobs = [{"seed": seed, "id": job.id, "kind": job.kind, "argv": job.argv,
                 "out": str(job.out)}
                for seed in args.seeds for job in workloads.build(args.workload, seed, inputs)]
        jobs_path = temp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        results = {name: temp / f"{name}.jsonl" for name in ("parent", "tree")}
        try:
            run_tree(parent, jobs_path, results["parent"])
            run_tree(ROOT, jobs_path, results["tree"])
        except RuntimeError as exc:
            print(f"compare: {exc}", file=sys.stderr)
            return 2
        per_kind, differing, counts = compare(results["parent"], results["tree"])
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)],
                       capture_output=True)
        shutil.rmtree(temp, ignore_errors=True)

    total = sum(per_kind.values())
    failing = sum(map(len, differing.values()))
    print(f"{args.workload}, seeds {','.join(map(str, args.seeds))}: {total} jobs, "
          f"{failing} differ between {args.parent} and this tree")
    for kind in sorted(per_kind):
        names = differing.get(kind, [])
        print(f"{kind}: {len(names)} of {per_kind[kind]} jobs differ")
        if names:
            print("  jobs: " + ", ".join(names))
        for what, count in sorted(counts[kind].items()):
            print(f"  {what}: {count} job{'s' if count > 1 else ''}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
