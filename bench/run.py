"""collapsim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep_sampled --seed 1 --seconds 10 --trace 0

One process runs the workload's seeded list of `collapsim.cli.main(argv)`
jobs one after another (a closed loop with one client), checks every
output, and prints every metric by name and unit; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics. `--trace 1` wraps collapsim's
public functions from outside, reports the per-layer metrics and the
tracing overhead, and writes the spans to .bench_work/. The exit code is 0
only when every check passed. See bench/README.md for the workloads.
"""

from __future__ import annotations

import os

# BLAS threads are capped before numpy loads, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_KERNEL_S, Speedometer  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import Job  # noqa: E402

BENCH = Path(__file__).resolve().parent
#: fresh interpreters started, one after another, to time set-up
SETUP_STARTS = 3


@dataclass
class JobResult:
    job: Job
    started: float  # perf_counter() at the call
    seconds: float
    text: str | None  # deterministic output, when asked for


class Runner:
    """Runs jobs in this process, checks each output, counts attempts and failures."""

    def __init__(self, cli, speed: Speedometer, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.speed = speed
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def trace(self, on: bool) -> None:
        if on and not self.tracing:
            self.tracer.enable()
        elif self.tracing and not on:
            self.tracer.disable()
        self.tracing = on

    def run(self, job: Job, capture: bool = False, expect_text: str | None = None) -> JobResult:
        if self.tracing:
            self.tracer.begin_job(job.id)
        job.out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(job.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        try:
            problems = checks.check(job, rc, err.getvalue())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        text = None
        if capture or expect_text is not None:
            text = checks.deterministic_text(job)
        if expect_text is not None and text != expect_text:
            problems.append("a rerun changed a deterministic line")
        if job.kind != "behavior-generate":  # generated files feed classify jobs
            job.out.unlink(missing_ok=True)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{job.id}: {p}" for p in problems)
        return JobResult(job, start, seconds, text)

    def timed_pass(self, jobs: list[Job], seconds: float,
                   capture: set[str]) -> tuple[list[JobResult], list[JobResult]]:
        """Whole passes over the list until `seconds` of wall time have passed.

        Whole passes keep the job mix of every run the same. With a tracer,
        each job runs twice, traced and untraced in alternating order, so
        machine drift does not enter the tracing overhead. Returns the
        traced and the untraced results (one list twice without a tracer).
        """
        traced, untraced = [], []
        modes = [(True, False), (False, True)] if self.tracer else [(False,)]
        start = time.perf_counter()
        first = True
        i = 0
        while first or time.perf_counter() - start < seconds:
            for job in jobs:
                self.speed.tick()
                for on in modes[i % len(modes)]:
                    self.trace(on)
                    keep = first and job.id in capture and (on or not self.tracer)
                    (traced if on else untraced).append(self.run(job, capture=keep))
                self.trace(False)
                i += 1
            first = False
        return (traced, untraced) if self.tracer else (untraced, untraced)

    def rerun(self, first: list[JobResult]) -> None:
        """Each captured job again: its deterministic lines must repeat byte for byte."""
        for result in first:
            self.run(result.job, expect_text=result.text)


def rerun_candidates(jobs: list[Job]) -> set[str]:
    """Ids of the smallest job of each kind."""
    best: dict[str, Job] = {}
    for job in jobs:
        if job.kind not in best or job.units < best[job.kind].units:
            best[job.kind] = job
    return {job.id for job in best.values()}


# --- set-up in fresh interpreters --------------------------------------------


def measure_setup(root: Path, warm: list[Job], work: Path) -> list[dict]:
    """SETUP_STARTS fresh interpreters, one at a time, each importing
    collapsim.cli, running the warm-up jobs and then timing the reference
    kernel."""
    spec = work / "warmup.json"
    spec.write_text(json.dumps([job.argv for job in warm]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    probes = []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), str(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# --- environment record ----------------------------------------------------------


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# --- metrics -----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timings(timed: list[JobResult], times: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "work_per_s": sum(r.job.units for r in timed) / sum(times),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
    }


def raw_timings(timed: list[JobResult], probes: list[dict]) -> dict[str, float]:
    """End-to-end times as measured, at whatever speed the machine ran."""
    return timings(timed, [r.seconds for r in timed], [p["setup_s"] for p in probes])


def end_to_end(timed: list[JobResult], probes: list[dict], runner: Runner) -> dict[str, float]:
    """The end-to-end metrics, times at the reference machine speed: each job
    scaled by the kernel samples around it, each set-up by the kernel time
    of its own interpreter."""
    speed = runner.speed
    times = [r.seconds / speed.slowdown(r.started, r.started + r.seconds) for r in timed]
    setups = [p["setup_s"] * REFERENCE_KERNEL_S / p["kernel_s"] for p in probes]
    return {
        **timings(timed, times, setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(tracer, traced: list[JobResult], untraced: list[JobResult], warm: list[Job],
              probes: list[dict], raw: dict[str, float], e2e: dict[str, float],
              runner: Runner) -> dict[str, float]:
    totals = tracer.totals()
    counters = tracer.counters
    values: dict[str, float] = {}
    for _, _, span in TARGETS:
        calls, total, self_s = totals.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
        values[f"{span}.us_per_call"] = _ratio(total, calls) * 1e6
    for policy in ("Born", "Forced"):
        key = f"policies.sample_from_born.{policy}"
        values[f"{key}.us_per_call"] = _ratio(counters[f"{key}.total_s"],
                                              counters[f"{key}.calls"]) * 1e6
    hits = counters["kochen_specker.memo.hits"]
    misses = counters["kochen_specker.memo.misses"]
    cnf_jobs = sum(1 for j in warm + [r.job for r in traced] if j.kind == "sat-cnf")
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    units = sum(r.job.units for r in traced)
    values.update({
        "policies.forbidden.count": counters["policies.forbidden.count"],
        "policies.fallback_ratio": _ratio(counters["policies.fallbacks"], counters["policies.samples"]),
        "kochen_specker.memo.hits": hits,
        "kochen_specker.memo.misses": misses,
        "kochen_specker.memo.hit_ratio": _ratio(hits, hits + misses),
        "agent.tie_break_ratio": _ratio(counters["agent.ties"], counters["agent.selections"]),
        "sat.flag_forbidden_ratio": _ratio(counters["sat.flag_forbidden"], counters["sat.decisions"]),
        "sat.parse_dimacs.calls_per_cnf_job": _ratio(values["sat.parse_dimacs.calls"], cnf_jobs),
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.render_report.bytes": counters["cli.render_report.bytes"],
        "trace.traced_work_per_s": units / traced_s,
        "trace.untraced_work_per_s": units / untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.jobs": len(traced),
        "jobs_failed_frac": runner.failed / runner.attempted,
        "speed.reference_kernel_ms": runner.speed.median_ms(),
        "speed.slowdown": e2e["work_per_s"] / raw["work_per_s"],
        "speed.setup_slowdown": statistics.median(p["kernel_s"] for p in probes) / REFERENCE_KERNEL_S,
        **{f"raw.{name}": value for name, value in raw.items()},
    })
    return values


def select(values: dict[str, float], kind: str) -> dict[str, dict]:
    """Exactly the `kind` metrics BENCHMARK.json declares, with their units."""
    specs = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[kind]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


# --- main ----------------------------------------------------------------------------


def bench(args, root: Path, work: Path) -> int:
    phases: dict[str, float] = {}  # wall seconds of each step, for the log
    clock = [time.perf_counter()]

    def lap(name: str) -> None:
        now = time.perf_counter()
        phases[name] = round(now - clock[0], 3)
        clock[0] = now

    env = environment(root)
    jobs = workloads.build(args.workload, args.seed, work)
    warm = workloads.warmup(work)
    lap("inputs")
    probes = measure_setup(root, warm, work)
    lap("setup_probes")

    sys.path.insert(0, str(root / "src"))
    from collapsim import cli
    lap("import")

    tracer = Tracer() if args.trace else None
    runner = Runner(cli, Speedometer(), tracer)
    runner.trace(tracer is not None)
    for job in warm:
        runner.run(job)
    runner.trace(False)
    lap("warmup")
    capture = rerun_candidates(jobs)
    timed, untraced = runner.timed_pass(jobs, args.seconds, capture)
    lap("timed_pass")
    runner.rerun([r for r in timed if r.text is not None])
    lap("reruns")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(timed)} timed jobs "
          f"({len(jobs)} in the list) ran {sum(r.seconds for r in timed):.3f} s for "
          f"{sum(r.job.units for r in timed)} work units; {runner.attempted} jobs checked, "
          f"{runner.failed} failed")
    print(f"phases_s {json.dumps(phases)}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    raw = raw_timings(untraced, probes)
    values = e2e = end_to_end(untraced, probes, runner)
    kind = "end_to_end"
    print(f"reference kernel: {runner.speed.median_ms():.3f} ms over "
          f"{len(runner.speed.samples)} samples in the timed pass, "
          f"{statistics.median(p['kernel_s'] for p in probes) * 1e3:.3f} ms in the set-up probes")
    print("as measured " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    if tracer is not None:
        values = per_layer(tracer, timed, untraced, warm, probes, raw, e2e, runner)
        kind = "per_layer"
        print("untraced, at reference speed " + " ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
        trace_path = root / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "env": env, "metrics": values})
        print(f"spans written to {trace_path.relative_to(root)}")
    metrics = select(values, kind)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "collapsim" / "cli.py").is_file():
        print("bench: no src/collapsim/cli.py here; run from the repository root",
              file=sys.stderr)
        return 2
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        return bench(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
