"""Spans around calls into collapsim's public functions, wrapped from outside.

Each traced function is rebound, in every collapsim module that holds it
(so `from .rng import trial_rng` bindings are caught too), to a wrapper that
times the call. Validation of ProbabilityDistribution and
ProjectiveMeasurement is wrapped at the class's __post_init__. Spans are
aggregated in memory per (job, parent span, span) into calls, total time and
self time, where self time is the span's time minus the time its child spans
cover; `write` dumps them when the run ends. Wrapper overhead of a child
span lands in its parent's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.__post_init__" wraps a validator
TARGETS = [
    ("rng", "trial_rng", "rng.trial_rng"),
    ("rng", "sample_index", "rng.sample_index"),
    ("quantum", "ProbabilityDistribution.__post_init__", "quantum.ProbabilityDistribution.init"),
    ("quantum", "ProjectiveMeasurement.__post_init__", "quantum.ProjectiveMeasurement.init"),
    ("quantum", "born_distribution", "quantum.born_distribution"),
    ("quantum", "collapse", "quantum.collapse"),
    ("quantum", "register_born", "quantum.register_born"),
    ("quantum", "collapse_register", "quantum.collapse_register"),
    ("quantum", "nonselective_update", "quantum.nonselective_update"),
    ("quantum", "make_state", "quantum.make_state"),
    ("policies", "sample_from_born", "policies.sample_from_born"),
    ("policies", "policy_distribution", "policies.policy_distribution"),
    ("kochen_specker", "fwt_trial", "kochen_specker.fwt_trial"),
    ("kochen_specker", "ks_coloring_search", "kochen_specker.ks_coloring_search"),
    ("signaling", "signaling_experiment", "signaling.signaling_experiment"),
    ("signaling", "bob_marginal_analytic", "signaling.bob_marginal_analytic"),
    ("signaling", "channel_capacity", "signaling.channel_capacity"),
    ("agent", "act", "agent.act"),
    ("agent", "attention", "agent.attention"),
    ("agent", "selection", "agent.selection"),
    ("sat", "parse_dimacs", "sat.parse_dimacs"),
    ("sat", "parse_truth_table", "sat.parse_truth_table"),
    ("sat", "build_sat_state", "sat.build_sat_state"),
    ("sat", "decide_sat", "sat.decide_sat"),
    ("sat", "classical_brute_force", "sat.classical_brute_force"),
    ("energy", "audit_measurement", "energy.audit_measurement"),
    ("behavior", "generate_sequence", "behavior.generate_sequence"),
    ("behavior", "format_intervals", "behavior.format_intervals"),
    ("behavior", "read_intervals", "behavior.read_intervals"),
    ("behavior", "classify", "behavior.classify"),
    ("cli", "main", "cli.main"),
    ("cli", "validate", "cli.validate"),
    ("cli", "build_config", "cli.build_config"),
    ("cli", "run", "cli.run"),
    ("cli", "render_report", "cli.render_report"),
]


class Tracer:
    """Puts the wrappers in place, collects spans and counters, and takes the
    wrappers out again."""

    def __init__(self) -> None:
        self.spans: dict[str, dict[tuple[str, str], list]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._current: dict[tuple[str, str], list] = {}
        self._stack: list[list] = [["job", 0.0]]
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._memo_start: tuple[int, int] = (0, 0)

    def begin_job(self, job_id: str) -> None:
        self._current = self.spans.setdefault(job_id, {})

    # --- installation ------------------------------------------------------

    def enable(self) -> None:
        """Put the wrappers in place (found on the first call)."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        self._memo_start = memo_totals()

    def disable(self) -> None:
        """Restore the original functions; memo counts cover enabled time only."""
        hits, misses = memo_totals()
        self.counters["kochen_specker.memo.hits"] += hits - self._memo_start[0]
        self.counters["kochen_specker.memo.misses"] += misses - self._memo_start[1]
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, name, original, wrapper) for every place a target is bound."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "collapsim" or name.startswith("collapsim."))]
        bindings = []
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"collapsim.{module_name}"]
            observe = OBSERVERS.get(span)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                bindings.append((cls, method, original, self._wrap(span, original, observe)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, observe)
            bindings.extend((m, name, original, wrapper) for m in modules
                            for name, value in vars(m).items() if value is original)
        return bindings

    def _wrap(self, span: str, fn, observe):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(tracer.counters, args, None, exc, clock() - start)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], span)
                rec = tracer._current.get(key)
                if rec is None:
                    rec = tracer._current[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observe is not None:
                observe(tracer.counters, args, result, None, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # --- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name over all jobs: [calls, total_s, self_s]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for per_job in self.spans.values():
            for (_, span), (calls, total, self_s) in per_job.items():
                agg = out[span]
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            **extra,
            "counters": dict(self.counters),
            "jobs": {
                job: [[parent, span, calls, total, self_s]
                      for (parent, span), (calls, total, self_s) in sorted(per_job.items())]
                for job, per_job in self.spans.items()
            },
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")


def memo_totals() -> tuple[int, int]:
    """Summed (hits, misses) of the lru_cache tables in kochen_specker."""
    module = sys.modules["collapsim.kochen_specker"]
    infos = [v.cache_info() for v in vars(module).values() if hasattr(v, "cache_info")]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# --- counters observed at span boundaries -----------------------------------


def _policy_distribution(counters, args, result, exc, elapsed):
    if exc is not None and type(exc).__name__ == "ForbiddenOutcome":
        counters["policies.forbidden.count"] += 1


def _sample_from_born(counters, args, result, exc, elapsed):
    if result is None:
        return
    counters["policies.samples"] += 1
    counters["policies.fallbacks"] += bool(result.forbidden_attempted)
    policy = type(args[0]).__name__
    counters[f"policies.sample_from_born.{policy}.calls"] += 1
    counters[f"policies.sample_from_born.{policy}.total_s"] += elapsed


def _selection(counters, args, result, exc, elapsed):
    if result is not None:
        counters["agent.selections"] += 1
        counters["agent.ties"] += bool(result[1])


def _decide_sat(counters, args, result, exc, elapsed):
    if result is not None:
        counters["sat.decisions"] += 1
        counters["sat.flag_forbidden"] += not result.satisfiable


def _render_report(counters, args, result, exc, elapsed):
    if result is not None:
        counters["cli.render_report.bytes"] += len(result.encode())


OBSERVERS = {
    "policies.policy_distribution": _policy_distribution,
    "policies.sample_from_born": _sample_from_born,
    "agent.selection": _selection,
    "sat.decide_sat": _decide_sat,
    "cli.render_report": _render_report,
}
