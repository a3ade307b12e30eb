"""tools/pairs.py's summary of canned runs and its alternating order."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs_tool", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.22},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def canned(values: dict[str, list[tuple[float, float]]], correct=True) -> list[dict]:
    """Runs of pairs 0.., seed 100 + pair, in each pair's running order; values
    maps a metric to each pair's (parent, change) value."""
    runs = []
    pairs_made = len(next(iter(values.values())))
    for pair in range(pairs_made):
        for side in pairs.order(pair):
            at = pairs.SIDES.index(side)
            metrics = {name: {"value": v[pair][at], "unit": "-"} for name, v in values.items()}
            runs.append({"workload": "w", "pair": pair, "seed": 100 + pair, "side": side,
                         "result": {"correct": correct, "attempted": 5, "failed": 0,
                                    "metrics": metrics}})
    return runs


def test_summary_of_canned_runs():
    runs = canned({
        # higher is better: the change wins pairs 1, 2 and 3; pair 0 is a tie
        "work_per_s": [(100, 100), (90, 99), (110, 120), (100, 101)],
        # lower is better: the change wins pair 0 only
        "job_p50_ms": [(2.0, 1.0), (2.0, 2.5), (2.0, 3.0), (2.0, 2.5)],
    })
    entry = pairs.summary(runs, END_TO_END)
    assert (entry["seeds"], entry["pairs"], entry["all_correct"]) == ([100, 101, 102, 103], 4, True)
    work = entry["metrics"]["work_per_s"]
    # inclusive quartiles of 90, 100, 100, 110 and of 99, 100, 101, 120
    assert work["parent"] == {"q1": 97.5, "median": 100.0, "q3": 102.5, "runs": 4}
    assert work["change"] == {"q1": 99.75, "median": 100.5, "q3": 105.75, "runs": 4}
    assert work["change_wins"] == 3
    assert work["relative_gain"] == 0.005
    assert (work["bound"], work["within_bound"]) == (0.22, True)
    assert work["median_gap_exceeds_parent_iqr"] is False
    p50 = entry["metrics"]["job_p50_ms"]
    assert (p50["parent"]["median"], p50["change"]["median"]) == (2.0, 2.5)
    assert p50["change_wins"] == 1
    # signed so that positive is better: a 25% slower median, at its bound
    assert p50["relative_gain"] == -0.25 and p50["within_bound"] is True
    # the parent's quartiles are all 2.0: any gap exceeds its IQR
    assert p50["median_gap_exceeds_parent_iqr"] is True


def test_a_failed_run_is_not_correct_and_drops_out():
    runs = canned({"work_per_s": [(100, 100), (100, 90)]})
    # pair 1's change run, which ran first, printed no result
    (failed,) = [run for run in runs if (run["pair"], run["side"]) == (1, "change")]
    failed["result"] = None
    entry = pairs.summary(runs, END_TO_END)
    assert entry["all_correct"] is False
    work = entry["metrics"]["work_per_s"]
    assert work["parent"]["runs"] == 2 and work["change"]["runs"] == 1
    assert work["change"] == {"q1": 100.0, "median": 100.0, "q3": 100.0, "runs": 1}
    assert "job_p50_ms" not in entry["metrics"]
    assert pairs.summary(canned({"work_per_s": [(1, 1)]}, correct=False),
                         END_TO_END)["all_correct"] is False


@pytest.mark.parametrize("count", [1, 2, 10, 11])
def test_sides_alternate_which_runs_first(count):
    firsts = [pairs.order(pair)[0] for pair in range(count)]
    assert firsts[::2] == ["parent"] * len(firsts[::2])
    assert firsts[1::2] == ["change"] * len(firsts[1::2])
    assert all(sorted(pairs.order(pair)) == ["change", "parent"] for pair in range(count))


def test_seeds_use_compare_syntax():
    assert pairs.seed_list("4401-4403,4410") == [4401, 4402, 4403, 4410]
