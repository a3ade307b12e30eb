"""tools/fixed_cost.py's fit and job arguments."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fixed_cost.py"
_SPEC = importlib.util.spec_from_file_location("fixed_cost_tool", _PATH)
fixed_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fixed_cost)


def test_without_out_drops_the_flag_and_its_path():
    argv = ["fwt", "--trials", "5", "--out", "out.txt", "--seed", "3"]
    assert fixed_cost.without_out(argv) == ["fwt", "--trials", "5", "--seed", "3"]


def test_fit_recovers_each_kinds_line():
    # 120 us + 50 ns per trial for fwt, 300 us + 40 ns per trial for asc
    lines = {"fwt": (120e-6, 50e-9), "asc": (300e-6, 40e-9)}
    jobs, seconds = [], []
    for kind, (fixed, per_trial) in lines.items():
        for units in (100, 1000, 10_000):
            jobs.append(SimpleNamespace(kind=kind, units=units))
            seconds.append(fixed + per_trial * units)
    assert fixed_cost.fit(jobs, seconds) == {"asc": (300.0, 40.0), "fwt": (120.0, 50.0)}


def test_each_tree_is_imported_first_in_half_the_runs():
    firsts = [fixed_cost.import_order(run)[0] for run in range(fixed_cost.RUNS)]
    assert firsts.count("parent") == firsts.count("change") == fixed_cost.RUNS // 2
    assert all(sorted(fixed_cost.import_order(run)) == ["change", "parent"]
               for run in range(fixed_cost.RUNS))
