"""tools/codec_cost.py's fault arithmetic and summary, on canned runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codec_cost.py"
_SPEC = importlib.util.spec_from_file_location("codec_cost_tool", _PATH)
codec_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codec_cost)


def test_faults_per_page_of_extra_peak_rss():
    # 6000 faults at 40 MB against a bare run's 1000 at 20 MB: 5000 faults
    # over 5120 pages of 4 KiB
    assert codec_cost.above_base((6000, 40 * 1024, 0.25), (1000, 20 * 1024, 0.2)) == \
        {"faults": 5000, "faults_per_page": 0.977, "peak_rss_mb": 40.0, "wall_s": 0.25}


def test_summary_takes_medians_and_the_relative_change():
    def run(parent, change):
        steps = {"format": parent, "read": 2 * parent}
        return {"parent": dict.fromkeys(codec_cost.KINDS, steps),
                "change": dict.fromkeys(codec_cost.KINDS, {"format": change, "read": 2 * change})}

    codec_runs = [run(100.0, 80.0), run(110.0, 90.0), run(120.0, 85.0)]
    usage = {"parent": [{"faults_per_page": 0.4, "peak_rss_mb": 46.0, "wall_s": 1.0},
                        {"faults_per_page": 0.5, "peak_rss_mb": 47.0, "wall_s": 1.2},
                        {"faults_per_page": 0.3, "peak_rss_mb": 45.0, "wall_s": 0.9}],
             "change": [{"faults_per_page": 0.2, "peak_rss_mb": 49.0, "wall_s": 1.1}] * 3}
    result = codec_cost.summary(codec_runs, {"default": {"generate": usage}})
    entry = result["codec_ms_per_million"]["pareto_format_ms"]
    assert entry["runs"] == {"parent": [100.0, 110.0, 120.0], "change": [80.0, 90.0, 85.0]}
    assert entry["median"] == {"parent": 110.0, "change": 85.0}
    assert entry["change"] == round(85 / 110 - 1, 4)
    assert result["codec_ms_per_million"]["exponential_read_ms"]["median"] == \
        {"parent": 220.0, "change": 170.0}
    fresh = result["fresh_processes"]["default"]["generate"]
    assert fresh["parent"]["median"] == {"faults_per_page": 0.4, "peak_rss_mb": 46.0, "wall_s": 1.0}
    assert fresh["change"]["runs"] == usage["change"]
    assert fresh["change_faster"] == 1  # 1.1 s against 1.0, 1.2 and 0.9


def test_each_tree_is_imported_first_in_half_the_runs():
    firsts = [codec_cost.import_order(run)[0] for run in range(codec_cost.RUNS)]
    assert firsts.count("parent") == firsts.count("change") == codec_cost.RUNS // 2
