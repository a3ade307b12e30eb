"""tools/compare.py's reading of two trees' results: what it names as differing."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare_tool", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def _line(**fields):
    return json.dumps(fields, sort_keys=True)


@pytest.mark.parametrize("text,seeds", [
    ("0-3", [0, 1, 2, 3]), ("5", [5]), ("0,2,4-5", [0, 2, 4, 5]),
])
def test_seed_list(text, seeds):
    assert compare.seed_list(text) == seeds


def test_untimed_drops_only_the_timing_record():
    text = _line(record="config") + "\n" + _line(record="timing", duration_seconds=0.1) + "\n"
    assert compare.untimed(text) == [_line(record="config")]


def test_one_ulp_names_its_field():
    rate = 0.2
    after = math.nextafter(rate, 1.0)
    a = [_line(record="config"), _line(record="aggregate", detection_rate=rate, trials=5)]
    b = [_line(record="config"), _line(record="aggregate", detection_rate=after, trials=5)]
    assert compare.line_fields(a, b) == {"aggregate.detection_rate"}


@pytest.mark.parametrize("x,y,fields", [
    # equal as numbers, different as JSON
    ({"record": "trial", "v": 1}, {"record": "trial", "v": 1.0}, {"trial.v"}),
    ({"record": "trial", "v": 1}, {"record": "trial", "v": True}, {"trial.v"}),
    ({"record": "trial", "v": 1}, {"record": "trial"}, {"trial.v"}),
])
def test_fields_differ_by_their_json_text(x, y, fields):
    assert compare.line_fields([json.dumps(x)], [json.dumps(y)]) == fields


def test_layout_lines_and_text():
    a = _line(record="aggregate", n=1, m=2)
    reordered = json.dumps({"record": "aggregate", "m": 2, "n": 1})
    assert compare.line_fields([a], [reordered]) == {"aggregate.(layout)"}
    assert compare.line_fields([a], [a, a]) == {"(line count)"}
    assert compare.line_fields(["1.5"], ["1.25"]) == {"(not a JSON object)"}
    assert compare.line_fields(["(1,0)"], ["(0,1)"]) == {"(not JSON)"}


def test_differences_of_one_job():
    job = {"rc": 0, "stderr": "", "stdout": [], "out": {"sha256": "ab", "bytes": 2}}
    assert compare.differences(job, dict(job)) == set()
    assert compare.differences(job, {**job, "rc": 1, "stderr": "x"}) == {"exit code", "stderr"}
    assert compare.differences(job, {**job, "out": {"sha256": "cd", "bytes": 2}}) == {
        "out file (sha256)"}
    assert compare.differences(job, {**job, "out": None}) == {
        "out file written by one tree only"}
    report = {**job, "out": {"lines": [_line(record="aggregate", n=1)]}}
    other = {**job, "out": {"lines": [_line(record="aggregate", n=2)]}}
    assert compare.differences(report, other) == {"aggregate.n"}
