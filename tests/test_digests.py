"""Cross-process byte gate for the seven acceptance-criterion-13 configs.

Criterion 13 compares two runs inside one process. The SHA-256 digests
below were computed once and committed, so they also catch drift between
processes, library versions and code changes: in stream derivation, trial
order, sampling arithmetic or serialization. A change that alters these
bytes on purpose must announce it and update the digests.
"""

import hashlib

import pytest

from collapsim.cli import build_config, render_report, run

CONFIGS = {
    "ks": {"experiment": "ks", "seed": 0},
    "fwt": {"experiment": "fwt", "seed": 13, "trials": 500, "per_trial": True},
    "signal": {"experiment": "signal", "seed": 13, "mode": "empirical", "trials": 400,
               "policy1": "biased:0.8,0.2"},
    "energy": {"experiment": "energy", "seed": 13, "weights": "1,0"},
    "sat": {"experiment": "sat", "seed": 13, "truth_table": "f.tt"},
    "asc": {"experiment": "asc", "seed": 13, "trials": 300, "per_trial": True},
    "behavior": {"experiment": "behavior", "seed": 13, "mode": "generate",
                 "kind": "pareto", "length": 1000},
}

DIGESTS = {
    "ks": "4fc72f0d736b9809120b34364c9bc2d01dabd0f1ef47291643b004f4e487c22c",
    "fwt": "aa6e2cddeec2214bf338d6a88789e613a51b215f4f7f6de809f699fefdd12a16",
    "signal": "6c1494b922dd07a63af6c9635f759d40cdf8112db60e3a67399dacb9e0b33c9c",
    "energy": "808343c1d068c35aeefe42c112cd09d6d5066b16b22a29601dce5a8452179c27",
    "sat": "c1df5e2f400d78defc6193ffeaf0f9daec34d7e17da08c57aa72b63f46370233",
    "asc": "b552d6877c6c6cf719d2a52c0e0d114159eb4e967c582b73383c48c81d4e1e87",
    "behavior": "2111def1fd9b0c983f92df78ef423b790d7f7c1625d9021483794f11e7048a97",
}


def deterministic_bytes(raw: dict) -> bytes:
    """Every report line but the timing record, then any plain-file output."""
    report = run(build_config(raw))
    lines = render_report(report, "json-lines").splitlines()
    kept = [line for line in lines if '"record": "timing"' not in line]
    text = "\n".join(kept) + "\n" + (report.plain_output or "")
    return text.encode()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_deterministic_lines_match_pinned_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sat config names its table relatively
    (tmp_path / "f.tt").write_text("0010")
    digest = hashlib.sha256(deterministic_bytes(CONFIGS[name])).hexdigest()
    assert digest == DIGESTS[name], name
