"""The benchmark tracer wraps package functions by name; every name must exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_trace_target_resolves(module_name, attr, span):
    target = importlib.import_module(f"collapsim.{module_name}")
    for part in attr.split("."):  # "Class.__post_init__" names a validator
        target = getattr(target, part)
    assert callable(target), span


def test_the_command_line_loads_every_traced_module():
    # the tracer binds its targets through sys.modules["collapsim.<module>"]
    # after `from collapsim import cli` and before the first job; the test above
    # imports each module itself, so only a fresh process shows what cli loads
    env = {**os.environ, "PYTHONPATH": str(TRACING.parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", "import sys, collapsim.cli; print(*sys.modules)"],
                            env=env, capture_output=True, text=True, check=True, timeout=120)
    missing = sorted({f"collapsim.{module}" for module, _, _ in TARGETS} - set(result.stdout.split()))
    assert missing == []
