import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_calls.py"


def kernel_calls(*args):
    return subprocess.run([sys.executable, str(TOOL), "--preset", "rabi_ds",
                           "--set", "n_particles=20", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("method,box_axes", [("koopmon", 2), ("bohmion", 1)])
def test_kernel_calls_reports_each_requested_state(method, box_axes):
    proc = kernel_calls("--method", method, "--at", "0.5,0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["method"] == method and report["n_particles"] == 20
    states = report["states"]
    assert [s["t"] for s in states] == [0.0, 0.5]
    for s in states:
        assert len(s["box"]) == box_axes
        assert s["nodes"] == math.prod(s["box"]) > 0
        assert s["ms_median"] > 0.0 and s["traced_peak_mb"] > 0.0


def test_kernel_calls_refuses_a_method_without_kernel_calls():
    proc = kernel_calls("--method", "ehrenfest", "--at", "0")
    assert proc.returncode != 0
    assert "koopmon or bohmion" in proc.stderr


@pytest.mark.parametrize("assignment,message", [
    ("init.sobol_skip=0", "init.sobol_skip must be positive"),
    ("run.bogus=1", "unknown config keys: ['run.bogus']")])
def test_kernel_calls_ends_an_invalid_config_with_a_usage_error(assignment,
                                                                message):
    proc = kernel_calls("--method", "koopmon", "--set", assignment,
                        "--at", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and message in proc.stderr
    assert "Traceback" not in proc.stderr
