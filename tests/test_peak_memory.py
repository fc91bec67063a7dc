import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_memory.py"


@pytest.mark.parametrize("method,density", [("koopmon", "smoothed_cloud"),
                                            ("soft", "wigner")])
def test_peak_memory_reports_every_runner_phase(tmp_path, method, density):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "rabi_ds", "--method", method,
         "--set", "n_particles=20", "--set", "t_final=0.5",
         "--set", "snapshot_times=0,0.5", "--set", "soft.n_points=256",
         "--out", str(out)],
        capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    names = [phase["name"] for phase in report["phases"]]
    propagate = "propagate_soft" if method == "soft" else "propagate"
    assert names[0] == propagate
    assert names.count(density) == 2 and names.count("waterfall") == 1
    # three density files, the time series, then summary and manifest
    assert names.count("write_density") == 3
    assert names[-3:] == ["_write_table", "_write_json", "_write_json"]
    # the high-water mark never falls
    marks = [report["start_mb"]]
    for phase in report["phases"]:
        marks += [phase["before_mb"], phase["after_mb"]]
    marks.append(report["peak_mb"])
    assert marks == sorted(marks) and marks[0] > 0.0
    assert (out / "waterfall.csv").exists()
