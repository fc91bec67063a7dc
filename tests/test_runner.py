import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from mqcdyn import config, runner
from mqcdyn.cli import main as cli_main
from mqcdyn.config import (ConfigError, PRESETS, load_config, resolve_config)
from mqcdyn.diagnostics import DensityField, DiagnosticsRecord
from mqcdyn.models import make_model
from mqcdyn.regularization import GridParams
from mqcdyn.runner import (IncompatibleRunsError, compare, rho0_vector, run,
                           write_density)
from mqcdyn.soft import SpatialGrid1D

from helpers import csv_row, nan_past


def test_preset_tully1_paper_values():
    cfg = resolve_config(preset="tully1", overrides={"run.method": "koopmon"})
    assert cfg.n_particles == 1000
    assert cfg.alpha == 0.325
    assert cfg.dt == 2.0
    assert cfg.t_final == 3000.0
    assert cfg.snapshot_times == (0.0, 1280.0, 2130.0, 3000.0)
    assert (cfg.mu_q, cfg.mu_p) == (-8.0, 10.0)
    assert cfg.sigma_q == pytest.approx(20.0 / (np.sqrt(2.0) * 10.0))
    assert cfg.rho0 == "ground"
    assert cfg.energy_tol == 1e-2


def test_preset_rabi_ds_paper_values():
    cfg = resolve_config(preset="rabi_ds", overrides={"run.method": "ehrenfest"})
    assert cfg.n_particles == 500
    assert cfg.alpha == 0.5
    assert cfg.dt == 0.05
    assert cfg.snapshot_times == (0.0, 4.0, 6.0, 8.0, 15.0)
    assert (cfg.mu_q, cfg.mu_p) == (0.0, 0.0)
    assert cfg.sigma_q == pytest.approx(1.0 / np.sqrt(2.0))


def test_all_presets_resolve():
    for name in PRESETS:
        cfg = resolve_config(preset=name, overrides={"run.method": "soft"})
        assert cfg.model == name


def test_preset_without_grid_keys_resolves_to_default_box():
    for name in PRESETS:
        assert not any(k.startswith("grid.") for k in PRESETS[name])
        cfg = resolve_config(preset=name, overrides={"run.method": "koopmon"})
        box = GridParams(n_q=cfg.n_q, n_p=cfg.n_p, j_q=cfg.j_q, j_p=cfg.j_p)
        assert box == GridParams()


def test_all_presets_resolve_for_every_method():
    for name in PRESETS:
        for method in config._METHODS:
            cfg = resolve_config(preset=name, overrides={"run.method": method})
            assert (cfg.model, cfg.method) == (name, method)


# values the run would reject only after it started
@pytest.mark.parametrize("method,overrides,message", [
    ("ehrenfest", {"init.sobol_skip": 0}, "init.sobol_skip must be positive"),
    ("ehrenfest", {"run.dt": 0.3, "run.t_final": 1.0},
     "run.dt: t_final=1.0 is not an integer number of steps of dt=0.3"),
    ("soft", {"soft.dt": 0.3, "run.t_final": 1.0},
     "soft.dt: t_final=1.0 is not an integer number of steps of dt=0.3"),
    ("ehrenfest", {"run.snapshot_times": 50.0, "run.t_final": 10.0},
     "run.snapshot_times: snapshot time 50.0 outside [0, 10.0]"),
    ("soft", {"soft.n_points": 1000},
     "soft.r_min, soft.r_max, soft.n_points: n_points must be a power of two"),
    ("soft", {"soft.r_max": -40.0},
     "soft.r_min, soft.r_max, soft.n_points: empty spatial range"),
    ("ehrenfest", {"viz.wigner_nodes": 0}, "viz.wigner_nodes must be positive"),
    ("soft", {"viz.waterfall_nodes": 0},
     "viz.waterfall_nodes must be positive"),
    ("ehrenfest", {"run.model": "nope"},
     "run.model, model.*: unknown model 'nope'"),
    ("soft", {"model.bogus": 1},
     "run.model, model.*: unknown parameters for tully1: ['bogus']"),
])
def test_values_the_run_would_reject_are_config_errors(method, overrides,
                                                       message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(preset="tully1", overrides={
            "run.method": method, "run.n_particles": 4, **overrides})


def test_each_method_checks_only_its_own_step_and_grid():
    # the particle methods never build the split-operator grid or step with
    # soft.dt, and the quantum reference never steps with run.dt
    resolve_config(preset="tully1", overrides={
        "run.method": "ehrenfest", "soft.dt": 0.7, "soft.n_points": 1000})
    resolve_config(preset="tully1", overrides={"run.method": "soft",
                                               "run.dt": 7.0})


def test_cli_rejects_a_bad_value_before_the_run_starts(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--preset", "tully1", "--method", "ehrenfest",
            "--set", "n_particles=4", "--set", "init.sobol_skip=0",
            "--out", str(out)]
    assert cli_main(args) == 1
    assert "config error: init.sobol_skip must be positive" in \
        capsys.readouterr().err
    assert not out.exists()


def test_missing_method_is_reported():
    with pytest.raises(ConfigError, match="run.method"):
        resolve_config(preset="tully1")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config(preset="tully1",
                       overrides={"run.method": "soft", "run.bogus": 1})


#: A valid value, unlike the rabi_ds preset's, for every schema key that
#: names a `RunConfig` field.
EVERY_KEY = {
    "run.method": "bohmion", "run.model": "rabi_us", "run.n_particles": 7,
    "run.alpha": 0.4, "run.dt": 0.1, "run.t_final": 16.0,
    "run.snapshot_times": (0.0, 15.0), "run.energy_tol": 0.5,
    "run.workers": 3, "grid.n_q": 5, "grid.n_p": 6, "grid.j_q": 7,
    "grid.j_p": 9, "init.mu_q": 0.5, "init.mu_p": 1.5, "init.sigma_q": 0.25,
    "init.rho0": "plus", "init.sobol_skip": 3, "soft.r_min": -12.0,
    "soft.r_max": 11.0, "soft.n_points": 1000, "soft.dt": 0.02,
    "viz.delta": 0.5, "viz.wigner_nodes": 64, "viz.waterfall_nodes": 128,
}


def field_of(key):
    section, name = key.split(".")
    return "soft_" + name if section == "soft" else name


def test_every_config_key_reaches_its_field():
    # each key but the preset and the sigma_q rule names one field, and
    # each field but the model parameters has a key
    assert set(EVERY_KEY) == set(config._SCHEMA) - {
        "run.preset", "init.sigma_q_from_momentum"}
    fields = [f.name for f in dataclasses.fields(config.RunConfig)]
    assert sorted(map(field_of, EVERY_KEY)) == sorted(
        set(fields) - {"model_params"})
    base = resolve_config(preset="rabi_ds",
                          overrides={"run.method": "ehrenfest"})
    for key, value in EVERY_KEY.items():
        cfg = resolve_config(preset="rabi_ds", overrides={
            "run.method": "ehrenfest", key: value})
        assert getattr(cfg, field_of(key)) == value != getattr(
            base, field_of(key)), key


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(preset="tully9")


def test_sigma_q_requires_momentum_or_value():
    with pytest.raises(ConfigError, match="sigma_q"):
        resolve_config(overrides={
            "run.method": "ehrenfest", "run.model": "rabi_ds",
            "run.n_particles": 4, "run.alpha": 0.5, "run.dt": 0.05,
            "run.t_final": 1.0, "init.mu_q": 0.0, "init.mu_p": 0.0,
            "init.rho0": "plus"})


@pytest.mark.parametrize("key,value", [
    ("run.n_particles", 10.7), ("grid.n_q", 2.5), ("run.n_particles", True),
    ("run.dt", True), ("run.dt", None), ("run.dt", (0.05,)),
    ("init.sigma_q_from_momentum", 1), ("init.rho0", 3),
    ("run.snapshot_times", (0.0, "1.0")), ("run.snapshot_times", True),
    ("model.gamma", [0.3])])
def test_programmatic_values_of_the_wrong_type_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        resolve_config(preset="tully1",
                       overrides={"run.method": "ehrenfest", key: value})


def test_programmatic_values_keep_their_type():
    cfg = resolve_config(preset="tully1", overrides={
        "run.method": "ehrenfest", "run.dt": 1, "run.snapshot_times": 5.0,
        "init.sigma_q": None, "model.a": 1})
    assert type(cfg.dt) is float and cfg.dt == 1.0
    assert cfg.snapshot_times == (5.0,)
    assert cfg.as_dict()["snapshot_times"] == [5.0]
    assert type(cfg.sigma_q) is float
    assert cfg.model_params == (("a", 1.0),)
    assert type(cfg.model_params[0][1]) is float
    # every preset value is of its key's type and comes out as given
    for preset in PRESETS.values():
        for key, value in preset.items():
            got = config._coerce(key, config._SCHEMA[key][0], value)
            assert type(got) is type(value) and got == value, key


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""
[run]
preset = rabi_us
method = ehrenfest
n_particles = 8
t_final = 1.0
snapshot_times = 0, 1.0

[init]
rho0 = plus

[model]
gamma = 0.3
""")
    cfg = load_config(str(path))
    assert cfg.method == "ehrenfest"
    assert cfg.n_particles == 8
    assert cfg.snapshot_times == (0.0, 1.0)
    assert cfg.rho0 == "plus"
    assert dict(cfg.model_params) == {"gamma": 0.3}
    # the preset still fills everything not overridden
    assert cfg.alpha == 0.5


def test_config_file_parse_error(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[run\nmethod = soft\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(str(path))


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nmethods = soft\n")
    with pytest.raises(ConfigError, match="run.methods"):
        load_config(str(path))


def test_rho0_vector_presets():
    model = make_model("tully3")
    cfg = resolve_config(preset="tully3", overrides={"run.method": "ehrenfest"})
    v_ground = rho0_vector(cfg, model)
    assert abs(v_ground[1]) > 0.999     # lower state ~ (0, 1) at mu_q = -15
    cfg_plus = resolve_config(preset="tully3", overrides={
        "run.method": "ehrenfest", "init.rho0": "plus"})
    assert np.allclose(rho0_vector(cfg_plus, model),
                       [1 / np.sqrt(2)] * 2)
    cfg_exc = resolve_config(preset="tully3", overrides={
        "run.method": "ehrenfest", "init.rho0": "excited"})
    v_exc = rho0_vector(cfg_exc, model)
    assert abs(np.vdot(v_exc, v_ground)) < 1e-12


def small_cfg(method="ehrenfest", **extra):
    overrides = {
        "run.method": method, "run.n_particles": 8,
        "run.t_final": 1.0, "run.dt": 0.05,
        "run.snapshot_times": (0.0, 1.0),
        "viz.wigner_nodes": 32, "viz.waterfall_nodes": 64,
        "soft.n_points": 256, "soft.dt": 0.01,
    }
    overrides.update(extra)
    return resolve_config(preset="rabi_us", overrides=overrides)


def test_run_particle_method_writes_artifact_tree(tmp_path):
    out = tmp_path / "ehr"
    result = run(small_cfg(), out)
    assert (out / "manifest.json").exists()
    assert (out / "timeseries.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "ensemble_t0.csv").exists()
    assert (out / "ensemble_t1.csv").exists()
    assert (out / "density_cloud_t0.csv").exists()
    assert (out / "waterfall.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["config"]["method"] == "ehrenfest"
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["final_p1"] <= 1.0
    assert summary["max_energy_drift_rel"] < 1e-2
    assert len(result.records) == 21


def test_run_is_bit_reproducible(tmp_path):
    run(small_cfg(), tmp_path / "a")
    run(small_cfg(), tmp_path / "b")
    assert (tmp_path / "a" / "timeseries.csv").read_bytes() == \
        (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert (tmp_path / "a" / "ensemble_t1.csv").read_bytes() == \
        (tmp_path / "b" / "ensemble_t1.csv").read_bytes()


def test_run_soft_writes_wavefunction_and_wigner(tmp_path):
    out = tmp_path / "soft"
    run(small_cfg(method="soft"), out)
    assert (out / "wavefunction_t0.csv").exists()
    assert (out / "wavefunction_t1.csv").exists()
    assert (out / "density_wigner_t1.csv").exists()
    assert (out / "waterfall.csv").exists()
    header = (out / "wavefunction_t0.csv").read_text().splitlines()[0]
    assert header == "r,re_psi1,im_psi1,re_psi2,im_psi2"


def test_wavefunction_rows_are_grid_nodes_and_format_17g(tmp_path):
    cfg = small_cfg(method="soft")
    run(cfg, tmp_path / "soft")
    grid = SpatialGrid1D(cfg.soft_r_min, cfg.soft_r_max, cfg.soft_n_points)
    lines = (tmp_path / "soft" / "wavefunction_t1.csv").read_text().splitlines()
    assert len(lines) == 1 + grid.n_points
    for r, line in zip(grid.r, lines[1:]):
        values = line.split(",")
        assert len(values) == 5
        assert values[0] == format(r, ".17g")
        assert line == ",".join(format(float(v), ".17g") for v in values)


def test_write_density_writes_each_value_as_format_17g(tmp_path):
    # the row format must write every value as format(v, ".17g") does,
    # special values included
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 9)) * 10.0 ** rng.integers(-300, 300, (4, 9))
    values[0] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                 2.2250738585072009e-308, np.finfo(float).max]
    values[1, :3] = [-2.5e-310, 1.0, -1e16]
    field = DensityField(kind="wigner", axis1=np.linspace(-1.0, 1.0, 4),
                         axis2=np.linspace(-2.0, 2.0, 9), values=values,
                         meta={"t": 0.5})
    path = tmp_path / "density.csv"
    write_density(field, path)
    data = [line for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]
    expected = [(",".join(format(v, ".17g") for v in row) + "\n").encode()
                for row in values]
    assert data == expected


def test_timeseries_lines_are_the_csv_rows_and_json_is_indented_sorted(
        tmp_path):
    out = tmp_path / "ehr"
    result = run(small_cfg(), out)
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines == [DiagnosticsRecord.CSV_HEADER] + \
        [csv_row(rec) for rec in result.records]
    assert lines[5] == ",".join(format(float(v), ".17g")
                                for v in lines[5].split(","))
    for name in ("summary.json", "manifest.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


def test_time_series_header_checked(tmp_path):
    path = tmp_path / "timeseries.csv"
    path.write_text("t,P1\n0,1\n")
    with pytest.raises(ValueError, match=re.escape(
            f"unexpected time-series header in {path}")):
        runner._load_timeseries(tmp_path)


def test_compare_identical_runs(tmp_path):
    run(small_cfg(), tmp_path / "a")
    run(small_cfg(), tmp_path / "b")
    report = compare([tmp_path / "a", tmp_path / "b"])
    assert report.max_abs_dp1 == 0.0
    assert report.max_abs_dpurity == 0.0
    assert report.ensemble_deltas["t1"] == (0.0, 0.0)


def test_compare_methods_reports_deltas(tmp_path):
    run(small_cfg(), tmp_path / "ehr")
    run(small_cfg(method="koopmon"), tmp_path / "koo")
    report = compare([tmp_path / "ehr", tmp_path / "koo"])
    assert report.n_common_times == 21
    assert report.max_abs_dp1 >= 0.0
    assert "run1_dP1" in report.final_deltas
    text = report.format_text()
    assert "max |delta P1|" in text


def test_compare_different_models_errors(tmp_path):
    run(small_cfg(), tmp_path / "a")
    cfg2 = resolve_config(preset="rabi_ds", overrides={
        "run.method": "ehrenfest", "run.n_particles": 8,
        "run.t_final": 1.0, "run.dt": 0.05,
        "run.snapshot_times": (0.0, 1.0),
        "viz.wigner_nodes": 32, "viz.waterfall_nodes": 64})
    run(cfg2, tmp_path / "c")
    with pytest.raises(IncompatibleRunsError):
        compare([tmp_path / "a", tmp_path / "c"])


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_presets_lists_all(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_cli_config_error_exit_code(capsys):
    assert cli_main(["run", "--preset", "tully1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_and_compare(tmp_path, capsys):
    args = ["run", "--preset", "rabi_us", "--method", "ehrenfest",
            "--set", "n_particles=8", "--set", "t_final=0.5",
            "--set", "run.snapshot_times=0 0.5",
            "--set", "viz.wigner_nodes=32", "--set", "viz.waterfall_nodes=64"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert cli_main(["compare", str(tmp_path / "r1"), str(tmp_path / "r2")]) == 0
    out = capsys.readouterr().out
    assert "max |delta P1| over common times: 0" in out


def test_cli_solver_error_exit_code(tmp_path, capsys):
    # a deliberately unstable step size triggers the energy guard
    args = ["run", "--preset", "rabi_ds", "--method", "ehrenfest",
            "--set", "n_particles=4", "--set", "dt=2.5",
            "--set", "t_final=250", "--set", "run.snapshot_times=0",
            "--out", str(tmp_path / "bad")]
    assert cli_main(args) == 2
    assert "solver error" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_cli_names_time_and_particles_of_a_non_finite_derivative(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "make_model", lambda name, **kw: nan_past(3.0))
    args = ["run", "--preset", "rabi_us", "--method", "ehrenfest",
            "--set", "n_particles=8", "--set", "t_final=2",
            "--set", "run.snapshot_times=0", "--out", str(tmp_path / "nan")]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert "solver error: non-finite time derivative at t=" in err
    assert "for particles [" in err
    manifest = json.loads((tmp_path / "nan" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_cli_determinism_across_worker_counts(tmp_path):
    base = ["run", "--preset", "rabi_us", "--method", "koopmon",
            "--set", "n_particles=6", "--set", "t_final=0.25",
            "--set", "run.snapshot_times=0 0.25",
            "--set", "viz.wigner_nodes=16", "--set", "viz.waterfall_nodes=32"]
    for workers, name in ((1, "w1"), (4, "w4")):
        cmd = [sys.executable, "-m", "mqcdyn.cli"] + base + \
            ["--workers", str(workers), "--out", str(tmp_path / name)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "w1" / "timeseries.csv").read_bytes() == \
        (tmp_path / "w4" / "timeseries.csv").read_bytes()
    assert (tmp_path / "w1" / "ensemble_t0p25.csv").read_bytes() == \
        (tmp_path / "w4" / "ensemble_t0p25.csv").read_bytes()
