"""Experiment orchestration: run a configured simulation, persist results,
compare completed runs.

Every run writes into its own directory:

* ``manifest.json``   resolved config, code version, wall time, status
* ``timeseries.csv``  per-step diagnostics (t, populations, purity, Bloch,
  energy, relative drift)
* ``ensemble_t*.csv`` / ``wavefunction_t*.csv``  snapshots
* ``density_*_t*.csv``  smoothed phase-space clouds (particle methods) or
  Wigner fields (quantum reference)
* ``waterfall.csv``   stacked configuration-space densities
* ``summary.json``    final populations, purity, energy drift

Outputs are plain delimited text with full float precision, so identical
configs reproduce byte-identical time series.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .diagnostics import (DensityField, DiagnosticsRecord, default_phase_grid,
                          particle_diagnostics, smoothed_cloud, waterfall,
                          wigner)
from .dynamics import MethodKind, propagate
from .ensemble import write_snapshot, read_snapshot
from .models import adiabatic_basis, make_model
from .pauli import projector
from .regularization import GridParams, KernelSpec
from .sampling import InitSpec, init_ensemble
from .soft import (SpatialGrid1D, init_wavepacket, observables,
                   propagate_soft)


def rho0_vector(cfg: RunConfig, model) -> np.ndarray:
    """Initial spin vector from its preset name, at the wavepacket center."""
    if cfg.rho0 == "plus":
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    _, _, v1, v2 = adiabatic_basis(model, np.asarray([cfg.mu_q]))
    return (v1 if cfg.rho0 == "ground" else v2)[0]


def _time_label(t: float) -> str:
    text = f"{t:g}"
    return "t" + text.replace(".", "p").replace("-", "m")


def write_density(field: DensityField, path: Path) -> None:
    """Header lines with axis metadata, then the row-major value grid."""
    with open(path, "w") as fh:
        fh.write(f"# kind={field.kind}\n")
        for k, v in sorted(field.meta.items()):
            fh.write(f"# {k}={v:.17g}\n")
        ax1 = "t" if field.kind == "waterfall" else "q"
        ax2 = "r" if field.kind == "waterfall" else "p"
        fh.write(f"# {ax1}_min={field.axis1[0]:.17g} {ax1}_max={field.axis1[-1]:.17g} "
                 f"n_{ax1}={len(field.axis1)}\n")
        fh.write(f"# {ax2}_min={field.axis2[0]:.17g} {ax2}_max={field.axis2[-1]:.17g} "
                 f"n_{ax2}={len(field.axis2)}\n")
        row_format = ",".join(["%.17g"] * field.values.shape[1]) + "\n"
        for row in field.values:
            fh.write(row_format % tuple(row.tolist()))


@dataclass
class RunResult:
    out_dir: Path
    summary: dict
    records: list


def run(cfg: RunConfig, out_dir) -> RunResult:
    """Execute one configured run and write the artifact tree."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    status = "running"
    warnings_seen: list[str] = []
    try:
        model = make_model(cfg.model, **dict(cfg.model_params))
        if cfg.method == "soft":
            records, snapshots = _run_soft(cfg, model, out, warnings_seen)
        else:
            records, snapshots = _run_particles(cfg, model, out, warnings_seen)
        status = "completed"
    except Exception:
        status = "failed"
        _write_manifest(cfg, out, status, started, warnings_seen)
        raise

    with open(out / "timeseries.csv", "w") as fh:
        fh.write(DiagnosticsRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")

    last = records[-1]
    summary = {
        "model": cfg.model,
        "method": cfg.method,
        "t_final": last.t,
        "final_p1": last.p1,
        "final_p2": last.p2,
        "final_purity": last.purity,
        "max_energy_drift_rel": max(r.energy_drift_rel for r in records),
        "n_records": len(records),
        "snapshot_times": [t for t, _ in snapshots],
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(cfg, out, status, started, warnings_seen)
    return RunResult(out_dir=out, summary=summary, records=records)


def _write_manifest(cfg: RunConfig, out: Path, status: str, started: float,
                    warnings_seen: list[str]) -> None:
    manifest = {
        "config": cfg.as_dict(),
        "code_version": __version__,
        "status": status,
        "wall_time_s": time.time() - started,
        "warnings": warnings_seen,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_particles(cfg: RunConfig, model, out: Path, warnings_seen):
    kind = MethodKind.parse(cfg.method)
    spec = KernelSpec(alpha=cfg.alpha)
    grid_params = GridParams(n_q=cfg.n_q, n_p=cfg.n_p, j_q=cfg.j_q, j_p=cfg.j_p)
    rho0 = projector(rho0_vector(cfg, model))
    init = InitSpec(mu_q=cfg.mu_q, mu_p=cfg.mu_p, sigma_q=cfg.sigma_q,
                    rho0=rho0, n=cfg.n_particles, sobol_skip=cfg.sobol_skip)
    e0 = init_ensemble(init)

    def diag(t, state, e_now, drift):
        rec = particle_diagnostics(state, model, t=t)
        rec.energy = e_now
        rec.energy_drift_rel = drift
        return rec

    traj = propagate(kind, e0, model, spec, cfg.dt, cfg.t_final,
                     snapshot_times=cfg.snapshot_times,
                     grid_params=grid_params, energy_tol=cfg.energy_tol,
                     diagnostics_fn=diag)

    for t, snap in traj.snapshots:
        label = _time_label(t)
        with open(out / f"ensemble_{label}.csv", "w") as fh:
            write_snapshot(snap, fh)
        qn, pn = default_phase_grid(snap, cfg.delta, cfg.wigner_nodes)
        field = smoothed_cloud(snap, cfg.delta, qn, pn)
        field.meta["t"] = t
        write_density(field, out / f"density_cloud_{label}.csv")

    if traj.snapshots:
        qlo = min(s.q.min() for _, s in traj.snapshots) - 4.0 * cfg.delta
        qhi = max(s.q.max() for _, s in traj.snapshots) + 4.0 * cfg.delta
        r_nodes = np.linspace(qlo, qhi, cfg.waterfall_nodes)
        write_density(waterfall(traj.snapshots, cfg.delta, r_nodes),
                      out / "waterfall.csv")
    return traj.records, traj.snapshots


def _wigner_momentum_range(state) -> tuple[float, float]:
    psi_k = np.fft.fft(state.psi, axis=1)
    dens = np.sum(np.abs(psi_k) ** 2, axis=0)
    k = state.grid.k
    idx = dens > 1e-10 * dens.max()
    lo, hi = k[idx].min(), k[idx].max()
    pad = 0.1 * (hi - lo) + 1.0
    return float(lo - pad), float(hi + pad)


def _run_soft(cfg: RunConfig, model, out: Path, warnings_seen):
    import warnings as _warnings

    grid = SpatialGrid1D(r_min=cfg.soft_r_min, r_max=cfg.soft_r_max,
                         n_points=cfg.soft_n_points)
    v0 = rho0_vector(cfg, model)
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        state0 = init_wavepacket(grid, cfg.mu_q, cfg.mu_p, cfg.sigma_q, v0)

        e0 = observables(state0, model)["energy"]

        def diag(t, state):
            obs = observables(state, model)
            drift = abs(obs["energy"] - e0) / max(abs(e0), 1e-300)
            return DiagnosticsRecord(
                t=t, p1=obs["p1"], p2=obs["p2"], purity=obs["purity"],
                bloch=tuple(float(b) for b in obs["bloch"]),
                energy=obs["energy"], energy_drift_rel=drift)

        records, snapshots, max_edge = propagate_soft(
            state0, model, cfg.soft_dt, cfg.t_final,
            snapshot_times=cfg.snapshot_times, diagnostics_fn=diag)
    warnings_seen.extend(str(w.message) for w in caught)

    for t, snap in snapshots:
        label = _time_label(t)
        with open(out / f"wavefunction_{label}.csv", "w") as fh:
            fh.write("r,re_psi1,im_psi1,re_psi2,im_psi2\n")
            for j in range(grid.n_points):
                row = (grid.r[j], snap.psi[0, j].real, snap.psi[0, j].imag,
                       snap.psi[1, j].real, snap.psi[1, j].imag)
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        q_nodes = np.linspace(grid.r_min, grid.r_max, cfg.wigner_nodes)
        p_lo, p_hi = _wigner_momentum_range(snap)
        p_nodes = np.linspace(p_lo, p_hi, cfg.wigner_nodes)
        field = wigner(snap, q_nodes, p_nodes)
        write_density(field, out / f"density_wigner_{label}.csv")

    r_nodes = np.linspace(grid.r_min, grid.r_max, cfg.waterfall_nodes)
    write_density(waterfall(snapshots, cfg.delta, r_nodes),
                  out / "waterfall.csv")
    return records, snapshots


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------

class IncompatibleRunsError(ValueError):
    """Compared runs were produced with different models."""


@dataclass
class CompareReport:
    run_dirs: list
    methods: list
    n_common_times: int
    max_abs_dp1: float
    max_abs_dpurity: float
    final_deltas: dict
    ensemble_deltas: dict    # time label -> (max |dq|, max |dp|)

    def format_text(self) -> str:
        lines = [
            "compared runs: " + ", ".join(
                f"{d} [{m}]" for d, m in zip(self.run_dirs, self.methods)),
            f"common time points: {self.n_common_times}",
            f"max |delta P1| over common times: {self.max_abs_dp1:.6g}",
            f"max |delta purity| over common times: {self.max_abs_dpurity:.6g}",
            "final-time discrepancies (vs first run):",
        ]
        for key, val in sorted(self.final_deltas.items()):
            lines.append(f"  {key}: {val:.6g}")
        for label, (dq, dp) in sorted(self.ensemble_deltas.items()):
            lines.append(f"  ensemble {label}: max|dq|={dq:.6g} max|dp|={dp:.6g}")
        return "\n".join(lines)


def _load_timeseries(run_dir: Path) -> np.ndarray:
    path = run_dir / "timeseries.csv"
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DiagnosticsRecord.CSV_HEADER:
            raise ValueError(f"unexpected time-series header in {path}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _load_manifest(run_dir: Path) -> dict:
    with open(Path(run_dir) / "manifest.json") as fh:
        return json.load(fh)


def compare(run_dirs) -> CompareReport:
    """Align the time series of two or more completed runs on one model."""
    dirs = [Path(d) for d in run_dirs]
    if len(dirs) < 2:
        raise ValueError("need at least two run directories to compare")
    manifests = [_load_manifest(d) for d in dirs]
    models = [(m["config"]["model"], tuple(sorted(m["config"]["model_params"].items())))
              for m in manifests]
    if len(set(models)) != 1:
        raise IncompatibleRunsError(
            f"runs use different models: {[m[0] for m in models]}")
    series = [_load_timeseries(d) for d in dirs]

    base = series[0]
    key = np.round(base[:, 0], 9)
    max_dp1 = 0.0
    max_dpur = 0.0
    n_common = 0
    for other in series[1:]:
        okey = np.round(other[:, 0], 9)
        common, ia, ib = np.intersect1d(key, okey, return_indices=True)
        if common.size == 0:
            raise ValueError("runs share no common time points")
        n_common = int(common.size) if n_common == 0 else min(n_common, common.size)
        max_dp1 = max(max_dp1, float(np.max(np.abs(base[ia, 1] - other[ib, 1]))))
        max_dpur = max(max_dpur, float(np.max(np.abs(base[ia, 3] - other[ib, 3]))))

    final_deltas = {}
    base_last = base[-1]
    for j, other in enumerate(series[1:], start=1):
        row = other[-1]
        final_deltas[f"run{j}_dP1"] = float(row[1] - base_last[1])
        final_deltas[f"run{j}_dpurity"] = float(row[3] - base_last[3])
        final_deltas[f"run{j}_denergy"] = float(row[7] - base_last[7])

    ensemble_deltas = {}
    base_snaps = {p.name: p for p in dirs[0].glob("ensemble_t*.csv")}
    for name, path0 in sorted(base_snaps.items()):
        paths = [d / name for d in dirs[1:]]
        if not all(p.exists() for p in paths):
            continue
        with open(path0) as fh:
            ref = read_snapshot(fh)
        dq = dp = 0.0
        compatible = True
        for p in paths:
            with open(p) as fh:
                snap = read_snapshot(fh)
            if snap.n != ref.n:
                compatible = False
                break
            dq = max(dq, float(np.max(np.abs(snap.q - ref.q))))
            dp = max(dp, float(np.max(np.abs(snap.p - ref.p))))
        if compatible:
            ensemble_deltas[name[len("ensemble_"):-len(".csv")]] = (dq, dp)

    return CompareReport(
        run_dirs=[str(d) for d in dirs],
        methods=[m["config"]["method"] for m in manifests],
        n_common_times=n_common,
        max_abs_dp1=max_dp1,
        max_abs_dpurity=max_dpur,
        final_deltas=final_deltas,
        ensemble_deltas=ensemble_deltas,
    )
