"""Output checks, computed from the artifact files with numpy alone.

Every check tests a property of the method or a quantity recomputed here,
never a stored copy of earlier output.  Each ``check_*`` function takes
arrays and returns a list of problems (empty when the check holds), so
`test_checks.py` can hand it an injected fault; the ``read_*`` functions turn
artifact files into those arrays.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

TIMESERIES_HEADER = "t,P1,P2,purity,bx,by,bz,energy,energy_drift_rel"
ENSEMBLE_HEADER = "index,q,p,w,rho11,re_rho12,im_rho12,rho22"
WAVEFUNCTION_HEADER = "r,re_psi1,im_psi1,re_psi2,im_psi2"

#: Σw, Hermiticity, the recomputed purity and compare's max |dP1| are exact
#: up to round-off of sums over N terms.
ROUNDOFF_TOL = 1e-12
#: `ensemble.rehermitize` renormalizes a trace that drifts beyond 1e-12.
TRACE_TOL = 1e-10
#: Populations: P2 is 1 - P1 (particles) or norm - P1 (wavefunction).
POPULATION_TOL = 1e-9
#: A unitary propagator keeps the norm to round-off.
NORM_TOL = 1e-9
#: The t=0 Wigner field against the closed form, relative to its peak 1/pi.
WIGNER_T0_TOL = 1e-10
#: Trapezoid integral of W over the written momentum nodes against |psi|^2,
#: relative to the peak density.
WIGNER_MARGINAL_TOL = 1e-4


# --------------------------------------------------------------------------
# readers
# --------------------------------------------------------------------------

def _read_csv(path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: unexpected header {first!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_timeseries(path) -> dict:
    rows = _read_csv(path, TIMESERIES_HEADER)
    return {name: rows[:, k] for k, name in enumerate(TIMESERIES_HEADER.split(","))}


def read_ensemble(path) -> tuple[np.ndarray, np.ndarray]:
    """Weights (N,) and density matrices (N, 2, 2) of an ensemble snapshot."""
    rows = _read_csv(path, ENSEMBLE_HEADER)
    rho = np.empty((rows.shape[0], 2, 2), dtype=complex)
    rho[:, 0, 0] = rows[:, 4]
    rho[:, 0, 1] = rows[:, 5] + 1j * rows[:, 6]
    rho[:, 1, 0] = rows[:, 5] - 1j * rows[:, 6]
    rho[:, 1, 1] = rows[:, 7]
    return rows[:, 3], rho


def read_wavefunction(path) -> tuple[np.ndarray, np.ndarray]:
    """Grid positions (n,) and the two components psi (2, n)."""
    rows = _read_csv(path, WAVEFUNCTION_HEADER)
    psi = np.stack([rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4]])
    return rows[:, 0], psi


def read_density(path) -> tuple[dict, np.ndarray]:
    """``# key=value`` header entries and the value grid of a density file."""
    meta = {}
    with open(path) as fh:
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            for item in line[1:].split():
                key, value = item.split("=", 1)
                meta[key] = value
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, values


def label_time(path) -> float:
    """Snapshot time from an artifact name such as ``ensemble_t2130.csv``."""
    label = Path(path).stem.rsplit("_t", 1)[1]
    return float(label.replace("p", ".").replace("m", "-"))


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def thread_count() -> int:
    """Threads of the calling process (1 where /proc is not there)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


# --------------------------------------------------------------------------
# checks on arrays
# --------------------------------------------------------------------------

def check_energy_drift(drift: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(drift))
    if not worst < tol:
        return [f"relative energy drift {worst:.3e} not below run.energy_tol {tol:g}"]
    return []


def check_populations(p1: np.ndarray, p2: np.ndarray) -> list[str]:
    out = []
    if np.min(p1) < -POPULATION_TOL or np.max(p1) > 1.0 + POPULATION_TOL:
        out.append(f"P1 leaves [0, 1]: range [{np.min(p1):.17g}, {np.max(p1):.17g}]")
    off = float(np.max(np.abs(p1 + p2 - 1.0)))
    if off > POPULATION_TOL:
        out.append(f"P1 + P2 differs from 1 by {off:.3e}")
    return out


def check_ensemble(w: np.ndarray, rho: np.ndarray, purity: float,
                   eigenvalue_tol: float) -> list[str]:
    """Σw = 1; each rho Hermitian, unit trace, spectrum in [0, 1]; and the
    purity of the weighted mean rho equal to the recorded one.

    The exact flow rotates each Bloch vector, so a pure rho_a stays pure.
    RK4 does not keep the Bloch length: the spectrum leaves [0, 1] by the
    integrator's error, which shrinks with dt (on tully3 at t = 1400, by up
    to 8e-4 at dt = 2 and 5e-6 at dt = 1).  ``eigenvalue_tol`` is the
    accuracy the run is configured to hold, ``run.energy_tol``; a drho that
    is not a rotation moves the spectrum by O(1).
    """
    out = []
    wsum = float(np.sum(w))
    if abs(wsum - 1.0) > ROUNDOFF_TOL:
        out.append(f"weights sum to {wsum:.17g}")
    herm = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, 1, 2)))))
    if herm > ROUNDOFF_TOL:
        out.append(f"rho not Hermitian: max |rho - rho^H| = {herm:.3e}")
    trace = np.trace(rho, axis1=1, axis2=2)
    tr_off = float(np.max(np.abs(trace - 1.0)))
    if tr_off > TRACE_TOL:
        out.append(f"trace of rho differs from 1 by {tr_off:.3e}")
    eig = np.linalg.eigvalsh(0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2))))
    if eig.min() < -eigenvalue_tol or eig.max() > 1.0 + eigenvalue_tol:
        out.append(f"rho eigenvalues leave [0, 1]: [{eig.min():.3e}, {eig.max():.17g}]")
    mean = np.einsum("a,aij->ij", w, rho)
    mine = float(np.einsum("ij,ji->", mean, mean).real)
    if abs(mine - purity) > ROUNDOFF_TOL:
        out.append(f"purity {purity:.17g} recorded, {mine:.17g} recomputed")
    return out


def check_norm(r: np.ndarray, psi: np.ndarray) -> list[str]:
    dr = (r[-1] - r[0]) / (len(r) - 1)
    norm = float(np.sum(np.abs(psi) ** 2) * dr)
    if abs(norm - 1.0) > NORM_TOL:
        return [f"wavefunction norm {norm:.17g}"]
    return []


def gaussian_wigner(q, p, mu_q: float, mu_p: float, sigma_q: float) -> np.ndarray:
    """Wigner function of a normalized Gaussian of position width sigma_q and
    mean momentum mu_p (hbar = 1): exp(-g dq^2 - dp^2/g)/pi, g = 1/(2 sigma^2)."""
    g = 1.0 / (2.0 * sigma_q**2)
    dq = np.asarray(q)[:, None] - mu_q
    dp = np.asarray(p)[None, :] - mu_p
    return np.exp(-g * dq**2 - dp**2 / g) / np.pi


def check_wigner_t0(q, p, values, mu_q, mu_p, sigma_q) -> list[str]:
    err = float(np.max(np.abs(values - gaussian_wigner(q, p, mu_q, mu_p, sigma_q))))
    if err > WIGNER_T0_TOL / np.pi:
        return [f"t=0 Wigner field off the closed form by {err:.3e}"]
    return []


def check_wigner_marginal(p, values, density) -> list[str]:
    """∫W dp over the written momentum nodes against |psi|^2 at the same q."""
    marginal = np.trapezoid(values, p, axis=1)
    err = float(np.max(np.abs(marginal - density)))
    if err > WIGNER_MARGINAL_TOL * float(np.max(density)):
        return [f"∫W dp off |psi|^2 by {err:.3e} (peak {np.max(density):.3e})"]
    return []


def check_compare(a: dict, b: dict, reported: float) -> list[str]:
    """``reported`` against max |P1_a - P1_b| over the times both series share."""
    _, ia, ib = np.intersect1d(np.round(a["t"], 9), np.round(b["t"], 9),
                               return_indices=True)
    mine = float(np.max(np.abs(a["P1"][ia] - b["P1"][ib])))
    if abs(mine - reported) > ROUNDOFF_TOL:
        return [f"compare reports max |dP1| {reported:.17g}, recomputed {mine:.17g}"]
    return []


def check_identical(digests: list[str], what: str) -> list[str]:
    if len(set(digests)) > 1:
        return [f"{what}: {len(set(digests))} different contents over "
                f"{len(digests)} repetitions"]
    return []


# --------------------------------------------------------------------------
# one run directory
# --------------------------------------------------------------------------

def check_run_dir(run_dir) -> list[str]:
    """Every file-level check that applies to one `runner.run` output."""
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json") as fh:
        cfg = json.load(fh)["config"]
    ts = read_timeseries(run_dir / "timeseries.csv")
    out = check_populations(ts["P1"], ts["P2"])

    if cfg["method"] != "soft":
        energy_tol = cfg["energy_tol"]
        out += check_energy_drift(ts["energy_drift_rel"], energy_tol)
        for path in sorted(run_dir.glob("ensemble_t*.csv")):
            w, rho = read_ensemble(path)
            row = int(np.argmin(np.abs(ts["t"] - label_time(path))))
            out += [f"{path.name}: {p}"
                    for p in check_ensemble(w, rho, ts["purity"][row], energy_tol)]
        return out

    n = cfg["soft_n_points"]
    r_min, r_max = cfg["soft_r_min"], cfg["soft_r_max"]
    dr = (r_max - r_min) / n
    # wigner() evaluates each requested q at its nearest wavefunction node
    q_req = np.linspace(r_min, r_max, cfg["wigner_nodes"])
    j = np.clip(np.rint((q_req - r_min) / dr).astype(int), 0, n - 1)
    for path in sorted(run_dir.glob("wavefunction_t*.csv")):
        r, psi = read_wavefunction(path)
        out += [f"{path.name}: {p}" for p in check_norm(r, psi)]
        t = label_time(path)
        wpath = path.with_name(path.name.replace("wavefunction_", "density_wigner_"))
        meta, values = read_density(wpath)
        q = r[j]
        if abs(float(meta["q_min"]) - q[0]) > 1e-12 or \
                abs(float(meta["q_max"]) - q[-1]) > 1e-12:
            out.append(f"{wpath.name}: q axis [{meta['q_min']}, {meta['q_max']}] "
                       f"is not the snapped [{q[0]!r}, {q[-1]!r}]")
            continue
        p = np.linspace(float(meta["p_min"]), float(meta["p_max"]), int(meta["n_p"]))
        if t == 0.0:
            out += [f"{wpath.name}: {e}" for e in check_wigner_t0(
                q, p, values, cfg["mu_q"], cfg["mu_p"], cfg["sigma_q"])]
        else:
            density = np.sum(np.abs(psi[:, j]) ** 2, axis=0)
            out += [f"{wpath.name}: {e}"
                    for e in check_wigner_marginal(p, values, density)]
    return out
