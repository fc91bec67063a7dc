"""Acceptance gate: every criterion is exercised at its stated tolerance and
reports one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long benchmark runs
(criteria 4 and 8) are cached at module scope and shared between criteria;
expect roughly 15-30 minutes total on a laptop-class machine.
"""

import subprocess
import sys

import numpy as np
import pytest

from mqcdyn.backreaction import koopmon_terms
from mqcdyn.diagnostics import particle_diagnostics, wigner
from mqcdyn.dynamics import MethodKind, propagate, rk4_step
from mqcdyn.ensemble import ParticleEnsemble, validate
from mqcdyn.models import adiabatic_basis, make_model
from mqcdyn.pauli import pauli_components, projector
from mqcdyn.regularization import GridParams, KernelSpec, build_grid, \
    build_grid_1d
from mqcdyn.sampling import InitSpec, init_ensemble
from mqcdyn.soft import (SpatialGrid1D, init_wavepacket, observables,
                         propagate_soft, strang_step)

from helpers import (bloch_state, bohmion_pairs, fd_gradient_check,
                     koopmon_coupling_energy, koopmon_pairs,
                     momentum_expectation, position_expectation,
                     random_ensemble)
from test_backreaction import purely_classical_model, purely_quantum_model
from test_factorized_2dof import (SPEC as SPEC_2DOF,
                                  bohmion_brute_force_coupling,
                                  koopmon_4d_oracle,
                                  make_ensemble2d, separable_hamiltonian)

REPORT = "ACCEPTANCE {num} {name}: PASS ({detail})"


def report(num, name, detail):
    print("\n" + REPORT.format(num=num, name=name, detail=detail))


def benchmark_init(model_name, n):
    h = make_model(model_name)
    presets = {
        "tully1": (-8.0, 10.0, 20.0 / (np.sqrt(2.0) * 10.0)),
        "tully2": (-8.0, 16.0, 20.0 / (np.sqrt(2.0) * 16.0)),
        "tully3": (-15.0, 20.0, 20.0 / (np.sqrt(2.0) * 20.0)),
        "rabi_us": (0.0, 4.0, 1.0 / np.sqrt(2.0)),
        "rabi_ds": (0.0, 0.0, 1.0 / np.sqrt(2.0)),
    }
    mu_q, mu_p, sigma_q = presets[model_name]
    _, _, v1, v2 = adiabatic_basis(h, np.array([mu_q]))
    v0 = v2[0] if model_name.startswith("rabi") else v1[0]
    e0 = init_ensemble(InitSpec(mu_q=mu_q, mu_p=mu_p, sigma_q=sigma_q,
                                rho0=projector(v0), n=n))
    return h, e0, v0, (mu_q, mu_p, sigma_q)


DESK = {
    # model: (alpha, dt, t_final, desk N)
    "tully1": (0.325, 2.0, 3000.0, 200),
    "tully2": (0.325, 2.0, 2000.0, 200),
    "tully3": (0.325, 2.0, 4000.0, 200),
    "rabi_us": (0.5, 0.05, 25.0, 100),
    "rabi_ds": (0.5, 0.05, 15.0, 100),
}

SOFT_GRIDS = {
    "tully1": (-30.0, 40.0, 4096, 1.0),
    "tully2": (-30.0, 40.0, 4096, 1.0),
    "tully3": (-64.0, 64.0, 8192, 1.0),
    "rabi_us": (-15.0, 15.0, 2048, 0.01),
    "rabi_ds": (-15.0, 15.0, 2048, 0.01),
}


def run_desk(kind, model_name, alpha=None, n=None, dt=None, t_final=None):
    """Desk-scale particle run; returns (time, P1, purity, drift) array."""
    a0, dt0, t0, n0 = DESK[model_name]
    alpha = a0 if alpha is None else alpha
    n = n0 if n is None else n
    dt = dt0 if dt is None else dt
    t_final = t0 if t_final is None else t_final
    h, e0, _, _ = benchmark_init(model_name, n)
    rows = []

    def diag(t, s, en, dr):
        rec = particle_diagnostics(s, h, t)
        rows.append((t, rec.p1, rec.purity, dr))

    propagate(MethodKind.parse(kind), e0, h, KernelSpec(alpha=alpha), dt,
              t_final, diagnostics_fn=diag)
    return np.asarray(rows)


@pytest.fixture(scope="module")
def desk_runs():
    """Criterion 4/8 workhorse: koopmon on all presets, plus the Tully
    comparison partners, all at desk scale and paper dt."""
    out = {}
    for model_name in DESK:
        out[("koopmon", model_name)] = run_desk("koopmon", model_name)
        out[("ehrenfest", model_name)] = run_desk("ehrenfest", model_name)
        out[("bohmion", model_name)] = run_desk("bohmion", model_name)
    out[("koopmon", "tully1", 0.5)] = run_desk("koopmon", "tully1", alpha=0.5)
    return out


@pytest.fixture(scope="module")
def soft_reference():
    """Quantum reference runs for every preset (diagnostics per step)."""
    out = {}
    for model_name, (r_min, r_max, n_points, dt) in SOFT_GRIDS.items():
        h, _, v0, (mu_q, mu_p, sigma_q) = benchmark_init(model_name, 1)
        grid = SpatialGrid1D(r_min, r_max, n_points)
        state0 = init_wavepacket(grid, mu_q, mu_p, sigma_q, v0)
        t_final = DESK[model_name][2]
        records, _, max_edge = propagate_soft(
            state0, h, dt, t_final,
            diagnostics_fn=lambda t, s: (t, s.norm(), None))
        norms = np.array([r[1] for r in records])
        out[model_name] = {"norm_drift": float(np.max(np.abs(norms - 1.0))),
                           "max_edge": max_edge, "h": h,
                           "grid": grid, "init": (mu_q, mu_p, sigma_q, v0)}
    return out


# -------------------------------------------------------------------------
# 1. Gradient / Hamiltonian-structure suite
# -------------------------------------------------------------------------

def test_criterion_1_gradient_structure():
    worst = []
    for model_name, q0, p0 in (("tully1", -8.0, 10.0), ("rabi_us", 0.0, 4.0)):
        h = make_model(model_name)
        e = random_ensemble(4, seed=42, q0=q0, p0=p0)
        for kind in ("koopmon", "ehrenfest", "bohmion"):
            fd_gradient_check(kind, e, h, KernelSpec(alpha=0.5), rtol=1e-5)
            worst.append((kind, model_name))
    report(1, "gradient-structure",
           f"analytic rhs = FD gradient of h at rel tol 1e-5 for "
           f"{len(worst)} method/model pairs, N=4")


# -------------------------------------------------------------------------
# 2. Structural invariants of the pair integrals
# -------------------------------------------------------------------------

def test_criterion_2_structural_invariants():
    e = random_ensemble(4, seed=3, q0=-8.0, p0=10.0)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    assert np.array_equal(table, -np.swapaxes(table, 0, 1))
    assert np.all(table.diagonal().T == 0.0)

    grid1 = build_grid_1d(e.q, spec)
    btable = bohmion_pairs(e, grid1, spec)
    assert np.array_equal(btable, btable.T)

    ec = random_ensemble(3, seed=5, q0=0.0, p0=0.0)
    for model in (purely_classical_model(), purely_quantum_model()):
        gridc = build_grid(ec.q, ec.p, spec)
        tab = koopmon_pairs(ec, model, gridc, spec)
        assert abs(koopmon_coupling_energy(ec, tab)) < 1e-12
        terms = koopmon_terms(ec, model, gridc, spec)
        assert abs(terms.energy) < 1e-12
    report(2, "structural-invariants",
           "antisymmetry/symmetry exact; classical & quantum limits "
           "couple below 1e-12")


# -------------------------------------------------------------------------
# 3. Limit recoveries
# -------------------------------------------------------------------------

def test_criterion_3a_single_particle_is_ehrenfest_bitwise():
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.325)
    e = random_ensemble(1, seed=9, q0=-8.0, p0=10.0)
    sk, se = e.copy(), e.copy()
    for _ in range(50):
        sk = rk4_step(MethodKind.KOOPMON, sk, h, spec, 2.0)
        se = rk4_step(MethodKind.EHRENFEST, se, h, spec, 2.0)
        assert np.array_equal(sk.q, se.q)
        assert np.array_equal(sk.p, se.p)
        assert np.array_equal(sk.rho, se.rho)
    report(3, "limit-recovery-a",
           "N=1 koopmon trajectory bitwise equal to the mean-field one "
           "over 50 steps")


def test_criterion_3b_wide_kernel_recovers_mean_field():
    h, e0, _, _ = benchmark_init("tully1", 50)
    tk = propagate(MethodKind.KOOPMON, e0, h, KernelSpec(alpha=8.0), 2.0,
                   200.0, snapshot_times=(200.0,))
    te = propagate(MethodKind.EHRENFEST, e0, h, None, 2.0, 200.0,
                   snapshot_times=(200.0,))
    dq = np.max(np.abs(tk.snapshots[-1][1].q - te.snapshots[-1][1].q))
    dp = np.max(np.abs(tk.snapshots[-1][1].p - te.snapshots[-1][1].p))
    assert dq < 1e-3 and dp < 1e-3

    # repeat with dephased quantum states so the coupling is fully active
    e1 = e0.copy()
    rng = np.random.default_rng(4)
    for a in range(e1.n):
        e1.components[:, a] = pauli_components(
            bloch_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
    tk1 = propagate(MethodKind.KOOPMON, e1, h, KernelSpec(alpha=8.0), 2.0,
                    200.0, snapshot_times=(200.0,))
    te1 = propagate(MethodKind.EHRENFEST, e1, h, None, 2.0, 200.0,
                    snapshot_times=(200.0,))
    dq1 = np.max(np.abs(tk1.snapshots[-1][1].q - te1.snapshots[-1][1].q))
    dp1 = np.max(np.abs(tk1.snapshots[-1][1].p - te1.snapshots[-1][1].p))
    assert dq1 < 1e-3 and dp1 < 1e-3
    report(3, "limit-recovery-b",
           f"alpha=8 koopmon vs mean-field over t<=200, N=50: "
           f"max|dq|={max(dq, dq1):.2e}, max|dp|={max(dp, dp1):.2e} < 1e-3")


# -------------------------------------------------------------------------
# 4. Energy conservation on every benchmark preset (desk scale)
# -------------------------------------------------------------------------

def population_jumps(p1):
    """Departure of each per-step change of P1 from its neighbours' mean.

    With ``d_k = P1(t_{k+1}) - P1(t_k)`` this is
    ``|d_k - (d_{k-1} + d_{k+1})/2|``, using the single neighbour at the two
    ends.  A smooth transfer at any rate gives O(dt^3) inside and O(dt^2) at
    the ends; one step that departs from its neighbours by ``x`` gives about
    ``x``.
    """
    d = np.diff(np.asarray(p1, dtype=float))
    mean = np.empty_like(d)
    mean[1:-1] = 0.5 * (d[:-2] + d[2:])
    mean[0], mean[-1] = d[1], d[-2]
    return np.abs(d - mean)


def test_population_jumps_flags_an_injected_step():
    # a smooth transfer at up to 1.35 per a.u., faster than a per-step cap of
    # 0.05 at dt = 0.05 allows, passes; one extra step of 0.05 at the
    # fastest point of the transfer is flagged
    dt = 0.05
    t = dt * np.arange(201)
    smooth = 0.5 - 0.45 * np.cos(3.0 * t)
    assert np.max(np.abs(np.diff(smooth))) > 0.05
    assert np.max(population_jumps(smooth)) < 0.05
    stepped = smooth.copy()
    stepped[int(round(np.pi / 6.0 / dt)):] += 0.05
    assert not np.max(population_jumps(stepped)) < 0.05


@pytest.mark.parametrize("kind,dt,t_final", [("bohmion", 0.05, None),
                                             ("koopmon", 0.025, 6.0),
                                             ("bohmion", 0.025, 6.0)])
def test_rabi_ds_drift_converges_at_rk4_order(kind, dt, t_final):
    # the discrete energy is one smooth function of the state on the lattice,
    # so halving dt cuts the drift by about 2^4 or more, down to small dt
    coarse = float(np.max(run_desk(kind, "rabi_ds", dt=dt,
                                   t_final=t_final)[:, 3]))
    fine = float(np.max(run_desk(kind, "rabi_ds", dt=dt / 2,
                                 t_final=t_final)[:, 3]))
    assert coarse < 1e-2
    assert coarse / fine >= 16.0, (coarse, fine)


@pytest.mark.slow
def test_criterion_4_energy_conservation(desk_runs):
    details, violations = [], []
    for (key, rows) in desk_runs.items():
        kind, model_name = key[0], key[1]
        drift = float(np.nanmax(rows[:, 3]))
        # populations evolve smoothly: no per-step jumps
        jump = float(np.max(population_jumps(rows[:, 1])))
        if not (drift < 1e-2 and jump < 0.05):
            violations.append((key, drift, jump))
        details.append(f"{kind}/{model_name}:{drift:.1e}")
    assert not violations, \
        "(run, drift, largest jump) over bounds 1e-2, 0.05: " + repr(violations)
    report(4, "energy-conservation",
           "relative drift < 1e-2 at paper dt on all presets, desk scale -- "
           + ", ".join(details))


# -------------------------------------------------------------------------
# 5. Quantum reference solver correctness
# -------------------------------------------------------------------------

def test_criterion_5_soft_correctness(soft_reference):
    for model_name, data in soft_reference.items():
        assert data["norm_drift"] < 1e-9, (model_name, data["norm_drift"])

    # harmonic coherent-state return after one period
    h = make_model("rabi_us", gamma=0.0, c0=0.0)
    grid = SpatialGrid1D(-15.0, 15.0, 2048)
    state = init_wavepacket(grid, 0.0, 4.0, 1 / np.sqrt(2.0),
                            np.array([1.0, 0.0]))
    dt = 2 * np.pi / 256
    for _ in range(256):
        state = strang_step(state, h, dt)
    return_err = max(abs(position_expectation(state)),
                     abs(momentum_expectation(state) - 4.0))
    assert return_err < 1e-3

    # two-level oscillation period pi/C0
    c0 = 0.35
    h2 = make_model("rabi_us", gamma=0.0, c0=c0, mass=1e9)
    state = init_wavepacket(grid, 0.0, 0.0, 1 / np.sqrt(2.0),
                            np.array([1.0, 0.0]))
    dt = 0.002
    bz, times = [], []
    for k in range(int(22 / dt) + 1):
        if k:
            state = strang_step(state, h2, dt)
        times.append(k * dt)
        bz.append(float(observables(state, h2)["bloch"][2]))
    bz = np.asarray(bz)
    crossings = []
    for i in range(len(bz) - 1):
        if bz[i] > 0.0 >= bz[i + 1]:
            crossings.append(times[i] + dt * bz[i] / (bz[i] - bz[i + 1]))
    period = crossings[1] - crossings[0]
    assert abs(period - np.pi / c0) / (np.pi / c0) < 1e-3
    report(5, "soft-correctness",
           f"norm drift < 1e-9 on all presets; harmonic return "
           f"{return_err:.1e} < 1e-3; two-level period "
           f"{period:.5f} vs {np.pi / c0:.5f}")


# -------------------------------------------------------------------------
# 6. Wigner analytics
# -------------------------------------------------------------------------

def test_criterion_6_wigner_analytics():
    mu_q, mu_p, sigma_q = 0.3, 4.0, 1 / np.sqrt(2.0)
    g = 1.0 / (2.0 * sigma_q**2)
    grid = SpatialGrid1D(-15.0, 15.0, 2048)
    state = init_wavepacket(grid, mu_q, mu_p, sigma_q, np.array([1.0, 0.0]))
    q = np.linspace(mu_q - 4, mu_q + 4, 161)
    p = np.linspace(mu_p - 5, mu_p + 5, 161)
    field = wigner(state, q, p)
    exact = np.exp(-g * (field.axis1[:, None] - mu_q) ** 2
                   - (p[None, :] - mu_p) ** 2 / g) / np.pi
    werr = float(np.max(np.abs(field.values - exact)))
    assert werr < 1e-6

    marg = np.trapezoid(field.values, p, axis=1)
    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    merr = float(np.max(np.abs(
        marg - np.interp(field.axis1, state.grid.r, dens))))
    assert merr < 1e-6
    report(6, "wigner-analytics",
           f"closed-form error {werr:.1e}, marginal error {merr:.1e} < 1e-6")


# -------------------------------------------------------------------------
# 7. Two-degree-of-freedom factorization equivalence
# -------------------------------------------------------------------------

def test_criterion_7_factorized_2dof():
    from mqcdyn.backreaction import (bohmion_2dof_coupling,
                                     bohmion_pairs_factorized_2dof,
                                     koopmon_2dof_coupling,
                                     koopmon_pairs_factorized_2dof)
    e2 = make_ensemble2d()
    ham = separable_hamiltonian()
    tables = koopmon_pairs_factorized_2dof(
        e2, ham, SPEC_2DOF, SPEC_2DOF, GridParams(n_q=5, n_p=5, j_q=3, j_p=3))
    fac_k = koopmon_2dof_coupling(e2, tables)
    brute_k = koopmon_4d_oracle()
    assert abs(fac_k - brute_k) < 1e-5

    t1, t2 = bohmion_pairs_factorized_2dof(e2, SPEC_2DOF, SPEC_2DOF,
                                           GridParams(n_q=6, j_q=4))
    fac_b = bohmion_2dof_coupling(e2, t1, t2)
    brute_b = bohmion_brute_force_coupling(e2)
    assert abs(fac_b - brute_b) < 1e-5
    report(7, "factorized-2dof",
           f"koopmon |fac-4D oracle|={abs(fac_k - brute_k):.1e}, "
           f"bohmion |fac-2D oracle|={abs(fac_b - brute_b):.1e} < 1e-5")


# -------------------------------------------------------------------------
# 8. Benchmark physics at desk scale against the in-repo quantum reference
# -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_benchmark_physics(desk_runs, soft_reference):
    # quantum reference values at the comparison times
    ref = soft_reference["tully1"]
    h = ref["h"]
    mu_q, mu_p, sigma_q, v0 = ref["init"]
    state0 = init_wavepacket(ref["grid"], mu_q, mu_p, sigma_q, v0)
    _, snaps, _ = propagate_soft(state0, h, 1.0, 3000.0,
                                 snapshot_times=(3000.0,))
    obs = observables(snaps[-1][1], h)

    rows = desk_runs[("koopmon", "tully1", 0.5)]
    final = rows[-1]
    dp1 = abs(final[1] - obs["p1"])
    dpur = abs(final[2] - obs["purity"])
    assert dp1 < 0.1, f"population gap {dp1}"
    assert dpur < 0.1, f"purity gap {dpur}"

    # extended-coupling model: the coupled method recovers rising purity
    # after the reflection; the mean-field method stays flat
    koop = desk_runs[("koopmon", "tully3")]
    ehr = desk_runs[("ehrenfest", "tully3")]

    def revival(rows):
        t, pur = rows[:, 0], rows[:, 2]
        i3500 = np.argmin(np.abs(t - 3500.0))
        return float(pur[i3500] - pur[:i3500 + 1].min())

    rev_k = revival(koop)
    rev_e = revival(ehr)
    assert rev_k > 0.02, f"coupled-method purity revival {rev_k}"
    assert rev_e < 0.01, f"mean-field purity revival {rev_e}"
    report(8, "benchmark-physics",
           f"tully1: |dP1|={dp1:.3f}, |dpurity|={dpur:.3f} < 0.1 vs quantum "
           f"reference; tully3 purity revival {rev_k:.3f} > 0.02 (koopmon) "
           f"vs {rev_e:.3f} < 0.01 (mean-field)")


# -------------------------------------------------------------------------
# 9. Determinism
# -------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    base = ["run", "--preset", "rabi_us", "--method", "koopmon",
            "--set", "n_particles=16", "--set", "t_final=1",
            "--set", "run.snapshot_times=0 1",
            "--set", "viz.wigner_nodes=16", "--set", "viz.waterfall_nodes=32"]
    for workers, name in ((1, "w1"), (8, "w8")):
        cmd = [sys.executable, "-m", "mqcdyn.cli"] + base + \
            ["--workers", str(workers), "--out", str(tmp_path / name)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    ts1 = (tmp_path / "w1" / "timeseries.csv").read_bytes()
    ts8 = (tmp_path / "w8" / "timeseries.csv").read_bytes()
    assert ts1 == ts8
    e1 = (tmp_path / "w1" / "ensemble_t1.csv").read_bytes()
    e8 = (tmp_path / "w8" / "ensemble_t1.csv").read_bytes()
    assert e1 == e8
    report(9, "determinism",
           "bit-identical time series and snapshots across worker counts")
