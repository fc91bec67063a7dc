import collections

import numpy as np
import pytest

from mqcdyn import _heap, backreaction, dynamics, soft
from mqcdyn.dynamics import (EnergyDriftError, MethodKind, default_grid,
                             energy, propagate, rhs, rk4_step, snapshot_steps)
from mqcdyn.ensemble import ParticleEnsemble, validate
from mqcdyn.models import HybridHamiltonian, make_model
from mqcdyn.pauli import SIGMA_X, projector
from mqcdyn.regularization import GridParams, KernelSpec
from mqcdyn.sampling import InitSpec, init_ensemble

from helpers import bloch_state, fd_gradient_check, random_ensemble


@pytest.mark.parametrize("kind", ["ehrenfest", "koopmon", "bohmion"])
@pytest.mark.parametrize("model_name,q0,p0", [("tully1", -8.0, 10.0),
                                              ("rabi_us", 0.0, 4.0)])
def test_rhs_is_gradient_of_energy(kind, model_name, q0, p0):
    e = random_ensemble(4, seed=42, q0=q0, p0=p0)
    h = make_model(model_name)
    fd_gradient_check(kind, e, h, KernelSpec(alpha=0.5))


def test_ehrenfest_rhs_example():
    h = make_model("tully1")
    from mqcdyn.models import adiabatic_basis
    _, _, v1, _ = adiabatic_basis(h, np.array([-8.0]))
    e = ParticleEnsemble(q=np.array([-8.0]), p=np.array([10.0]),
                         rho=np.asarray([projector(v1[0])]), w=np.ones(1))
    d = rhs(MethodKind.EHRENFEST, e, h)
    assert d.dq[0] == pytest.approx(10.0 / 2000.0)
    # force = -<rho, dH/dq>, cross-checked by finite differences of <rho, H>
    step = 1e-6
    tr_plus = np.trace(e.rho[0] @ h.matrix(-8.0 + step, 10.0)).real
    tr_minus = np.trace(e.rho[0] @ h.matrix(-8.0 - step, 10.0)).real
    assert d.dp[0] == pytest.approx(-(tr_plus - tr_minus) / (2 * step),
                                    rel=1e-6, abs=1e-12)


def test_drho_is_traceless_and_hermitian():
    e = random_ensemble(5, seed=1, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    for kind in MethodKind:
        d = rhs(kind, e, h, KernelSpec(alpha=0.5))
        traces = np.abs(d.drho[:, 0, 0] + d.drho[:, 1, 1])
        assert np.max(traces) < 1e-12
        assert np.allclose(d.drho, np.conj(np.swapaxes(d.drho, -1, -2)))


def test_single_particle_koopmon_equals_ehrenfest_bitwise():
    e = random_ensemble(1, seed=5, q0=-8.0, p0=10.0)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    dk = rhs(MethodKind.KOOPMON, e, h, spec)
    de = rhs(MethodKind.EHRENFEST, e, h, spec)
    assert np.array_equal(dk.dq, de.dq)
    assert np.array_equal(dk.dp, de.dp)
    assert np.array_equal(dk.drho, de.drho)
    assert energy(MethodKind.KOOPMON, e, h, spec) == \
        energy(MethodKind.EHRENFEST, e, h, spec)


def test_single_particle_bohmion_offset_energy_same_motion():
    # the self coupling shifts the energy but not the flow: its integral is
    # translation invariant in the particle position
    e = random_ensemble(1, seed=6, q0=0.0, p0=1.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    db = rhs(MethodKind.BOHMION, e, h, spec)
    de = rhs(MethodKind.EHRENFEST, e, h, spec)
    assert db.dq[0] == pytest.approx(de.dq[0], abs=1e-13)
    assert db.dp[0] == pytest.approx(de.dp[0], abs=1e-13)
    assert np.allclose(db.drho, de.drho, atol=1e-13)
    eb = energy(MethodKind.BOHMION, e, h, spec)
    ee = energy(MethodKind.EHRENFEST, e, h, spec)
    purity_coeff = 2.0 * np.einsum("ij,ji->", e.rho[0], e.rho[0]).real - 1.0
    # pure state: coefficient 1, self integral 2/alpha^2 (up to the box cut)
    assert eb > ee
    assert eb - ee == pytest.approx(1.0 / (8.0 * h.mass) * purity_coeff
                                    * 2.0 / 0.25, rel=0.3)


def test_equal_quantum_states_make_koopmon_energy_ehrenfest():
    rho0 = bloch_state(0.8, 1.1)
    n = 4
    rng = np.random.default_rng(8)
    e = ParticleEnsemble(q=rng.normal(size=n), p=rng.normal(size=n),
                         rho=np.broadcast_to(rho0, (n, 2, 2)).copy(),
                         w=np.full(n, 1 / n))
    h = make_model("rabi_ds")
    spec = KernelSpec(alpha=0.5)
    assert energy(MethodKind.KOOPMON, e, h, spec) == pytest.approx(
        energy(MethodKind.EHRENFEST, e, h, spec), abs=1e-18)


def test_koopmon_energy_example_tully1():
    # point particle at (-8, 10) in the lower adiabatic state:
    # h = p^2/2M + lambda_1(-8) = 0.025 - 0.01
    h = make_model("tully1")
    from mqcdyn.models import adiabatic_basis, spectral
    _, _, v1, _ = adiabatic_basis(h, np.array([-8.0]))
    e = ParticleEnsemble(q=np.array([-8.0]), p=np.array([10.0]),
                         rho=np.asarray([projector(v1[0])]), w=np.ones(1))
    expected = 10.0**2 / (2 * 2000.0) + spectral(h, -8.0).lambda1
    assert energy(MethodKind.KOOPMON, e, h, KernelSpec(alpha=0.5)) == \
        pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.025 - 0.01, abs=1e-7)


# ---------------------------------------------------------------------------
# RK4 stepper
# ---------------------------------------------------------------------------

def harmonic_model():
    return HybridHamiltonian(
        name="sho", mass=1.0,
        classical=lambda q, p: 0.5 * (np.asarray(q, dtype=float)**2
                                      + np.asarray(p, dtype=float)**2),
        d_classical_q=lambda q, p: np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_p=lambda q, p: np.asarray(p, dtype=float) + 0.0 * np.asarray(q),
        interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
        d_interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
    )


def one_particle(q, p, rho=None):
    rho = bloch_state(0.3, 0.0) if rho is None else rho
    return ParticleEnsemble(q=np.array([q]), p=np.array([p]),
                            rho=np.asarray([rho]), w=np.ones(1))


def test_rk4_harmonic_one_step():
    # qdot = p, pdot = -q from (1, 0): exact solution (cos t, -sin t);
    # the one-step RK4 defect is h^5/5! = 8.3e-8 at dt = 0.1
    h = harmonic_model()
    e1 = rk4_step(MethodKind.EHRENFEST, one_particle(1.0, 0.0), h, None, 0.1)
    err1 = max(abs(e1.q[0] - np.cos(0.1)), abs(e1.p[0] + np.sin(0.1)))
    assert err1 < 1e-7
    e2 = rk4_step(MethodKind.EHRENFEST, one_particle(1.0, 0.0), h, None, 0.05)
    err2 = max(abs(e2.q[0] - np.cos(0.05)), abs(e2.p[0] + np.sin(0.05)))
    assert err2 < 1e-8
    # fifth-order local error: halving dt shrinks the defect ~32x
    assert err1 / err2 > 20


def spin_rotation_model(c0=0.35):
    return HybridHamiltonian(
        name="spin", mass=1.0,
        classical=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_q=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_p=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        interaction=lambda q: (0.0 * np.asarray(q, dtype=float),
                               c0 + 0.0 * np.asarray(q, dtype=float),
                               0.0 * np.asarray(q, dtype=float),
                               0.0 * np.asarray(q, dtype=float)),
        d_interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
    )


def test_rk4_quantum_rotation_preserves_purity():
    h = spin_rotation_model()
    e = one_particle(0.0, 0.0, rho=np.diag([1.0, 0.0]).astype(complex))
    state = e
    dt = 0.05
    for _ in range(40):
        new = rk4_step(MethodKind.EHRENFEST, state, h, None, dt)
        pur_old = np.einsum("ij,ji->", state.rho[0], state.rho[0]).real
        pur_new = np.einsum("ij,ji->", new.rho[0], new.rho[0]).real
        assert abs(pur_new - pur_old) < 1e-10
        state = new
    # and the state matches the unitary oracle exp(-i H t)
    t = 40 * dt
    u = (np.cos(0.35 * t) * np.eye(2) - 1j * np.sin(0.35 * t) * SIGMA_X)
    expected = u @ e.rho[0] @ u.conj().T
    assert np.max(np.abs(state.rho[0] - expected)) < 1e-8


def test_rk4_zero_hamiltonian_fixes_state():
    h = spin_rotation_model(c0=0.0)
    e = one_particle(0.7, -0.3)
    out = rk4_step(MethodKind.EHRENFEST, e, h, None, 0.5)
    assert np.array_equal(out.q, e.q) and np.array_equal(out.p, e.p)
    assert np.array_equal(out.rho, e.rho)


def test_rk4_preserves_spectrum_of_each_state():
    e = random_ensemble(4, seed=13, q0=-8.0, p0=10.0)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    before = np.sort(np.linalg.eigvalsh(e.rho), axis=1)
    out = rk4_step(MethodKind.KOOPMON, e, h, spec, 2.0)
    after = np.sort(np.linalg.eigvalsh(out.rho), axis=1)
    assert np.max(np.abs(before - after)) < 1e-8
    assert validate(out) == []


# ---------------------------------------------------------------------------
# Propagation loop
# ---------------------------------------------------------------------------

def test_snapshot_steps_nearest_and_ties():
    assert snapshot_steps(2.0, 10, [0.0, 3.0, 19.0, 20.0]) == \
        {0: 0.0, 1: 3.0, 9: 19.0, 10: 20.0}
    # exact midpoint ties round to the earlier step
    assert snapshot_steps(2.0, 10, [5.0]) == {2: 5.0}


def test_propagate_zero_time():
    e = random_ensemble(2, seed=3, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    traj = propagate(MethodKind.EHRENFEST, e, h, None, dt=0.05, t_final=0.0,
                     snapshot_times=(0.0,),
                     diagnostics_fn=lambda t, s, en, dr: (t, en, dr))
    assert len(traj.records) == 1
    assert traj.records[0][0] == 0.0
    assert len(traj.snapshots) == 1


def test_propagate_rejects_bad_grid_of_times():
    e = random_ensemble(2, seed=3, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    with pytest.raises(ValueError):
        propagate(MethodKind.EHRENFEST, e, h, None, dt=0.05, t_final=0.07)
    with pytest.raises(ValueError):
        propagate(MethodKind.EHRENFEST, e, h, None, dt=0.05, t_final=0.1,
                  snapshot_times=(5.0,))


def test_propagate_energy_conservation_short_runs():
    spec = KernelSpec(alpha=0.5)
    cases = [("koopmon", "tully1", -8.0, 10.0, 2.0, 100.0),
             ("ehrenfest", "tully1", -8.0, 10.0, 2.0, 100.0),
             ("bohmion", "tully1", -8.0, 10.0, 2.0, 100.0),
             ("koopmon", "rabi_us", 0.0, 4.0, 0.05, 5.0),
             ("bohmion", "rabi_us", 0.0, 4.0, 0.05, 5.0)]
    for kind, model_name, q0, p0, dt, t_final in cases:
        e = random_ensemble(32, seed=21, q0=q0, p0=p0)
        h = make_model(model_name)
        drifts = []
        propagate(MethodKind.parse(kind), e, h, spec, dt, t_final,
                  diagnostics_fn=lambda t, s, en, dr: drifts.append(dr))
        assert max(drifts) < 1e-2, (kind, model_name, max(drifts))


@pytest.mark.parametrize("kind", ["koopmon", "bohmion"])
def test_propagate_steps_on_the_given_box(kind):
    # grid_params sets the box of every RK4 stage, not only the box of the
    # energy diagnostic
    e = random_ensemble(6, seed=17, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    narrow = GridParams(n_q=2, n_p=2)
    kind = MethodKind.parse(kind)

    def final(grid_params):
        traj = propagate(kind, e, h, spec, 0.05, 0.5, snapshot_times=(0.5,),
                         grid_params=grid_params)
        return traj.final_state

    stepped = e
    for _ in range(10):
        stepped = rk4_step(kind, stepped, h, spec, 0.05, narrow)
    out = final(narrow)
    assert np.array_equal(out.q, stepped.q)
    assert np.array_equal(out.p, stepped.p)
    assert np.array_equal(out.rho, stepped.rho)
    assert not np.array_equal(out.q, final(GridParams()).q)


@pytest.mark.parametrize("kind", ["koopmon", "bohmion", "ehrenfest"])
def test_propagate_records_the_energy_of_the_k1_stage(kind):
    # the energy recorded at each state is the one `energy` gives on the box
    # that steps the state, and handing its `rhs` to rk4_step as k1 changes
    # nothing in the step
    e = random_ensemble(6, seed=19, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    narrow = GridParams(n_q=2, n_p=2)
    kind = MethodKind.parse(kind)
    seen = []
    propagate(kind, e, h, spec, 0.05, 0.5, grid_params=narrow,
              diagnostics_fn=lambda t, s, en, dr: seen.append((s.copy(), en)))
    assert len(seen) == 11
    for state, recorded in seen:
        grid = default_grid(kind, state, spec, narrow)
        assert recorded == energy(kind, state, h, spec, grid)
        plain = rk4_step(kind, state, h, spec, 0.05, narrow)
        given = rk4_step(kind, state, h, spec, 0.05, narrow,
                         k1=rhs(kind, state, h, spec, grid))
        assert np.array_equal(plain.q, given.q)
        assert np.array_equal(plain.p, given.p)
        assert np.array_equal(plain.rho, given.rho)


def test_steps_and_coupling_evaluations_pass_the_module_globals(monkeypatch):
    # profilers hook these module globals, so every step must pass them; a
    # koopmon step evaluates the coupling at its four RK4 stages, the first
    # of which also gives the energy, and the final state adds one
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count(dynamics, "rk4_step")
    count(soft, "strang_step")
    count(backreaction, "koopmon_terms")

    n = 5
    propagate(MethodKind.KOOPMON, random_ensemble(6, seed=5, q0=0.0, p0=4.0),
              make_model("rabi_us"), KernelSpec(alpha=0.5), 0.05, n * 0.05)
    assert calls["rk4_step"] == n
    assert calls["koopmon_terms"] == 4 * n + 1

    grid = soft.SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=256)
    state = soft.init_wavepacket(grid, 0.0, 0.0, 1.0, np.array([1.0, 0.0]))
    soft.propagate_soft(state, make_model("rabi_ds"), 0.01, n * 0.01)
    assert calls["strang_step"] == n


@pytest.mark.skipif(not _heap.FREED_MEMORY_KEPT,
                    reason="libc has no mallopt; the allocator keeps its defaults")
def test_koopmon_steps_reuse_freed_work_arrays():
    # a rabi_ds cloud at paper N: each RHS evaluation frees MBs of
    # (particles x nodes) work arrays; kept in the heap, the next evaluation
    # reuses them instead of faulting fresh pages in (about 4400 minor
    # faults per step under glibc's default thresholds)
    import resource

    e = init_ensemble(InitSpec(mu_q=0.0, mu_p=0.0, sigma_q=1.0 / np.sqrt(2.0),
                               rho0=projector(np.array([0.0, 1.0])), n=500))
    h = make_model("rabi_ds")
    spec = KernelSpec(alpha=0.5)
    for _ in range(2):
        e = rk4_step("koopmon", e, h, spec, 0.05)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    n_steps = 20
    for _ in range(n_steps):
        e = rk4_step("koopmon", e, h, spec, 0.05)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100 * n_steps, faults


def test_propagate_aborts_on_energy_blowup():
    # an absurdly large step makes RK4 unstable for the driven oscillator
    e = random_ensemble(2, seed=3, q0=0.0, p0=4.0)
    h = make_model("rabi_ds")
    with pytest.raises(EnergyDriftError):
        propagate(MethodKind.EHRENFEST, e, h, None, dt=2.5, t_final=250.0,
                  energy_tol=1e-2)


def test_propagate_validates_ensemble_along_the_way():
    # eigenvalues of each rho_a are conserved only to integrator order, so
    # the physicality tolerances scale with the rotation rate and step count
    e = random_ensemble(6, seed=30, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    traj = propagate(MethodKind.KOOPMON, e, h, spec, dt=0.05, t_final=2.0,
                     snapshot_times=(0.0, 1.0, 2.0))
    for _, snap in traj.snapshots:
        assert validate(snap, psd_tol=1e-6) == []


def test_validate_after_100_tully_steps_at_tight_tolerance():
    e = random_ensemble(8, seed=31, q0=-8.0, p0=10.0)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    traj = propagate(MethodKind.KOOPMON, e, h, spec, dt=2.0, t_final=200.0,
                     snapshot_times=(200.0,))
    assert validate(traj.snapshots[-1][1], psd_tol=1e-8) == []
