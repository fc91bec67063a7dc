import collections

import numpy as np
import pytest

from mqcdyn import (_heap, backreaction, dynamics, ensemble, pauli, sampling,
                    soft)
from mqcdyn.dynamics import (EnergyDriftError, MethodKind,
                             NonFiniteDerivativeError, energy, propagate, rhs,
                             rk4_step, snapshot_steps)
from mqcdyn.ensemble import validate
from mqcdyn.models import HBAR, HybridHamiltonian, make_model
from mqcdyn.pauli import pauli_matrix, projector
from mqcdyn.regularization import (GridParams, KernelSpec, build_grid,
                                   build_grid_1d)
from mqcdyn.sampling import InitSpec, init_ensemble

import helpers
from helpers import (SIGMA_X, TRACE_RENORM_THRESHOLD, bloch_state, drho,
                     fd_gradient_check, from_rho, matrix, nan_past,
                     random_ensemble, rehermitize)


@pytest.mark.parametrize("kind", ["ehrenfest", "koopmon", "bohmion"])
@pytest.mark.parametrize("model_name,q0,p0", [("tully1", -8.0, 10.0),
                                              ("rabi_us", 0.0, 4.0)])
def test_rhs_is_gradient_of_energy(kind, model_name, q0, p0):
    e = random_ensemble(4, seed=42, q0=q0, p0=p0)
    h = make_model(model_name)
    fd_gradient_check(kind, e, h, KernelSpec(alpha=0.5))


def ramp_model():
    """V = 0.3 q and H_I = 0.1 sx + 0.2 sz: every derivative callable
    returns plain scalars."""
    return HybridHamiltonian(
        name="ramp", mass=1.0,
        classical=lambda q, p: 0.5 * p**2 + 0.3 * q,
        d_classical_q=lambda q, p: 0.3,
        d_classical_p=lambda q, p: p,
        interaction=lambda q: (0.0, 0.1, 0.0, 0.2),
        d_interaction=lambda q: (0.0, 0.0, 0.0, 0.0),
    )


@pytest.mark.parametrize("kind", ["ehrenfest", "koopmon", "bohmion"])
def test_rhs_is_gradient_of_energy_for_scalar_valued_model(kind):
    e = random_ensemble(4, seed=42, q0=0.0, p0=1.0)
    fd_gradient_check(kind, e, ramp_model(), KernelSpec(alpha=0.5))


def test_ehrenfest_rhs_example():
    h = make_model("tully1")
    from mqcdyn.models import adiabatic_basis
    _, _, v1, _ = adiabatic_basis(h, np.array([-8.0]))
    e = from_rho(np.array([-8.0]), np.array([10.0]),
                 np.asarray([projector(v1[0])]), np.ones(1))
    d = rhs(MethodKind.EHRENFEST, e, h)
    assert d.dq[0] == pytest.approx(10.0 / 2000.0)
    # force = -<rho, dH/dq>, cross-checked by finite differences of <rho, H>
    step = 1e-6
    tr_plus = np.trace(e.rho[0] @ matrix(h, -8.0 + step, 10.0)).real
    tr_minus = np.trace(e.rho[0] @ matrix(h, -8.0 - step, 10.0)).real
    assert d.dp[0] == pytest.approx(-(tr_plus - tr_minus) / (2 * step),
                                    rel=1e-6, abs=1e-12)


def test_ds_is_real_and_orthogonal_to_s():
    # drho is traceless and Hermitian by construction, as the rate of the
    # half Bloch vectors alone; each s_a only rotates, so ds_a . s_a = 0
    e = random_ensemble(5, seed=1, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    s = e.components[1:]
    for kind in MethodKind:
        d = rhs(kind, e, h, KernelSpec(alpha=0.5))
        assert d.ds.shape == (3, e.n) and d.ds.dtype == float
        radial = np.abs(np.einsum("ma,ma->a", d.ds, s))
        assert np.max(radial) <= 1e-14 * np.max(np.abs(d.ds))


def test_single_particle_koopmon_equals_ehrenfest_bitwise():
    e = random_ensemble(1, seed=5, q0=-8.0, p0=10.0)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    dk = rhs(MethodKind.KOOPMON, e, h, spec)
    de = rhs(MethodKind.EHRENFEST, e, h, spec)
    assert np.array_equal(dk.dq, de.dq)
    assert np.array_equal(dk.dp, de.dp)
    assert np.array_equal(dk.ds, de.ds)
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
    assert np.allclose(drho(db), drho(de), atol=1e-13)
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
    e = from_rho(rng.normal(size=n), rng.normal(size=n),
                 np.broadcast_to(rho0, (n, 2, 2)), np.full(n, 1 / n))
    h = make_model("rabi_ds")
    spec = KernelSpec(alpha=0.5)
    assert energy(MethodKind.KOOPMON, e, h, spec) == pytest.approx(
        energy(MethodKind.EHRENFEST, e, h, spec), abs=1e-18)


def test_koopmon_energy_example_tully1():
    # point particle at (-8, 10) in the lower adiabatic state:
    # h = p^2/2M + lambda_1(-8) = 0.025 - 0.01
    h = make_model("tully1")
    from mqcdyn.models import adiabatic_basis
    _, _, v1, _ = adiabatic_basis(h, np.array([-8.0]))
    e = from_rho(np.array([-8.0]), np.array([10.0]),
                 np.asarray([projector(v1[0])]), np.ones(1))
    expected = 10.0**2 / (2 * 2000.0) + float(adiabatic_basis(h, -8.0)[0])
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
    return from_rho(np.array([q]), np.array([p]), np.asarray([rho]),
                    np.ones(1))


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


def complex_rk4_step(kind, e, h, spec, dt):
    """RK4 with complex rho in every stage state and the post-step
    `rehermitize`, the step as it was taken before the stages carried the
    Pauli components."""
    def shifted(scale, d):
        return from_rho(e.q + scale * d.dq, e.p + scale * d.dp,
                        e.rho + scale * drho(d), e.w)

    k1 = rhs(kind, e, h, spec)
    k2 = rhs(kind, shifted(0.5 * dt, k1), h, spec)
    k3 = rhs(kind, shifted(0.5 * dt, k2), h, spec)
    k4 = rhs(kind, shifted(dt, k3), h, spec)
    sixth = dt / 6.0
    q = e.q + sixth * (k1.dq + 2.0 * k2.dq + 2.0 * k3.dq + k4.dq)
    p = e.p + sixth * (k1.dp + 2.0 * k2.dp + 2.0 * k3.dp + k4.dp)
    rho = e.rho + sixth * (drho(k1) + 2.0 * drho(k2) + 2.0 * drho(k3)
                           + drho(k4))
    return from_rho(q, p, rehermitize(rho), e.w)


@pytest.mark.parametrize("kind", ["koopmon", "bohmion", "ehrenfest"])
@pytest.mark.parametrize("model_name,q0,p0,dt", [("tully1", -1.0, 10.0, 2.0),
                                                 ("rabi_ds", 0.0, 1.0, 0.05)])
def test_rk4_on_pauli_components_follows_the_complex_rho_step(
        kind, model_name, q0, p0, dt):
    e = random_ensemble(16, seed=41, q0=q0, p0=p0, spread=1.0)
    h = make_model(model_name)
    spec = KernelSpec(alpha=0.5)
    ours = theirs = e
    for _ in range(20):
        ours = rk4_step(kind, ours, h, spec, dt)
        theirs = complex_rk4_step(kind, theirs, h, spec, dt)
    for name in ("q", "p", "rho"):
        got, want = getattr(ours, name), getattr(theirs, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
    want = energy(kind, theirs, h, spec)
    assert energy(kind, ours, h, spec) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model_name,q0,p0,dt", [("tully1", -8.0, 10.0, 2.0),
                                                 ("rabi_ds", 0.0, 1.0, 0.05)])
def test_the_trace_drifts_by_round_off_only(model_name, q0, p0, dt):
    # the step never writes the trace component and never renormalizes;
    # over 2000 steps the trace of the rho built from the components must
    # stay within the threshold at which `rehermitize` would repair it
    e = random_ensemble(50, seed=43, q0=q0, p0=p0, spread=1.0)
    drift = []

    def trace_drift(t, state, en, dr):
        tr = (state.rho[:, 0, 0] + state.rho[:, 1, 1]).real
        drift.append(np.max(np.abs(tr - 1.0)))

    propagate("ehrenfest", e, make_model(model_name), None, dt, 2000 * dt,
              diagnostics_fn=trace_drift)
    assert len(drift) == 2001
    assert max(drift) < TRACE_RENORM_THRESHOLD


@pytest.mark.parametrize("kind", ["koopmon", "bohmion", "ehrenfest"])
@pytest.mark.parametrize("given_k1", [False, True])
def test_an_rk4_step_forms_no_rho(kind, given_k1, monkeypatch):
    e = random_ensemble(6, seed=45, q0=0.0, p0=4.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    k1 = rhs(kind, e, h, spec) if given_k1 else None
    calls = collections.Counter()
    built = []

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            if name == "ParticleEnsemble":
                built.append(out)
            return out
        monkeypatch.setattr(module, name, counting)

    count(dynamics, "ParticleEnsemble")
    count(dynamics, "rhs")
    for module in (ensemble, pauli, sampling):
        for name in ("pauli_components", "pauli_matrix"):
            if hasattr(module, name):
                count(module, name)
    out = rk4_step(kind, e, h, spec, 0.05, k1=k1)
    # three stages and the result are ensembles; no complex rho is formed
    assert calls == {"ParticleEnsemble": 4, "rhs": 3 if given_k1 else 4}
    assert built[-1] is out


@pytest.mark.parametrize("kind", ["koopmon", "bohmion", "ehrenfest"])
@pytest.mark.parametrize("model_name,q0,p0,dt", [("tully1", -8.0, 10.0, 2.0),
                                                 ("rabi_ds", 0.0, 1.0, 0.05)])
def test_c0_is_bitwise_unchanged_over_200_steps(kind, model_name, q0, p0, dt):
    e = random_ensemble(12, seed=47, q0=q0, p0=p0, spread=1.0)
    e.components[0] *= np.linspace(0.9, 1.1, e.n)  # traces other than 1 too
    c0 = e.components[0].tobytes()
    seen = []
    traj = propagate(kind, e, make_model(model_name), KernelSpec(alpha=0.5),
                     dt, 200 * dt, snapshot_times=(200 * dt,),
                     energy_tol=1.0,
                     diagnostics_fn=lambda t, s, en, dr: seen.append(
                         s.components[0].tobytes()))
    assert len(seen) == 201 and set(seen) == {c0}
    final = traj.snapshots[-1][1]
    assert final.components[0].tobytes() == c0
    assert not np.array_equal(final.components[1:], e.components[1:])


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


def particle_loop(dt, t_final, snapshot_times):
    propagate(MethodKind.EHRENFEST, random_ensemble(2, seed=3, q0=0.0, p0=4.0),
              make_model("rabi_us"), None, dt, t_final, snapshot_times)


def soft_loop(dt, t_final, snapshot_times):
    grid = soft.SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=256)
    state = soft.init_wavepacket(grid, 0.0, 4.0, 1.0, np.array([1.0, 0.0]))
    soft.propagate_soft(state, make_model("rabi_us"), dt, t_final,
                        snapshot_times)


@pytest.mark.parametrize("loop", [particle_loop, soft_loop])
@pytest.mark.parametrize("dt,t_final,snapshot_times,message", [
    (0.0, 1.0, (), "dt must be positive"),
    (-1.0, 1.0, (), "dt must be positive"),
    (0.05, -3.0, (), "t_final must be nonnegative"),
    (0.05, 0.07, (), "t_final=0.07 is not an integer number of steps of "
                     "dt=0.05"),
    (1.0, 10.0, (0.0, 50.0), r"snapshot time 50.0 outside \[0, 10.0\]"),
    (0.05, 0.1, (-0.05,), r"snapshot time -0.05 outside \[0, 0.1\]")])
def test_both_time_loops_reject_the_same_inputs(loop, dt, t_final,
                                                snapshot_times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        loop(dt, t_final, snapshot_times)


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
        return traj.snapshots[-1][1]

    stepped = e
    for _ in range(10):
        stepped = rk4_step(kind, stepped, h, spec, 0.05, narrow)
    out = final(narrow)
    assert np.array_equal(out.q, stepped.q)
    assert np.array_equal(out.p, stepped.p)
    assert np.array_equal(out.components, stepped.components)
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
        assert recorded == energy(kind, state, h, spec, narrow)
        # the narrow box reaches the coupling integrals; Ehrenfest has none
        assert (recorded != energy(kind, state, h, spec)) == (
            kind is not MethodKind.EHRENFEST)
        plain = rk4_step(kind, state, h, spec, 0.05, narrow)
        given = rk4_step(kind, state, h, spec, 0.05, narrow,
                         k1=rhs(kind, state, h, spec, narrow))
        assert np.array_equal(plain.q, given.q)
        assert np.array_equal(plain.p, given.p)
        assert np.array_equal(plain.components, given.components)


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


@pytest.mark.parametrize("kind", ["ehrenfest", "koopmon", "bohmion"])
def test_drho_is_the_commutator_with_the_effective_field(kind):
    # drho_a = -(i/hbar) [H_eff(a), rho_a] with H_eff the local Hamiltonian
    # plus the coupling field, built here from dense 2x2 products
    e = random_ensemble(7, seed=55, q0=0.0, p0=1.0, spread=1.0)
    h = make_model("rabi_ds")
    spec = KernelSpec(alpha=0.5)
    d = rhs(kind, e, h, spec)
    h0, h1, h2, h3 = helpers.pauli(h, e.q, e.p)
    field = np.stack([h1, h2, h3], axis=1)
    if kind == "koopmon":
        grid = build_grid(e.q, e.p, spec)
        field = field + backreaction.koopmon_terms(e, h, grid, spec).heff_vec
    elif kind == "bohmion":
        grid = build_grid_1d(e.q, spec)
        field = field + backreaction.bohmion_terms(e, h.mass, grid, spec).heff_vec
    heff = pauli_matrix(h0, *field.T)
    expected = -1j / HBAR * (heff @ e.rho - e.rho @ heff)
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    rate = drho(d)
    assert np.max(np.abs(rate - expected)) <= 1e-14 * scale
    assert np.array_equal(rate, np.conj(np.swapaxes(rate, -1, -2)))
    assert np.all(rate[:, 0, 0] + rate[:, 1, 1] == 0.0)


@pytest.mark.parametrize("kind", ["koopmon", "bohmion"])
def test_kernel_dynamics_without_a_kernel_name_the_method(kind):
    e = random_ensemble(3, seed=7, q0=0.0, p0=1.0)
    h = make_model("rabi_ds")
    with pytest.raises(ValueError, match=f"^{kind} dynamics require"):
        rhs(kind, e, h)
    with pytest.raises(ValueError, match=f"^{kind} dynamics require"):
        rk4_step(kind, e, h, None, 0.05)


def test_nonfinite_derivative_names_the_particles():
    e = random_ensemble(4, seed=5, q0=0.0, p0=0.1)
    e.q[:] = [0.0, 1.2, -1.0, 2.0]
    with pytest.raises(NonFiniteDerivativeError) as info:
        rhs("ehrenfest", e, nan_past(1.0))
    assert info.value.particles == [1, 3]
    assert info.value.t is None
    assert str(info.value) == "non-finite time derivative for particles [1, 3]"


def test_propagate_adds_the_time_of_the_failing_step():
    # particle 1 reaches q = 0.975 at t = 5, and the RK4 stage half a step
    # later is past q = 1, so the step from t = 5 is the one that fails
    e = random_ensemble(3, seed=6, q0=0.0, p0=0.1)
    e.q[:] = [0.0, 0.475, -1.0]
    e.p[:] = 0.1
    times = []
    with pytest.raises(NonFiniteDerivativeError) as info:
        propagate("ehrenfest", e, nan_past(1.0), None, dt=1.0, t_final=10.0,
                  diagnostics_fn=lambda t, *_: times.append(t))
    assert info.value.particles == [1]
    assert info.value.t == 5.0
    assert times[-1] == 5.0
    assert "at t=5 for particles [1]" in str(info.value)


def broadcast_mean_field(comp, e, h):
    # the mean field from the public, broadcast coefficients: every
    # coefficient an array over the particles
    gq = helpers.grad_q(h, e.q, e.p)
    gp = helpers.grad_p(h, e.q, e.p)
    hp = helpers.pauli(h, e.q, e.p)
    mean = float(e.w @ dynamics._contract(comp, hp))
    return (dynamics._contract(comp, gp), dynamics._contract(comp, gq),
            hp[1:], mean)


@pytest.mark.parametrize("model_name", ["tully1", "tully2", "tully3",
                                        "rabi_us", "rabi_ds"])
@pytest.mark.parametrize("kind,n", [("ehrenfest", 50), ("koopmon", 1)])
def test_mean_field_on_the_model_coefficients_is_bitwise_the_broadcast_one(
        model_name, kind, n, monkeypatch):
    # constant coefficients (zeros, c0, gamma, the tully3 offset) stay
    # scalars in the mean field; every output must still be bitwise the one
    # of the broadcast arrays
    h = make_model(model_name)
    spec = KernelSpec(alpha=0.5)
    q0, p0, spread = ((0.0, 1.0, 1.5) if model_name.startswith("rabi")
                      else (0.5, 10.0, 2.0))
    for seed in range(3):
        e = random_ensemble(n, seed=seed, q0=q0, p0=p0, spread=spread)
        got = rhs(kind, e, h, spec)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_mean_field", broadcast_mean_field)
            ref = rhs(kind, e, h, spec)
        for name in ("dq", "dp", "ds"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        assert got.energy == ref.energy
