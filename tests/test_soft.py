import collections
import dataclasses

import numpy as np
import pytest

from mqcdyn.models import HybridHamiltonian, adiabatic_basis, make_model
from mqcdyn.pauli import pauli_matrix
from mqcdyn.soft import (BoundaryMassWarning, SpatialGrid1D, WavepacketState,
                         density_matrix, energy, init_wavepacket, observables,
                         potential_matrix_fields, propagate_soft, strang_step)

from helpers import momentum_expectation, position_expectation

E1 = np.array([1.0, 0.0])


def harmonic_model(mass=1.0):
    # driven-spin classical part with the couplings switched off
    return make_model("rabi_us", gamma=0.0, c0=0.0, mass=mass)


def tully_grid():
    return SpatialGrid1D(r_min=-30.0, r_max=40.0, n_points=4096)


def rabi_grid():
    return SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=2048)


def test_grid_momentum_duality():
    g = rabi_grid()
    dk = g.k[1] - g.k[0]
    assert dk * g.dr * g.n_points == pytest.approx(2 * np.pi, abs=1e-12)
    with pytest.raises(ValueError):
        SpatialGrid1D(r_min=0.0, r_max=1.0, n_points=1000)  # not a power of 2


def test_grid_nodes_are_built_once_and_read_only():
    g = SpatialGrid1D(-5.0, 5.0, 64)
    assert g.r is g.r and g.k is g.k
    assert not g.r.flags.writeable and not g.k.flags.writeable
    assert np.array_equal(g.r, g.r_min + g.dr * np.arange(64))


def test_a_state_whose_fft_was_read_measures_and_steps_as_a_fresh_copy():
    g = SpatialGrid1D(-30.0, 40.0, 1024)
    h = make_model("tully1")
    state = strang_step(init_wavepacket(g, -8.0, 10.0, 1.0, [1.0, 0.0]), h, 1.0)
    e_read = energy(state, h)             # reads state.psi_k
    assert not state.psi_k.flags.writeable
    fresh = state.copy()
    assert e_read == energy(fresh, h)
    assert strang_step(state, h, 1.0).psi.tobytes() == \
        strang_step(fresh, h, 1.0).psi.tobytes()


def test_init_wavepacket_norm_and_moments():
    g = tully_grid()
    state = init_wavepacket(g, mu_q=-8.0, mu_p=10.0, sigma_q=np.sqrt(2.0), v0=E1)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert position_expectation(state) == pytest.approx(-8.0, abs=1e-8)
    assert momentum_expectation(state) == pytest.approx(10.0, abs=1e-8)


def test_init_wavepacket_boundary_warning():
    g = SpatialGrid1D(r_min=-2.0, r_max=2.0, n_points=64)
    with pytest.warns(BoundaryMassWarning):
        init_wavepacket(g, mu_q=0.0, mu_p=0.0, sigma_q=2.0, v0=E1)


def test_init_wavepacket_requires_unit_spin():
    with pytest.raises(ValueError):
        init_wavepacket(rabi_grid(), 0.0, 0.0, 1.0, np.array([1.0, 1.0]))


def test_strang_step_preserves_norm():
    g = rabi_grid()
    h = make_model("rabi_us")
    state = init_wavepacket(g, 0.0, 4.0, 1 / np.sqrt(2.0),
                            np.array([1.0, 1.0]) / np.sqrt(2.0))
    for _ in range(50):
        state = strang_step(state, h, 0.01)
        assert abs(state.norm() - 1.0) < 1e-12


def test_strang_rejects_momentum_coupled_classical_part():
    bad = HybridHamiltonian(
        name="bad", mass=1.0,
        classical=lambda q, p: np.asarray(q, dtype=float) * np.asarray(p, dtype=float),
        d_classical_q=lambda q, p: np.asarray(p, dtype=float) + 0.0 * np.asarray(q),
        d_classical_p=lambda q, p: np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
        d_interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
    )
    state = init_wavepacket(rabi_grid(), 0.0, 0.0, 1.0, E1)
    with pytest.raises(ValueError):
        strang_step(state, bad, 0.01)


def test_strang_step_and_observables_follow_the_model_object():
    # models that share name and params but differ in their interaction,
    # stepped one after the other on one grid and dt, each get their own
    # propagator and grid fields; compared with both built from scratch
    # (potential propagator from an eigendecomposition)
    g = SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=256)
    dt = 0.05
    base = make_model("rabi_ds")

    def doubled(q):
        return tuple(2.0 * c for c in base.interaction(q))

    other = dataclasses.replace(base, interaction=doubled)
    state = init_wavepacket(g, 1.0, 0.5, 1.0, np.array([0.6, 0.8]))

    def fresh(h):
        kin = np.exp(-0.25j * dt * g.k**2 / h.mass)
        vmat = pauli_matrix(*potential_matrix_fields(h, g.r))
        lam, vec = np.linalg.eigh(vmat)
        u = np.einsum("xij,xj,xkj->xik", vec, np.exp(-1j * dt * lam),
                      vec.conj())
        psi = np.fft.ifft(kin * np.fft.fft(state.psi, axis=1), axis=1)
        psi = np.einsum("xij,jx->ix", u, psi)
        psi = np.fft.ifft(kin * np.fft.fft(psi, axis=1), axis=1)
        lower = adiabatic_basis(h, g.r)[2]
        p1 = np.sum(np.abs(np.einsum("xi,ix->x", lower.conj(), psi))**2) * g.dr
        psi_k = np.fft.fft(psi, axis=1)
        e_kin = np.sum(g.k**2 / (2.0 * h.mass) * np.abs(psi_k)**2) \
            * g.dr / g.n_points
        e_pot = np.einsum("ix,xij,jx->", psi.conj(), vmat, psi).real * g.dr
        return psi, p1, e_kin + e_pot

    for h in (base, other, base, other):
        psi, p1, e = fresh(h)
        out = strang_step(state, h, dt)
        assert np.max(np.abs(out.psi - psi)) < 1e-12
        obs = observables(out, h)
        assert obs["p1"] == pytest.approx(p1, abs=1e-12)
        assert obs["energy"] == pytest.approx(e, rel=1e-12)

    bad = dataclasses.replace(
        base, classical=lambda q, p: np.asarray(q, dtype=float)
        * np.asarray(p, dtype=float))
    with pytest.raises(ValueError):
        strang_step(state, bad, dt)


def coherent_return_error(dt):
    # propagate the (0, 4) coherent state through one oscillator period
    g = rabi_grid()
    h = harmonic_model()
    state = init_wavepacket(g, 0.0, 4.0, 1 / np.sqrt(2.0), E1)
    for _ in range(int(round(2 * np.pi / dt))):
        state = strang_step(state, h, dt)
    return max(abs(position_expectation(state) - 0.0),
               abs(momentum_expectation(state) - 4.0))


def test_harmonic_coherent_state_period():
    # the splitting acts on expectation values like a leapfrog rotation with
    # frequency distortion w dt^2/24: return error ~ amplitude * 2pi dt^2/24
    assert coherent_return_error(2 * np.pi / 256) < 1e-3
    err_coarse = coherent_return_error(2 * np.pi / 128)
    predicted = 4.0 * 2 * np.pi * (2 * np.pi / 128) ** 2 / 24.0
    assert err_coarse == pytest.approx(predicted, rel=0.05)


def test_strang_second_order_convergence():
    g = rabi_grid()
    h = harmonic_model()

    def run(dt):
        state = init_wavepacket(g, 0.0, 4.0, 1 / np.sqrt(2.0), E1)
        for _ in range(int(round(2 * np.pi / dt))):
            state = strang_step(state, h, dt)
        return np.hypot(position_expectation(state) - 0.0,
                        momentum_expectation(state) - 4.0)

    # pick dt values that divide 2 pi nearly exactly
    e1 = run(2 * np.pi / 64)
    e2 = run(2 * np.pi / 128)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_two_level_oscillation_period():
    # grid-constant coupling sx: <sz>(t) = cos(2 C0 t), period pi/C0
    c0 = 0.35
    h = make_model("rabi_us", gamma=0.0, c0=c0, mass=1e9)  # frozen oscillator
    g = rabi_grid()
    state = init_wavepacket(g, 0.0, 0.0, 1 / np.sqrt(2.0), E1)
    dt = 0.002
    times = [0.0]
    bz = [float(observables(state, h)["bloch"][2])]
    for k in range(1, int(22 / dt) + 1):
        state = strang_step(state, h, dt)
        times.append(k * dt)
        bz.append(float(observables(state, h)["bloch"][2]))
    bz = np.array(bz)
    times = np.array(times)
    # period from consecutive descending zero crossings of cos(2 C0 t)
    crossings = []
    for i in range(len(bz) - 1):
        if bz[i] > 0.0 >= bz[i + 1]:
            frac = bz[i] / (bz[i] - bz[i + 1])
            crossings.append(times[i] + frac * dt)
    assert len(crossings) >= 2
    period = crossings[1] - crossings[0]
    assert period == pytest.approx(np.pi / c0, rel=1e-3)


def test_observables_tully1_initial_population():
    h = make_model("tully1")
    g = tully_grid()
    state = init_wavepacket(g, -8.0, 10.0, np.sqrt(2.0), E1)
    obs = observables(state, h)
    # the Gaussian tail touching the crossing region carries ~3e-8 of
    # genuine upper-surface character at this width
    assert obs["p1"] == pytest.approx(1.0, abs=1e-7)
    assert obs["p1"] + obs["p2"] == pytest.approx(1.0, abs=1e-10)
    assert obs["purity"] == pytest.approx(1.0, abs=1e-10)
    assert obs["norm"] == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_of_product_state_is_projector():
    g = rabi_grid()
    v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = init_wavepacket(g, 0.0, 4.0, 1 / np.sqrt(2.0), v0)
    rho = density_matrix(state)
    assert np.allclose(rho, np.outer(v0, v0.conj()), atol=1e-12)


def test_energy_conservation_over_tully1_run():
    h = make_model("tully1")
    g = tully_grid()
    state = init_wavepacket(g, -8.0, 10.0, np.sqrt(2.0), E1)
    e0 = energy(state, h)
    # kinetic (mu_p^2 + 1/(4 sigma_q^2))/2M plus the lower-surface energy
    expected = (10.0**2 + 1 / 8.0) / (2 * 2000.0) - 0.01
    assert e0 == pytest.approx(expected, rel=1e-3)
    records, snapshots, max_edge = propagate_soft(
        state, h, dt=1.0, t_final=3000.0, snapshot_times=(3000.0,),
        diagnostics_fn=lambda t, s: energy(s, h))
    energies = np.array(records)
    assert np.max(np.abs(energies - e0)) / abs(e0) < 1e-6
    assert abs(snapshots[-1][1].norm() - 1.0) < 1e-9
    assert max_edge < 1e-10


def test_propagate_soft_snapshots_and_records():
    h = make_model("rabi_us")
    state = init_wavepacket(rabi_grid(), 0.0, 4.0, 1 / np.sqrt(2.0),
                            np.array([1.0, 1.0]) / np.sqrt(2.0))
    records, snapshots, _ = propagate_soft(
        state, h, dt=0.01, t_final=1.0, snapshot_times=(0.0, 0.5, 1.0),
        diagnostics_fn=lambda t, s: (t, s.norm()))
    assert len(records) == 101
    assert [t for t, _ in snapshots] == [0.0, 0.5, 1.0]
    assert all(abs(n - 1.0) < 1e-11 for _, n in records)


def test_a_strang_step_takes_three_ffts(monkeypatch):
    # one FFT for the first state's psi_k, then ifft, fft and ifft per
    # step; the per-step observables read the psi_k the step left
    h = make_model("tully1")
    state = init_wavepacket(SpatialGrid1D(-30.0, 40.0, 1024), -8.0, 10.0,
                            np.sqrt(2.0), E1)
    calls = collections.Counter()

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for k in (1, 7):
        calls.clear()
        propagate_soft(state, h, dt=1.0, t_final=float(k),
                       snapshot_times=(0.0, float(k)),
                       diagnostics_fn=lambda t, s: observables(s, h))
        assert calls["fft"] + calls["ifft"] == 3 * k + 1
        assert calls["ifft"] == 2 * k


def test_the_carried_psi_k_stays_the_fft_of_psi():
    h = make_model("tully1")
    state = init_wavepacket(tully_grid(), -8.0, 10.0, np.sqrt(2.0), E1)
    for _ in range(1000):
        state = strang_step(state, h, 1.0)
    carried = state.psi_k
    assert not carried.flags.writeable
    assert state.copy().psi_k is carried
    fresh = np.fft.fft(state.psi, axis=1)
    assert np.max(np.abs(carried - fresh)) <= 1e-13 * np.max(np.abs(fresh))
