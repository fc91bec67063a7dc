import numpy as np
import pytest

from mqcdyn import diagnostics
from mqcdyn.diagnostics import (DiagnosticsRecord, default_phase_grid,
                                particle_diagnostics, smoothed_cloud,
                                waterfall, wigner)
from mqcdyn.ensemble import ParticleEnsemble
from mqcdyn.models import HBAR, adiabatic_basis, make_model
from mqcdyn.pauli import pauli_components, projector
from mqcdyn.regularization import _KERNEL_CUTOFF
from mqcdyn.sampling import InitSpec, init_ensemble
from mqcdyn.soft import SpatialGrid1D, WavepacketState, init_wavepacket

from helpers import (csv_row, integral, smoothed_cloud_by_formula,
                     traced_peak, waterfall_row_by_formula)


def test_particle_diagnostics_tully1_initial():
    h = make_model("tully1")
    _, _, v1, _ = adiabatic_basis(h, np.array([-8.0]))
    e = ParticleEnsemble(q=np.array([-8.0]), p=np.array([10.0]),
                         components=pauli_components(
                             np.asarray([projector(v1[0])])),
                         w=np.ones(1))
    rec = particle_diagnostics(e, h)
    assert rec.p1 == pytest.approx(1.0, abs=1e-12)
    assert rec.purity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rec.bloch, (0.0, 0.0, 1.0), atol=1e-12)


def test_particle_diagnostics_plus_state():
    h = make_model("rabi_us")
    v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    e = ParticleEnsemble(q=np.zeros(1), p=np.zeros(1),
                         components=pauli_components(
                             np.asarray([projector(v0)])),
                         w=np.ones(1))
    rec = particle_diagnostics(e, h)
    assert np.allclose(rec.bloch, (1.0, 0.0, 0.0), atol=1e-12)
    assert rec.purity == pytest.approx(1.0, abs=1e-12)


def test_particle_diagnostics_mixed_pair():
    h = make_model("tully1")
    rho = np.stack([np.diag([1.0, 0.0]).astype(complex),
                    np.diag([0.0, 1.0]).astype(complex)])
    e = ParticleEnsemble(q=np.array([-8.0, -8.0]), p=np.array([10.0, 10.0]),
                         components=pauli_components(rho),
                         w=np.array([0.5, 0.5]))
    rec = particle_diagnostics(e, h)
    assert rec.purity == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rec.bloch, (0.0, 0.0, 0.0), atol=1e-12)
    assert rec.p1 + rec.p2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,params", [
    ("tully1", {}), ("tully2", {}), ("tully3", {}), ("rabi_us", {}),
    ("rabi_ds", {"c0": 0.0}),   # exactly degenerate at q = 0
])
def test_populations_use_the_lower_vector_of_the_adiabatic_basis(name, params):
    h = make_model(name, **params)
    rng = np.random.default_rng(21)
    q = np.concatenate([[0.0, -0.0], rng.uniform(-6.0, 6.0, 40)])
    rho = np.stack([projector(v / np.linalg.norm(v)) for v in
                    rng.standard_normal((len(q), 2))
                    + 1j * rng.standard_normal((len(q), 2))])
    e = ParticleEnsemble(q=q, p=rng.standard_normal(len(q)),
                         components=pauli_components(rho),
                         w=np.full(len(q), 1.0 / len(q)))
    v1 = adiabatic_basis(h, q)[2]
    if params:
        assert np.array_equal(v1[0], [1.0, 0.0])
    amp = np.einsum("ak,akl,al->a", v1.conj(), rho, v1)
    # P1 is read off the projector (1 - n . sigma)/2 on the components; it
    # equals the eigenvector form up to round-off
    assert abs(particle_diagnostics(e, h).p1
               - float(np.sum(e.w * amp.real))) <= 1e-14


def test_purity_consistent_with_bloch_norm():
    h = make_model("rabi_ds")
    rng = np.random.default_rng(7)
    n = 6
    rho = []
    for _ in range(n):
        t, f = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
        rho.append(projector(v))
    e = ParticleEnsemble(q=rng.normal(size=n), p=rng.normal(size=n),
                         components=pauli_components(np.stack(rho)),
                         w=np.full(n, 1 / n))
    rec = particle_diagnostics(e, h)
    assert rec.purity == pytest.approx(
        0.5 * (1.0 + float(np.dot(rec.bloch, rec.bloch))), abs=1e-12)
    assert rec.purity <= 1.0 + 1e-10 and rec.purity >= 0.5 - 1e-10


def test_csv_row_roundtrip():
    rec = DiagnosticsRecord(t=1.5, p1=0.25, p2=0.75, purity=0.9,
                            bloch=(0.1, -0.2, 0.3), energy=1.0,
                            energy_drift_rel=1e-8)
    row = csv_row(rec)
    vals = [float(x) for x in row.split(",")]
    assert vals == [1.5, 0.25, 0.75, 0.9, 0.1, -0.2, 0.3, 1.0, 1e-8]


# ---------------------------------------------------------------------------
# Wigner distribution
# ---------------------------------------------------------------------------

def gaussian_state(mu_q=0.0, mu_p=4.0, sigma_q=1 / np.sqrt(2.0)):
    grid = SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=2048)
    return init_wavepacket(grid, mu_q, mu_p, sigma_q, np.array([1.0, 0.0]))


def test_wigner_of_gaussian_matches_closed_form():
    mu_q, mu_p, sigma_q = 0.3, 4.0, 1 / np.sqrt(2.0)
    g = 1.0 / (2.0 * sigma_q**2)
    state = gaussian_state(mu_q, mu_p, sigma_q)
    q = np.linspace(mu_q - 4, mu_q + 4, 121)
    p = np.linspace(mu_p - 5, mu_p + 5, 131)
    field = wigner(state, q, p)
    qs = field.axis1
    exact = (np.exp(-g * (qs[:, None] - mu_q) ** 2
                    - (p[None, :] - mu_p) ** 2 / g) / np.pi)
    assert np.max(np.abs(field.values - exact)) < 1e-6
    assert np.max(field.values) == pytest.approx(1 / np.pi, rel=1e-4)


def test_wigner_marginal_is_position_density():
    state = gaussian_state()
    q = np.linspace(-5, 5, 161)
    p = np.linspace(-2, 10, 257)
    field = wigner(state, q, p)
    marginal = np.trapezoid(field.values, p, axis=1)
    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    expected = np.interp(field.axis1, state.grid.r, dens)
    assert np.max(np.abs(marginal - expected)) < 1e-6


def aligned_q_nodes(state, lo, hi, stride=8):
    # requested positions snap to the wavefunction grid; commensurate nodes
    # keep the output axis exactly uniform
    r = state.grid.r
    idx = np.nonzero((r >= lo) & (r <= hi))[0][::stride]
    return r[idx]


def test_wigner_total_integral_is_one():
    state = gaussian_state()
    q = aligned_q_nodes(state, -6.0, 6.0)
    p = np.linspace(-3, 11, 181)
    field = wigner(state, q, p)
    assert integral(field) == pytest.approx(1.0, abs=1e-6)


def test_wigner_two_component_sum():
    # both spin components contribute their own phase-space density
    grid = SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=2048)
    v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = init_wavepacket(grid, 0.0, 2.0, 1.0, v0)
    q = aligned_q_nodes(state, -5.0, 5.0)
    p = np.linspace(-3, 7, 161)
    field = wigner(state, q, p)
    assert integral(field) == pytest.approx(1.0, abs=1e-6)


def evolved_interference_state():
    # superpose two displaced Gaussians: the Wigner function must go negative
    grid = SpatialGrid1D(r_min=-15.0, r_max=15.0, n_points=2048)
    a = init_wavepacket(grid, -2.0, 0.0, 1 / np.sqrt(2.0), np.array([1.0, 0.0]))
    b = init_wavepacket(grid, 2.0, 0.0, 1 / np.sqrt(2.0), np.array([1.0, 0.0]))
    psi = a.psi + b.psi
    from mqcdyn.soft import WavepacketState
    state = WavepacketState(grid=grid, psi=psi, time=0.0)
    state.psi /= np.sqrt(state.norm())
    return state


def test_wigner_interference_negative_but_normalized():
    state = evolved_interference_state()
    q = aligned_q_nodes(state, -6.0, 6.0, stride=4)
    p = np.linspace(-4, 4, 241)
    field = wigner(state, q, p)
    assert field.values.min() < -1e-2
    assert integral(field) == pytest.approx(1.0, abs=1e-6)


def wigner_by_definition(state, q_nodes, p_nodes):
    # W(q, p) = (dr/pi hbar) sum_c sum_{|m| <= m_half} psi_c*(q + m dr)
    # psi_c(q - m dr) exp(2i p m dr/hbar): every shift of both signs, one
    # complex phase each; off-grid points are zero
    grid, psi = state.grid, state.psi
    n, dr = grid.n_points, grid.dr
    dens = np.sum(np.abs(psi) ** 2, axis=0)
    occupied = np.nonzero(dens > 1e-28 * dens.max())[0]
    m_half = max(int(occupied[-1] - occupied[0]), 1)
    j = np.clip(np.round((q_nodes - grid.r_min) / dr).astype(int), 0, n - 1)
    w = np.zeros((len(j), len(p_nodes)), dtype=complex)
    for m in range(-m_half, m_half + 1):
        plus, minus = j + m, j - m
        inside = (plus >= 0) & (plus < n) & (minus >= 0) & (minus < n)
        corr = np.zeros(len(j), dtype=complex)
        for c in range(2):
            corr[inside] += np.conj(psi[c, plus[inside]]) * psi[c, minus[inside]]
        w += corr[:, None] * np.exp(2j * p_nodes[None, :] * m * dr / HBAR)
    return w.real * dr / (np.pi * HBAR)


@pytest.mark.parametrize("support", ["one node", "compact", "whole grid"])
def test_wigner_matches_the_definition(support):
    rng = np.random.default_rng(11)
    grid = SpatialGrid1D(r_min=-4.0, r_max=5.0, n_points=128)
    psi = np.zeros((2, 128), dtype=complex)
    nodes = {"one node": slice(50, 51), "compact": slice(23, 70),
             "whole grid": slice(0, 128)}[support]
    shape = psi[:, nodes].shape
    psi[:, nodes] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi[1] *= 0.6
    state = WavepacketState(grid=grid, psi=psi, time=0.0)
    # q nodes beyond both grid edges (clipped to the edge nodes) and on the
    # occupied nodes, unsorted
    q = rng.permutation(np.concatenate([rng.uniform(-6.0, 7.0, 37),
                                        [-5.0, -4.0, 5.0, 6.5],
                                        grid.r[[50, 51, 60]]]))
    p = rng.permutation(np.concatenate([rng.uniform(-9.0, 9.0, 30),
                                        rng.uniform(-0.5, 0.5, 9)]))
    field = wigner(state, q, p)
    exact = wigner_by_definition(state, q, p)
    assert np.max(np.abs(exact)) > 0.0
    assert np.max(np.abs(field.values - exact)) <= 1e-13 * np.max(np.abs(exact))
    j = np.clip(np.round((q - grid.r_min) / grid.dr).astype(int), 0, 127)
    assert np.array_equal(field.axis1, grid.r_min + grid.dr * j)
    assert np.array_equal(field.axis2, p)


def test_wigner_memory_does_not_grow_with_the_grid():
    # a fully occupied 4096-point state gathers all 8191 shifts at every q
    # node; a (256, 8191) complex correlation matrix alone would be 33.5 MB,
    # and blocks of 128 shifts trace 2.7 MB
    rng = np.random.default_rng(5)
    grid = SpatialGrid1D(r_min=-30.0, r_max=40.0, n_points=4096)
    psi = rng.normal(size=(2, 4096)) + 1j * rng.normal(size=(2, 4096))
    state = WavepacketState(grid=grid, psi=psi, time=0.0)
    q = np.linspace(grid.r_min, grid.r_max, 256)
    p = np.linspace(-20.0, 40.0, 256)
    assert traced_peak(lambda: wigner(state, q, p)) < 4e6


# ---------------------------------------------------------------------------
# Smoothed densities
# ---------------------------------------------------------------------------

def test_smoothed_cloud_single_particle_gaussian():
    delta = 0.25
    e = ParticleEnsemble(q=np.array([0.5]), p=np.array([-1.0]),
                         components=pauli_components(
                             np.asarray([projector([1.0, 0.0])])),
                         w=np.ones(1))
    q = np.linspace(-1.5, 2.5, 101)
    p = np.linspace(-3.0, 1.0, 101)
    field = smoothed_cloud(e, delta, q, p)
    exact = (np.exp(-(q[:, None] - 0.5) ** 2 / delta**2
                    - (p[None, :] + 1.0) ** 2 / delta**2)
             / (delta**2 * np.pi))
    assert np.allclose(field.values, exact, atol=1e-14)
    assert integral(field) == pytest.approx(1.0, abs=1e-6)


def test_smoothed_cloud_symmetric_pair():
    delta = 0.25
    rho = np.broadcast_to(projector([1.0, 0.0]), (2, 2, 2)).copy()
    e = ParticleEnsemble(q=np.array([-1.0, 1.0]), p=np.array([0.0, 0.0]),
                         components=pauli_components(rho), w=np.full(2, 0.5))
    q = np.linspace(-3, 3, 121)
    p = np.linspace(-2, 2, 81)
    field = smoothed_cloud(e, delta, q, p)
    assert np.allclose(field.values, field.values[::-1, :], atol=1e-15)


def spread_ensemble(n, seed):
    # a cloud with unequal weights, so that a misplaced block shows
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n)
    return ParticleEnsemble(q=rng.normal(-1.0, 1.5, n),
                            p=rng.normal(3.0, 1.0, n),
                            components=np.tile([[0.5], [0.0], [0.0], [0.5]], n),
                            w=w / w.sum())


#: one particle, fewer than a block, and several blocks and a part block
BLOCK_COUNTS = [1, diagnostics._PARTICLE_BLOCK // 2 + 3,
                3 * diagnostics._PARTICLE_BLOCK + 41]


@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_smoothed_cloud_blocks_match_the_formula(n):
    e = spread_ensemble(n, seed=n)
    q, p = default_phase_grid(e, 0.25, n_nodes=97)
    field = smoothed_cloud(e, 0.25, q, p)
    exact = smoothed_cloud_by_formula(e, 0.25, q, p)
    assert np.max(exact) > 0.0
    assert np.max(np.abs(field.values - exact)) <= 1e-14 * np.max(exact)


@pytest.mark.parametrize("n", [2000, 20000])
def test_smoothed_cloud_memory_does_not_grow_with_n(n):
    # an unblocked (20000, 256) kernel table alone would be 41 MB; the
    # output is 0.5 MB and a block's tables about 1 MB
    e = spread_ensemble(n, seed=3)
    q, p = default_phase_grid(e, 0.25, n_nodes=256)
    assert traced_peak(lambda: smoothed_cloud(e, 0.25, q, p)) < 2.5e6


@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_smoothed_densities_are_exact_zeros_beyond_the_cutoff(n):
    # both densities use the cut kernel of the dynamics.  A particle adds an
    # exact zero at a node at least R = 9 sigma_delta from it along an axis,
    # where the uncut Gaussian would still add up to e^-40.5 of its peak;
    # well inside R on every axis it adds a positive value
    delta = 0.25
    radius = _KERNEL_CUTOFF * delta / np.sqrt(2.0)
    e = spread_ensemble(n, seed=n)
    q = np.linspace(e.q.min() - 2 * radius, e.q.max() + 2 * radius, 203)
    p = np.linspace(e.p.min() - 2 * radius, e.p.max() + 2 * radius, 197)
    cloud = smoothed_cloud(e, delta, q, p).values
    row = waterfall([(0.0, e)], delta, q).values[0]

    def reached(r):
        """Whether some particle lies within r of the node on every axis,
        for the cloud's (n_q, n_p) and the waterfall's (n_q,) nodes."""
        near_q = np.abs(q[:, None] - e.q) < r
        near_p = np.abs(p[:, None] - e.p) < r
        return (near_q.astype(float) @ near_p.T.astype(float) > 0.0,
                near_q.any(axis=1))

    for values, inside, well_inside in zip((cloud, row), reached(radius),
                                           reached(0.999 * radius)):
        assert not inside.all() and well_inside.any()
        assert np.all(values[~inside] == 0.0)
        assert np.all(values[well_inside] > 0.0)


def test_default_phase_grid_covers_cloud():
    e = ParticleEnsemble(q=np.array([-1.0, 3.0]), p=np.array([0.5, 2.0]),
                         components=pauli_components(np.broadcast_to(
                             projector([1.0, 0.0]), (2, 2, 2))),
                         w=np.full(2, 0.5))
    q, p = default_phase_grid(e, 0.25, n_nodes=64)
    assert q[0] == pytest.approx(-2.0) and q[-1] == pytest.approx(4.0)
    assert len(q) == len(p) == 64


# ---------------------------------------------------------------------------
# Waterfall densities
# ---------------------------------------------------------------------------

def test_waterfall_initial_gaussian_profile():
    # smoothing a N(mu, sigma^2) QMC cloud with the delta kernel gives
    # N(mu, sigma^2 + delta^2/2)
    delta = 0.25
    sigma_q = 1 / np.sqrt(2.0)
    spec = InitSpec(mu_q=0.0, mu_p=4.0, sigma_q=sigma_q,
                    rho0=projector([1.0, 0.0]), n=2000)
    e = init_ensemble(spec)
    r = np.linspace(-4, 4, 201)
    field = waterfall([(0.0, e)], delta, r)
    var = sigma_q**2 + delta**2 / 2.0
    exact = np.exp(-(r**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    assert field.values.shape == (1, len(r))
    assert np.max(np.abs(field.values[0] - exact)) < 5e-3
    assert np.trapezoid(field.values[0], r) == pytest.approx(1.0, abs=1e-4)


def test_waterfall_soft_is_position_density():
    sigma_q = 1 / np.sqrt(2.0)
    state = gaussian_state(0.0, 4.0, sigma_q)
    r = np.linspace(-5, 5, 301)
    field = waterfall([(0.0, state)], 0.25, r)
    gamma = 1.0 / (2 * sigma_q**2)
    exact = np.sqrt(gamma / np.pi) * np.exp(-gamma * r**2)
    assert np.max(np.abs(field.values[0] - exact)) < 1e-4
    assert np.max(field.values[0]) == pytest.approx(np.sqrt(gamma / np.pi),
                                                    rel=1e-3)


def test_waterfall_slices_normalized():
    delta = 0.25
    spec = InitSpec(mu_q=0.0, mu_p=0.0, sigma_q=0.8,
                    rho0=projector([1.0, 0.0]), n=256)
    e = init_ensemble(spec)
    e2 = e.copy()
    e2.q += 1.0
    r = np.linspace(-6, 7, 401)
    field = waterfall([(0.0, e), (1.0, e2)], delta, r)
    for row in field.values:
        assert np.trapezoid(row, r) == pytest.approx(1.0, abs=1e-6)
    assert np.array_equal(field.axis1, [0.0, 1.0])


@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_waterfall_rows_match_the_formula(n):
    e = spread_ensemble(n, seed=n)
    e2 = e.copy()
    e2.q += 0.7
    r = np.linspace(-8.0, 7.0, 301)
    field = waterfall([(0.0, e), (1.0, e2)], 0.25, r)
    for row, snap in zip(field.values, (e, e2)):
        exact = waterfall_row_by_formula(snap, 0.25, r)
        assert np.max(exact) > 0.0
        assert np.max(np.abs(row - exact)) <= 1e-14 * np.max(exact)


@pytest.mark.parametrize("n", [2000, 20000])
def test_waterfall_memory_does_not_grow_with_n(n):
    # an unblocked (20000, 512) kernel table alone would be 82 MB; the three
    # output rows are 12 kB and a block's tables about 1 MB
    e = spread_ensemble(n, seed=4)
    r = np.linspace(-8.0, 7.0, 512)
    snapshots = [(0.0, e), (1.0, e), (2.0, e)]
    assert traced_peak(lambda: waterfall(snapshots, 0.25, r)) < 2.5e6
