import numpy as np
import pytest

from mqcdyn.backreaction import (HBAR, _kernel_rows, bohmion_coupling_energy,
                                 bohmion_pairs, bohmion_terms,
                                 koopmon_coupling_energy, koopmon_pairs,
                                 koopmon_terms)
from mqcdyn.ensemble import ParticleEnsemble
from mqcdyn.models import HybridHamiltonian, make_model
from mqcdyn.pauli import pauli_decompose, projector
from mqcdyn.regularization import (GridParams, KernelSpec, build_grid,
                                   build_grid_1d)

from helpers import fd_gradient_check


def bloch_state(theta, phi):
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return projector(v)


def random_ensemble(n, seed=0, q0=-8.0, p0=10.0, spread=0.6):
    rng = np.random.default_rng(seed)
    rho = np.stack([bloch_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    return ParticleEnsemble(q=q0 + spread * rng.standard_normal(n),
                            p=p0 + spread * rng.standard_normal(n),
                            rho=rho, w=np.full(n, 1.0 / n))


def desk_pair(alpha):
    """Two-particle scattering-model configuration used across these tests."""
    rho = np.stack([bloch_state(0.3, 0.2), bloch_state(1.9, 4.0)])
    e = ParticleEnsemble(q=np.array([-8.0, -7.5]), p=np.array([10.0, 10.2]),
                         rho=rho, w=np.array([0.5, 0.5]))
    return e, KernelSpec(alpha=alpha)


def purely_classical_model():
    return HybridHamiltonian(
        name="classical", mass=1.0,
        classical=lambda q, p: 0.5 * (np.asarray(q, dtype=float)**2
                                      + np.asarray(p, dtype=float)**2),
        d_classical_q=lambda q, p: np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_p=lambda q, p: np.asarray(p, dtype=float) + 0.0 * np.asarray(q),
        interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
        d_interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
    )


def purely_quantum_model():
    return HybridHamiltonian(
        name="quantum", mass=1.0,
        classical=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_q=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_p=lambda q, p: 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        interaction=lambda q: (0.0 * np.asarray(q, dtype=float),
                               0.35 + 0.0 * np.asarray(q, dtype=float),
                               0.0 * np.asarray(q, dtype=float),
                               0.1 + 0.0 * np.asarray(q, dtype=float)),
        d_interaction=lambda q: (0.0 * np.asarray(q, dtype=float),) * 4,
    )


def periodic_model():
    """dH/dq varies along q everywhere, unlike the Rabi models' constant one."""
    def interaction(q):
        q = np.asarray(q, dtype=float)
        return 0.0 * q, np.sin(q), 0.0 * q, 0.5 * np.cos(q)

    def d_interaction(q):
        q = np.asarray(q, dtype=float)
        return 0.0 * q, np.cos(q), 0.0 * q, -0.5 * np.sin(q)

    classical = purely_classical_model()
    return HybridHamiltonian(
        name="periodic", mass=1.0, classical=classical.classical,
        d_classical_q=classical.d_classical_q,
        d_classical_p=classical.d_classical_p,
        interaction=interaction, d_interaction=d_interaction)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_koopmon_table_antisymmetric_and_zero_diagonal():
    e = random_ensemble(4)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    assert np.array_equal(table.values.diagonal().T, np.zeros((4, 4)))
    assert np.array_equal(table.values, -np.swapaxes(table.values, 0, 1))


def test_bohmion_table_symmetric_nonnegative_diagonal():
    e = random_ensemble(5, seed=2)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(e.q, spec)
    table = bohmion_pairs(e, grid, spec)
    assert np.array_equal(table.values, table.values.T)
    assert np.all(np.diag(table.values) >= 0.0)


def test_bohmion_self_integral_value():
    # single unit-weight particle: I_11 = int (K')^2/K = 2/alpha^2
    alpha = 0.5
    spec = KernelSpec(alpha=alpha)
    e = ParticleEnsemble(q=np.zeros(1), p=np.zeros(1),
                         rho=np.asarray([bloch_state(0.4, 0.0)]), w=np.ones(1))
    grid = build_grid_1d(e.q, spec, GridParams(n_q=10))
    table = bohmion_pairs(e, grid, spec)
    assert table.values[0, 0] == pytest.approx(2.0 / alpha**2, rel=1e-6)
    assert table.values[0, 0] > 0


def test_bohmion_distant_particles_decouple():
    spec = KernelSpec(alpha=0.5)
    rho = np.stack([bloch_state(0.3, 0.0), bloch_state(2.0, 1.0)])
    e = ParticleEnsemble(q=np.array([-8.0, 8.0]), p=np.zeros(2), rho=rho,
                         w=np.full(2, 0.5))
    grid = build_grid_1d(e.q, spec)
    table = bohmion_pairs(e, grid, spec)
    assert abs(table.values[0, 1]) < 1e-12
    assert table.values[0, 0] > 1.0


def test_purely_classical_hamiltonian_gives_zero_coupling():
    e = random_ensemble(3, q0=0.0, p0=0.0)
    h = purely_classical_model()
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    # traceless components vanish identically: coupling is exactly zero
    assert np.all(table.values[:, :, 1:] == 0.0)
    assert abs(koopmon_coupling_energy(e, table)) < 1e-12
    terms = koopmon_terms(e, h, grid, spec)
    assert terms.energy == 0.0
    assert np.all(terms.heff_vec == 0.0)


def test_purely_quantum_hamiltonian_gives_zero_table():
    e = random_ensemble(3, q0=0.0, p0=0.0)
    h = purely_quantum_model()
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    assert np.all(table.values == 0.0)
    terms = koopmon_terms(e, h, grid, spec)
    assert terms.energy == 0.0
    assert np.all(terms.dqdot_extra == 0.0)
    assert np.all(terms.dpdot_extra == 0.0)


# ---------------------------------------------------------------------------
# Quadrature oracles (refined grid, same integrand)
# ---------------------------------------------------------------------------

def test_koopmon_pair_integral_against_refined_grid():
    # the traceless components (the only ones entering the dynamics) match a
    # high-resolution (j=8, n=4) oracle to better than 1e-6 absolute; the
    # identity component inherits the unbounded kinetic gradient p/M and is
    # box-truncation sensitive at the ~1e-4 level, but it cancels from the
    # commutator pairing
    e, spec = desk_pair(alpha=0.325)
    h = make_model("tully1")
    default = koopmon_pairs(e, h, build_grid(e.q, e.p, spec), spec)
    fine_params = GridParams(n_q=4, n_p=4, j_q=8, j_p=8)
    fine = koopmon_pairs(e, h, build_grid(e.q, e.p, spec, fine_params), spec)
    assert np.max(np.abs(default.values[:, :, 1:] - fine.values[:, :, 1:])) < 1e-6
    assert np.max(np.abs(default.values - fine.values)) < 2e-4


def test_koopmon_pair_integral_refined_grid_strong_coupling():
    # at O(1) Hamiltonian gradients: resolution refinement at a fixed wide
    # box is converged, and the default box sits within 1% of it
    rho = np.stack([bloch_state(0.4, 0.3), bloch_state(2.2, 2.5)])
    e = ParticleEnsemble(q=np.array([0.0, 0.45]), p=np.array([0.4, -0.1]),
                         rho=rho, w=np.array([0.5, 0.5]))
    spec = KernelSpec(alpha=0.5)
    h = make_model("rabi_ds")
    default = koopmon_pairs(e, h, build_grid(e.q, e.p, spec), spec)
    n4_coarse = koopmon_pairs(
        e, h, build_grid(e.q, e.p, spec, GridParams(4, 4, 2, 2)), spec)
    n4_fine = koopmon_pairs(
        e, h, build_grid(e.q, e.p, spec, GridParams(4, 4, 8, 8)), spec)
    scale = np.max(np.abs(n4_fine.values))
    assert scale > 1e-3
    assert np.max(np.abs(n4_coarse.values - n4_fine.values)) / scale < 1e-5
    assert np.max(np.abs(default.values - n4_fine.values)) / scale < 1e-2


def test_bohmion_pair_integral_against_refined_grid():
    # quadrature plateau: once the box is wide enough the integrals are
    # resolution-converged far below 1e-8
    spec = KernelSpec(alpha=0.5)
    rho = np.stack([bloch_state(0.7, 0.1), bloch_state(2.4, 3.0)])
    e = ParticleEnsemble(q=np.array([0.0, 0.3]), p=np.zeros(2), rho=rho,
                         w=np.full(2, 0.5))
    conv1 = bohmion_pairs(e, build_grid_1d(e.q, spec, GridParams(n_q=8, j_q=8)),
                          spec)
    conv2 = bohmion_pairs(e, build_grid_1d(e.q, spec, GridParams(n_q=10, j_q=16)),
                          spec)
    assert np.max(np.abs(conv1.values - conv2.values)) < 1e-8
    # a narrower box truncates the growing kernel-ratio tails, by about 20%
    # of the integrand at a 2-sigma padding; the default box must stay
    # within these bounds
    default = bohmion_pairs(e, build_grid_1d(e.q, spec), spec)
    assert abs(default.values[0, 1] - conv2.values[0, 1]) < 0.5
    assert abs(default.values[0, 0] - conv2.values[0, 0]) < 2.5
    assert np.all(default.values > 0.75 * conv2.values)


# ---------------------------------------------------------------------------
# Aggregated fields agree with the explicit pair tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,q0,p0", [("tully1", -8.0, 10.0),
                                              ("rabi_us", 0.0, 4.0),
                                              ("rabi_ds", 0.3, -0.2)])
def test_koopmon_field_energy_matches_pair_energy(model_name, q0, p0):
    e = random_ensemble(5, seed=4, q0=q0, p0=p0)
    h = make_model(model_name)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    pair_energy = koopmon_coupling_energy(e, koopmon_pairs(e, h, grid, spec))
    field_energy = koopmon_terms(e, h, grid, spec).energy
    assert field_energy == pytest.approx(pair_energy, rel=1e-12, abs=1e-16)


def test_koopmon_quantum_term_matches_pair_assembly():
    # effective field from aggregated integrals == -2 hbar sum_b w_b s_b x I_eb
    e = random_ensemble(4, seed=9)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    s = pauli_decompose(e.rho)[:, 1:]
    expected = np.zeros((4, 3))
    for a in range(4):
        acc = np.zeros(3)
        for b in range(4):
            acc += e.w[b] * np.cross(s[b], table.values[a, b, 1:])
        expected[a] = -2.0 * HBAR * acc
    terms = koopmon_terms(e, h, grid, spec)
    assert np.allclose(terms.heff_vec, expected, rtol=1e-10, atol=1e-15)


def test_bohmion_field_energy_matches_pair_energy():
    e = random_ensemble(5, seed=5, q0=0.0, p0=0.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(e.q, spec)
    pair = bohmion_coupling_energy(e, bohmion_pairs(e, grid, spec), h.mass)
    field = bohmion_terms(e, h.mass, grid, spec).energy
    assert field == pytest.approx(pair, rel=1e-12)


def test_bohmion_quantum_term_matches_pair_assembly():
    e = random_ensemble(4, seed=11, q0=0.0, p0=0.0)
    h = make_model("rabi_us")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(e.q, spec)
    table = bohmion_pairs(e, grid, spec)
    s = pauli_decompose(e.rho)[:, 1:]
    expected = HBAR**2 / (2.0 * h.mass) * np.einsum("ab,b,bk->ak",
                                                    table.values, e.w, s)
    terms = bohmion_terms(e, h.mass, grid, spec)
    assert np.allclose(terms.heff_vec, expected, rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("dq,dp", [(0.0, 40.0), (40.0, 0.0)])
def test_koopmon_terms_on_a_split_cloud(dq, dp):
    # two groups farther apart in p (or in q) than twice the kernel flush
    # radius, 26.5 alpha, share no node where a kernel is nonzero:
    # koopmon_terms drops the nodes between them and must still agree with
    # the pair tables on the whole box and be the gradient of the energy
    a = random_ensemble(3, seed=21, q0=0.0, p0=0.0)
    b = random_ensemble(3, seed=22, q0=dq, p0=dp)
    e = ParticleEnsemble(q=np.concatenate([a.q, b.q]),
                         p=np.concatenate([a.p, b.p]),
                         rho=np.concatenate([a.rho, b.rho]), w=np.full(6, 1 / 6))
    h = periodic_model()
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    kq = _kernel_rows(spec, e.q, grid.q_nodes)[0]
    kp = _kernel_rows(spec, e.p, grid.p_nodes)[0]
    assert not (kq.any(axis=0).all() and kp.any(axis=0).all())

    table = koopmon_pairs(e, h, grid, spec)
    terms = koopmon_terms(e, h, grid, spec)
    assert terms.energy == pytest.approx(koopmon_coupling_energy(e, table),
                                         rel=1e-12, abs=1e-16)
    s = pauli_decompose(e.rho)[:, 1:]
    expected = -2.0 * HBAR * np.einsum(
        "b,abk->ak", e.w, np.cross(s[None, :, :], table.values[:, :, 1:]))
    assert np.allclose(terms.heff_vec, expected, rtol=1e-10, atol=1e-15)
    fd_gradient_check("koopmon", e, h, spec)


def test_single_particle_koopmon_terms_are_exact_zeros():
    e = random_ensemble(1)
    h = make_model("tully1")
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    terms = koopmon_terms(e, h, grid, spec)
    assert terms.energy == 0.0
    assert np.all(terms.dqdot_extra == 0.0) and np.all(terms.dpdot_extra == 0.0)
    assert np.all(terms.heff_vec == 0.0)


# ---------------------------------------------------------------------------
# Mean-field recovery as the kernel widens
# ---------------------------------------------------------------------------

def test_coupling_decays_with_kernel_width():
    # kernel widening washes out the pair integrals and with them every
    # coupling contribution to the equations of motion (mean-field recovery)
    h = make_model("tully1")
    norms = []
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
        e, spec = desk_pair(alpha)
        grid = build_grid(e.q, e.p, spec, GridParams(n_q=2, n_p=2))
        table = koopmon_pairs(e, h, grid, spec)
        norms.append(np.max(np.abs(table.values)))
        terms = koopmon_terms(e, h, grid, spec)
        eom_scale = max(np.max(np.abs(terms.dqdot_extra)),
                        np.max(np.abs(terms.dpdot_extra)),
                        np.max(np.abs(terms.heff_vec)))
        if alpha == 8.0:
            assert eom_scale < 2e-6
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_box_extension_converges():
    # once past a 4-sigma padding, further widening has negligible effect
    rho = np.stack([bloch_state(0.4, 0.3), bloch_state(2.2, 2.5)])
    e = ParticleEnsemble(q=np.array([0.0, 0.45]), p=np.array([0.4, -0.1]),
                         rho=rho, w=np.array([0.5, 0.5]))
    spec = KernelSpec(alpha=0.5)
    h = make_model("rabi_ds")
    t4 = koopmon_pairs(e, h, build_grid(e.q, e.p, spec,
                                        GridParams(n_q=4, n_p=4)), spec)
    t8 = koopmon_pairs(e, h, build_grid(e.q, e.p, spec,
                                        GridParams(n_q=8, n_p=8)), spec)
    scale = np.max(np.abs(t8.values))
    assert np.max(np.abs(t4.values - t8.values)) / scale < 2e-6
