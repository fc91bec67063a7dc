import dataclasses

import numpy as np
import pytest

from mqcdyn import backreaction
from mqcdyn.backreaction import HBAR, _kernel_rows, bohmion_terms, koopmon_terms
from mqcdyn.ensemble import ParticleEnsemble
from mqcdyn.models import HybridHamiltonian, make_model, on_points
from mqcdyn.pauli import pauli_components
from mqcdyn.regularization import (GridCoverageError, GridParams, KernelSpec,
                                   build_grid, build_grid_1d, kernel_1d)

from helpers import (bloch_state, bohmion_coupling_energy, bohmion_pairs,
                     fd_gradient_check, grad_p, grad_q, kernel_1d_deriv,
                     kernel_1d_deriv2, koopmon_coupling_energy, koopmon_pairs,
                     traced_peak)


def random_ensemble(n, seed=0, q0=-8.0, p0=10.0, spread=0.6):
    rng = np.random.default_rng(seed)
    rho = np.stack([bloch_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    return ParticleEnsemble(q=q0 + spread * rng.standard_normal(n),
                            p=p0 + spread * rng.standard_normal(n),
                            components=pauli_components(rho),
                            w=np.full(n, 1.0 / n))


def desk_pair(alpha):
    """Two-particle scattering-model configuration used across these tests."""
    rho = np.stack([bloch_state(0.3, 0.2), bloch_state(1.9, 4.0)])
    e = ParticleEnsemble(q=np.array([-8.0, -7.5]), p=np.array([10.0, 10.2]),
                         components=pauli_components(rho),
                         w=np.array([0.5, 0.5]))
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
    assert np.array_equal(table.diagonal().T, np.zeros((4, 4)))
    assert np.array_equal(table, -np.swapaxes(table, 0, 1))


def test_bohmion_table_symmetric_nonnegative_diagonal():
    e = random_ensemble(5, seed=2)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(e.q, spec)
    table = bohmion_pairs(e, grid, spec)
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) >= 0.0)


def test_bohmion_self_integral_value():
    # single unit-weight particle: I_11 = int (K')^2/K = 2/alpha^2
    alpha = 0.5
    spec = KernelSpec(alpha=alpha)
    e = ParticleEnsemble(q=np.zeros(1), p=np.zeros(1),
                         components=pauli_components(
                             np.asarray([bloch_state(0.4, 0.0)])),
                         w=np.ones(1))
    grid = build_grid_1d(e.q, spec, GridParams(n_q=10))
    table = bohmion_pairs(e, grid, spec)
    assert table[0, 0] == pytest.approx(2.0 / alpha**2, rel=1e-6)
    assert table[0, 0] > 0


def test_bohmion_distant_particles_decouple():
    spec = KernelSpec(alpha=0.5)
    rho = np.stack([bloch_state(0.3, 0.0), bloch_state(2.0, 1.0)])
    e = ParticleEnsemble(q=np.array([-8.0, 8.0]), p=np.zeros(2),
                         components=pauli_components(rho),
                         w=np.full(2, 0.5))
    grid = build_grid_1d(e.q, spec)
    table = bohmion_pairs(e, grid, spec)
    assert abs(table[0, 1]) < 1e-12
    assert table[0, 0] > 1.0


def test_bohmion_box_that_misses_a_particle_raises():
    # the box of the other particles ends less than 10 sigma_K past them,
    # short of the particle at 12 sigma_K; both bohmion paths name it and
    # the box
    e = random_ensemble(5, seed=4)
    spec = KernelSpec(alpha=0.5)
    q = e.q.copy()
    q[2] = np.max(np.delete(q, 2)) + 12.0 * spec.sigma_k
    e = ParticleEnsemble(q=q, p=e.p, components=e.components, w=e.w)
    grid = build_grid_1d(np.delete(q, 2), spec)
    for call in (lambda: bohmion_terms(e, 2000.0, grid, spec),
                 lambda: bohmion_pairs(e, grid, spec)):
        with pytest.raises(GridCoverageError) as err:
            call()
        assert err.value.particles.tolist() == [2]
        assert err.value.bounds == ((grid.nodes[0], grid.nodes[-1]),)


def test_purely_classical_hamiltonian_gives_zero_coupling():
    e = random_ensemble(3, q0=0.0, p0=0.0)
    h = purely_classical_model()
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    table = koopmon_pairs(e, h, grid, spec)
    # traceless components vanish identically: coupling is exactly zero
    assert np.all(table[:, :, 1:] == 0.0)
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
    assert np.all(table == 0.0)
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
    assert np.max(np.abs(default[:, :, 1:] - fine[:, :, 1:])) < 1e-6
    assert np.max(np.abs(default - fine)) < 2e-4


def test_koopmon_pair_integral_refined_grid_strong_coupling():
    # at O(1) Hamiltonian gradients: resolution refinement at a fixed wide
    # box is converged, and the default box sits within 1% of it
    rho = np.stack([bloch_state(0.4, 0.3), bloch_state(2.2, 2.5)])
    e = ParticleEnsemble(q=np.array([0.0, 0.45]), p=np.array([0.4, -0.1]),
                         components=pauli_components(rho),
                         w=np.array([0.5, 0.5]))
    spec = KernelSpec(alpha=0.5)
    h = make_model("rabi_ds")
    default = koopmon_pairs(e, h, build_grid(e.q, e.p, spec), spec)
    n4_coarse = koopmon_pairs(
        e, h, build_grid(e.q, e.p, spec, GridParams(4, 4, 2, 2)), spec)
    n4_fine = koopmon_pairs(
        e, h, build_grid(e.q, e.p, spec, GridParams(4, 4, 8, 8)), spec)
    scale = np.max(np.abs(n4_fine))
    assert scale > 1e-3
    assert np.max(np.abs(n4_coarse - n4_fine)) / scale < 1e-5
    assert np.max(np.abs(default - n4_fine)) / scale < 1e-2


def test_bohmion_pair_integral_against_refined_grid():
    # quadrature plateau: once the box is wide enough the integrals are
    # resolution-converged far below 1e-8
    spec = KernelSpec(alpha=0.5)
    rho = np.stack([bloch_state(0.7, 0.1), bloch_state(2.4, 3.0)])
    e = ParticleEnsemble(q=np.array([0.0, 0.3]), p=np.zeros(2),
                         components=pauli_components(rho),
                         w=np.full(2, 0.5))
    conv1 = bohmion_pairs(e, build_grid_1d(e.q, spec, GridParams(n_q=8, j_q=8)),
                          spec)
    conv2 = bohmion_pairs(e, build_grid_1d(e.q, spec, GridParams(n_q=10, j_q=16)),
                          spec)
    assert np.max(np.abs(conv1 - conv2)) < 1e-8
    # a narrower box truncates the growing kernel-ratio tails, by about 20%
    # of the integrand at a 2-sigma padding; the default box must stay
    # within these bounds
    default = bohmion_pairs(e, build_grid_1d(e.q, spec), spec)
    assert abs(default[0, 1] - conv2[0, 1]) < 0.5
    assert abs(default[0, 0] - conv2[0, 0]) < 2.5
    assert np.all(default > 0.75 * conv2)


# ---------------------------------------------------------------------------
# Aggregated fields agree with the explicit pair tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,q0,p0", [("tully1", -8.0, 10.0),
                                              ("tully2", -1.0, 10.0),
                                              ("tully3", -2.0, 10.0),
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
    s = e.components[1:].T
    expected = np.zeros((4, 3))
    for a in range(4):
        acc = np.zeros(3)
        for b in range(4):
            acc += e.w[b] * np.cross(s[b], table[a, b, 1:])
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
    s = e.components[1:].T
    expected = HBAR**2 / (2.0 * h.mass) * np.einsum("ab,b,bk->ak",
                                                    table, e.w, s)
    terms = bohmion_terms(e, h.mass, grid, spec)
    assert np.allclose(terms.heff_vec, expected, rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("dq,dp", [(0.0, 40.0), (40.0, 0.0)])
def test_koopmon_terms_on_a_split_cloud(dq, dp):
    # two groups 40 apart in p (or in q), far more than twice the kernel
    # cutoff radius 9 sigma_K, share no node where a kernel is nonzero: the
    # nodes between them carry exact zeros, and koopmon_terms must still
    # agree with the pair tables on the whole box and be the gradient of
    # the energy
    a = random_ensemble(3, seed=21, q0=0.0, p0=0.0)
    b = random_ensemble(3, seed=22, q0=dq, p0=dp)
    e = ParticleEnsemble(q=np.concatenate([a.q, b.q]),
                         p=np.concatenate([a.p, b.p]),
                         components=np.concatenate(
                             [a.components, b.components], axis=1),
                         w=np.full(6, 1 / 6))
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
    s = e.components[1:].T
    expected = -2.0 * HBAR * np.einsum(
        "b,abk->ak", e.w, np.cross(s[None, :, :], table[:, :, 1:]))
    assert np.allclose(terms.heff_vec, expected, rtol=1e-10, atol=1e-15)
    fd_gradient_check("koopmon", e, h, spec)


def rabi_like_cloud(n):
    """A compact cloud of the rabi_ds kind: one cluster a few sigma_K wide."""
    return random_ensemble(n, seed=31, q0=0.0, p0=0.0, spread=1.0)


def cloud_split_in_p(n):
    """Two groups 20 sigma_K apart in p (alpha = 0.5): windows of blocks in
    one group overlap, those of blocks in different groups do not."""
    gap = 20.0 * KernelSpec(alpha=0.5).sigma_k
    a = random_ensemble(n // 2, seed=32, q0=0.0, p0=0.0)
    b = random_ensemble(n - n // 2, seed=33, q0=0.5, p0=gap)
    return ParticleEnsemble(q=np.concatenate([a.q, b.q]),
                            p=np.concatenate([a.p, b.p]),
                            components=np.concatenate(
                                [a.components, b.components], axis=1),
                            w=np.full(n, 1.0 / n))


@pytest.mark.parametrize("cloud,model", [(rabi_like_cloud, "rabi_ds"),
                                         (cloud_split_in_p, "periodic")])
def test_blocked_koopmon_terms_equal_a_single_block(cloud, model, monkeypatch):
    e = cloud(3 * backreaction._PARTICLE_BLOCK + 5)
    h = periodic_model() if model == "periodic" else make_model(model)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    blocked = koopmon_terms(e, h, grid, spec)
    monkeypatch.setattr(backreaction, "_PARTICLE_BLOCK", e.n)
    single = koopmon_terms(e, h, grid, spec)
    assert blocked.energy == pytest.approx(single.energy, rel=1e-12)
    for name in ("dqdot_extra", "dpdot_extra", "heff_vec"):
        got, want = getattr(blocked, name), getattr(single, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def with_array_gradient(h):
    """``h`` with every dH/dq coefficient an array, zeros included, so that
    `koopmon_terms` can skip no Bloch component."""
    return dataclasses.replace(
        h, d_interaction=lambda q: on_points(q, 0.0, *h.d_interaction(q)))


@pytest.mark.parametrize("model,q0,p0,inactive", [("tully1", -1.0, 10.0, []),
                                                  ("tully2", -1.0, 10.0, []),
                                                  ("tully3", -2.0, 10.0, [0]),
                                                  ("rabi_us", 0.0, 4.0, [2]),
                                                  ("rabi_ds", 0.3, -0.2, [2])])
def test_skipped_components_equal_the_full_computation(model, q0, p0, inactive):
    # dH/dq of tully3 is a multiple of sigma_x and that of the Rabi models
    # of sigma_z, so one Bloch component never meets it in g x s
    e = random_ensemble(2 * backreaction._PARTICLE_BLOCK + 7, seed=41, q0=q0,
                        p0=p0)
    h = make_model(model)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    skipped = koopmon_terms(e, h, grid, spec)
    full = koopmon_terms(e, with_array_gradient(h), grid, spec)
    assert skipped.energy == pytest.approx(full.energy, rel=1e-12)
    for name in ("dqdot_extra", "dpdot_extra", "heff_vec"):
        got, want = getattr(skipped, name), getattr(full, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    assert np.all(skipped.heff_vec[:, inactive] == 0.0)
    assert np.all(full.heff_vec[:, inactive] == 0.0)


def two_lobe_cloud(n):
    """A tully3 cloud after branching, at desk N: spread over 5 a.u. in q
    and split into two lobes 22 a.u. apart in p."""
    rng = np.random.default_rng(51)
    rho = np.stack([bloch_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    lobe = np.where(np.arange(n) < n // 2, 8.0, 30.0)
    return ParticleEnsemble(q=rng.uniform(-2.5, 2.5, n),
                            p=lobe + 0.5 * rng.standard_normal(n),
                            components=pauli_components(rho),
                            w=np.full(n, 1.0 / n))


def test_koopmon_terms_memory_is_a_few_box_arrays():
    # on its box of 81 x 252 nodes, 0.16 MB per (n_q, n_p) array, the
    # weighted fields overwrite the five aggregates and at most four more box
    # arrays live at once: 2.7 MB traced in all, kernel rows and the window
    # of the block that straddles both lobes included; fields of their own
    # would add four box arrays and more
    e = two_lobe_cloud(200)
    h = make_model("tully3")
    spec = KernelSpec(alpha=0.325)
    grid = build_grid(e.q, e.p, spec)
    assert grid.shape[0] >= 80 and grid.shape[1] >= 250
    assert traced_peak(lambda: koopmon_terms(e, h, grid, spec)) < 3.0e6


def test_masked_inverse_in_place_has_the_same_bits():
    den = np.array([[2.0, 0.0, 1e-300], [3.0, -0.0, 0.5]])
    fresh = backreaction._masked_inverse(den)
    assert fresh.tobytes() == np.array([[0.5, 0.0, 0.0],
                                        [1.0 / 3.0, 0.0, 2.0]]).tobytes()
    assert backreaction._masked_inverse(den, out=den) is den
    assert den.tobytes() == fresh.tobytes()


def scalar_zero_gradient_model():
    """A harmonic oscillator with a constant two-level coupling whose dH/dq
    coefficients are four scalar zeros: no Bloch component is active."""
    return HybridHamiltonian(
        name="scalar_zero_gradient", mass=1.0,
        classical=lambda q, p: 0.5 * (q**2 + p**2),
        d_classical_q=lambda q, p: q + 0.0 * p,
        d_classical_p=lambda q, p: p + 0.0 * q,
        interaction=lambda q: (0.0, 0.35, 0.0, 0.1),
        d_interaction=lambda q: (0.0, 0.0, 0.0, 0.0),
    )


def test_no_traceless_gradient_gives_exact_zero_terms():
    e = random_ensemble(5, seed=43, q0=0.0, p0=0.0)
    h = scalar_zero_gradient_model()
    spec = KernelSpec(alpha=0.5)
    terms = koopmon_terms(e, h, build_grid(e.q, e.p, spec), spec)
    assert terms.energy == 0.0
    for name, shape in (("dqdot_extra", (5,)), ("dpdot_extra", (5,)),
                        ("heff_vec", (5, 3))):
        value = getattr(terms, name)
        assert value.shape == shape and np.all(value == 0.0), name
    fd_gradient_check("koopmon", e, h, spec)


def bohmion_terms_by_node_products(e, mass, grid, spec):
    """The bohmion terms from (particles x nodes) products summed over the
    nodes, the form the GEMMs of `bohmion_terms` replace."""
    comp = e.components.T
    s0, s, w = comp[:, 0], comp[:, 1:], e.w
    k, dk, ddk = _kernel_rows(spec, e.q, grid.nodes, 3)
    inv_d = backreaction._masked_inverse(w @ k)
    u = w @ dk
    vg0 = (w * s0) @ dk
    vg = (w[:, None] * s).T @ dk
    t_field = 4.0 * vg0**2 + 4.0 * np.einsum("km,km->m", vg, vg) - u**2
    pref = HBAR**2 / (8.0 * mass)
    energy = pref * float(backreaction.quadrature(t_field * inv_d, grid))
    wts = grid.weights
    c_e_field = (4.0 * s0[:, None] * vg0[None, :]
                 + 4.0 * s @ vg - u[None, :])
    num = -2.0 * np.sum(ddk * c_e_field * (inv_d * wts)[None, :], axis=1)
    den = np.sum(dk * (t_field * inv_d * inv_d * wts)[None, :], axis=1)
    heff = HBAR**2 / (2.0 * mass) * ((dk * (inv_d * wts)[None, :]) @ vg.T)
    return energy, -pref * (num + den), heff


@pytest.mark.parametrize("cloud", [rabi_like_cloud, cloud_split_in_p])
@pytest.mark.parametrize("n", [7, 200])
def test_bohmion_terms_equal_the_node_product_formula(cloud, n):
    e = cloud(n)
    mass = make_model("rabi_ds").mass
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(e.q, spec)
    energy, dpdot, heff = bohmion_terms_by_node_products(e, mass, grid, spec)
    got = bohmion_terms(e, mass, grid, spec)
    assert got.energy == pytest.approx(energy, rel=1e-13)
    for have, want in ((got.dpdot_extra, dpdot), (got.heff_vec, heff)):
        assert have.shape == want.shape
        assert np.max(np.abs(have - want)) <= 1e-13 * np.max(np.abs(want))


def koopmon_pairs_by_pair_loops(e, h, grid, spec):
    """The koopmon table from one quadrature per pair over the upper
    triangle, the loop that the Gram products of `koopmon_pairs` replace."""
    n = e.n
    kq, dkq = _kernel_rows(spec, e.q, grid.q_nodes)
    kp, dkp = _kernel_rows(spec, e.p, grid.p_nodes)
    inv_d = backreaction._masked_inverse((e.w[:, None] * kq).T @ kp)
    qq, pp = grid.q_nodes[:, None], grid.p_nodes[None, :]
    gq, gp = np.stack(grad_q(h, qq, pp)), np.stack(grad_p(h, qq, pp))
    values = np.zeros((n, n, 4))
    for a in range(n):
        k_a = np.outer(kq[a], kp[a])
        gq_a = np.outer(dkq[a], kp[a])
        gp_a = np.outer(kq[a], dkp[a])
        for b in range(a + 1, n):
            k_b = np.outer(kq[b], kp[b])
            gq_b = np.outer(dkq[b], kp[b])
            gp_b = np.outer(kq[b], dkp[b])
            fq = k_a * gq_b - k_b * gq_a
            fp = k_a * gp_b - k_b * gp_a
            integrand = 0.5 * (fq[None] * gp - fp[None] * gq) * inv_d[None]
            vals = backreaction.quadrature(np.moveaxis(integrand, 0, -1), grid)
            values[a, b] = vals
            values[b, a] = -vals
    return values


@pytest.mark.parametrize("cloud,model", [
    (lambda: random_ensemble(5, seed=4, q0=-8.0, p0=10.0), "tully1"),
    (lambda: random_ensemble(5, seed=4, q0=0.0, p0=4.0), "rabi_us"),
    (lambda: random_ensemble(5, seed=4, q0=0.3, p0=-0.2), "rabi_ds"),
    (lambda: cloud_split_in_p(9), "periodic")])
def test_koopmon_pairs_equal_the_pair_loop(cloud, model):
    e = cloud()
    h = periodic_model() if model == "periodic" else make_model(model)
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(e.q, e.p, spec)
    want = koopmon_pairs_by_pair_loops(e, h, grid, spec)
    got = koopmon_pairs(e, h, grid, spec)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, -np.swapaxes(got, 0, 1))
    assert np.all(got.diagonal() == 0.0)


def test_koopmon_gradient_across_overlapping_blocks(monkeypatch):
    monkeypatch.setattr(backreaction, "_PARTICLE_BLOCK", 4)
    e = random_ensemble(12, seed=34, q0=0.0, p0=0.0, spread=1.5)
    fd_gradient_check("koopmon", e, periodic_model(), KernelSpec(alpha=0.5))


@pytest.mark.parametrize("seed", range(6))
def test_kernel_rows_are_exact_zeros_on_the_box_edges(seed):
    rng = np.random.default_rng(seed)
    e = random_ensemble(7, seed=seed, q0=rng.uniform(-30.0, 30.0),
                        p0=rng.uniform(-30.0, 30.0), spread=3.0)
    spec = KernelSpec(alpha=rng.uniform(0.2, 1.5))
    grid = build_grid(e.q, e.p, spec)
    for centers, nodes in ((e.q, grid.q_nodes), (e.p, grid.p_nodes)):
        for rows in _kernel_rows(spec, centers, nodes, 3):
            assert np.all(rows[:, [0, -1]] == 0.0)
            assert np.any(rows[:, [1, -2]] != 0.0)


@pytest.mark.parametrize("alpha", [0.325, 0.5, 1.3, 8.0])
def test_kernel_rows_equal_the_public_kernel_formulas(alpha):
    # inside the cutoff radius R the rows are the formulas of
    # `regularization`; from R out they are exact zeros
    spec = KernelSpec(alpha=alpha)
    radius = backreaction._KERNEL_CUTOFF * spec.sigma_k
    centers = np.array([-0.7, 0.0, 0.31]) * alpha
    nodes = np.linspace(-1.2, 1.2, 2401) * radius
    rows = _kernel_rows(spec, centers, nodes, 3)
    y = nodes[None, :] - centers[:, None]
    inside = np.abs(y) <= 0.999 * radius
    assert inside.any() and (np.abs(y) >= radius).any()
    for got, formula in zip(rows, (kernel_1d, kernel_1d_deriv,
                                   kernel_1d_deriv2)):
        want = formula(spec, y)
        peak = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want)[inside]
                      <= 1e-14 * np.broadcast_to(peak, y.shape)[inside])
        assert np.all(got[np.abs(y) >= radius] == 0.0)


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
        norms.append(np.max(np.abs(table)))
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
                         components=pauli_components(rho),
                         w=np.array([0.5, 0.5]))
    spec = KernelSpec(alpha=0.5)
    h = make_model("rabi_ds")
    t4 = koopmon_pairs(e, h, build_grid(e.q, e.p, spec,
                                        GridParams(n_q=4, n_p=4)), spec)
    t8 = koopmon_pairs(e, h, build_grid(e.q, e.p, spec,
                                        GridParams(n_q=8, n_p=8)), spec)
    scale = np.max(np.abs(t8))
    assert np.max(np.abs(t4 - t8)) / scale < 2e-6
