"""Factorized two-degree-of-freedom coupling integrals versus brute-force
tensor quadrature of the unfactorized forms.

The oracle below evaluates the full 4D (koopmon) and 2D (bohmion) integrals
on its own tensor-product trapezoid nodes, independent of the per-axis
factorization path.
"""

import functools

import numpy as np
import pytest

from mqcdyn import backreaction
from mqcdyn.backreaction import (HBAR, Factor, Hamiltonian2DOF,
                                 bohmion_2dof_coupling,
                                 bohmion_pairs_factorized_2dof,
                                 constant_matrix_factor,
                                 koopmon_2dof_coupling,
                                 koopmon_pairs_factorized_2dof,
                                 zero_scalar_factor)
from mqcdyn.ensemble import Ensemble2D
from mqcdyn.models import on_points
from mqcdyn.pauli import pauli_components, projector
from mqcdyn.regularization import GridParams, KernelSpec, build_grid, \
    kernel_rows, quadrature

from helpers import kernel_1d, kernel_1d_deriv

ALPHA = 0.75
SPEC = KernelSpec(alpha=ALPHA)


def make_ensemble2d(seed=0):
    rng = np.random.default_rng(seed)
    n1, n2 = 2, 2
    rho = np.empty((n1, n2, 2, 2), dtype=complex)
    for a in range(n1):
        for b in range(n2):
            t, f = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
            rho[a, b] = projector(v)
    return Ensemble2D(
        q1=np.array([-0.2, 0.5]), p1=np.array([0.3, -0.4]),
        w1=np.array([0.6, 0.4]),
        q2=np.array([0.1, -0.6]), p2=np.array([-0.2, 0.35]),
        w2=np.array([0.7, 0.3]),
        components=pauli_components(rho))


#: the constant quantum part H_Q = 0.35 sx of the oracles' Hamiltonian; it has
#: no derivative, so `Hamiltonian2DOF` does not hold it
H_Q = (0.0, 0.35, 0.0, 0.0)


def separable_hamiltonian():
    """The coupled part q1 * sz(z2-side) + 0.2 p2 * (0.4 sx + 0.15 q1 sz)."""

    h1 = Factor(
        f=lambda q, p: np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        df_dq=lambda q, p: 1.0 + 0.0 * np.asarray(q) + 0.0 * np.asarray(p),
        df_dp=lambda q, p: 0.0 * np.asarray(q) + 0.0 * np.asarray(p))
    H2 = constant_matrix_factor(h3=1.0)   # sigma_z
    h2 = Factor(
        f=lambda q, p: 0.2 * np.asarray(p, dtype=float) + 0.0 * np.asarray(q),
        df_dq=lambda q, p: 0.0 * np.asarray(q) + 0.0 * np.asarray(p),
        df_dp=lambda q, p: 0.2 + 0.0 * np.asarray(q) + 0.0 * np.asarray(p))

    def H1_f(q, p):
        q = np.asarray(q, dtype=float)
        z = 0.0 * q + 0.0 * np.asarray(p)
        return z, 0.4 + z, z, 0.15 * q + z

    def H1_dq(q, p):
        z = 0.0 * np.asarray(q) + 0.0 * np.asarray(p)
        return z, z, z, 0.15 + z

    def H1_dp(q, p):
        z = 0.0 * np.asarray(q) + 0.0 * np.asarray(p)
        return z, z, z, z

    H1 = Factor(f=H1_f, df_dq=H1_dq, df_dp=H1_dp)
    return Hamiltonian2DOF(h1=h1, H2=H2, h2=h2, H1=H1)


def traceless_hamiltonian(ham, q1, p1, q2, p2):
    """sx, sy, sz coefficients of H_Q + h1(z1) H2(z2) + h2(z2) H1(z1) on a
    broadcastable set of points.  The identity part, H_c included, drops
    from every commutator, so the oracles never form it."""
    a1 = np.asarray(ham.h1.f(q1, p1), dtype=float)
    a2 = np.asarray(ham.h2.f(q2, p2), dtype=float)
    m2 = [np.asarray(c, dtype=float) for c in ham.H2.f(q2, p2)]
    m1 = [np.asarray(c, dtype=float) for c in ham.H1.f(q1, p1)]
    return [a1 * m2[k] + a2 * m1[k] + H_Q[k] for k in range(1, 4)]


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def axis_nodes(centers, pad_sigma, spacing_frac):
    s = SPEC.sigma_k
    lo = centers.min() - pad_sigma * s
    hi = centers.max() + pad_sigma * s
    n = int(np.ceil((hi - lo) / (s * spacing_frac))) + 1
    return np.linspace(lo, lo + (n - 1) * s * spacing_frac, n)


def trap_w(nodes):
    w = np.full(len(nodes), nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def koopmon_brute_force_coupling(e2, ham, pad=5.0, frac=0.25):
    """(1/2) sum w_k w_k' Tr(i hbar [rho_k, rho_k'] Ihat_kk') with the full
    4D unfactorized integral evaluated by tensor trapezoid quadrature.

    ``Ihat_kk' = int K_k {K_k', H} / D`` for k = (a, b): the bracket field of
    each k' is built on the 4D nodes, from central differences of the full
    Hamiltonian, and contracted with the four weighted kernels ``K_k w4 / D``
    in one matrix product per slab.  Every factor is pointwise on the
    nodes, so the integral is summed slab by slab, one q1 node at a time: a
    slab holds (n_p1, n_q2, n_p2) fields, not the whole 4D grid.  On the
    47^3 x 46 nodes of `koopmon_4d_oracle` a fresh process peaks at 80 MB
    (ru_maxrss) with slabs of one q1 node, 178 MB with four and 1031 MB with
    the whole grid, and one node per slab is also the fastest."""
    q1 = axis_nodes(e2.q1, pad, frac)
    p1 = axis_nodes(e2.p1, pad, frac)
    q2 = axis_nodes(e2.q2, pad, frac)
    p2 = axis_nodes(e2.p2, pad, frac)
    wq1 = trap_w(q1)
    w3 = (trap_w(p1)[:, None, None] * trap_w(q2)[None, :, None]
          * trap_w(p2)[None, None, :])

    # kernel rows [K, dK/dq, dK/dp] of each particle on its 2D plane
    def rows(q, p, qc, pc):
        kq = kernel_1d(SPEC, q - qc)[:, None]
        kp = kernel_1d(SPEC, p - pc)[None, :]
        return (kq * kp, kernel_1d_deriv(SPEC, q - qc)[:, None] * kp,
                kq * kernel_1d_deriv(SPEC, p - pc)[None, :])

    r2 = [rows(q2, p2, e2.q2[b], e2.p2[b]) for b in range(2)]
    d2 = sum(e2.w2[d] * r2[d][0] for d in range(2))
    step = 1e-6
    # ivec[ap, bp, a, b] = Ihat_(a,b),(ap,bp), summed slab by slab
    ivec = np.zeros((2, 2, 2, 2, 3))
    for i in range(len(q1)):
        slab = slice(i, i + 1)
        r1 = [rows(q1[slab], p1, e2.q1[a], e2.p1[a]) for a in range(2)]
        d1 = sum(e2.w1[c] * r1[c][0] for c in range(2))
        w4 = wq1[slab, None, None, None] * w3
        inv_d = 1.0 / (d1[:, :, None, None] * d2[None, None, :, :])
        # the weighted kernels K_ab w4 / D, one row per k = (a, b)
        weighted = np.stack([(r1[a][0][:, :, None, None] * r2[b][0][None, None]
                              * inv_d * w4).ravel()
                             for a in range(2) for b in range(2)])

        # traceless Pauli gradients of the full Hamiltonian on the slab,
        # d/dq1, d/dp1, d/dq2, d/dp2 in turn
        nodes = (q1[slab, None, None, None], p1[None, :, None, None],
                 q2[None, None, :, None], p2[None, None, None, :])

        def gradient(axis):
            up, down = list(nodes), list(nodes)
            up[axis] = up[axis] + step
            down[axis] = down[axis] - step
            return [(hu - hd) / (2 * step) for hu, hd in
                    zip(traceless_hamiltonian(ham, *up),
                        traceless_hamiltonian(ham, *down))]

        gq1, gp1, gq2, gp2 = (gradient(axis) for axis in range(4))

        for ap in range(2):
            for bp in range(2):
                k1, dk1q, dk1p = (r[:, :, None, None] for r in r1[ap])
                k2, dk2q, dk2p = (r[None, None] for r in r2[bp])
                bracket = np.stack([
                    (dk1q * k2 * gp1[m] - dk1p * k2 * gq1[m]
                     + k1 * dk2q * gp2[m] - k1 * dk2p * gq2[m]).ravel()
                    for m in range(3)])
                ivec[ap, bp] += (weighted @ bracket.T).reshape(2, 2, 3)

    s = np.moveaxis(e2.components[1:], 0, -1)
    w = e2.weights()
    total = 0.0
    for ap in range(2):
        for bp in range(2):
            cvec = -2.0 * HBAR * np.cross(s, s[ap, bp])
            total += w[ap, bp] * float(np.einsum("ab,abm,abm->", w, cvec,
                                                 ivec[ap, bp]))
    return total


@functools.cache
def koopmon_4d_oracle():
    """`koopmon_brute_force_coupling` on `make_ensemble2d()` and
    `separable_hamiltonian()`, evaluated once for every test that checks
    against it (it takes seconds; the factorized path takes milliseconds)."""
    return koopmon_brute_force_coupling(make_ensemble2d(),
                                        separable_hamiltonian())


def bohmion_brute_force_coupling(e2, pad=6.0, frac=0.2):
    r1 = axis_nodes(e2.q1, pad, frac)
    r2 = axis_nodes(e2.q2, pad, frac)
    w2d = trap_w(r1)[:, None] * trap_w(r2)[None, :]

    k1 = [kernel_1d(SPEC, r1 - qa) for qa in e2.q1]
    g1 = [kernel_1d_deriv(SPEC, r1 - qa) for qa in e2.q1]
    k2 = [kernel_1d(SPEC, r2 - qb) for qb in e2.q2]
    g2 = [kernel_1d_deriv(SPEC, r2 - qb) for qb in e2.q2]
    den = (sum(e2.w1[c] * k1[c] for c in range(2))[:, None]
           * sum(e2.w2[d] * k2[d] for d in range(2))[None, :])
    inv_d = 1.0 / den

    comp = np.moveaxis(e2.components, 0, -1)
    w = e2.weights()
    total = 0.0
    for a in range(2):
        for b in range(2):
            for ap in range(2):
                for bp in range(2):
                    grad_dot = (g1[a][:, None] * k2[b][None, :]
                                * g1[ap][:, None] * k2[bp][None, :]
                                + k1[a][:, None] * g2[b][None, :]
                                * k1[ap][:, None] * g2[bp][None, :])
                    integral = float(np.sum(grad_dot * inv_d * w2d))
                    c = 4.0 * (comp[a, b, 0] * comp[ap, bp, 0]
                               + comp[a, b, 1:] @ comp[ap, bp, 1:]) - 1.0
                    total += w[a, b] * w[ap, bp] * c * integral
    return total


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_koopmon_factorized_matches_4d_oracle():
    e2 = make_ensemble2d()
    ham = separable_hamiltonian()
    tables = koopmon_pairs_factorized_2dof(
        e2, ham, SPEC, SPEC, GridParams(n_q=5, n_p=5, j_q=3, j_p=3))
    fac = koopmon_2dof_coupling(e2, tables)
    brute = koopmon_4d_oracle()
    assert abs(fac) > 1e-4          # a nontrivial coupling
    assert abs(fac - brute) < 1e-5


def test_bohmion_factorized_matches_2d_oracle():
    e2 = make_ensemble2d(seed=3)
    t1, t2 = bohmion_pairs_factorized_2dof(
        e2, SPEC, SPEC, GridParams(n_q=6, j_q=4))
    fac = bohmion_2dof_coupling(e2, t1, t2)
    brute = bohmion_brute_force_coupling(e2)
    assert abs(fac) > 1e-3
    assert abs(fac - brute) < 1e-6


def test_classical_only_hamiltonian_has_zero_coupling():
    e2 = make_ensemble2d()
    ham = Hamiltonian2DOF(h1=zero_scalar_factor(),
                          H2=constant_matrix_factor(),
                          h2=zero_scalar_factor(),
                          H1=constant_matrix_factor())
    tables = koopmon_pairs_factorized_2dof(e2, ham, SPEC, SPEC)
    assert np.all(tables.axis1.i_matrix == 0.0)
    assert np.all(tables.axis2.i_matrix == 0.0)
    assert koopmon_2dof_coupling(e2, tables) == 0.0


def test_one_sided_coupling_drops_two_assembly_terms():
    e2 = make_ensemble2d()
    ham = separable_hamiltonian()
    one_sided = Hamiltonian2DOF(h1=ham.h1, H2=ham.H2,
                                h2=zero_scalar_factor(),
                                H1=constant_matrix_factor())
    tables = koopmon_pairs_factorized_2dof(e2, one_sided, SPEC, SPEC)
    # the h2-side scalar tables vanish identically
    assert np.all(tables.axis2.i_scalar == 0.0)
    assert np.all(tables.axis2.j_scalar == 0.0)
    assert np.all(tables.axis1.i_matrix == 0.0)
    for a in range(2):
        for b in range(2):
            vec = tables.assemble(a, b, a, b)
            manual = (tables.axis1.i_scalar[a, a] * tables.axis2.j_matrix[b, b, 1:]
                      + tables.axis2.i_matrix[b, b, 1:] * tables.axis1.j_scalar[a, a])
            assert np.allclose(vec, manual, atol=1e-15)


def test_bohmion_swap_symmetry():
    e2 = make_ensemble2d(seed=5)
    t1, t2 = bohmion_pairs_factorized_2dof(e2, SPEC, SPEC)
    i1, j1 = t1
    i2, j2 = t2
    for tab in (i1, j1, i2, j2):
        assert np.allclose(tab, tab.T, atol=1e-14)
    # pairwise summand invariant under (a,b) <-> (a',b')
    a, b, ap, bp = 0, 1, 1, 0
    forward = i1[a, ap] * j2[b, bp] + i2[b, bp] * j1[a, ap]
    backward = i1[ap, a] * j2[bp, b] + i2[bp, b] * j1[ap, a]
    assert forward == pytest.approx(backward, abs=1e-15)


def test_single_pair_reduces_to_product_of_axis_integrals():
    rng = np.random.default_rng(11)
    rho = np.empty((1, 1, 2, 2), dtype=complex)
    v = np.array([np.cos(0.4), np.sin(0.4)])
    rho[0, 0] = projector(v)
    e2 = Ensemble2D(q1=np.array([0.2]), p1=np.array([0.0]), w1=np.ones(1),
                    q2=np.array([-0.1]), p2=np.array([0.0]), w2=np.ones(1),
                    components=pauli_components(rho))
    t1, t2 = bohmion_pairs_factorized_2dof(e2, SPEC, SPEC,
                                           GridParams(n_q=8, j_q=4))
    i1, j1 = t1
    i2, j2 = t2
    # with a single unit-weight particle per axis: I = 2/alpha^2 (up to box
    # truncation) and J = the kernel mass on the box
    assert i1[0, 0] == pytest.approx(2.0 / ALPHA**2, rel=1e-3)
    assert j1[0, 0] == pytest.approx(1.0, rel=1e-3)
    coupling = bohmion_2dof_coupling(e2, t1, t2)
    c = 2.0 * 1.0 - 1.0   # pure state
    expected = c * (i1[0, 0] * j2[0, 0] + i2[0, 0] * j1[0, 0])
    assert coupling == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# The tables and couplings against their per-pair loops
# ---------------------------------------------------------------------------

def uneven_ensemble2d(seed=7):
    """Three particles on axis 1 and two on axis 2, so that a mixed-up axis
    or index shows as a wrong shape."""
    rng = np.random.default_rng(seed)
    n1, n2 = 3, 2
    rho = np.empty((n1, n2, 2, 2), dtype=complex)
    for a in range(n1):
        for b in range(n2):
            t, f = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            rho[a, b] = projector(np.array([np.cos(t / 2),
                                            np.exp(1j * f) * np.sin(t / 2)]))
    w1, w2 = rng.uniform(0.5, 1.0, n1), rng.uniform(0.5, 1.0, n2)
    return Ensemble2D(q1=rng.uniform(-0.6, 0.6, n1), p1=rng.uniform(-0.6, 0.6, n1),
                      w1=w1 / w1.sum(), q2=rng.uniform(-0.6, 0.6, n2),
                      p2=rng.uniform(-0.6, 0.6, n2), w2=w2 / w2.sum(),
                      components=pauli_components(rho))


def axis_tables_by_pair_loops(q, p, w, spec, params, scalar, matrix):
    """Per-axis tables from one quadrature per (a, b) pair, the loop that the
    Gram products of `backreaction._axis_tables` replace."""
    grid = build_grid(q, p, spec, params)
    n = q.shape[0]
    kq, dkq = kernel_rows(spec, q, grid.q_nodes)
    kp, dkp = kernel_rows(spec, p, grid.p_nodes)
    inv_d = backreaction._masked_inverse((w[:, None] * kq).T @ kp)
    qq = grid.q_nodes[:, None]
    pp = grid.p_nodes[None, :]
    f, fq, fp = on_points(qq, pp, scalar.f(qq, pp), scalar.df_dq(qq, pp),
                          scalar.df_dp(qq, pp))
    m = np.stack(on_points(qq, pp, *matrix.f(qq, pp)))
    mq = np.stack(on_points(qq, pp, *matrix.df_dq(qq, pp)))
    mp = np.stack(on_points(qq, pp, *matrix.df_dp(qq, pp)))
    i_scalar = np.zeros((n, n))
    j_scalar = np.zeros((n, n))
    i_matrix = np.zeros((n, n, 4))
    j_matrix = np.zeros((n, n, 4))
    fields_k = [np.outer(kq[a], kp[a]) for a in range(n)]
    fields_gq = [np.outer(dkq[a], kp[a]) for a in range(n)]
    fields_gp = [np.outer(kq[a], dkp[a]) for a in range(n)]
    for a in range(n):
        for b in range(n):
            base = fields_k[a] * inv_d
            bracket = fields_gq[b] * fp - fields_gp[b] * fq
            i_scalar[a, b] = quadrature(base * bracket, grid)
            j_scalar[a, b] = quadrature(base * fields_k[b] * f, grid)
            bracket_m = fields_gq[b][None] * mp - fields_gp[b][None] * mq
            i_matrix[a, b] = quadrature(
                np.moveaxis(base[None] * bracket_m, 0, -1), grid)
            j_matrix[a, b] = quadrature(
                np.moveaxis(base[None] * fields_k[b][None] * m, 0, -1), grid)
    return {"i_scalar": i_scalar, "j_scalar": j_scalar,
            "i_matrix": i_matrix, "j_matrix": j_matrix}


def koopmon_2dof_by_loops(e2, tables):
    n1, n2 = e2.shape
    s = np.moveaxis(e2.components[1:], 0, -1)
    w = e2.weights()
    t1, t2 = tables.axis1, tables.axis2
    total = 0.0
    for a in range(n1):
        for b in range(n2):
            for ap in range(n1):
                for bp in range(n2):
                    cvec = -2.0 * HBAR * np.cross(s[a, b], s[ap, bp])
                    ivec = (t1.i_matrix[a, ap, 1:] * t2.j_scalar[b, bp]
                            + t1.i_scalar[a, ap] * t2.j_matrix[b, bp, 1:]
                            + t2.i_scalar[b, bp] * t1.j_matrix[a, ap, 1:]
                            + t2.i_matrix[b, bp, 1:] * t1.j_scalar[a, ap])
                    total += 0.5 * w[a, b] * w[ap, bp] * 2.0 * float(cvec @ ivec)
    return total


def bohmion_2dof_by_loops(e2, tables1, tables2):
    i1, j1 = tables1
    i2, j2 = tables2
    comp = np.moveaxis(e2.components, 0, -1)
    w = e2.weights()
    n1, n2 = e2.shape
    total = 0.0
    for a in range(n1):
        for b in range(n2):
            for ap in range(n1):
                for bp in range(n2):
                    c = 4.0 * (comp[a, b, 0] * comp[ap, bp, 0]
                               + comp[a, b, 1:] @ comp[ap, bp, 1:]) - 1.0
                    total += w[a, b] * w[ap, bp] * c * (
                        i1[a, ap] * j2[b, bp] + i2[b, bp] * j1[a, ap])
    return float(total)


@pytest.mark.parametrize("make", [make_ensemble2d, uneven_ensemble2d])
def test_axis_tables_equal_the_pair_loops(make):
    e2 = make()
    ham = separable_hamiltonian()
    params = GridParams(n_q=5, n_p=5, j_q=3, j_p=3)
    tables = koopmon_pairs_factorized_2dof(e2, ham, SPEC, SPEC, params)
    for axis, (q, p, w, scalar, matrix) in (
            (tables.axis1, (e2.q1, e2.p1, e2.w1, ham.h1, ham.H1)),
            (tables.axis2, (e2.q2, e2.p2, e2.w2, ham.h2, ham.H2))):
        want = axis_tables_by_pair_loops(q, p, w, SPEC, params, scalar, matrix)
        for name, table in want.items():
            got = getattr(axis, name)
            assert got.shape == table.shape, name
            assert np.max(np.abs(got - table)) <= 1e-13 * np.max(np.abs(table)), name


@pytest.mark.parametrize("make", [make_ensemble2d, uneven_ensemble2d])
def test_assemble_on_index_arrays_is_bitwise_the_per_index_call(make):
    e2 = make()
    tables = koopmon_pairs_factorized_2dof(e2, separable_hamiltonian(), SPEC,
                                           SPEC)
    n1, n2 = e2.shape
    whole = tables.assemble(*np.ix_(range(n1), range(n2), range(n1), range(n2)))
    assert whole.shape == (n1, n2, n1, n2, 3)
    for a, b, ap, bp in np.ndindex(n1, n2, n1, n2):
        assert np.array_equal(whole[a, b, ap, bp], tables.assemble(a, b, ap, bp))


@pytest.mark.parametrize("make", [make_ensemble2d, uneven_ensemble2d])
def test_2dof_couplings_equal_the_multi_index_loops(make):
    e2 = make()
    tables = koopmon_pairs_factorized_2dof(e2, separable_hamiltonian(), SPEC,
                                           SPEC)
    want = koopmon_2dof_by_loops(e2, tables)
    assert abs(want) > 1e-6
    assert koopmon_2dof_coupling(e2, tables) == pytest.approx(want, rel=1e-13)
    t1, t2 = bohmion_pairs_factorized_2dof(e2, SPEC, SPEC)
    want = bohmion_2dof_by_loops(e2, t1, t2)
    assert abs(want) > 1e-6
    assert bohmion_2dof_coupling(e2, t1, t2) == pytest.approx(want, rel=1e-13)
