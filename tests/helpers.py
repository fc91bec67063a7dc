"""Shared construction and verification helpers for the test suite."""

import io
import tracemalloc

import numpy as np

from mqcdyn.backreaction import _box_rows, _bracket_tables, _line_rows
from mqcdyn.dynamics import MethodKind, energy, rhs
from mqcdyn.ensemble import (PSD_TOL, TRACE_TOL, WEIGHT_SUM_TOL,
                             ParticleEnsemble, Violation, _row_format,
                             write_snapshot)
from mqcdyn.models import (DEGENERACY_EPS, HBAR, HybridHamiltonian,
                           adiabatic_basis, on_points)
from mqcdyn.pauli import pauli_components, pauli_matrix, projector
from mqcdyn.regularization import KernelSpec, kernel_1d

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
HERM_BASIS = [IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z]

#: trace drift beyond which `rehermitize` renormalizes; the RK4 step never
#: writes the trace component, so no trace drifts at all
TRACE_RENORM_THRESHOLD = 1e-12


def hermitize(rho):
    """Hermitian part (A + A^dagger)/2, preserving shape ``(..., 2, 2)``."""
    return 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))


def rehermitize(rho):
    """Project onto Hermitian matrices and renormalize the trace where it
    has drifted beyond `TRACE_RENORM_THRESHOLD`.

    The minimal-norm repair of round-off in a complex rho; it does not touch
    the spectrum otherwise.  Only the drifted matrices are divided, so the
    others come back as the Hermitian projection returns them.  No time step
    calls it: `ParticleEnsemble` stores real Pauli components, whose density
    matrices are Hermitian by construction.
    """
    out = hermitize(rho)
    tr = (out[..., 0, 0] + out[..., 1, 1]).real
    drifted = np.abs(tr - 1.0) > TRACE_RENORM_THRESHOLD
    if np.any(drifted):
        out[drifted] /= tr[drifted][:, None, None]
    return out


def snapshot_string(e):
    """The text `write_snapshot` writes for the ensemble."""
    buf = io.StringIO()
    write_snapshot(e, buf)
    return buf.getvalue()


def csv_row(rec):
    """The line of a `DiagnosticsRecord` in the time series table."""
    values = rec._values()
    return _row_format(len(values)) % values


def from_rho(q, p, rho, w):
    """The `ParticleEnsemble` of the given (N, 2, 2) density matrices."""
    return ParticleEnsemble(q=q, p=p, components=pauli_components(rho), w=w)


def drho(d):
    """drho_a = ds_a . sigma for the derivative ``d`` of `rhs`, (N, 2, 2)."""
    return pauli_matrix(0.0, *d.ds)


def bloch_state(theta, phi=0.0):
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return projector(v)


def nan_past(q_cut):
    """A free particle with a constant two-level coupling whose dH/dq is NaN
    where q > q_cut: the motion is q0 + p t exactly until then."""
    return HybridHamiltonian(
        name="nan_past", mass=1.0,
        classical=lambda q, p: 0.5 * p**2,
        d_classical_q=lambda q, p: 0.0,
        d_classical_p=lambda q, p: p,
        interaction=lambda q: (0.0, 0.1, 0.0, 0.2),
        d_interaction=lambda q: (0.0, np.where(q > q_cut, np.nan, 0.0), 0.0, 0.0),
    )


def random_ensemble(n, seed, q0, p0, spread=0.5):
    rng = np.random.default_rng(seed)
    rho = np.stack([bloch_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    return ParticleEnsemble(q=q0 + spread * rng.standard_normal(n),
                            p=p0 + spread * rng.standard_normal(n),
                            components=pauli_components(rho),
                            w=np.full(n, 1.0 / n))


def fd_gradient_check(kind, e, h, spec, rtol=1e-5):
    """Verify that the analytic right-hand side is the w-scaled canonical
    gradient of the energy that RK4 integrates.

    Every energy evaluation builds its own default quadrature box from the
    (perturbed) state, as `rk4_step` does at every stage, so a box whose
    nodes move with the particles fails the check.

    Classical sector: dq/dt = dh/dp / w, dp/dt = -dh/dq / w via central
    differences of energy().  Quantum sector: reconstruct dh/drho_a from
    directional derivatives along the Hermitian basis (component mu of
    rho_a moved by +-step is rho_a +- step sigma_mu), then compare
    drho_a = ds_a . sigma with -(i/hbar) [dh/drho_a, rho_a] / w_a.
    """
    kind = MethodKind.parse(kind)
    deriv = rhs(kind, e, h, spec)
    rate = drho(deriv)
    rho = e.rho

    def h_at(q, p, comp):
        return energy(kind, ParticleEnsemble(q=q, p=p, components=comp, w=e.w),
                      h, spec)

    step = 1e-5
    scale = max(np.max(np.abs(deriv.dq)), np.max(np.abs(deriv.dp)),
                np.max(np.abs(rate)), 1e-8)
    comp = e.components
    for a in range(e.n):
        qp = e.q.copy(); qp[a] += step
        qm = e.q.copy(); qm[a] -= step
        dh_dq = (h_at(qp, e.p, comp) - h_at(qm, e.p, comp)) / (2 * step)
        pp = e.p.copy(); pp[a] += step
        pm = e.p.copy(); pm[a] -= step
        dh_dp = (h_at(e.q, pp, comp) - h_at(e.q, pm, comp)) / (2 * step)
        assert abs(deriv.dq[a] - dh_dp / e.w[a]) <= rtol * scale + 1e-12
        assert abs(deriv.dp[a] + dh_dq / e.w[a]) <= rtol * scale + 1e-12

        grad = np.zeros((2, 2), dtype=complex)
        for mu, basis in enumerate(HERM_BASIS):
            cp = comp.copy(); cp[mu, a] += step
            cm = comp.copy(); cm[mu, a] -= step
            direction = (h_at(e.q, e.p, cp) - h_at(e.q, e.p, cm)) / (2 * step)
            # <G, B> = Tr(G B); the Pauli basis is orthogonal with norm^2 = 2
            grad += direction * basis / 2.0
        expected_drho = -1j * (grad @ rho[a] - rho[a] @ grad) / e.w[a]
        assert np.max(np.abs(rate[a] - expected_drho)) <= rtol * scale + 1e-12


# ---------------------------------------------------------------------------
# Reference implementations the production code is checked against
# ---------------------------------------------------------------------------

def pauli(h, q, p):
    """Full Hamiltonian Pauli coefficients (h0, h1, h2, h3) of the model
    ``h`` at (q, p), float arrays of their broadcast shape."""
    return on_points(q, p, *h._coefficients(q, p, "h")[0])


def grad_q(h, q, p):
    """d/dq of the four Pauli coefficients."""
    return on_points(q, p, *h._coefficients(q, p, "q")[0])


def grad_p(h, q, p):
    """d/dp of the four Pauli coefficients (interaction is p-free)."""
    return on_points(q, p, *h._coefficients(q, p, "p")[0])


def matrix(h, q, p):
    """Dense 2x2 Hermitian matrix of the model at a phase-space point."""
    return pauli_matrix(*pauli(h, q, p))


def integral(field):
    """Trapezoid integral of a `DensityField` over both axes (per time slice
    for waterfall, the largest)."""
    if field.kind == "waterfall":
        return float(np.trapezoid(field.values, field.axis2, axis=1).max())
    return float(np.trapezoid(np.trapezoid(field.values, field.axis2, axis=1),
                              field.axis1))


def smoothed_cloud_by_formula(e, delta, q_nodes, p_nodes):
    """``sum_a w_a K_delta(q - q_a) K_delta(p - p_a)`` from one (N, n_q)
    and one (N, n_p) kernel table, unblocked."""
    spec = KernelSpec(alpha=delta)
    kq = kernel_1d(spec, np.asarray(q_nodes)[None, :] - e.q[:, None])
    kp = kernel_1d(spec, np.asarray(p_nodes)[None, :] - e.p[:, None])
    return (e.w[:, None] * kq).T @ kp


def waterfall_row_by_formula(e, delta, r_nodes):
    """``sum_a w_a K_delta(r - q_a)`` from one (N, n_r) kernel table,
    unblocked."""
    spec = KernelSpec(alpha=delta)
    return e.w @ kernel_1d(spec, np.asarray(r_nodes)[None, :] - e.q[:, None])


def validate_loop(e, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
    """`mqcdyn.ensemble.validate` as a loop over the particles, reading each
    check off the 2x2 matrix rho_a."""
    rho = e.rho
    trace = (rho[:, 0, 0] + rho[:, 1, 1]).real
    det = (rho[:, 0, 0] * rho[:, 1, 1] - rho[:, 0, 1] * rho[:, 1, 0]).real
    lowest = trace / 2.0 - np.sqrt(np.clip(trace**2 / 4.0 - det, 0.0, None))
    purity = np.einsum("aij,aji->a", rho, rho).real

    out = []
    for a in range(e.n):
        if abs(trace[a] - 1.0) > trace_tol:
            out.append(Violation(a, "trace", float(abs(trace[a] - 1.0))))
        if lowest[a] < -psd_tol:
            out.append(Violation(a, "positivity", float(-lowest[a])))
        if purity[a] < 0.5 - psd_tol or purity[a] > 1.0 + psd_tol:
            out.append(Violation(a, "purity_range",
                                 float(max(0.5 - purity[a], purity[a] - 1.0))))
        if e.w[a] <= 0.0:
            out.append(Violation(a, "weight_positive", float(-e.w[a])))

    wsum_dev = abs(float(np.sum(e.w)) - 1.0)
    if wsum_dev > WEIGHT_SUM_TOL:
        out.append(Violation(None, "weight_sum", wsum_dev))
    return out

def kernel_1d_deriv(spec, y):
    """d/dy of the 1D kernel, -2y/alpha^2 * Ktilde(y)."""
    y = np.asarray(y, dtype=float)
    return -2.0 * y / spec.alpha**2 * kernel_1d(spec, y)


def kernel_1d_deriv2(spec, y):
    """Second derivative of the 1D kernel."""
    y = np.asarray(y, dtype=float)
    a2 = spec.alpha**2
    return (4.0 * y**2 / a2**2 - 2.0 / a2) * kernel_1d(spec, y)


def koopmon_pairs(e, h, grid, spec):
    """Antisymmetric matrix-valued pair integrals in Pauli form, (N, N, 4).

    ``I_ab = (1/2) int (K_a {K_b, H} - K_b {K_a, H}) / sum_c w_c K_c``
    over the box, with the canonical bracket ``{K, H} = dK/dq dH/dp -
    dK/dp dH/dq``.  It is ``(A - A^T)/2`` for the bracket table
    ``A_ab = int K_a {K_b, H} / D``, so it is exactly antisymmetric and its
    diagonal exactly zero.
    """
    grid.check_coverage(e.q, e.p)
    rows, node_w = _box_rows(e.q, e.p, e.w, spec, grid)
    qq, pp = grid.q_nodes[:, None], grid.p_nodes[None, :]
    a = _bracket_tables(rows, node_w, grad_q(h, qq, pp), grad_p(h, qq, pp))
    values = 0.5 * (a - np.swapaxes(a, 1, 2))
    return np.moveaxis(values, 0, -1)


def koopmon_coupling_energy(e, table):
    """Backreaction energy (1/2) sum_ab w_a w_b Tr(i hbar [rho_a, rho_b] I_ab)
    for the `koopmon_pairs` table."""
    s = e.components[1:].T
    cross = np.cross(s[:, None, :], s[None, :, :])
    pair = -4.0 * HBAR * np.einsum("abk,abk->ab", cross, table[:, :, 1:])
    return 0.5 * float(np.einsum("a,b,ab->", e.w, e.w, pair))


def bohmion_pairs(e, grid, spec):
    """Symmetric scalar pair integrals (N, N)
    ``I_ab = int K'(r - q_a) K'(r - q_b) / sum_c w_c K(r - q_c) dr``.

    The Hamiltonian does not enter.  Computed as a Gram matrix, so the table
    is exactly symmetric and its diagonal nonnegative.
    """
    grid.check_coverage(e.q)
    _, dk, node_w = _line_rows(e.q, e.w, spec, grid)
    rows = dk * np.sqrt(node_w)[None, :]
    return rows @ rows.T


def bohmion_coupling_energy(e, table, mass):
    """Pair energy ``hbar^2/(8M) sum_ab w_a w_b (2 Tr(rho_a rho_b) - 1) I_ab``
    for the `bohmion_pairs` table."""
    comp = e.components.T
    c = 4.0 * (np.outer(comp[:, 0], comp[:, 0])
               + comp[:, 1:] @ comp[:, 1:].T) - 1.0
    return HBAR**2 / (8.0 * mass) * float(
        np.einsum("a,b,ab,ab->", e.w, e.w, c, table))


class DegeneratePotentialError(ValueError):
    """Raised by `nac` where the electronic gap vanishes."""


def nac(h, q):
    """Nonadiabatic coupling <v1 | dH_el/dq v2> / (lambda1 - lambda2) at one
    position, in the eigenvector phase convention of `adiabatic_basis`.

    Raises `DegeneratePotentialError` when the electronic gap vanishes.
    """
    lam1, lam2, v1, v2 = adiabatic_basis(h, float(q))
    gap = float(lam1) - float(lam2)
    if abs(gap) < DEGENERACY_EPS:
        raise DegeneratePotentialError(
            f"electronic levels degenerate at q={q!r}; coupling undefined")
    g0, g1, g2, g3 = grad_q(h, q, 0.0)
    dmat = pauli_matrix(float(g0), float(g1), float(g2), float(g3))
    num = np.vdot(v1, dmat @ v2)
    return float((num / gap).real)


def aggregate_density(e):
    """Ensemble-level density matrix, the weighted sum of the rho_a."""
    return np.einsum("a,aij->ij", e.w, e.rho)


def position_expectation(state):
    """<q> of a split-operator wave packet."""
    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    return float(np.sum(state.grid.r * dens) * state.grid.dr / state.norm())


def momentum_expectation(state):
    """<p> of a split-operator wave packet."""
    dens_k = np.sum(np.abs(state.psi_k) ** 2, axis=0)
    norm_k = np.sum(dens_k)
    return float(np.sum(state.grid.k * dens_k) / norm_k)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
