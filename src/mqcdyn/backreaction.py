"""Pairwise coupling integrals between trajectories.

Three families:

* phase-space pair integrals for the koopmon method (matrix-valued,
  antisymmetric in the particle indices),
* configuration-space pair integrals for the bohmion method (scalar,
  symmetric),
* the factorized two-degree-of-freedom forms, which reduce the 4D coupling
  integrals to sums of products of 2D (koopmon) or 1D (bohmion) integrals
  for Hamiltonians of the separable class
  ``H = H_c 1 + H_Q + h1(z1) H2(z2) + h2(z2) H1(z1)``.

The explicit N x N tables are exposed for testing and debugging; the
right-hand-side evaluation used by the integrator goes through aggregated
kernel fields instead, which is algebraically identical but costs
O(N * grid) rather than O(N^2 * grid).

`koopmon_terms` spends its time in five matrix products, 21 N nq np
multiply-adds in all for N particles on the nq x np nodes where some kernel
is nonzero.  The kernel rows are built once per axis: the q rows stacked as
[kq; dkq] (2N, nq), the p rows side by side as [kp | dkp | ddkp] (N, 3 np),
so that [kp | dkp] and [dkp | ddkp] are column slices.  The products are

* [w kq | w s_1 kq | w s_2 kq | w s_3 kq]^T kp: the mixture denominator and
  the three aggregates sum_b w_b s_b K_b (4 N nq np),
* [w s_m kq]^T dkp: the three momentum-derivative aggregates (3 N nq np),
* [kp | dkp] and [dkp | ddkp] times one (2 np, 3 nq) block of the six
  weighted fields: every p-stage of the forces and the quantum field
  (2 x 6 N nq np), each finished by a row-wise contraction with kq or dkq,
* [kq; dkq] times the denominator-derivative field (2 N nq np).

All formulas below use the half Bloch vectors ``s_a = Tr(rho_a sigma)/2``;
with hbar = 1 the commutator pairing is
``Tr(i hbar [rho_a, rho_b] A) = -4 hbar (s_a x s_b) . avec`` for a traceless
Hermitian ``A = avec . sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import Ensemble2D, ParticleEnsemble
from .models import HybridHamiltonian
from .pauli import PauliVector, pauli_decompose
from .regularization import (DENOMINATOR_FLOOR, Grid1D, GridParams, KernelSpec,
                             QuadratureGrid, build_grid, build_grid_1d,
                             trapezoid_1d, trapezoid_2d)

HBAR = 1.0


@dataclass(frozen=True)
class PairIntegralTable:
    """N x N table of coupling integrals.

    ``values`` has shape (N, N, 4) in Pauli form for the koopmon table and
    (N, N) for the scalar bohmion table.
    """

    values: np.ndarray
    kind: str


def _kernel_rows(spec: KernelSpec, centers: np.ndarray, nodes: np.ndarray,
                 n_rows: int = 2):
    """Kernel value and derivative matrices K(node - center) and K', plus
    K'' when ``n_rows`` is 3; each of shape (N, n_nodes).

    Tails beyond the subnormal range are flushed to exact zero: their
    contribution to any accumulated integral is below the resolution of a
    double, and exact zeros keep the far tails out of the arithmetic.
    """
    y = nodes[None, :] - centers[:, None]
    a2 = spec.alpha**2
    t = y * y / a2
    k = np.zeros_like(t)
    np.exp(-t, out=k, where=t < 700.0)
    k /= spec.alpha * np.sqrt(np.pi)
    rows = [k, (-2.0 / a2) * y * k]
    if n_rows == 3:
        rows.append((4.0 / (a2 * a2) * y * y - 2.0 / a2) * k)
    return rows


def _active_block(spec: KernelSpec, centers: np.ndarray, nodes: np.ndarray,
                  weights: np.ndarray, n_rows: int, axis: int):
    """Kernel rows of `_kernel_rows` at the nodes where some kernel is
    nonzero, joined along ``axis`` (0 stacks them, 1 lays them side by side),
    with those nodes and their quadrature weights."""
    rows = _kernel_rows(spec, centers, nodes, n_rows)
    active = rows[0].any(axis=0)
    block = np.concatenate([r[:, active] for r in rows], axis=axis)
    return block, nodes[active], weights[active]


def _cross3(a, b):
    """Cross product of two 3-component field lists (broadcast per entry)."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _masked_inverse(den: np.ndarray) -> np.ndarray:
    """1/den where den is representable, else 0 (the integrand vanishes there)."""
    mask = den > DENOMINATOR_FLOOR
    out = np.zeros_like(den)
    np.divide(1.0, den, out=out, where=mask)
    return out


def _hamiltonian_fields_on(h: HybridHamiltonian, q_nodes: np.ndarray,
                           p_nodes: np.ndarray):
    """Pauli coefficients of dH/dq and dH/dp on a tensor grid of nodes."""
    qq = q_nodes[:, None]
    pp = p_nodes[None, :]
    shape = (len(q_nodes), len(p_nodes))
    gq = np.stack([np.broadcast_to(c, shape).astype(float)
                   for c in h.grad_q(qq, pp)])
    gp = np.stack([np.broadcast_to(c, shape).astype(float)
                   for c in h.grad_p(qq, pp)])
    return gq, gp


# ---------------------------------------------------------------------------
# Explicit pair tables
# ---------------------------------------------------------------------------

def koopmon_pairs(e: ParticleEnsemble, h: HybridHamiltonian,
                  grid: QuadratureGrid, spec: KernelSpec) -> PairIntegralTable:
    """Antisymmetric matrix-valued pair integrals in Pauli form.

    ``I_ab = (1/2) int (K_a {K_b, H} - K_b {K_a, H}) / sum_c w_c K_c``
    over the box, with the canonical bracket ``{K, H} = dK/dq dH/dp -
    dK/dp dH/dq``.  Only the upper triangle is evaluated; the lower is
    filled by antisymmetry and the diagonal is exactly zero.
    """
    grid.check_coverage(e.q, e.p)
    n = e.n
    kq, dkq = _kernel_rows(spec, e.q, grid.q_nodes)
    kp, dkp = _kernel_rows(spec, e.p, grid.p_nodes)
    inv_d = _masked_inverse((e.w[:, None] * kq).T @ kp)
    gq, gp = _hamiltonian_fields_on(h, grid.q_nodes, grid.p_nodes)

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
            vals = trapezoid_2d(np.moveaxis(integrand, 0, -1), grid)
            values[a, b] = vals
            values[b, a] = -vals
    return PairIntegralTable(values=values, kind="koopmon")


def koopmon_coupling_energy(e: ParticleEnsemble, table: PairIntegralTable) -> float:
    """Backreaction energy (1/2) sum_ab w_a w_b Tr(i hbar [rho_a, rho_b] I_ab)."""
    s = pauli_decompose(e.rho)[:, 1:]
    cross = np.cross(s[:, None, :], s[None, :, :])
    pair = -4.0 * HBAR * np.einsum("abk,abk->ab", cross, table.values[:, :, 1:])
    return 0.5 * float(np.einsum("a,b,ab->", e.w, e.w, pair))


def bohmion_pairs(e: ParticleEnsemble, grid: Grid1D,
                  spec: KernelSpec) -> PairIntegralTable:
    """Symmetric scalar pair integrals
    ``I_ab = int K'(r - q_a) K'(r - q_b) / sum_c w_c K(r - q_c) dr``.

    The Hamiltonian does not enter.  Computed as a Gram matrix, so the table
    is exactly symmetric and its diagonal nonnegative.
    """
    k, dk = _kernel_rows(spec, e.q, grid.nodes)
    den = e.w @ k
    weight = grid.weights * _masked_inverse(den)
    rows = dk * np.sqrt(weight)[None, :]
    return PairIntegralTable(values=rows @ rows.T, kind="bohmion")


def bohmion_coupling_energy(e: ParticleEnsemble, table: PairIntegralTable,
                            mass: float) -> float:
    """Pair energy ``hbar^2/(8M) sum_ab w_a w_b (2 Tr(rho_a rho_b) - 1) I_ab``."""
    comp = pauli_decompose(e.rho)
    c = 4.0 * (np.outer(comp[:, 0], comp[:, 0])
               + comp[:, 1:] @ comp[:, 1:].T) - 1.0
    return HBAR**2 / (8.0 * mass) * float(
        np.einsum("a,b,ab,ab->", e.w, e.w, c, table.values))


# ---------------------------------------------------------------------------
# Aggregated-field evaluation (production path for the dynamics)
# ---------------------------------------------------------------------------

@dataclass
class KoopmonTerms:
    """Backreaction contributions entering the koopmon equations of motion.

    ``dqdot_extra``/``dpdot_extra`` add to the mean-field drift of qdot and
    pdot; ``heff_vec`` is the traceless Pauli vector added to the local
    Hamiltonian field driving each quantum state; ``energy`` is the value of
    the coupling term itself.
    """

    energy: float
    dqdot_extra: np.ndarray
    dpdot_extra: np.ndarray
    heff_vec: np.ndarray


def koopmon_terms(e: ParticleEnsemble, h: HybridHamiltonian,
                  grid: QuadratureGrid, spec: KernelSpec) -> KoopmonTerms:
    """Coupling energy, forces and effective quantum fields for the ensemble.

    Equivalent to assembling the full pair table and differentiating it under
    the integral sign (closed-form Gaussian derivatives, including the kernel
    inside the mixture denominator), but organized through aggregated fields
    so the cost is O(N * grid) instead of O(N^2 * grid).  The energy comes
    out of the same pass as the forces; ``dynamics.rhs`` returns both.

    The interaction of a `HybridHamiltonian` does not depend on p, so dH/dp
    has no traceless part and only dH/dq enters the brackets.
    """
    grid.check_coverage(e.q, e.p)
    if e.n == 1:
        # the self-integral vanishes identically (antisymmetric integrand),
        # so a single koopmon follows the bare mean-field flow bit for bit
        return KoopmonTerms(energy=0.0, dqdot_extra=np.zeros(1),
                            dpdot_extra=np.zeros(1), heff_vec=np.zeros((1, 3)))
    n = e.n
    s = pauli_decompose(e.rho)[:, 1:]
    w = e.w

    # every integrand term carries at least one kernel factor per axis, so
    # nodes where all kernels underflow to exact zero contribute nothing;
    # dropping them keeps the result and saves a split-cloud-sized box.
    # q rows are stacked, [kq; dkq]; p rows sit side by side, [kp|dkp|ddkp]
    q_rows, q_nodes, wq = _active_block(spec, e.q, grid.q_nodes,
                                        grid.trap_weights_q(), 2, axis=0)
    p_rows, p_nodes, wp = _active_block(spec, e.p, grid.p_nodes,
                                        grid.trap_weights_p(), 3, axis=1)
    n_q, n_p = len(q_nodes), len(p_nodes)
    kq, dkq = q_rows[:n], q_rows[n:]
    kp, dkp = p_rows[:, :n_p], p_rows[:, n_p:2 * n_p]

    # mixture denominator sum_b w_b K_b and the aggregates
    # sk_m = sum_b w_b s_bm K_b in one product, sgp_m = sum_b w_b s_bm
    # Kq_b dKp_b/dp in another
    wkq = np.concatenate([w[:, None], w[:, None] * s], axis=1)[:, :, None] \
        * kq[:, None, :]
    wkq = wkq.reshape(n, 4 * n_q)
    den_sk = (wkq.T @ kp).reshape(4, n_q, n_p)
    sk = den_sk[1:]
    sgp = (wkq[:, n_q:].T @ dkp).reshape(3, n_q, n_p)

    inv_d = _masked_inverse(den_sk[0])
    inv_dw = inv_d * wq[:, None]
    inv_dw *= wp[None, :]

    # Hamiltonian gradient components stay in broadcastable shape (many are
    # constants or functions of one coordinate only)
    gq_vec = list(h.grad_q(q_nodes[:, None], p_nodes[None, :]))[1:]
    b1 = _cross3(gq_vec, sgp)     # = -(sgp x gq_vec)

    s_field = -2.0 * HBAR * sum(sk[m] * b1[m] for m in range(3))
    energy = float(np.sum(s_field * inv_dw))

    # per-particle integrals sum_{q,p} rows_q[e,q] field[q,p] rows_p[e,p],
    # split into a p-stage (rows_p @ field.T) and a q-stage.  Row block m of
    # `fields` is [f1_m | f2q_m] with f1 = b1 / D and f2q = (sk x gq) / D,
    # both times the quadrature weights, so [kp|dkp] and [dkp|ddkp] times
    # it give kp f1_m + dkp f2q_m and dkp f1_m + ddkp f2q_m for all m
    fields = np.empty((3, n_q, 2 * n_p))
    f2q = _cross3(sk, gq_vec)
    for m in range(3):
        np.multiply(b1[m], inv_dw, out=fields[m, :, :n_p])
        np.multiply(f2q[m], inv_dw, out=fields[m, :, n_p:])
    fields = fields.reshape(3 * n_q, 2 * n_p).T
    stage_k = (p_rows[:, :2 * n_p] @ fields).reshape(n, 3, n_q)
    stage_dk = (p_rows[:, n_p:] @ fields).reshape(n, 3, n_q)
    # the denominator term: [kq; dkq] @ fs2 gives kq fs2 and dkq fs2
    fs2 = s_field * inv_d * inv_dw
    stage_fs2 = q_rows @ fs2

    # gradient of the coupling term w.r.t. the particle coordinates, already
    # divided by the weights: d(q_e)/dt gains +dB/dp_e/w_e, d(p_e)/dt gains
    # -dB/dq_e/w_e
    grad_q_sum = -np.einsum("eq,emq->em", dkq, stage_k)
    grad_p_sum = -np.einsum("eq,emq->em", kq, stage_dk)
    db_dq = -2.0 * HBAR * np.sum(s * grad_q_sum, axis=1) \
        + np.sum(stage_fs2[n:] * kp, axis=1)
    db_dp = -2.0 * HBAR * np.sum(s * grad_p_sum, axis=1) \
        + np.sum(stage_fs2[:n] * dkp, axis=1)

    # effective quantum field: H_vec(z_e) - 2 hbar sum_b w_b (s_b x I_eb)
    heff = -HBAR * np.einsum("eq,emq->em", kq, stage_k)

    return KoopmonTerms(energy=energy, dqdot_extra=db_dp, dpdot_extra=-db_dq,
                        heff_vec=heff)


@dataclass
class BohmionTerms:
    """Quantum-potential contributions to the bohmion equations of motion."""

    energy: float
    dpdot_extra: np.ndarray
    heff_vec: np.ndarray


def bohmion_terms(e: ParticleEnsemble, mass: float, grid: Grid1D,
                  spec: KernelSpec) -> BohmionTerms:
    """Pair energy, forces and effective fields via aggregated 1D fields."""
    comp = pauli_decompose(e.rho)
    s0 = comp[:, 0]
    s = comp[:, 1:]
    w = e.w

    k, dk, ddk = _kernel_rows(spec, e.q, grid.nodes, 3)
    inv_d = _masked_inverse(w @ k)
    u = w @ dk
    vg0 = (w * s0) @ dk
    vg = ((w[:, None] * s).T @ dk)  # (3, n_nodes)
    t_field = 4.0 * vg0**2 + 4.0 * np.einsum("km,km->m", vg, vg) - u**2

    pref = HBAR**2 / (8.0 * mass)
    energy = pref * trapezoid_1d(t_field * inv_d, grid)

    wts = grid.weights
    # d/dq_e of the pair sum; center derivatives are minus the grid ones
    c_e_field = (4.0 * s0[:, None] * vg0[None, :]
                 + 4.0 * s @ vg - u[None, :])  # (N, n_nodes)
    num = -2.0 * np.sum(ddk * c_e_field * (inv_d * wts)[None, :], axis=1)
    den = np.sum(dk * (t_field * inv_d * inv_d * wts)[None, :], axis=1)
    dpdot_extra = -pref * (num + den)

    # effective field: H_vec(z_e) + hbar^2/(2M) sum_b w_b I_eb s_b
    ivec = (dk * (inv_d * wts)[None, :]) @ vg.T  # (N, 3)
    heff = HBAR**2 / (2.0 * mass) * ivec

    return BohmionTerms(energy=energy, dpdot_extra=dpdot_extra, heff_vec=heff)


# ---------------------------------------------------------------------------
# Two classical degrees of freedom: factorized coupling integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFactor:
    """Scalar phase-space factor with its partial derivatives."""

    f: Callable
    df_dq: Callable
    df_dp: Callable


@dataclass(frozen=True)
class MatrixFactor:
    """Matrix-valued factor in Pauli form with partial derivatives.

    Each callable maps (q, p) to the four Pauli coefficient arrays.
    """

    f: Callable
    df_dq: Callable
    df_dp: Callable


def constant_matrix_factor(h0=0.0, h1=0.0, h2=0.0, h3=0.0) -> MatrixFactor:
    def val(q, p):
        z = 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p, dtype=float)
        return h0 + z, h1 + z, h2 + z, h3 + z

    def zero(q, p):
        z = 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p, dtype=float)
        return z, z, z, z

    return MatrixFactor(f=val, df_dq=zero, df_dp=zero)


def zero_scalar_factor() -> ScalarFactor:
    def zero(q, p):
        return 0.0 * np.asarray(q, dtype=float) + 0.0 * np.asarray(p, dtype=float)

    return ScalarFactor(f=zero, df_dq=zero, df_dp=zero)


@dataclass(frozen=True)
class Hamiltonian2DOF:
    """Separable two-degree-of-freedom Hamiltonian
    ``H = H_c(z1, z2) 1 + H_Q + h1(z1) H2(z2) + h2(z2) H1(z1)``.

    ``h_c`` only shifts the identity component and drops from the commutator
    coupling; it is kept for brute-force cross-checks.  ``h_q`` is the
    constant quantum part.
    """

    h1: ScalarFactor
    H2: MatrixFactor
    h2: ScalarFactor
    H1: MatrixFactor
    h_q: PauliVector = PauliVector(0.0, 0.0, 0.0, 0.0)
    h_c: Callable | None = None

    def pauli(self, q1, p1, q2, p2):
        """Full Pauli coefficients on a broadcastable set of points."""
        a1 = np.asarray(self.h1.f(q1, p1), dtype=float)
        a2 = np.asarray(self.h2.f(q2, p2), dtype=float)
        m2 = [np.asarray(c, dtype=float) for c in self.H2.f(q2, p2)]
        m1 = [np.asarray(c, dtype=float) for c in self.H1.f(q1, p1)]
        hq = (self.h_q.h0, self.h_q.h1, self.h_q.h2, self.h_q.h3)
        out = [a1 * m2[k] + a2 * m1[k] + hq[k] for k in range(4)]
        if self.h_c is not None:
            out[0] = out[0] + self.h_c(q1, p1, q2, p2)
        return tuple(out)


@dataclass(frozen=True)
class AxisTables:
    """Per-axis pair integral tables for one classical degree of freedom."""

    i_scalar: np.ndarray   # int K_s {K_s', h_l} / D
    j_scalar: np.ndarray   # int K_s K_s' h_l / D
    i_matrix: np.ndarray   # same with the matrix factor, Pauli components last
    j_matrix: np.ndarray


def _axis_tables(q: np.ndarray, p: np.ndarray, w: np.ndarray,
                 spec: KernelSpec, params: GridParams,
                 scalar: ScalarFactor, matrix: MatrixFactor) -> AxisTables:
    grid = build_grid(q, p, spec, params)
    n = q.shape[0]
    kq, dkq = _kernel_rows(spec, q, grid.q_nodes)
    kp, dkp = _kernel_rows(spec, p, grid.p_nodes)
    inv_d = _masked_inverse((w[:, None] * kq).T @ kp)

    qq = grid.q_nodes[:, None]
    pp = grid.p_nodes[None, :]
    sh = grid.shape
    f = np.broadcast_to(np.asarray(scalar.f(qq, pp), dtype=float), sh)
    fq = np.broadcast_to(np.asarray(scalar.df_dq(qq, pp), dtype=float), sh)
    fp = np.broadcast_to(np.asarray(scalar.df_dp(qq, pp), dtype=float), sh)
    m = np.stack([np.broadcast_to(c, sh).astype(float) for c in matrix.f(qq, pp)])
    mq = np.stack([np.broadcast_to(c, sh).astype(float) for c in matrix.df_dq(qq, pp)])
    mp = np.stack([np.broadcast_to(c, sh).astype(float) for c in matrix.df_dp(qq, pp)])

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
            i_scalar[a, b] = trapezoid_2d(base * bracket, grid)
            j_scalar[a, b] = trapezoid_2d(base * fields_k[b] * f, grid)
            bracket_m = fields_gq[b][None] * mp - fields_gp[b][None] * mq
            i_matrix[a, b] = trapezoid_2d(
                np.moveaxis(base[None] * bracket_m, 0, -1), grid)
            j_matrix[a, b] = trapezoid_2d(
                np.moveaxis(base[None] * fields_k[b][None] * m, 0, -1), grid)
    return AxisTables(i_scalar=i_scalar, j_scalar=j_scalar,
                      i_matrix=i_matrix, j_matrix=j_matrix)


@dataclass(frozen=True)
class FactorizedTables2DOF:
    axis1: AxisTables
    axis2: AxisTables

    def assemble(self, a: int, b: int, ap: int, bp: int) -> np.ndarray:
        """Traceless Pauli vector of the assembled coupling integral
        ``I_{ab,a'b'}`` (the identity-proportional part is never formed)."""
        t1, t2 = self.axis1, self.axis2
        vec = (t1.i_matrix[a, ap, 1:] * t2.j_scalar[b, bp]
               + t1.i_scalar[a, ap] * t2.j_matrix[b, bp, 1:]
               + t2.i_scalar[b, bp] * t1.j_matrix[a, ap, 1:]
               + t2.i_matrix[b, bp, 1:] * t1.j_scalar[a, ap])
        return vec


def koopmon_pairs_factorized_2dof(e2: Ensemble2D, ham: Hamiltonian2DOF,
                                  spec1: KernelSpec, spec2: KernelSpec,
                                  params: GridParams = GridParams()
                                  ) -> FactorizedTables2DOF:
    """Per-axis tables {I_l, J_l, Ihat_l, Jhat_l} over 2D grids only."""
    axis1 = _axis_tables(e2.q1, e2.p1, e2.w1, spec1, params, ham.h1, ham.H1)
    axis2 = _axis_tables(e2.q2, e2.p2, e2.w2, spec2, params, ham.h2, ham.H2)
    return FactorizedTables2DOF(axis1=axis1, axis2=axis2)


def koopmon_2dof_coupling(e2: Ensemble2D, tables: FactorizedTables2DOF) -> float:
    """Coupling energy
    ``(1/2) sum w_k w_k' Tr(i hbar [rho_k, rho_k'] I_kk')`` over multi-indices
    ``k = (a, b)``, evaluated from the factorized tables."""
    n1, n2 = e2.shape
    s = pauli_decompose(e2.rho)[..., 1:]
    w = e2.weights()
    total = 0.0
    for a in range(n1):
        for b in range(n2):
            for ap in range(n1):
                for bp in range(n2):
                    cvec = -2.0 * HBAR * np.cross(s[a, b], s[ap, bp])
                    ivec = tables.assemble(a, b, ap, bp)
                    total += 0.5 * w[a, b] * w[ap, bp] * 2.0 * float(cvec @ ivec)
    return total


def bohmion_pairs_factorized_2dof(e2: Ensemble2D, spec1: KernelSpec,
                                  spec2: KernelSpec,
                                  params: GridParams = GridParams()):
    """Per-axis 1D tables {I_l, J_l} for the two-DOF bohmion coupling."""
    out = []
    for q, w, spec in ((e2.q1, e2.w1, spec1), (e2.q2, e2.w2, spec2)):
        grid = build_grid_1d(q, spec, params)
        k, dk = _kernel_rows(spec, q, grid.nodes)
        inv_d = _masked_inverse(w @ k)
        wts = grid.weights * inv_d
        i_tab = (dk * wts[None, :]) @ dk.T
        j_tab = (k * wts[None, :]) @ k.T
        out.append((i_tab, j_tab))
    return out[0], out[1]


def bohmion_2dof_coupling(e2: Ensemble2D, tables1, tables2) -> float:
    """``sum w_k w_k' (2<rho_k, rho_k'> - 1)(I1 J2 + I2 J1)``."""
    i1, j1 = tables1
    i2, j2 = tables2
    comp = pauli_decompose(e2.rho)
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
