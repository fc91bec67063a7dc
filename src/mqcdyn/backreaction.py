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

Only the two-degree-of-freedom forms build explicit N x N tables, per axis.
Each is a Gram product of kernel rows over the whole box (``K_a``,
``dK_a/dq``, ``dK_a/dp``), a GEMM or two per field: O(N * grid) memory,
O(N^2 * grid) work.  The right-hand side that the integrator uses goes
through aggregated kernel fields instead, algebraically identical at
O(N * patch + grid); the explicit one-DOF tables it is checked against are
test oracles in ``tests/helpers.py``.

Every kernel row comes from `regularization.kernel_rows`, which cuts the
kernel off at ``_KERNEL_CUTOFF sigma_K``, so a particle's kernel rows are
nonzero only on the nodes of its patch, a square of side 18 sigma_K.
`koopmon_terms` makes its cost follow those patches rather than the box: it
sorts the particles along the box axis with more nodes and cuts them into
blocks of `_PARTICLE_BLOCK`.  A block's window is the range of nodes within
the cutoff radius of its particles, per axis and clipped to the box; outside
it all of the block's rows are exact zeros.  For a block of B particles on a
wq x wp window, the q rows are stacked as [kq; dkq] (2B, wq) and the p rows
laid side by side as [kp | dkp | ddkp] (B, 3 wp), so that [kp | dkp] and
[dkp | ddkp] are column slices.

The Bloch vectors meet dH/dq only in the cross product g x s of its traceless
part g with them, so only the *active* components m, those with a nonzero
g_j for some j != m, take part.  A component counts as zero when the model
returns it as the scalar zero (see `HybridHamiltonian._coefficients`).  With
a active components, two passes over the blocks make (6a + 3) B wq wp
multiply-adds per block in all.  dH/dq of tully3 is a multiple of sigma_x and
that of rabi_us and rabi_ds a multiple of sigma_z, so a = 2 (15); tully1 and
tully2 have a = 3 (21); a model without a traceless dH/dq has a = 0 and no
coupling at all:

* pass 1 adds [w kq | w s_m kq]^T kp (the mixture denominator and the
  aggregates sum_b w_b s_bm K_b of the active m, (1 + a) B wq wp) and
  [w s_m kq]^T dkp (the momentum-derivative aggregates, a B wq wp) into
  (nq, np) arrays on the box;
* the weighted fields are then formed once on the box, O(nq np), each in
  place of the aggregate that is read last to make it, so the (1 + 2a, nq,
  np) array of pass 1 holds the fields of pass 2 (see `koopmon_terms`);
* pass 2 multiplies [kp | dkp] and [dkp | ddkp] by the block's window of the
  2a weighted fields, gathered as one (2 wp, a wq) block, for every p-stage
  of the forces and the quantum field (2 x 2a B wq wp), each finished by a
  row-wise contraction with kq or dkq, and [kq; dkq] by the window of the
  denominator-derivative field (2 B wq wp).

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
from .models import HBAR, HybridHamiltonian, _cross, _is_zero, on_points
from .regularization import (_KERNEL_CUTOFF, DENOMINATOR_FLOOR, GridParams,
                             KernelSpec, Lattice, QuadratureGrid, build_grid,
                             build_grid_1d, kernel_rows, quadrature)

#: Particles per block of `koopmon_terms`.
_PARTICLE_BLOCK = 64


def _windows(nodes: np.ndarray, centers: np.ndarray, starts: np.ndarray,
             radius: float) -> list:
    """For each block of ``centers`` (blocks begin at ``starts``), the slice
    of the sorted ``nodes`` within ``radius`` of the block's range."""
    lo = np.searchsorted(nodes, np.minimum.reduceat(centers, starts) - radius)
    hi = np.searchsorted(nodes, np.maximum.reduceat(centers, starts) + radius,
                         "right")
    return [slice(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def _masked_inverse(den: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """1/den where den is representable, else 0 (the integrand vanishes there),
    written into ``out`` when given; ``out`` may be ``den`` itself."""
    mask = den > DENOMINATOR_FLOOR
    if out is None:
        out = np.zeros_like(den)
    else:
        np.copyto(out, 0.0, where=~mask)
    np.divide(1.0, den, out=out, where=mask)
    return out


# ---------------------------------------------------------------------------
# Explicit pair tables
# ---------------------------------------------------------------------------

def _box_rows(q: np.ndarray, p: np.ndarray, w: np.ndarray, spec: KernelSpec,
              grid: QuadratureGrid):
    """Kernel rows of the particles at (q, p) on the whole 2D box, flattened
    over its nodes: ``[K, dK/dq, dK/dp]``, each (N, n_q n_p) with
    ``K_a = kq_a (x) kp_a``, and the node weights, the trapezoid weights over
    the mixture denominator ``sum_c w_c K_c``."""
    kq, dkq = kernel_rows(spec, q, grid.q_nodes)
    kp, dkp = kernel_rows(spec, p, grid.p_nodes)
    rows = [(a[:, :, None] * b[:, None, :]).reshape(q.size, -1)
            for a, b in ((kq, kp), (dkq, kp), (kq, dkp))]
    node_w = np.outer(grid.q.weights, grid.p.weights) \
        * _masked_inverse((w[:, None] * kq).T @ kp)
    return rows, node_w.ravel()


def _bracket_tables(rows, node_w: np.ndarray, f_q, f_p) -> np.ndarray:
    """``int K_a {K_b, f} / D`` (n_fields, N, N) for the fields f of the box
    whose derivatives are the (n_q, n_p) arrays of ``f_q`` and ``f_p``."""
    k, k_q, k_p = rows
    return np.stack([(k * (node_w * fp.ravel())) @ k_q.T
                     - (k * (node_w * fq.ravel())) @ k_p.T
                     for fq, fp in zip(f_q, f_p)])


def _product_tables(rows, node_w: np.ndarray, f) -> np.ndarray:
    """``int K_a K_b f / D`` (n_fields, N, N) for the (n_q, n_p) fields f."""
    k = rows[0]
    return np.stack([(k * (node_w * fm.ravel())) @ k.T for fm in f])


def _line_rows(q: np.ndarray, w: np.ndarray, spec: KernelSpec, grid: Lattice):
    """Kernel rows ``K`` and ``K'`` of the particles at q on a 1D box, and
    the node weights, the trapezoid weights over ``sum_c w_c K_c``."""
    k, dk = kernel_rows(spec, q, grid.nodes)
    return k, dk, grid.weights * _masked_inverse(w @ k)


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
    over blocks of particles (see the module docstring), so the cost is
    O(N * patch + grid) instead of O(N^2 * grid): (6a + 3) B wq wp
    multiply-adds per block for a active Bloch components, a = 2 on tully3,
    rabi_us and rabi_ds and a = 3 on tully1 and tully2.  ``heff_vec`` is
    exactly zero on the other components.  The energy comes out of the same
    pass as the forces; ``dynamics.rhs`` returns both.

    The interaction of a `HybridHamiltonian` does not depend on p, so dH/dp
    has no traceless part and only dH/dq enters the brackets.

    Memory: besides every block's kernel rows, O(N * patch), the call holds
    one (1 + 2a, n_q, n_p) array on the box.  Pass 1 fills it with the
    mixture denominator D and the aggregates sk and sgp; the fields of
    pass 2 then overwrite them in place, D with 1/D and then the
    denominator-derivative field fs2, sgp with f2q and sk with f1.  Only
    four other kinds of box array exist, none of them in pass 2: inv_dw,
    s_field, one scratch array and the a components of b1, which the sk
    slots take over.  A component of b1 or f2q with two products (tully1
    and tully2) allocates one more while it is formed.  Pass 2 copies each
    block's window of the fields, which is the whole box for a block that
    straddles a gap.  On the 81 x 252 box of a 200-particle tully3 cloud
    split in p, one call traces a 2.7 MB peak.
    """
    grid.check_coverage(e.q, e.p)
    n = e.n
    # traceless dH/dq on the box as the model returns it: a component that
    # is the scalar zero stays one, and `active` lists the Bloch components
    # m that g x s reaches through a nonzero g_j, j != m
    g = h._coefficients(grid.q_nodes[:, None], grid.p_nodes[None, :],
                        "q")[0][1:]
    active = [m for m in range(3)
              if any(not _is_zero(g[j]) for j in range(3) if j != m)]
    if n == 1 or not active:
        # a single koopmon's self-integral vanishes identically (antisymmetric
        # integrand), so it follows the bare mean-field flow bit for bit; a
        # model without a traceless dH/dq has no bracket to integrate
        return KoopmonTerms(energy=0.0, dqdot_extra=np.zeros(n),
                            dpdot_extra=np.zeros(n), heff_vec=np.zeros((n, 3)))
    a = len(active)
    n_q, n_p = grid.shape
    # particles sorted along the longer box axis, in blocks of
    # _PARTICLE_BLOCK from `starts`, each with its node window per axis
    order = np.argsort(e.q if n_q >= n_p else e.p, kind="stable")
    q, p = e.q[order], e.p[order]
    s = e.components[1:][active][:, order].T
    ws = np.concatenate([e.w[order, None], e.w[order, None] * s], axis=1)
    starts = np.arange(0, n, _PARTICLE_BLOCK)
    radius = _KERNEL_CUTOFF * spec.sigma_k
    blocks = [(slice(i, i + _PARTICLE_BLOCK), qw, pw) for i, qw, pw in zip(
        starts.tolist(), _windows(grid.q_nodes, q, starts, radius),
        _windows(grid.p_nodes, p, starts, radius))]

    # pass 1: mixture denominator sum_b w_b K_b, the aggregates
    # sk_m = sum_b w_b s_bm K_b and sgp_m = sum_b w_b s_bm Kq_b dKp_b/dp of
    # the active m, each block adding its two products on its window.
    # Kernel rows are kept for pass 2: q rows stacked, [kq; dkq], p rows
    # side by side, [kp|dkp|ddkp]
    agg = np.zeros((1 + 2 * a, n_q, n_p))
    rows = []
    for blk, qw, pw in blocks:
        q_rows = kernel_rows(spec, q[blk], grid.q_nodes[qw])
        p_rows = np.concatenate(
            kernel_rows(spec, p[blk], grid.p_nodes[pw], 3), axis=1)
        _, b, wq = q_rows.shape
        wp = pw.stop - pw.start
        wkq = (ws[blk, :, None] * q_rows[0, :, None, :]).reshape(
            b, (1 + a) * wq)
        agg[:1 + a, qw, pw] += (wkq.T @ p_rows[:, :wp]).reshape(
            1 + a, wq, wp)
        agg[1 + a:, qw, pw] += (wkq[:, wq:].T @ p_rows[:, wp:2 * wp]).reshape(
            a, wq, wp)
        rows.append((q_rows, p_rows))
    # the aggregates of the active m as (3,) lists, the scalar zero elsewhere
    sk, sgp = [0.0] * 3, [0.0] * 3
    for k, m in enumerate(active):
        sk[m], sgp[m] = agg[1 + k], agg[1 + a + k]

    # each pass-2 field overwrites the aggregate it reads last (see the
    # docstring): slot 0 goes D -> 1/D -> fs2, the sgp slots become f2q once
    # b1 has read them, and the sk slots become f1 once s_field and f2q have
    inv_d = _masked_inverse(agg[0], out=agg[0])
    inv_dw = inv_d * grid.q.weights[:, None]
    inv_dw *= grid.p.weights[None, :]

    b1 = _cross(g, sgp, out=[np.empty((n_q, n_p)) if m in active else None
                             for m in range(3)])    # = -(sgp x g)
    f2q = _cross(sk, g, out=sgp)
    scratch = np.empty((n_q, n_p))
    s_field = np.zeros((n_q, n_p))    # 0 + x, as `sum` forms it: -0 -> +0
    for m in active:
        s_field += np.multiply(sk[m], b1[m], out=scratch)
    s_field *= -2.0 * HBAR
    energy = float(np.sum(np.multiply(s_field, inv_dw, out=scratch)))

    # per-particle integrals sum_{q,p} rows_q[e,q] field[q,p] rows_p[e,p],
    # split into a p-stage (rows_p @ field.T) and a q-stage.  For the k-th
    # active m, slot 1 + k holds f1_m = b1_m / D and slot 1 + a + k holds
    # f2q_m = (sk x g)_m / D, both times the quadrature weights, so [kp|dkp]
    # and [dkp|ddkp] times [f1_m | f2q_m] give kp f1_m + dkp f2q_m and
    # dkp f1_m + ddkp f2q_m
    for m in active:
        f2q[m] *= inv_dw
        np.multiply(b1[m], inv_dw, out=sk[m])
    # the denominator term: [kq; dkq] @ fs2 gives kq fs2 and dkq fs2
    fs2 = np.multiply(s_field, inv_d, out=agg[0])
    fs2 *= inv_dw
    del b1, s_field, inv_dw, scratch    # no box temporary lives in pass 2

    # pass 2, per block on its window.  The gradient of the coupling term
    # w.r.t. the particle coordinates, already divided by the weights:
    # d(q_e)/dt gains +dB/dp_e/w_e, d(p_e)/dt gains -dB/dq_e/w_e.  The
    # effective quantum field is H_vec(z_e) - 2 hbar sum_b w_b (s_b x I_eb)
    db_dq = np.empty(n)
    db_dp = np.empty(n)
    heff = np.zeros((n, 3))
    for (blk, qw, pw), (q_rows, p_rows) in zip(blocks, rows):
        _, b, wq = q_rows.shape
        wp = pw.stop - pw.start
        kq, dkq = q_rows
        kp, dkp = p_rows[:, :wp], p_rows[:, wp:2 * wp]
        f = np.concatenate((agg[1:1 + a, qw, pw], agg[1 + a:, qw, pw]),
                           axis=2).reshape(a * wq, 2 * wp).T
        stage_k = (p_rows[:, :2 * wp] @ f).reshape(b, a, wq)
        stage_dk = (p_rows[:, wp:] @ f).reshape(b, a, wq)
        stage_fs2 = q_rows.reshape(2 * b, wq) @ fs2[qw, pw]
        # kq and dkq against stage_k in one contraction
        k_stage_k = np.einsum("req,emq->rem", q_rows, stage_k)
        k_stage_dk = np.einsum("eq,emq->em", kq, stage_dk)
        db_dq[blk] = 2.0 * HBAR * np.einsum("em,em->e", s[blk], k_stage_k[1]) \
            + np.einsum("eq,eq->e", stage_fs2[b:], kp)
        db_dp[blk] = 2.0 * HBAR * np.einsum("em,em->e", s[blk], k_stage_dk) \
            + np.einsum("eq,eq->e", stage_fs2[:b], dkp)
        heff[blk, active] = -HBAR * k_stage_k[0]

    # back to the particles' own order
    inverse = np.argsort(order)
    return KoopmonTerms(energy=energy, dqdot_extra=db_dp[inverse],
                        dpdot_extra=-db_dq[inverse], heff_vec=heff[inverse])


@dataclass
class BohmionTerms:
    """Quantum-potential contributions to the bohmion equations of motion."""

    energy: float
    dpdot_extra: np.ndarray
    heff_vec: np.ndarray


def bohmion_terms(e: ParticleEnsemble, mass: float, grid: Lattice,
                  spec: KernelSpec) -> BohmionTerms:
    """Pair energy, forces and effective fields via aggregated 1D fields.

    Every per-particle sum over the nodes is a GEMM of the kernel rows with
    a few node fields: ``ddk`` with five for the pair-force numerator, ``dk``
    with four for the denominator term and the effective field.
    """
    grid.check_coverage(e.q)
    comp = e.components
    w = e.w

    k, dk, ddk = kernel_rows(spec, e.q, grid.nodes, 3)
    inv_d = _masked_inverse(w @ k)
    # vg[0] = sum_b w_b c0_b K'_b, vg[1:] likewise with the half Bloch vector
    vg = (w * comp) @ dk      # (4, n_nodes)
    u = w @ dk
    t_field = 4.0 * np.einsum("km,km->m", vg, vg) - u**2

    pref = HBAR**2 / (8.0 * mass)
    energy = pref * float(quadrature(t_field * inv_d, grid))

    # d/dq_e of the pair sum (center derivatives are minus the grid ones):
    # the numerator -2 sum_n K''_e (4 c_e . vg - u) iw from ddk against
    # [vg; u] iw, and the denominator term sum_n K'_e t_field inv_d iw from
    # dk against [t_field inv_d; vg[1:]] iw, whose other three columns are
    # the effective field H_vec(z_e) + hbar^2/(2M) sum_b w_b I_eb s_b
    iw = inv_d * grid.weights
    x = ddk @ (np.vstack([vg, u]) * iw).T                    # (N, 5)
    num = -2.0 * (4.0 * np.einsum("me,em->e", comp, x[:, :4]) - x[:, 4])
    y = dk @ (np.vstack([t_field * inv_d, vg[1:]]) * iw).T   # (N, 4)
    dpdot_extra = -pref * (num + y[:, 0])
    heff = HBAR**2 / (2.0 * mass) * y[:, 1:]

    return BohmionTerms(energy=energy, dpdot_extra=dpdot_extra, heff_vec=heff)


# ---------------------------------------------------------------------------
# Two classical degrees of freedom: factorized coupling integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """A phase-space factor of `Hamiltonian2DOF` with its partial
    derivatives.  Each callable maps (q, p) to the scalar array of a scalar
    factor h_l or to the four Pauli coefficient arrays of a matrix factor
    H_l."""

    f: Callable
    df_dq: Callable
    df_dp: Callable


def constant_matrix_factor(h0=0.0, h1=0.0, h2=0.0, h3=0.0) -> Factor:
    def val(q, p):
        return h0, h1, h2, h3

    def zero(q, p):
        return 0.0, 0.0, 0.0, 0.0

    return Factor(f=val, df_dq=zero, df_dp=zero)


def zero_scalar_factor() -> Factor:
    def zero(q, p):
        return 0.0

    return Factor(f=zero, df_dq=zero, df_dp=zero)


@dataclass(frozen=True)
class Hamiltonian2DOF:
    """The coupled part ``h1(z1) H2(z2) + h2(z2) H1(z1)`` of a separable
    two-degree-of-freedom Hamiltonian
    ``H = H_c(z1, z2) 1 + H_Q + h1(z1) H2(z2) + h2(z2) H1(z1)``.

    H_c shifts only the identity component and the constant H_Q has no
    derivative, so neither enters a coupling table.
    """

    h1: Factor
    H2: Factor
    h2: Factor
    H1: Factor


@dataclass(frozen=True)
class AxisTables:
    """Per-axis pair integral tables for one classical degree of freedom."""

    i_scalar: np.ndarray   # int K_s {K_s', h_l} / D
    j_scalar: np.ndarray   # int K_s K_s' h_l / D
    i_matrix: np.ndarray   # same with the matrix factor, Pauli components last
    j_matrix: np.ndarray


def _axis_tables(q: np.ndarray, p: np.ndarray, w: np.ndarray,
                 spec: KernelSpec, params: GridParams,
                 scalar: Factor, matrix: Factor) -> AxisTables:
    grid = build_grid(q, p, spec, params)
    rows, node_w = _box_rows(q, p, w, spec, grid)
    qq, pp = grid.q_nodes[:, None], grid.p_nodes[None, :]

    def fields(fs, fm):   # [scalar; the four matrix components] on the box
        return on_points(qq, pp, fs(qq, pp), *fm(qq, pp))

    i = _bracket_tables(rows, node_w, fields(scalar.df_dq, matrix.df_dq),
                        fields(scalar.df_dp, matrix.df_dp))
    j = _product_tables(rows, node_w, fields(scalar.f, matrix.f))
    return AxisTables(i_scalar=i[0], j_scalar=j[0],
                      i_matrix=np.moveaxis(i[1:], 0, -1),
                      j_matrix=np.moveaxis(j[1:], 0, -1))


@dataclass(frozen=True)
class FactorizedTables2DOF:
    axis1: AxisTables
    axis2: AxisTables

    def assemble(self, a, b, ap, bp) -> np.ndarray:
        """Traceless Pauli vector of the assembled coupling integral
        ``I_{ab,a'b'}`` (the identity-proportional part is never formed).

        The indices may be integers or broadcastable index arrays, such as
        those of ``np.ix_``; the Pauli components come last."""
        t1, t2 = self.axis1, self.axis2
        return (t1.i_matrix[a, ap, 1:] * t2.j_scalar[b, bp][..., None]
                + t1.i_scalar[a, ap][..., None] * t2.j_matrix[b, bp, 1:]
                + t2.i_scalar[b, bp][..., None] * t1.j_matrix[a, ap, 1:]
                + t2.i_matrix[b, bp, 1:] * t1.j_scalar[a, ap][..., None])


def koopmon_pairs_factorized_2dof(e2: Ensemble2D, ham: Hamiltonian2DOF,
                                  spec1: KernelSpec, spec2: KernelSpec,
                                  params: GridParams = GridParams()
                                  ) -> FactorizedTables2DOF:
    """Per-axis tables {I_l, J_l, Ihat_l, Jhat_l} over 2D grids only."""
    return FactorizedTables2DOF(
        axis1=_axis_tables(e2.q1, e2.p1, e2.w1, spec1, params, ham.h1, ham.H1),
        axis2=_axis_tables(e2.q2, e2.p2, e2.w2, spec2, params, ham.h2, ham.H2))


def koopmon_2dof_coupling(e2: Ensemble2D, tables: FactorizedTables2DOF) -> float:
    """Coupling energy
    ``(1/2) sum w_k w_k' Tr(i hbar [rho_k, rho_k'] I_kk')`` over multi-indices
    ``k = (a, b)``, evaluated from the factorized tables."""
    s = np.moveaxis(e2.components[1:], 0, -1)    # (N1, N2, 3)
    w = e2.weights()
    ivec = tables.assemble(*np.ix_(*(range(n) for n in 2 * e2.shape)))
    # Tr(i hbar [rho_k, rho_k'] I) = -4 hbar (s_k x s_k') . ivec
    cross = np.cross(s[:, :, None, None], s[None, None])
    return -2.0 * HBAR * float(np.einsum("ab,cd,abcdm,abcdm->", w, w, cross,
                                         ivec))


def bohmion_pairs_factorized_2dof(e2: Ensemble2D, spec1: KernelSpec,
                                  spec2: KernelSpec,
                                  params: GridParams = GridParams()):
    """Per-axis 1D tables {I_l, J_l} for the two-DOF bohmion coupling."""
    out = []
    for q, w, spec in ((e2.q1, e2.w1, spec1), (e2.q2, e2.w2, spec2)):
        k, dk, node_w = _line_rows(q, w, spec, build_grid_1d(q, spec, params))
        out.append(((dk * node_w[None, :]) @ dk.T, (k * node_w[None, :]) @ k.T))
    return out[0], out[1]


def bohmion_2dof_coupling(e2: Ensemble2D, tables1, tables2) -> float:
    """``sum w_k w_k' (2<rho_k, rho_k'> - 1)(I1 J2 + I2 J1)``."""
    i1, j1 = tables1
    i2, j2 = tables2
    comp = e2.components
    w = e2.weights()
    c = 4.0 * np.einsum("mab,mcd->abcd", comp, comp) - 1.0
    pair = i1[:, None, :, None] * j2[None, :, None, :] \
        + i2[None, :, None, :] * j1[:, None, :, None]
    return float(np.einsum("ab,cd,abcd,abcd->", w, w, c, pair))
