"""Equations of motion and time stepping for the particle methods.

All three methods share the canonical structure

    dq_a/dt =  (1/w_a) dh/dp_a,
    dp_a/dt = -(1/w_a) dh/dq_a,
    i hbar d(rho_a)/dt = (1/w_a) [dh/d(rho_a), rho_a],

and differ only in the total energy h: the mean-field (Ehrenfest) energy
``sum_a w_a <rho_a, H(zeta_a)>`` alone, plus the phase-space commutator
coupling for the koopmon method, or plus the configuration-space
quantum-potential coupling for the bohmion method.  The gradients of the
coupling terms are obtained by differentiating the quadrature sums exactly
(closed-form kernel derivatives), so the analytic right-hand side is the
exact gradient of `energy` on any covering box of the global lattice (see
`regularization`), which is the energy RK4 integrates; the
finite-difference tests pin this contract with a box rebuilt for every
perturbed state.  One `rhs` evaluation returns the energy together with the
derivative, since both come from the same coupling integrals.

On the Pauli components rho_a = c0_a 1 + s_a . sigma, which is how
`ParticleEnsemble` stores the state, the quantum equation is the rotation
ds_a/dt = (2/hbar) h_eff,a x s_a of the half Bloch vector about the local
effective field, with c0_a = Tr rho_a / 2 fixed, so `rhs` returns the real
rates ds, one row per component.

Time stepping is plain fixed-step RK4.  `rhs`, the one route from a state
to its coupling terms, builds the quadrature box from the state and the
lattice recipe `GridParams`, so every stage has the box of its own state.
Every stage is a `ParticleEnsemble`; there is no second state type and no
complex rho is formed.  Each stage and the step's end add their
increment to the rows of s_a alone, so c0_a, and with it every trace, stays
fixed bit for bit.  `propagate` records the energy of each state from the
first RK4 stage at that state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import backreaction
from .ensemble import ParticleEnsemble
from .models import HBAR, HybridHamiltonian, _cross, _is_zero
from .regularization import (GridParams, KernelSpec, build_grid, build_grid_1d)


class MethodKind(str, enum.Enum):
    KOOPMON = "koopmon"
    EHRENFEST = "ehrenfest"
    BOHMION = "bohmion"

    @classmethod
    def parse(cls, name) -> "MethodKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown method {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


class NonFiniteDerivativeError(FloatingPointError):
    """The right-hand side produced NaN or Inf.

    ``particles`` lists the indices of the particles whose dq, dp or ds is
    not finite; ``t`` is the time of the step that was being taken, which
    `propagate` sets (None when `rhs` is called directly).
    """

    def __init__(self, particles: list, t: float | None = None):
        super().__init__()
        self.particles = particles
        self.t = t

    def __str__(self) -> str:
        at = "" if self.t is None else f" at t={self.t:g}"
        shown = ", ".join(str(a) for a in self.particles[:10])
        more = (f", ... ({len(self.particles)} in all)"
                if len(self.particles) > 10 else "")
        return f"non-finite time derivative{at} for particles [{shown}{more}]"


class EnergyDriftError(RuntimeError):
    """Relative energy drift exceeded ten times the configured tolerance."""

    def __init__(self, t: float, drift: float, tol: float):
        super().__init__(
            f"relative energy drift {drift:.3e} at t={t:g} exceeds 10 x "
            f"tolerance {tol:g}; decrease dt or refine the grid")
        self.t = t
        self.drift = drift
        self.tol = tol


@dataclass
class EnsembleDerivative:
    """Time derivative of an ensemble state, and the method's energy there.

    ``ds`` (3, N) is the rate of the half Bloch vectors, one row per
    component; the trace part of every rho_a is constant.
    """

    dq: np.ndarray
    dp: np.ndarray
    ds: np.ndarray
    energy: float


def _bloch_rate(hvec, s) -> np.ndarray:
    """ds = (2/hbar) hvec x s, shape (3, N), for per-particle field vectors.

    ``hvec`` is the three Pauli components of the field, one array over the
    particles each or a scalar; ``s`` is the half Bloch vectors, (3, N).
    The product is `models._cross`, which skips the scalar zeros of hvec.
    """
    ds = np.empty(s.shape)
    for m, c in enumerate(_cross(hvec, s)):
        ds[m] = c
    ds *= 2.0 / HBAR
    return ds


def _contract(comp, coeffs) -> np.ndarray:
    """Tr(rho_a A_a) = 2 sum_mu comp_mu coeffs_mu over the four Pauli
    components of rho_a and A_a.

    The sum runs from +0.0 in component order, the order `np.sum` takes
    over a trailing axis of length 4, so it equals that sum bit for bit.
    Coefficients that are the scalar zero are skipped: the sum is never
    -0.0 once 0.0 is added to its first term, so adding their zero
    products would change nothing.
    """
    terms = [(c, g) for c, g in zip(comp, coeffs) if not _is_zero(g)]
    if not terms:
        return np.zeros(np.shape(comp[0]))
    (c, g), *rest = terms
    acc = c * g
    acc += 0.0
    for c, g in rest:
        acc += c * g
    acc *= 2.0
    return acc


def _mean_field(comp, e: ParticleEnsemble, h: HybridHamiltonian):
    """<rho_a, dH/dp_a>, <rho_a, dH/dq_a>, the local Pauli field H_vec and
    the mean-field energy sum_a w_a <rho_a, H(zeta_a)>, for the Pauli
    components ``comp`` of the rho_a (trace/2 and half Bloch vector).

    The coefficients are the model's own, unbroadcast: a constant one stays
    a scalar, which multiplies each particle's component just as its
    broadcast array would, so every result is bitwise the one broadcast
    coefficients give.  A component of H_vec may therefore be a scalar.
    """
    hp, gq, gp = h._coefficients(e.q, e.p)
    mean = float(e.w @ _contract(comp, hp))
    return _contract(comp, gp), _contract(comp, gq), hp[1:], mean


def rhs(kind: MethodKind, e: ParticleEnsemble, h: HybridHamiltonian,
        spec: KernelSpec | None = None,
        grid_params: GridParams = GridParams()) -> EnsembleDerivative:
    """Equations of motion and energy of the given method at the state ``e``.

    The quantum sector is read from the Pauli components of ``e`` alone;
    ``ds`` (3, N) is the rate of the half Bloch vectors.  The coupling
    integrals are the quadrature sums on the box ``grid_params`` builds for
    ``e`` (`build_grid` for koopmon, `build_grid_1d` for bohmion), and the
    derivative is the exact gradient of the energy on any covering box of
    the lattice, the one RK4 integrates.  `ValueError` when a kernel method
    gets no ``spec``.
    """
    kind = MethodKind.parse(kind)
    comp = e.components
    dq, dp_mf, hvec, total = _mean_field(comp, e, h)
    dp = -dp_mf

    if kind is not MethodKind.EHRENFEST:
        if spec is None:
            raise ValueError(f"{kind.value} dynamics require a KernelSpec")
        if kind is MethodKind.KOOPMON:
            terms = backreaction.koopmon_terms(
                e, h, build_grid(e.q, e.p, spec, grid_params), spec)
            dq = dq + terms.dqdot_extra
        else:
            terms = backreaction.bohmion_terms(
                e, h.mass, build_grid_1d(e.q, spec, grid_params), spec)
        total = total + terms.energy
        dp = dp + terms.dpdot_extra
        hvec = [hm + terms.heff_vec[:, m] for m, hm in enumerate(hvec)]

    ds = _bloch_rate(hvec, comp[1:])

    # a NaN or Inf anywhere makes the sum non-finite; only then (or on an
    # overflow of the sum alone) are the particles checked one by one
    if not math.isfinite(dq.sum() + dp.sum() + ds.sum()):
        finite = (np.isfinite(dq) & np.isfinite(dp)
                  & np.all(np.isfinite(ds), axis=0))
        if not finite.all():
            raise NonFiniteDerivativeError(np.flatnonzero(~finite).tolist())
    return EnsembleDerivative(dq=dq, dp=dp, ds=ds, energy=total)


def energy(kind: MethodKind, e: ParticleEnsemble, h: HybridHamiltonian,
           spec: KernelSpec | None = None,
           grid_params: GridParams = GridParams()) -> float:
    """Conserved Hamiltonian of the method at ``e``, on the box of `rhs`."""
    return rhs(kind, e, h, spec, grid_params).energy


def rk4_step(kind: MethodKind, e: ParticleEnsemble, h: HybridHamiltonian,
             spec: KernelSpec | None, dt: float,
             grid_params: GridParams = GridParams(),
             k1: EnsembleDerivative | None = None) -> ParticleEnsemble:
    """One classical RK4 step; `rhs` builds every stage's box anew.

    Each stage, and the state it returns, is ``e`` moved by a weighted sum
    of stage derivatives: (q, p) by dq and dp, the half Bloch vectors by ds.
    c0 is copied, never written.  ``k1`` is ``rhs(kind, e, h, spec,
    grid_params)``, when the caller already holds it; the step is the same
    either way.
    """
    kind = MethodKind.parse(kind)

    def shifted(scale: float, dq, dp, ds) -> ParticleEnsemble:
        c = e.components.copy()
        c[1:] += scale * ds
        return ParticleEnsemble(q=e.q + scale * dq, p=e.p + scale * dp,
                                components=c, w=e.w)

    if k1 is None:
        k1 = rhs(kind, e, h, spec, grid_params)
    k2 = rhs(kind, shifted(0.5 * dt, k1.dq, k1.dp, k1.ds), h, spec, grid_params)
    k3 = rhs(kind, shifted(0.5 * dt, k2.dq, k2.dp, k2.ds), h, spec, grid_params)
    k4 = rhs(kind, shifted(dt, k3.dq, k3.dp, k3.ds), h, spec, grid_params)

    def rk4_sum(name: str) -> np.ndarray:
        a, b, c, d = (getattr(k, name) for k in (k1, k2, k3, k4))
        return a + 2.0 * b + 2.0 * c + d

    return shifted(dt / 6.0, rk4_sum("dq"), rk4_sum("dp"), rk4_sum("ds"))


@dataclass
class Trajectory:
    """Propagation output: per-step diagnostics plus requested snapshots."""

    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (time, ParticleEnsemble)


def snapshot_steps(dt: float, n_steps: int, snapshot_times) -> dict[int, float]:
    """Map requested snapshot times to step indices (nearest step, ties to
    the earlier step)."""
    out: dict[int, float] = {}
    for t in snapshot_times:
        k = int(math.floor(t / dt + 0.5))
        if math.isclose((k - 0.5) * dt, t, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(t))):
            k -= 1  # exact tie rounds toward the earlier step
        k = min(max(k, 0), n_steps)
        out.setdefault(k, t)
    return out


def _step_plan(dt: float, t_final: float,
               snapshot_times) -> tuple[int, dict[int, float]]:
    """Number of steps to ``t_final`` and the `snapshot_steps` map of both
    time loops; `ValueError` unless dt > 0 and t_final >= 0 are finite, the
    latter a whole number of steps, and every snapshot time in [0, t_final]."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not t_final >= 0.0:
        raise ValueError("t_final must be nonnegative")
    if not math.isfinite(dt + t_final):    # an infinite dt plans no step
        raise ValueError(f"dt={dt} and t_final={t_final} must be finite")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final} is not an integer number of steps "
                         f"of dt={dt}")
    for t in snapshot_times:
        if t < 0.0 or t > t_final + 1e-12:
            raise ValueError(f"snapshot time {t} outside [0, {t_final}]")
    return n_steps, snapshot_steps(dt, n_steps, snapshot_times)


def propagate(kind: MethodKind, e0: ParticleEnsemble, h: HybridHamiltonian,
              spec: KernelSpec | None, dt: float, t_final: float,
              snapshot_times=(), grid_params: GridParams = GridParams(),
              energy_tol: float = 1e-2, diagnostics_fn=None) -> Trajectory:
    """Fixed-step march to ``t_final`` with per-step diagnostics.

    ``diagnostics_fn(t, ensemble, energy, drift) -> record`` is called at
    every step (including t=0); the returned records are collected in order.
    Snapshots are deep copies taken at the step nearest each requested time.
    `rhs` builds the quadrature box of every RK4 stage from ``grid_params``.
    The energy of each state is the one `rhs` returns for the first RK4
    stage at that state, so it is measured on the box that steps the
    trajectory.  Raises `EnergyDriftError` when the relative drift exceeds
    ten times ``energy_tol``, before the step from that state is taken, and
    `NonFiniteDerivativeError` with the time of the step it was raised in.
    """
    kind = MethodKind.parse(kind)
    n_steps, snap_at = _step_plan(dt, t_final, snapshot_times)
    traj = Trajectory()

    state = e0.copy()
    try:
        for k in range(n_steps + 1):
            t = k * dt
            d = rhs(kind, state, h, spec, grid_params)
            e_now = d.energy
            if k == 0:
                e_ref = e_now
            drift = abs(e_now - e_ref) / max(abs(e_ref), 1e-300)
            if drift > 10.0 * energy_tol:
                raise EnergyDriftError(t, drift, energy_tol)
            if diagnostics_fn is not None:
                traj.records.append(diagnostics_fn(t, state, e_now, drift))
            if k in snap_at:
                traj.snapshots.append((t, state.copy()))
            if k < n_steps:
                state = rk4_step(kind, state, h, spec, dt, grid_params, k1=d)
    except NonFiniteDerivativeError as err:
        err.t = float(t)
        raise
    return traj
