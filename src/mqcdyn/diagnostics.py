"""Observables and density fields for both particle and wavefunction states.

Populations are adiabatic: each particle's quantum state is projected on the
eigenvector of the local electronic matrix with the smaller eigenvalue
(state 1 = lower surface everywhere).  Purity and the Bloch vector are
computed from the ensemble-aggregated density matrix.

Density fields are visualization aids: the Wigner transform of a
wavefunction, the kernel-smoothed particle cloud in phase space, and stacked
configuration-space profiles over snapshot times ("waterfall" data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import ParticleEnsemble, aggregate_density
from .models import HybridHamiltonian, adiabatic_basis
from .pauli import pauli_decompose
from .regularization import KernelSpec, kernel_1d
from .soft import WavepacketState

HBAR = 1.0

#: Shifts per gather block of `wigner`.
_SHIFT_BLOCK = 256


@dataclass
class DiagnosticsRecord:
    """Per-time scalar observables."""

    t: float
    p1: float
    p2: float
    purity: float
    bloch: tuple[float, float, float]
    energy: float = float("nan")
    energy_drift_rel: float = float("nan")

    CSV_HEADER = "t,P1,P2,purity,bx,by,bz,energy,energy_drift_rel"

    def csv_row(self) -> str:
        vals = (self.t, self.p1, self.p2, self.purity, *self.bloch,
                self.energy, self.energy_drift_rel)
        return ",".join(format(float(v), ".17g") for v in vals)


@dataclass
class DensityField:
    """Real-valued density on a rectangular grid with axis metadata.

    ``kind`` is one of "wigner", "smoothed_cloud", "waterfall"; for the
    2D phase-space kinds ``values[i, j]`` pairs axis1[i] with axis2[j]
    (position x momentum); for "waterfall" axis1 holds the snapshot times
    and axis2 the positions.
    """

    kind: str
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def integral(self) -> float:
        """Trapezoid integral over both axes (per time slice for waterfall)."""
        if self.kind == "waterfall":
            return float(np.trapezoid(self.values, self.axis2, axis=1).max())
        return float(np.trapezoid(np.trapezoid(self.values, self.axis2, axis=1),
                                  self.axis1))


def particle_diagnostics(e: ParticleEnsemble, h: HybridHamiltonian,
                         t: float = 0.0) -> DiagnosticsRecord:
    """Populations, purity and Bloch vector of a particle ensemble."""
    _, _, v1, _ = adiabatic_basis(h, e.q)
    amp = np.einsum("ak,akl,al->a", v1.conj(), e.rho, v1)
    p1 = float(np.sum(e.w * amp.real))
    rho = aggregate_density(e)
    comp = pauli_decompose(rho)
    purity = float(np.einsum("ij,ji->", rho, rho).real)
    bloch = tuple(float(2.0 * c) for c in comp[1:])
    return DiagnosticsRecord(t=t, p1=p1, p2=1.0 - p1, purity=purity, bloch=bloch)


def wigner(state: WavepacketState, q_nodes: np.ndarray,
           p_nodes: np.ndarray) -> DensityField:
    """Wigner distribution of a two-component wavefunction.

    ``W(q, p) = (1/pi hbar) int psi*(q+y) psi(q-y) exp(2ipy/hbar) dy`` summed
    over the two components, evaluated on the wavefunction grid in y (each
    requested q snaps to the nearest grid node) and at the exact requested p
    values.
    """
    grid = state.grid
    q_nodes = np.asarray(q_nodes, dtype=float)
    p_nodes = np.asarray(p_nodes, dtype=float)
    n = grid.n_points
    dr = grid.dr

    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    occupied = np.nonzero(dens > 1e-28 * dens.max())[0]
    lo, hi = int(occupied[0]), int(occupied[-1])
    m_half = max(hi - lo, 1)
    m = np.arange(-m_half, m_half + 1)

    j_idx = np.clip(np.round((q_nodes - grid.r_min) / dr).astype(int), 0, n - 1)
    q_snapped = grid.r_min + dr * j_idx

    # psi*(q+y) psi(q-y) is gathered a block of shifts at a time from copies
    # of psi padded with m_half zeros at each end, so that points off the
    # grid read as zero; the block bounds the index and product temporaries
    padded = np.zeros((2, n + 2 * m_half), dtype=complex)
    padded[:, m_half:m_half + n] = state.psi
    corr = np.zeros((len(j_idx), len(m)), dtype=complex)
    for start in range(0, len(m), _SHIFT_BLOCK):
        shifts = m[start:start + _SHIFT_BLOCK]
        plus = j_idx[:, None] + (shifts + m_half)
        minus = j_idx[:, None] - (shifts - m_half)
        block = corr[:, start:start + len(shifts)]
        for psi in padded:
            block += np.conj(psi[plus]) * psi[minus]

    phases = np.exp(2j * np.outer(m * dr, p_nodes) / HBAR)
    w = (corr @ phases).real * dr / (np.pi * HBAR)
    return DensityField(kind="wigner", axis1=q_snapped, axis2=p_nodes, values=w,
                        meta={"t": state.time})


def smoothed_cloud(e: ParticleEnsemble, delta: float, q_nodes: np.ndarray,
                   p_nodes: np.ndarray) -> DensityField:
    """Kernel-smoothed phase-space particle density
    ``D(z) = sum_a w_a K_delta(z - zeta_a)``."""
    spec = KernelSpec(alpha=delta)
    kq = kernel_1d(spec, np.asarray(q_nodes)[None, :] - e.q[:, None])
    kp = kernel_1d(spec, np.asarray(p_nodes)[None, :] - e.p[:, None])
    vals = (e.w[:, None] * kq).T @ kp
    return DensityField(kind="smoothed_cloud", axis1=np.asarray(q_nodes),
                        axis2=np.asarray(p_nodes), values=vals,
                        meta={"delta": delta})


def default_phase_grid(e: ParticleEnsemble, delta: float,
                       n_nodes: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Visualization grid covering the particle cloud with 4*delta padding."""
    pad = 4.0 * delta
    q = np.linspace(e.q.min() - pad, e.q.max() + pad, n_nodes)
    p = np.linspace(e.p.min() - pad, e.p.max() + pad, n_nodes)
    return q, p


def waterfall(snapshots, delta: float, r_nodes: np.ndarray) -> DensityField:
    """Stacked configuration-space densities over snapshot times.

    ``snapshots`` is a sequence of (time, ParticleEnsemble) or
    (time, WavepacketState) pairs; particle clouds are smoothed with the
    1D visualization kernel, wavefunctions contribute |Psi|^2 (interpolated
    onto ``r_nodes``).
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    times = []
    rows = []
    spec = KernelSpec(alpha=delta)
    for t, snap in snapshots:
        times.append(t)
        if isinstance(snap, WavepacketState):
            dens = np.sum(np.abs(snap.psi) ** 2, axis=0)
            rows.append(np.interp(r_nodes, snap.grid.r, dens,
                                  left=0.0, right=0.0))
        else:
            k = kernel_1d(spec, r_nodes[None, :] - snap.q[:, None])
            rows.append(snap.w @ k)
    return DensityField(kind="waterfall", axis1=np.asarray(times),
                        axis2=r_nodes, values=np.vstack(rows),
                        meta={"delta": delta})
