"""Observables and density fields for both particle and wavefunction states.

Populations are adiabatic: each particle's quantum state is projected on the
eigenvector of the local electronic matrix with the smaller eigenvalue
(state 1 = lower surface everywhere).  The populations, the purity and the
Bloch vector, those of the ensemble-aggregated density matrix, are all read
off the particles' Pauli components.

Density fields are visualization aids: the Wigner transform of a
wavefunction, the kernel-smoothed particle cloud in phase space, and stacked
configuration-space profiles over snapshot times ("waterfall" data).  Each
is summed over fixed-size blocks, of particles (`_PARTICLE_BLOCK`) or of
wavefunction shifts (`_SHIFT_BLOCK`), so that beyond its output a density
holds a few MB whatever the number of particles or the size of the
wavefunction grid: no (particles x nodes) table and no (nodes x shifts)
index array.  Freed blocks below the mmap threshold stay in the heap (see
`_heap`), so the largest block sets the resident high-water mark of a run
whose time steps are smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ensemble import ParticleEnsemble
from .models import DEGENERACY_EPS, HBAR, HybridHamiltonian
from .regularization import KernelSpec, kernel_1d
from .soft import WavepacketState

#: Shifts per block of `wigner`: a block holds (n_q, B) complex gathers
#: and correlation and (B, n_p) cosine and sine tables.  On a fully occupied
#: 4096-point wavefunction with 256 x 256 output nodes (one BLAS thread,
#: 2-core x86-64 Linux, medians of 21 alternating calls), B = 32, 64, 128,
#: 256 and 512 traced peaks of 1.7, 1.9, 2.7, 4.5 and 8.2 MB, the 0.5 MB
#: output included; B = 128, 256 and 512 took the same time within 2%,
#: B = 64 8% and B = 32 26% longer.
_SHIFT_BLOCK = 128

#: Particles per block of `smoothed_cloud` and of the particle rows of
#: `waterfall`: a block holds (B, n_q) and (B, n_p) kernel tables.  At
#: N = 1000 (same host, best of 15 calls), a 256 x 256 cloud took 5.1, 5.0
#: and 4.9 ms at B = 128, 256 and 512 (4.8 ms unblocked, 5.9 ms at B = 32)
#: and traced peaks of 1.6, 2.1 and 3.7 MB (6.7 MB unblocked); three
#: 512-node waterfall rows took 5.9, 6.2 and 7.3 ms (6.6 ms unblocked) and
#: traced 1.6, 3.2 and 6.1 MB (8.2 MB unblocked).
_PARTICLE_BLOCK = 128


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

    def _values(self) -> tuple:
        """The columns of `CSV_HEADER`, in order."""
        return (self.t, self.p1, self.p2, self.purity, *self.bloch,
                self.energy, self.energy_drift_rel)


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


def particle_diagnostics(e: ParticleEnsemble, h: HybridHamiltonian,
                         t: float = 0.0) -> DiagnosticsRecord:
    """Populations, purity and Bloch vector of a particle ensemble.

    The lower eigenvector of the electronic matrix h0 + h . sigma at q_a has
    the projector (1 - n_a . sigma)/2, n_a = h/|h|, so the population of the
    lower surface is P1 = sum_a w_a (c0_a - n_a . s_a).  Where the levels
    are degenerate (|h| <= `DEGENERACY_EPS`) the eigenvector is (1, 0), the
    convention of `models.adiabatic_basis`, so n_a = -z there.  The mean
    rho = c0 1 + s . sigma of the weighted components has purity
    Tr rho^2 = 2 (c0^2 + |s|^2) and Bloch vector 2 s.
    """
    comp = e.components
    _, h1, h2, h3 = h.electronic_pauli(e.q)
    r = np.sqrt(h1 * h1 + h2 * h2 + h3 * h3)
    degenerate = r <= DEGENERACY_EPS
    r[degenerate] = 1.0
    ns = (h1 * comp[1] + h2 * comp[2] + h3 * comp[3]) / r
    ns[degenerate] = -comp[3, degenerate]
    p1 = float(e.w @ (comp[0] - ns))
    mean = comp @ e.w
    purity = float(2.0 * (mean @ mean))
    bloch = tuple(float(2.0 * c) for c in mean[1:])
    return DiagnosticsRecord(t=t, p1=p1, p2=1.0 - p1, purity=purity, bloch=bloch)


def wigner(state: WavepacketState, q_nodes: np.ndarray,
           p_nodes: np.ndarray) -> DensityField:
    """Wigner distribution of a two-component wavefunction.

    ``W(q, p) = (1/pi hbar) int psi*(q+y) psi(q-y) exp(2ipy/hbar) dy`` summed
    over the two components, evaluated on the wavefunction grid in y (each
    requested q snaps to the nearest grid node) and at the exact requested p
    values.  The sum over y reaches half the span of the occupied nodes
    (density above 1e-28 of its peak), rounded up: a longer shift puts
    q + y and q - y more than that span apart, so at least one of them is
    unoccupied.  It reaches no further than half the grid either, past
    which one of the two factors is off the grid.

    The correlation is Hermitian in the shift, corr(q, -y) = conj corr(q, y),
    so only the half y >= 0 is gathered:
    ``W = Re corr(q, 0)
    + 2 sum_{y>0} [Re corr cos(2py/hbar) - Im corr sin(2py/hbar)]``,
    taken as two real GEMMs per block of `_SHIFT_BLOCK` shifts.  A block
    gathers its psi(q +- y) from sliding windows over one zero-padded copy
    of the wavefunction, with no index array.  Beyond the output and that
    copy, memory is O(n_q * B + B * n_p) for a block of B shifts, whatever
    the size of the grid: a call on 4096 points and 256 x 256 nodes traces
    a 2.7 MB peak in all.
    """
    grid = state.grid
    q_nodes = np.asarray(q_nodes, dtype=float)
    p_nodes = np.asarray(p_nodes, dtype=float)
    n = grid.n_points
    dr = grid.dr

    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    occupied = np.nonzero(dens > 1e-28 * dens.max())[0]
    lo, hi = int(occupied[0]), int(occupied[-1])
    # psi(q+y) and psi(q-y) are both occupied only while 2y is within the
    # occupied span, and both on the grid only while 2y is within the grid
    m_half = min(max((hi - lo + 1) // 2, 1), (n - 1) // 2)

    j_idx = np.clip(np.round((q_nodes - grid.r_min) / dr).astype(int), 0, n - 1)
    q_snapped = grid.r_min + dr * j_idx

    # psi*(q+y) psi(q-y) is gathered from copies of psi padded with m_half
    # zeros at each end, so that points off the grid read as zero
    padded = np.zeros((2, n + 2 * m_half), dtype=complex)
    padded[:, m_half:m_half + n] = state.psi
    w = np.zeros((len(j_idx), len(p_nodes)))
    for start in range(0, m_half + 1, _SHIFT_BLOCK):
        stop = min(start + _SHIFT_BLOCK, m_half + 1)
        # windows[c, i, k] = padded[c, i + k]: psi(q + y) for the shifts
        # start + k is the window from j + m_half + start, psi(q - y) the
        # window ending at j + m_half - start, read backwards
        windows = sliding_window_view(padded, stop - start, axis=1)
        plus = j_idx + (m_half + start)
        minus = j_idx + (m_half - stop + 1)
        corr = np.conj(windows[0, plus]) * windows[0, minus, ::-1]
        corr += np.conj(windows[1, plus]) * windows[1, minus, ::-1]
        # weight 2 for the pair of shifts +-y, 1 for y = 0
        corr *= 2.0
        if start == 0:
            corr[:, 0] *= 0.5
        theta = np.outer(np.arange(start, stop) * (2.0 * dr / HBAR), p_nodes)
        w += corr.real @ np.cos(theta)
        w -= corr.imag @ np.sin(theta)
    w *= dr / (np.pi * HBAR)
    return DensityField(kind="wigner", axis1=q_snapped, axis2=p_nodes, values=w,
                        meta={"t": state.time})


def _kernel_sum(delta: float, w: np.ndarray, x: np.ndarray,
                x_nodes: np.ndarray, y: np.ndarray | None = None,
                y_nodes: np.ndarray | None = None) -> np.ndarray:
    """``sum_a w_a K_delta(x_nodes - x_a) [x] K_delta(y_nodes - y_a)`` over
    blocks of `_PARTICLE_BLOCK` particles: an (n_x,) profile without ``y``,
    an (n_x, n_y) phase-space density with it.  Beyond the output, memory is
    O(B * (n_x + n_y)) for a block of B particles, whatever N."""
    spec = KernelSpec(alpha=delta)
    out = np.zeros((len(x_nodes),) if y is None else (len(x_nodes), len(y_nodes)))
    for start in range(0, len(w), _PARTICLE_BLOCK):
        block = slice(start, start + _PARTICLE_BLOCK)
        kx = kernel_1d(spec, x_nodes - x[block, None])
        if y is None:
            out += w[block] @ kx
        else:
            kx *= w[block, None]
            out += kx.T @ kernel_1d(spec, y_nodes - y[block, None])
    return out


def smoothed_cloud(e: ParticleEnsemble, delta: float, q_nodes: np.ndarray,
                   p_nodes: np.ndarray) -> DensityField:
    """Kernel-smoothed phase-space particle density
    ``D(z) = sum_a w_a K_delta(z - zeta_a)``.

    Summed over blocks of `_PARTICLE_BLOCK` particles, so that beyond the
    (n_q, n_p) output it holds no table larger than B x max(n_q, n_p).
    """
    q_nodes = np.asarray(q_nodes, dtype=float)
    p_nodes = np.asarray(p_nodes, dtype=float)
    vals = _kernel_sum(delta, e.w, e.q, q_nodes, e.p, p_nodes)
    return DensityField(kind="smoothed_cloud", axis1=q_nodes, axis2=p_nodes,
                        values=vals, meta={"delta": delta})


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
    1D visualization kernel over blocks of `_PARTICLE_BLOCK` particles, so
    that a row holds no table larger than B x n_r; wavefunctions contribute
    |Psi|^2 (interpolated onto ``r_nodes``).
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    times = []
    rows = []
    for t, snap in snapshots:
        times.append(t)
        if isinstance(snap, WavepacketState):
            dens = np.sum(np.abs(snap.psi) ** 2, axis=0)
            rows.append(np.interp(r_nodes, snap.grid.r, dens,
                                  left=0.0, right=0.0))
        else:
            rows.append(_kernel_sum(delta, snap.w, snap.q, r_nodes))
    return DensityField(kind="waterfall", axis1=np.asarray(times),
                        axis2=r_nodes, values=np.vstack(rows),
                        meta={"delta": delta})
