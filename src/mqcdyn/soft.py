"""Fully quantum reference propagation by split-operator Fourier stepping.

The two-component wavefunction lives on a uniform periodic grid; one Strang
step is half a kinetic step in Fourier space, a full potential step applied
as a pointwise 2x2 matrix exponential (closed form via the Pauli
decomposition), and another half kinetic step.  Every factor is unitary, so
the norm is conserved to round-off.  A step ends in Fourier space: the new
state's psi is the inverse FFT of its psi_k, and the state keeps that psi_k,
so a step takes three FFTs and the energy of the new state none.  `copy`
keeps psi_k too.

Requires the Hamiltonian to split as ``p^2/(2M) * 1 + V(q)``; the classical
potential ``V_C(q) = H_C(q, 0)`` joins the potential matrix.  Hamiltonians
with momentum-dependent interaction are rejected.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import _step_plan
from .models import HBAR, HybridHamiltonian, adiabatic_basis

BOUNDARY_MASS_TOL = 1e-12


class BoundaryMassWarning(UserWarning):
    """Wavepacket amplitude at the grid edge is no longer negligible."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(*arrays) -> tuple:
    return tuple(_read_only(a) for a in arrays)


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform periodic grid with its dual momentum nodes."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ValueError("n_points must be a power of two")
        if not self.r_max > self.r_min:
            raise ValueError("empty spatial range")

    @property
    def dr(self) -> float:
        return (self.r_max - self.r_min) / self.n_points

    @functools.cached_property
    def r(self) -> np.ndarray:
        """Grid nodes, built once per grid (read-only)."""
        return _read_only(self.r_min + self.dr * np.arange(self.n_points))

    @functools.cached_property
    def k(self) -> np.ndarray:
        """Momentum nodes in FFT layout, built once per grid (read-only);
        dk * dr * n = 2 pi."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dr))


@dataclass
class WavepacketState:
    """Two-component complex wavefunction on a spatial grid.

    ``psi_k`` is the FFT of ``psi`` along the grid.  `strang_step` builds a
    state from its psi_k and hands that psi_k over, so it agrees with
    ``np.fft.fft(psi)`` to round-off, not bit for bit; any other state
    computes it once, when first read.  Either way ``psi`` must not change
    once psi_k is set; every function here returns a new state rather than
    changing one, and `copy` shares the read-only psi_k.
    """

    grid: SpatialGrid1D
    psi: np.ndarray          # shape (2, n_points)
    time: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (2, self.grid.n_points):
            raise ValueError("psi must have shape (2, n_points)")

    @functools.cached_property
    def psi_k(self) -> np.ndarray:
        """FFT of both components along the grid (read-only)."""
        return _read_only(np.fft.fft(self.psi, axis=1))

    def copy(self) -> "WavepacketState":
        """Same state with its own psi; psi_k, once set, comes along."""
        out = WavepacketState(grid=self.grid, psi=self.psi.copy(), time=self.time)
        if "psi_k" in self.__dict__:
            out.psi_k = self.psi_k
        return out

    def norm(self) -> float:
        return float(np.vdot(self.psi, self.psi).real * self.grid.dr)

    def boundary_mass(self) -> float:
        """Probability mass sitting in the two edge cells."""
        edges = np.abs(self.psi[:, 0]) ** 2 + np.abs(self.psi[:, -1]) ** 2
        return float(np.sum(edges) * self.grid.dr)


def init_wavepacket(grid: SpatialGrid1D, mu_q: float, mu_p: float,
                    sigma_q: float, v0) -> WavepacketState:
    """Normalized Gaussian wavepacket times a constant spin vector.

    ``psi0(r) = (g/pi)^(1/4) exp(i mu_p (r - mu_q)/hbar - g (r - mu_q)^2 / 2)``
    with ``g = 1/(2 sigma_q^2)``; the phase factor carries the mean momentum
    (standard coherent-state form).  Warns if the tails touch the grid edge.
    """
    v0 = np.asarray(v0, dtype=complex).reshape(2)
    nv = np.linalg.norm(v0)
    if not np.isclose(nv, 1.0, atol=1e-12):
        raise ValueError("v0 must be a unit vector")
    g = 1.0 / (2.0 * sigma_q**2)
    r = grid.r
    psi0 = (g / np.pi) ** 0.25 * np.exp(
        1j * mu_p * (r - mu_q) / HBAR - 0.5 * g * (r - mu_q) ** 2)
    psi = np.stack([v0[0] * psi0, v0[1] * psi0])
    psi /= np.sqrt(WavepacketState(grid=grid, psi=psi).norm())
    state = WavepacketState(grid=grid, psi=psi, time=0.0)
    if state.boundary_mass() > BOUNDARY_MASS_TOL:
        warnings.warn("initial wavepacket tails exceed the boundary tolerance; "
                      "enlarge the grid", BoundaryMassWarning)
    return state


def _check_separable(h: HybridHamiltonian, grid: SpatialGrid1D) -> None:
    q = np.linspace(grid.r_min, grid.r_max, 7)
    p = np.array([-3.0, -1.0, 0.5, 2.0, 4.0, 7.0, 11.0])
    hc = h.classical(q, p)
    split = h.classical(q, 0.0) + p**2 / (2.0 * h.mass)
    if not np.allclose(hc, split, rtol=1e-10, atol=1e-12):
        raise ValueError("classical part is not kinetic + potential; the "
                         "split-operator propagator does not apply")


def potential_matrix_fields(h: HybridHamiltonian, r: np.ndarray):
    """Pauli coefficients of the full potential matrix on the grid."""
    return h.electronic_pauli(r)


# The builders below are keyed on the grid (a frozen value), the model object
# (hashed by identity, and held by the cache so its identity cannot be reused)
# and dt.  One entry each is enough: a run steps one model on one grid.

class _GridFields(NamedTuple):
    """The model's fields on the grid, read-only.  The weights of the
    expectation values are complex, so that they multiply psi without a
    cast."""

    pauli: tuple            # (v0, v1, v2, v3) of the potential matrix V
    kinetic: np.ndarray     # k^2/(2M) in FFT layout
    v_diag: np.ndarray      # (V_00, V_11), shape (2, n)
    v01: np.ndarray         # V_01 = v1 - i v2
    lower_conj: np.ndarray  # conj of the lower adiabatic vectors, (2, n)


@functools.lru_cache(maxsize=1)
def _grid_fields(grid: SpatialGrid1D, h: HybridHamiltonian) -> _GridFields:
    """Potential fields, energy weights and lower adiabatic vectors."""
    v0, v1, v2, v3 = potential_matrix_fields(h, grid.r)
    lower = adiabatic_basis(h, grid.r)[2]
    return _GridFields(
        pauli=_frozen(v0, v1, v2, v3),
        kinetic=_read_only((grid.k**2 / (2.0 * h.mass)).astype(complex)),
        v_diag=_read_only(np.array([v0 + v3, v0 - v3], dtype=complex)),
        v01=_read_only(v1 - 1j * v2),
        lower_conj=_read_only(np.ascontiguousarray(lower.conj().T)))


@functools.lru_cache(maxsize=1)
def _strang_factors(grid: SpatialGrid1D, h: HybridHamiltonian, dt: float):
    """Half-step kinetic factor and the pointwise potential propagator."""
    _check_separable(h, grid)
    kin = np.exp(-0.25j * dt * HBAR * grid.k**2 / h.mass)  # half step
    v0, v1, v2, v3 = _grid_fields(grid, h).pauli
    rnorm = np.sqrt(v1**2 + v2**2 + v3**2)
    cos = np.cos(dt * rnorm / HBAR)
    # sin(dt r)/r with the removable r -> 0 limit
    sinc = dt / HBAR * np.sinc(dt * rnorm / (np.pi * HBAR))
    phase = np.exp(-1j * dt * v0 / HBAR)
    u00 = phase * (cos - 1j * sinc * v3)
    u01 = phase * (-1j * sinc * (v1 - 1j * v2))
    u10 = phase * (-1j * sinc * (v1 + 1j * v2))
    u11 = phase * (cos + 1j * sinc * v3)
    return _frozen(kin, u00, u01, u10, u11)


def strang_step(state: WavepacketState, h: HybridHamiltonian,
                dt: float) -> WavepacketState:
    """One Strang step of size dt; unitary to round-off.

    The propagator factors do not change during a run; they are built once
    per (grid, model object, dt), when the model is also checked to be
    separable.  The first kinetic half step reads ``state.psi_k``; the
    second ends in Fourier space, and the new state keeps that psi_k, so a
    step takes three FFTs.
    """
    kin, u00, u01, u10, u11 = _strang_factors(state.grid, h, float(dt))

    psi = np.fft.ifft(kin * state.psi_k, axis=1)
    mixed = np.empty_like(psi)
    np.multiply(u00, psi[0], out=mixed[0])
    mixed[0] += u01 * psi[1]
    np.multiply(u10, psi[0], out=mixed[1])
    mixed[1] += u11 * psi[1]
    psi_k = np.fft.fft(mixed, axis=1)
    psi_k *= kin
    out = WavepacketState(grid=state.grid, psi=np.fft.ifft(psi_k, axis=1),
                          time=state.time + dt)
    out.psi_k = _read_only(psi_k)
    return out


def density_matrix(state: WavepacketState) -> np.ndarray:
    """Reduced 2x2 density matrix, the spatial integral of Psi Psi^dagger."""
    psi0, psi1 = state.psi
    rho01 = np.vdot(psi1, psi0)
    return np.array([[np.vdot(psi0, psi0).real, rho01],
                     [rho01.conjugate(), np.vdot(psi1, psi1).real]]) \
        * state.grid.dr


def energy(state: WavepacketState, h: HybridHamiltonian) -> float:
    """Total energy <Psi|H|Psi>: the kinetic part from psi_k (Parseval), the
    potential part pointwise, each a sum of BLAS inner products."""
    grid = state.grid
    f = _grid_fields(grid, h)
    psi, psi_k = state.psi, state.psi_k
    e_kin = np.vdot(psi_k, f.kinetic * psi_k).real / grid.n_points
    e_pot = (np.vdot(psi, f.v_diag * psi).real
             + 2.0 * np.vdot(psi[0], f.v01 * psi[1]).real)
    return float((e_kin + e_pot) * grid.dr)


def observables(state: WavepacketState, h: HybridHamiltonian) -> dict:
    """Norm, energy, reduced density matrix, adiabatic populations, purity."""
    rho = density_matrix(state)
    norm = float(rho[0, 0].real + rho[1, 1].real)
    lower_conj = _grid_fields(state.grid, h).lower_conj
    amp1 = lower_conj[0] * state.psi[0]
    amp1 += lower_conj[1] * state.psi[1]
    p1 = float(np.vdot(amp1, amp1).real * state.grid.dr)
    return {
        "norm": norm,
        "energy": energy(state, h),
        "rho": rho,
        "p1": p1,
        "p2": norm - p1,
        "purity": float(np.vdot(rho, rho).real),
        "bloch": np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag,
                           rho[0, 0].real - rho[1, 1].real]),
    }


def propagate_soft(state0: WavepacketState, h: HybridHamiltonian, dt: float,
                   t_final: float, snapshot_times=(), diagnostics_fn=None):
    """Fixed-step Strang march mirroring `dynamics.propagate`.

    Returns ``(records, snapshots, max_boundary_mass)`` where snapshots are
    (time, WavepacketState) pairs at the step nearest each requested time.
    Rejects with `ValueError` the same dt, t_final and snapshot times as
    `dynamics.propagate`.
    """
    n_steps, snap_at = _step_plan(dt, t_final, snapshot_times)

    records = []
    snapshots = []
    state = state0.copy()
    max_edge = 0.0
    for k in range(n_steps + 1):
        t = k * dt
        max_edge = max(max_edge, state.boundary_mass())
        if diagnostics_fn is not None:
            records.append(diagnostics_fn(t, state))
        if k in snap_at:
            snapshots.append((t, state.copy()))
        if k < n_steps:
            state = strang_step(state, h, dt)
    if max_edge > 1e-10:
        warnings.warn(f"boundary mass reached {max_edge:.2e}; "
                      "enlarge the grid", BoundaryMassWarning)
    return records, snapshots, max_edge
