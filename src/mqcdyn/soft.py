"""Fully quantum reference propagation by split-operator Fourier stepping.

The two-component wavefunction lives on a uniform periodic grid; one Strang
step is half a kinetic step in Fourier space, a full potential step applied
as a pointwise 2x2 matrix exponential (closed form via the Pauli
decomposition), and another half kinetic step.  Every factor is unitary, so
the norm is conserved to round-off.

Requires the Hamiltonian to split as ``p^2/(2M) * 1 + V(q)``; the classical
potential ``V_C(q) = H_C(q, 0)`` joins the potential matrix.  Hamiltonians
with momentum-dependent interaction are rejected.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .models import HBAR, HybridHamiltonian, adiabatic_basis
from .pauli import pauli_decompose

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

    ``psi_k`` is computed once per state, when first read, so ``psi`` must
    not change after that; every function here returns a new state rather
    than changing one.
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
        return WavepacketState(grid=self.grid, psi=self.psi.copy(), time=self.time)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dr)

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

@functools.lru_cache(maxsize=1)
def _grid_fields(grid: SpatialGrid1D, h: HybridHamiltonian):
    """Potential Pauli fields and lower adiabatic vectors on the grid."""
    v0, v1, v2, v3 = potential_matrix_fields(h, grid.r)
    lower = adiabatic_basis(h, grid.r)[2]
    return _frozen(v0, v1, v2, v3, lower)


@functools.lru_cache(maxsize=1)
def _strang_factors(grid: SpatialGrid1D, h: HybridHamiltonian, dt: float):
    """Half-step kinetic factor and the pointwise potential propagator."""
    _check_separable(h, grid)
    kin = np.exp(-0.25j * dt * HBAR * grid.k**2 / h.mass)  # half step
    v0, v1, v2, v3, _ = _grid_fields(grid, h)
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
    separable.  The first kinetic half step reads ``state.psi_k``, which the
    energy of ``state`` reads too.
    """
    kin, u00, u01, u10, u11 = _strang_factors(state.grid, h, float(dt))

    psi = np.fft.ifft(kin * state.psi_k, axis=1)
    psi0 = u00 * psi[0] + u01 * psi[1]
    psi1 = u10 * psi[0] + u11 * psi[1]
    psi = np.stack([psi0, psi1])
    psi = np.fft.ifft(kin * np.fft.fft(psi, axis=1), axis=1)
    return WavepacketState(grid=state.grid, psi=psi, time=state.time + dt)


def density_matrix(state: WavepacketState) -> np.ndarray:
    """Reduced 2x2 density matrix, the spatial integral of Psi Psi^dagger."""
    rho = np.einsum("ix,jx->ij", state.psi, state.psi.conj()) * state.grid.dr
    return rho


def energy(state: WavepacketState, h: HybridHamiltonian) -> float:
    """Total energy <Psi|H|Psi> via Fourier kinetic + pointwise potential."""
    grid = state.grid
    e_kin = float(np.sum(grid.k**2 / (2.0 * h.mass) * np.abs(state.psi_k) ** 2)
                  * grid.dr / grid.n_points)
    v0, v1, v2, v3, _ = _grid_fields(grid, h)
    d = np.abs(state.psi[0]) ** 2
    u = np.abs(state.psi[1]) ** 2
    cross = state.psi[0].conj() * state.psi[1]
    e_pot = float(np.sum(v0 * (d + u) + v3 * (d - u)
                         + 2.0 * (v1 * cross.real + v2 * cross.imag)) * grid.dr)
    return e_kin + e_pot


def observables(state: WavepacketState, h: HybridHamiltonian) -> dict:
    """Norm, energy, reduced density matrix, adiabatic populations, purity."""
    rho = density_matrix(state)
    comp = pauli_decompose(rho)
    purity = float(np.einsum("ij,ji->", rho, rho).real)
    v1 = _grid_fields(state.grid, h)[4]
    amp1 = np.conj(v1[:, 0]) * state.psi[0] + np.conj(v1[:, 1]) * state.psi[1]
    p1 = float(np.sum(np.abs(amp1) ** 2) * state.grid.dr)
    norm = state.norm()
    return {
        "norm": norm,
        "energy": energy(state, h),
        "rho": rho,
        "p1": p1,
        "p2": norm - p1,
        "purity": purity,
        "bloch": 2.0 * comp[1:],
    }


def position_expectation(state: WavepacketState) -> float:
    dens = np.sum(np.abs(state.psi) ** 2, axis=0)
    return float(np.sum(state.grid.r * dens) * state.grid.dr / state.norm())


def momentum_expectation(state: WavepacketState) -> float:
    dens_k = np.sum(np.abs(state.psi_k) ** 2, axis=0)
    norm_k = np.sum(dens_k)
    return float(np.sum(state.grid.k * dens_k) / norm_k)


def propagate_soft(state0: WavepacketState, h: HybridHamiltonian, dt: float,
                   t_final: float, snapshot_times=(), diagnostics_fn=None,
                   progress=None):
    """Fixed-step Strang march mirroring `dynamics.propagate`.

    Returns ``(records, snapshots, max_boundary_mass)`` where snapshots are
    (time, WavepacketState) pairs at the step nearest each requested time.
    """
    from .dynamics import snapshot_steps

    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"t_final={t_final} is not an integer number of steps "
                         f"of dt={dt}")
    snap_at = snapshot_steps(dt, n_steps, snapshot_times)

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
        if progress is not None:
            progress(k, n_steps)
        if k < n_steps:
            state = strang_step(state, h, dt)
    if max_edge > 1e-10:
        warnings.warn(f"boundary mass reached {max_edge:.2e}; "
                      "enlarge the grid", BoundaryMassWarning)
    return records, snapshots, max_edge
