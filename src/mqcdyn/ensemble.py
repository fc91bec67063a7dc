"""Particle-ensemble state shared by the koopmon, Ehrenfest and bohmion methods.

Storage is struct-of-arrays: positions, momenta and weights are contiguous
float arrays of length N, and the per-particle density matrices form one
complex array of shape (N, 2, 2).  The kernel rows and aggregate products
of the coupling terms read these arrays directly, so keeping each field
contiguous matters.

The equations of motion, the coupling terms and the diagnostics read each
rho_a through its real Pauli components (`ParticleEnsemble.components`):
c0 = Tr rho_a / 2 and the half Bloch vector s_a.  They are computed from rho
on every access, so an in-place edit of ``rho`` is always seen; the RK4
stage states of `dynamics` store them instead of rho.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import hermitize, pauli_components

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

#: trace drift beyond which the post-step repair renormalizes
TRACE_RENORM_THRESHOLD = 1e-12


class Violation(NamedTuple):
    """One failed invariant: which particle (None for ensemble-level),
    which check, and how large the deviation is."""

    index: int | None
    check: str
    magnitude: float


@dataclass
class ParticleEnsemble:
    """N particles with phase-space coordinates, weights and quantum states."""

    q: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)
        n = self.q.shape[0]
        if not (self.p.shape == (n,) and self.w.shape == (n,)
                and self.rho.shape == (n, 2, 2)):
            raise ValueError("inconsistent ensemble array shapes")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def components(self) -> np.ndarray:
        """Pauli components of every rho_a as rows, shape (4, N): c0 and the
        three components of s_a."""
        return pauli_components(self.rho)

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(self.q.copy(), self.p.copy(),
                                self.rho.copy(), self.w.copy())


def aggregate_density(e: ParticleEnsemble) -> np.ndarray:
    """Ensemble-level density matrix, the weighted sum of the rho_a."""
    return np.einsum("a,aij->ij", e.w, e.rho)


def rho_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian 2x2 matrices, shape (..., 2) ascending."""
    tr = (rho[..., 0, 0] + rho[..., 1, 1]).real
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    disc = np.sqrt(np.clip(tr**2 / 4.0 - det, 0.0, None))
    return np.stack([tr / 2.0 - disc, tr / 2.0 + disc], axis=-1)


def validate(e: ParticleEnsemble,
             trace_tol: float = TRACE_TOL,
             herm_tol: float = HERMITICITY_TOL,
             psd_tol: float = PSD_TOL) -> list[Violation]:
    """Check every ensemble invariant; returns the list of violations.

    Checks, per particle: Hermiticity, unit trace, positive semidefiniteness,
    purity in [1/2, 1], weight positivity; plus the ensemble-level weight sum.
    An empty list means the state is physical at the given tolerances.
    """
    out: list[Violation] = []
    herm_dev = np.max(np.abs(e.rho - np.conj(np.swapaxes(e.rho, -1, -2))), axis=(1, 2))
    trace_dev = np.abs((e.rho[:, 0, 0] + e.rho[:, 1, 1]).real - 1.0)
    eigs = rho_eigenvalues(e.rho)
    purity = np.einsum("aij,aji->a", e.rho, e.rho).real

    for a in range(e.n):
        if herm_dev[a] > herm_tol:
            out.append(Violation(a, "hermiticity", float(herm_dev[a])))
        if trace_dev[a] > trace_tol:
            out.append(Violation(a, "trace", float(trace_dev[a])))
        if eigs[a, 0] < -psd_tol:
            out.append(Violation(a, "positivity", float(-eigs[a, 0])))
        if purity[a] < 0.5 - psd_tol or purity[a] > 1.0 + psd_tol:
            out.append(Violation(a, "purity_range",
                                 float(max(0.5 - purity[a], purity[a] - 1.0))))
        if e.w[a] <= 0.0:
            out.append(Violation(a, "weight_positive", float(-e.w[a])))

    wsum_dev = abs(float(np.sum(e.w)) - 1.0)
    if wsum_dev > WEIGHT_SUM_TOL:
        out.append(Violation(None, "weight_sum", wsum_dev))
    return out


def rehermitize(rho: np.ndarray) -> np.ndarray:
    """Post-step repair: project onto Hermitian matrices and renormalize the
    trace when it has drifted beyond `TRACE_RENORM_THRESHOLD`.

    This is the minimal-norm repair for integrator round-off; it does not
    touch the spectrum otherwise.  Only the drifted matrices are divided, so
    the others come back as the Hermitian projection returns them.
    """
    out = hermitize(rho)
    tr = (out[..., 0, 0] + out[..., 1, 1]).real
    drifted = np.abs(tr - 1.0) > TRACE_RENORM_THRESHOLD
    if np.any(drifted):
        out[drifted] /= tr[drifted][:, None, None]
    return out


@dataclass
class Ensemble2D:
    """Multi-index ensemble for two classical degrees of freedom.

    Axis coordinates depend only on their own index: axis 1 carries
    ``(q1[a], p1[a])`` and axis 2 carries ``(q2[b], p2[b])``, while the
    quantum state ``rho[a, b]`` and the weight ``w1[a] * w2[b]`` live on the
    multi-index.  The storage layout enforces the factorized structure.
    """

    q1: np.ndarray
    p1: np.ndarray
    w1: np.ndarray
    q2: np.ndarray
    p2: np.ndarray
    w2: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        for name in ("q1", "p1", "w1", "q2", "p2", "w2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.rho = np.asarray(self.rho, dtype=complex)
        n1, n2 = self.q1.shape[0], self.q2.shape[0]
        if not (self.p1.shape == (n1,) and self.w1.shape == (n1,)
                and self.p2.shape == (n2,) and self.w2.shape == (n2,)
                and self.rho.shape == (n1, n2, 2, 2)):
            raise ValueError("inconsistent 2-DOF ensemble array shapes")

    @property
    def shape(self) -> tuple[int, int]:
        return self.q1.shape[0], self.q2.shape[0]

    def weights(self) -> np.ndarray:
        """Multi-index weights w1[a] * w2[b], shape (N1, N2)."""
        return np.outer(self.w1, self.w2)


# ---------------------------------------------------------------------------
# Snapshot serialization: one row per particle, comma separated
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = "index,q,p,w,rho11,re_rho12,im_rho12,rho22"


def write_snapshot(e: ParticleEnsemble, fh) -> None:
    """Write the ensemble as delimited text (full float precision)."""
    fh.write(SNAPSHOT_HEADER + "\n")
    for a in range(e.n):
        row = (a, e.q[a], e.p[a], e.w[a],
               e.rho[a, 0, 0].real, e.rho[a, 0, 1].real,
               e.rho[a, 0, 1].imag, e.rho[a, 1, 1].real)
        fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_snapshot(fh) -> ParticleEnsemble:
    """Inverse of `write_snapshot`."""
    header = fh.readline().strip()
    if header != SNAPSHOT_HEADER:
        raise ValueError(f"unexpected snapshot header: {header!r}")
    rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = rows.shape[0]
    rho = np.empty((n, 2, 2), dtype=complex)
    rho[:, 0, 0] = rows[:, 4]
    rho[:, 0, 1] = rows[:, 5] + 1j * rows[:, 6]
    rho[:, 1, 0] = rows[:, 5] - 1j * rows[:, 6]
    rho[:, 1, 1] = rows[:, 7]
    return ParticleEnsemble(q=rows[:, 1], p=rows[:, 2], rho=rho, w=rows[:, 3])


def snapshot_string(e: ParticleEnsemble) -> str:
    buf = io.StringIO()
    write_snapshot(e, buf)
    return buf.getvalue()


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")
