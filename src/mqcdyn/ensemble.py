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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import pauli_components

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


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
# CSV tables: the one row format of every artifact
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = "index,q,p,w,rho11,re_rho12,im_rho12,rho22"


def _row_format(n_columns: int) -> str:
    """One CSV row: comma separated, each value as ``format(v, ".17g")``
    writes it, so every float64 reads back exactly."""
    return ",".join(["%.17g"] * n_columns)


def _write_table(fh, header: str, rows: np.ndarray) -> None:
    """``header`` (one or more lines), then each row of the 2-D ``rows``."""
    fh.write(header + "\n")
    row_format = _row_format(rows.shape[1]) + "\n"
    for row in rows:
        fh.write(row_format % tuple(row.tolist()))


def _read_table(fh, header: str, what: str) -> np.ndarray:
    """The rows `_write_table` wrote under the one-line ``header``."""
    found = fh.readline().strip()
    if found != header:
        raise ValueError(f"unexpected {what}: {found!r}")
    return np.loadtxt(fh, delimiter=",", ndmin=2)


def write_snapshot(e: ParticleEnsemble, fh) -> None:
    """Write the ensemble as delimited text (full float precision)."""
    rho = e.rho
    _write_table(fh, SNAPSHOT_HEADER, np.stack(
        [np.arange(e.n), e.q, e.p, e.w, rho[:, 0, 0].real, rho[:, 0, 1].real,
         rho[:, 0, 1].imag, rho[:, 1, 1].real], axis=1))


def read_snapshot(fh) -> ParticleEnsemble:
    """Inverse of `write_snapshot`."""
    rows = _read_table(fh, SNAPSHOT_HEADER, "snapshot header")
    rho = np.empty((rows.shape[0], 2, 2), dtype=complex)
    rho[:, 0, 0] = rows[:, 4]
    rho[:, 0, 1] = rows[:, 5] + 1j * rows[:, 6]
    rho[:, 1, 0] = rows[:, 5] - 1j * rows[:, 6]
    rho[:, 1, 1] = rows[:, 7]
    return ParticleEnsemble(q=rows[:, 1], p=rows[:, 2], rho=rho, w=rows[:, 3])

