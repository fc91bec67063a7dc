"""Particle-ensemble state shared by the koopmon, Ehrenfest and bohmion methods.

Storage is struct-of-arrays: positions, momenta and weights are contiguous
float arrays of length N, and the quantum state of every particle is stored
as its real Pauli components, one float array of shape (4, N) with rows c0,
sx, sy, sz: rho_a = c0_a 1 + s_a . sigma, with c0_a = Tr rho_a / 2 and s_a
the half Bloch vector.  The kernel rows and aggregate products of the
coupling terms, the equations of motion and the diagnostics all read these
arrays directly, so keeping each field contiguous matters.

A state stored this way is Hermitian by construction.  The time step adds
its increment to the three rows of s_a only, so each trace stays fixed bit
for bit.  The complex (N, 2, 2) ``rho`` is a read-only view built on
request, for the snapshot table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import pauli_components, pauli_matrix

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

#: the per-particle checks of `validate`, in the order it reports them
_PARTICLE_CHECKS = ("trace", "positivity", "purity_range", "weight_positive")


class Violation(NamedTuple):
    """One failed invariant: which particle (None for ensemble-level),
    which check, and how large the deviation is."""

    index: int | None
    check: str
    magnitude: float


@dataclass
class ParticleEnsemble:
    """N particles with phase-space coordinates, weights and quantum states.

    ``components`` (4, N) holds the Pauli components of every rho_a as rows:
    c0 and the three components of s_a.
    """

    q: np.ndarray
    p: np.ndarray
    components: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.components = np.asarray(self.components, dtype=float)
        n = self.q.shape[0]
        if not (self.p.shape == (n,) and self.w.shape == (n,)
                and self.components.shape == (4, n)):
            raise ValueError("inconsistent ensemble array shapes")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def rho(self) -> np.ndarray:
        """rho_a = c0_a 1 + s_a . sigma, shape (N, 2, 2), built on every
        access and read-only: the state is ``components``."""
        out = pauli_matrix(*self.components)
        out.flags.writeable = False
        return out

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(self.q.copy(), self.p.copy(),
                                self.components.copy(), self.w.copy())


def validate(e: ParticleEnsemble,
             trace_tol: float = TRACE_TOL,
             psd_tol: float = PSD_TOL) -> list[Violation]:
    """Check every ensemble invariant; returns the list of violations.

    Checks, per particle: unit trace 2 c0, positive semidefiniteness (the
    smaller eigenvalue c0 - |s|), purity 2 (c0^2 + |s|^2) in [1/2, 1] and
    weight positivity; plus the ensemble-level weight sum.  Violations come
    by particle, then in that order of checks.  An empty list means the
    state is physical at the given tolerances.
    """
    c0, s = e.components[0], e.components[1:]
    s2 = np.einsum("ma,ma->a", s, s)
    purity = 2.0 * (c0 * c0 + s2)
    lowest = c0 - np.sqrt(s2)
    trace_dev = np.abs(2.0 * c0 - 1.0)
    magnitude = np.stack([trace_dev, -lowest,
                          np.maximum(0.5 - purity, purity - 1.0), -e.w], axis=1)
    failed = np.stack([trace_dev > trace_tol, lowest < -psd_tol,
                       (purity < 0.5 - psd_tol) | (purity > 1.0 + psd_tol),
                       e.w <= 0.0], axis=1)
    out = [Violation(int(a), _PARTICLE_CHECKS[k], float(magnitude[a, k]))
           for a, k in zip(*np.nonzero(failed))]

    wsum_dev = abs(float(np.sum(e.w)) - 1.0)
    if wsum_dev > WEIGHT_SUM_TOL:
        out.append(Violation(None, "weight_sum", wsum_dev))
    return out


@dataclass
class Ensemble2D:
    """Multi-index ensemble for two classical degrees of freedom.

    Axis coordinates depend only on their own index: axis 1 carries
    ``(q1[a], p1[a])`` and axis 2 carries ``(q2[b], p2[b])``, while the
    quantum state and the weight ``w1[a] * w2[b]`` live on the multi-index.
    The storage layout enforces the factorized structure.

    ``components`` (4, N1, N2) holds the Pauli components of every
    rho_ab as rows c0, sx, sy, sz, as in `ParticleEnsemble`.
    """

    q1: np.ndarray
    p1: np.ndarray
    w1: np.ndarray
    q2: np.ndarray
    p2: np.ndarray
    w2: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        for name in ("q1", "p1", "w1", "q2", "p2", "w2", "components"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n1, n2 = self.q1.shape[0], self.q2.shape[0]
        if not (self.p1.shape == (n1,) and self.w1.shape == (n1,)
                and self.p2.shape == (n2,) and self.w2.shape == (n2,)
                and self.components.shape == (4, n1, n2)):
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
    """Inverse of `write_snapshot`, up to the round-off of converting the
    written rho back to Pauli components."""
    rows = _read_table(fh, SNAPSHOT_HEADER, "snapshot header")
    rho = np.empty((rows.shape[0], 2, 2), dtype=complex)
    rho[:, 0, 0] = rows[:, 4]
    rho[:, 0, 1] = rows[:, 5] + 1j * rows[:, 6]
    rho[:, 1, 0] = rows[:, 5] - 1j * rows[:, 6]
    rho[:, 1, 1] = rows[:, 7]
    return ParticleEnsemble(q=rows[:, 1], p=rows[:, 2],
                            components=pauli_components(rho), w=rows[:, 3])

