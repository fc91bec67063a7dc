"""Pauli-basis helpers for 2x2 Hermitian matrices.

Every Hermitian 2x2 matrix is written as ``A = a0*1 + ax*sx + ay*sy + az*sz``
with real coefficients.  Throughout the package the "half Bloch vector" of a
density matrix rho is ``s_mu = Tr(rho sigma_mu)/2`` (so a trace-one pure state
has |s| = 1/2); keeping the trace component explicit lets energy gradients be
evaluated off the trace-one manifold, which the finite-difference tests need.

States are stored in this form: `ParticleEnsemble` and `Ensemble2D` hold the
rows c0, sx, sy, sz that `pauli_components` gives, and `pauli_matrix` turns
them back into 2x2 matrices where a table needs rho.
"""

from __future__ import annotations

import numpy as np


def pauli_matrix(h0, h1, h2, h3) -> np.ndarray:
    """2x2 Hermitian matrix from Pauli coefficients (scalars or arrays).

    For array inputs the component axes are appended, i.e. the result has
    shape ``np.shape(h0) + (2, 2)``.
    """
    h0, h1, h2, h3 = np.broadcast_arrays(h0, h1, h2, h3)
    out = np.empty(h0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = h0 + h3
    out[..., 0, 1] = h1 - 1j * h2
    out[..., 1, 0] = h1 + 1j * h2
    out[..., 1, 1] = h0 - h3
    return out


def pauli_components(a: np.ndarray) -> np.ndarray:
    """Pauli coefficients (a0, ax, ay, az) of Hermitian matrices, stacked on
    a first axis: shape ``(4,) + a.shape[:-2]`` for ``a`` of shape
    ``(..., 2, 2)``.

    Any anti-Hermitian part is discarded.
    """
    a = np.asarray(a)
    re, im = a.real, a.imag
    out = np.empty((4,) + a.shape[:-2])
    np.add(re[..., 0, 0], re[..., 1, 1], out=out[0, ...])
    np.add(re[..., 0, 1], re[..., 1, 0], out=out[1, ...])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=out[2, ...])
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=out[3, ...])
    out *= 0.5
    return out


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one density matrix v v^dagger for a normalized 2-vector."""
    v = np.asarray(v, dtype=complex).reshape(2)
    return np.outer(v, v.conj())
