"""Hybrid Hamiltonians H(q,p) = H_C(q,p)*1 + H_I(q) in Pauli form.

Five built-in benchmark models: three single-avoided-crossing-family two-level
scattering models ("tully1", "tully2", "tully3") and a driven-spin/oscillator
model in two coupling regimes ("rabi_us", "rabi_ds").  `make_model` builds
each of them by name from its default parameters in `_PARAMS`, with any of
them overridden.  All quantities are in atomic units with hbar = 1.

The interaction term is a function of position only (no momentum coupling);
the classical part must be of the standard form ``p^2/(2M) + V_C(q)`` for the
grid-based quantum reference solver to apply, although the particle methods
only require smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Reduced Planck constant in atomic units, shared by every module.
HBAR = 1.0

#: Splitting below which two electronic levels are treated as exactly
#: degenerate: `_eigvec_from_pauli` then fixes the eigenvectors by convention,
#: v1 = (1, 0), and `diagnostics.particle_diagnostics` projects the lower
#: population on that v1.  The nonadiabatic coupling, undefined there, is the
#: test oracle `nac` in ``tests/helpers.py``.
DEGENERACY_EPS = 1e-14


def on_points(q, p, *coeffs):
    """Each coefficient as a float array of the broadcast shape of q and p.

    Coefficients of that shape are returned as they are; the others become
    read-only zero-stride views (`np.broadcast_to` costs ~5 us a call, so it
    is skipped where there is nothing to broadcast).
    """
    shape = np.broadcast(q, p).shape
    out = []
    for c in coeffs:
        c = np.asarray(c, dtype=float)
        out.append(c if c.shape == shape else np.broadcast_to(c, shape))
    return tuple(out)


def _is_zero(coeff) -> bool:
    """Whether a Hamiltonian coefficient is the scalar zero (not an array)."""
    return not isinstance(coeff, np.ndarray) and coeff == 0.0


def _cross(a, b, out=None) -> list:
    """Cross product a x b of two 3-component sequences of fields or scalars.

    Component m is a_i b_j - a_j b_i, (i, j) = (m + 1, m + 2) mod 3, formed
    as `np.cross` forms it, except that a product with a factor that is the
    scalar zero (`_is_zero`) is skipped; that changes at most the sign of a
    zero.  A component left with no product is the scalar 0.0.  ``out``, if
    given, holds one entry per component: a component with a product is
    written into its entry, an array, with the same bits and returned as it;
    the entry of a component without one is not read.
    """
    res = []
    for m in range(3):
        i, j = (m + 1) % 3, (m + 2) % 3
        o = None if out is None else out[m]
        c = 0.0
        if not (_is_zero(a[i]) or _is_zero(b[j])):
            c = a[i] * b[j] if o is None else np.multiply(a[i], b[j], out=o)
        if not (_is_zero(a[j]) or _is_zero(b[i])):
            c = c - a[j] * b[i] if o is None else np.subtract(
                c, a[j] * b[i], out=o)
        res.append(c)
    return res


@dataclass(frozen=True, eq=False)
class HybridHamiltonian:
    """Operator-valued phase-space function in Pauli form.

    ``classical`` and its derivatives are scalar functions of (q, p); the
    interaction callables return the four Pauli coefficients of H_I(q).
    The callables are applied elementwise to numpy arrays and may return
    scalars or arrays broadcastable to their inputs; `electronic_pauli`
    casts and broadcasts them to four float arrays of the shape of q.
    Models compare and hash by identity, so results computed for one model
    object can be kept for it alone.
    """

    name: str
    mass: float
    classical: Callable
    d_classical_q: Callable
    d_classical_p: Callable
    interaction: Callable
    d_interaction: Callable
    params: dict = field(default_factory=dict)

    def _coefficients(self, q, p, kinds: str = "hqp") -> list:
        """Pauli coefficients of H ("h"), dH/dq ("q") and dH/dp ("p") at
        (q, p), one 4-tuple per letter of ``kinds``, in that order.

        They are the callables' values as returned, neither cast nor
        broadcast: a constant coefficient stays a scalar.  This is the one
        evaluation of the callables; `dynamics` and `backreaction` read it
        as it is, and `electronic_pauli` broadcasts it.  A coefficient that
        is the scalar zero (`_is_zero`) states that its component vanishes
        everywhere: `dynamics` and `backreaction` skip every product with
        it, in the one cross product `_cross` and in their sums, so it costs
        nothing, while an array of zeros is computed with like any other
        field.
        """
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        out = []
        for kind in kinds:
            if kind == "h":
                i0, i1, i2, i3 = self.interaction(q)
                out.append((self.classical(q, p) + i0, i1, i2, i3))
            elif kind == "q":
                d0, d1, d2, d3 = self.d_interaction(q)
                out.append((self.d_classical_q(q, p) + d0, d1, d2, d3))
            else:  # "p": the interaction is p-free
                out.append((self.d_classical_p(q, p), 0.0, 0.0, 0.0))
        return out

    def electronic_pauli(self, q):
        """Pauli coefficients of the electronic matrix V_C(q)*1 + H_I(q)."""
        return on_points(q, 0.0, *self._coefficients(q, 0.0, "h")[0])


# ---------------------------------------------------------------------------
# Benchmark model definitions
# ---------------------------------------------------------------------------

#: Default parameters of each model; `make_model` accepts these names, and
#: no others, as overrides.
_PARAMS = {
    "tully1": dict(a=0.01, b=1.6, c=0.005, d=1.0, mass=2000.0),
    "tully2": dict(a=0.05, b=0.28, c=0.015, d=0.06, e0=0.025, mass=2000.0),
    "tully3": dict(a=0.0006, b=0.1, c=0.9, mass=2000.0),
    "rabi_us": dict(gamma=0.29, c0=0.35, mass=1.0, omega=1.0),
    "rabi_ds": dict(gamma=1.85, c0=0.1, mass=1.0, omega=1.0),
}


def _tully(name: str, prm: dict) -> tuple:
    """The five callables of a two-level scattering model, "tully1",
    "tully2" or "tully3".

    Kinetic part p^2/(2M) with M = 2000; the diabatic functions follow the
    standard single/dual avoided crossing and extended coupling forms.
    """
    mass = prm["mass"]

    def classical_kinetic(q, p):
        return p**2 / (2.0 * mass)

    def d_cl_q(q, p):
        return 0.0

    def d_cl_p(q, p):
        return p / mass

    # the kinetic part alone, unless the branch below adds V_C(q) (tully2)
    classical = classical_kinetic
    a, b, c = prm["a"], prm["b"], prm["c"]

    if name == "tully1":
        d = prm["d"]

        def interaction(q):
            h1 = c * np.exp(-d * q**2)
            h3 = a * np.sign(q) * (1.0 - np.exp(-b * np.abs(q)))
            return 0.0, h1, 0.0, h3

        def d_interaction(q):
            dh1 = -2.0 * c * d * q * np.exp(-d * q**2)
            # one-sided derivatives agree at q=0, so the kink is C^1
            dh3 = a * b * np.exp(-b * np.abs(q))
            return 0.0, dh1, 0.0, dh3

    elif name == "tully2":
        d, e0 = prm["d"], prm["e0"]

        def h0_fn(q):
            return e0 - a * np.exp(-b * q**2)

        def classical(q, p):
            return classical_kinetic(q, p) + h0_fn(q)

        def d_cl_q(q, p):
            return 2.0 * a * b * q * np.exp(-b * q**2)

        def interaction(q):
            h1 = c * np.exp(-d * q**2)
            return 0.0, h1, 0.0, -h0_fn(q)

        def d_interaction(q):
            dh1 = -2.0 * c * d * q * np.exp(-d * q**2)
            dh3 = -2.0 * a * b * q * np.exp(-b * q**2)
            return 0.0, dh1, 0.0, dh3

    else:  # tully3
        def interaction(q):
            h1 = np.where(q > 0.0,
                          b * (2.0 - np.exp(-c * np.clip(q, 0.0, None))),
                          b * np.exp(c * np.clip(q, None, 0.0)))
            return 0.0, h1, 0.0, a

        def d_interaction(q):
            dh1 = b * c * np.exp(-c * np.abs(q))
            return 0.0, dh1, 0.0, 0.0

    return classical, d_cl_q, d_cl_p, interaction, d_interaction


def _rabi(prm: dict) -> tuple:
    """The five callables of a harmonic oscillator driving a two-level spin.

    H = (p^2/M + M w^2 q^2)/2 * 1 + gamma*q*sz + C0*sx with M = w = 1;
    "rabi_us" and "rabi_ds" differ only in gamma and C0.
    """
    mass, omega, gamma, c0 = prm["mass"], prm["omega"], prm["gamma"], prm["c0"]

    def classical(q, p):
        return 0.5 * (p**2 / mass + mass * omega**2 * q**2)

    def d_cl_q(q, p):
        return mass * omega**2 * q

    def d_cl_p(q, p):
        return p / mass

    def interaction(q):
        return 0.0, c0, 0.0, gamma * q

    def d_interaction(q):
        return 0.0, 0.0, 0.0, gamma

    return classical, d_cl_q, d_cl_p, interaction, d_interaction


def model_names() -> list[str]:
    return sorted(_PARAMS)


def make_model(name: str, **overrides) -> HybridHamiltonian:
    """Build a benchmark model by name (a key of `_PARAMS`), with any of its
    parameters overridden; ``params`` of the model holds every value."""
    if name not in _PARAMS:
        raise ValueError(f"unknown model {name!r}; choose from {model_names()}")
    prm = dict(_PARAMS[name])
    unknown = set(overrides) - set(prm)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    prm.update(overrides)
    callables = _rabi(prm) if name.startswith("rabi") else _tully(name, prm)
    return HybridHamiltonian(name, prm["mass"], *callables, params=prm)


# ---------------------------------------------------------------------------
# Adiabatic basis
# ---------------------------------------------------------------------------

def _eigvec_from_pauli(h1, h2, h3, upper: bool):
    """Unit eigenvector of h1*sx + h2*sy + h3*sz for the eigenvalue +r
    (``upper``) or -r, vectorized over inputs; shape (..., 2).

    Branch choice keeps the formulas away from their removable singularities;
    the phase is then fixed so the largest-magnitude component is real
    positive (ties resolved toward the first component).  At exact
    degeneracy the vectors are the canonical basis.
    """
    r = np.sqrt(h1**2 + h2**2 + h3**2)
    off = h1 + 1j * h2          # matrix element <2|H|1>
    v = np.empty(np.shape(r) + (2,), dtype=complex)

    use_minus = h3 <= 0.0       # stable branch selector
    if upper:
        v[..., 0] = np.where(use_minus, np.conj(off), r + h3)
        v[..., 1] = np.where(use_minus, r - h3, off)
    else:
        v[..., 0] = np.where(use_minus, r - h3, -np.conj(off))
        v[..., 1] = np.where(use_minus, -off, r + h3)

    degenerate = r <= DEGENERACY_EPS
    if np.any(degenerate):
        v[degenerate] = (0.0, 1.0) if upper else (1.0, 0.0)

    norm = np.sqrt(np.abs(v[..., 0])**2 + np.abs(v[..., 1])**2)
    v /= norm[..., None]
    mag0 = np.abs(v[..., 0])
    mag1 = np.abs(v[..., 1])
    dominant = np.where(mag0 >= mag1, v[..., 0], v[..., 1])
    phase = np.where(np.abs(dominant) > 0.0, dominant / np.abs(dominant), 1.0)
    v /= phase[..., None]
    return v


def adiabatic_basis(h: HybridHamiltonian, q):
    """Vectorized PES values and adiabatic basis at positions ``q``.

    Returns ``(lam1, lam2, v1, v2)`` with eigenvalues ascending and
    eigenvector arrays of shape ``q.shape + (2,)``.
    """
    h0, h1, h2, h3 = h.electronic_pauli(q)
    r = np.sqrt(h1**2 + h2**2 + h3**2)
    return (h0 - r, h0 + r, _eigvec_from_pauli(h1, h2, h3, upper=False),
            _eigvec_from_pauli(h1, h2, h3, upper=True))
