"""Shared construction and verification helpers for the test suite."""

import io

import numpy as np

from mqcdyn.dynamics import MethodKind, energy, rhs
from mqcdyn.ensemble import ParticleEnsemble, _row_format, write_snapshot
from mqcdyn.models import HybridHamiltonian
from mqcdyn.pauli import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, projector

HERM_BASIS = [IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z]

#: trace drift beyond which `rehermitize` renormalizes; the RK4 step adds a
#: traceless increment to rho and repairs nothing, so its trace drift stays
#: below this by round-off alone
TRACE_RENORM_THRESHOLD = 1e-12


def hermitize(rho):
    """Hermitian part (A + A^dagger)/2, preserving shape ``(..., 2, 2)``."""
    return 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))


def rehermitize(rho):
    """Project onto Hermitian matrices and renormalize the trace where it
    has drifted beyond `TRACE_RENORM_THRESHOLD`.

    The minimal-norm repair of round-off in a complex rho; it does not touch
    the spectrum otherwise.  Only the drifted matrices are divided, so the
    others come back as the Hermitian projection returns them.  No time step
    calls it: the steps of `mqcdyn.dynamics` carry real Pauli components,
    whose density matrices are Hermitian by construction.
    """
    out = hermitize(rho)
    tr = (out[..., 0, 0] + out[..., 1, 1]).real
    drifted = np.abs(tr - 1.0) > TRACE_RENORM_THRESHOLD
    if np.any(drifted):
        out[drifted] /= tr[drifted][:, None, None]
    return out


def snapshot_string(e):
    """The text `write_snapshot` writes for the ensemble."""
    buf = io.StringIO()
    write_snapshot(e, buf)
    return buf.getvalue()


def csv_row(rec):
    """The line of a `DiagnosticsRecord` in the time series table."""
    values = rec._values()
    return _row_format(len(values)) % values


def bloch_state(theta, phi=0.0):
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return projector(v)


def nan_past(q_cut):
    """A free particle with a constant two-level coupling whose dH/dq is NaN
    where q > q_cut: the motion is q0 + p t exactly until then."""
    return HybridHamiltonian(
        name="nan_past", mass=1.0,
        classical=lambda q, p: 0.5 * p**2,
        d_classical_q=lambda q, p: 0.0,
        d_classical_p=lambda q, p: p,
        interaction=lambda q: (0.0, 0.1, 0.0, 0.2),
        d_interaction=lambda q: (0.0, np.where(q > q_cut, np.nan, 0.0), 0.0, 0.0),
    )


def random_ensemble(n, seed, q0, p0, spread=0.5):
    rng = np.random.default_rng(seed)
    rho = np.stack([bloch_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    return ParticleEnsemble(q=q0 + spread * rng.standard_normal(n),
                            p=p0 + spread * rng.standard_normal(n),
                            rho=rho, w=np.full(n, 1.0 / n))


def fd_gradient_check(kind, e, h, spec, rtol=1e-5):
    """Verify that the analytic right-hand side is the w-scaled canonical
    gradient of the energy that RK4 integrates.

    Every energy evaluation builds its own default quadrature box from the
    (perturbed) state, as `rk4_step` does at every stage, so a box whose
    nodes move with the particles fails the check.

    Classical sector: dq/dt = dh/dp / w, dp/dt = -dh/dq / w via central
    differences of energy().  Quantum sector: reconstruct dh/drho_a from
    directional derivatives along the Hermitian basis, then compare
    drho_a with -(i/hbar) [dh/drho_a, rho_a] / w_a.
    """
    kind = MethodKind.parse(kind)
    deriv = rhs(kind, e, h, spec)

    def h_at(q, p, rho):
        return energy(kind, ParticleEnsemble(q=q, p=p, rho=rho, w=e.w), h,
                      spec)

    step = 1e-5
    scale = max(np.max(np.abs(deriv.dq)), np.max(np.abs(deriv.dp)),
                np.max(np.abs(deriv.drho)), 1e-8)
    for a in range(e.n):
        qp = e.q.copy(); qp[a] += step
        qm = e.q.copy(); qm[a] -= step
        dh_dq = (h_at(qp, e.p, e.rho) - h_at(qm, e.p, e.rho)) / (2 * step)
        pp = e.p.copy(); pp[a] += step
        pm = e.p.copy(); pm[a] -= step
        dh_dp = (h_at(e.q, pp, e.rho) - h_at(e.q, pm, e.rho)) / (2 * step)
        assert abs(deriv.dq[a] - dh_dp / e.w[a]) <= rtol * scale + 1e-12
        assert abs(deriv.dp[a] + dh_dq / e.w[a]) <= rtol * scale + 1e-12

        grad = np.zeros((2, 2), dtype=complex)
        for basis in HERM_BASIS:
            rp = e.rho.copy(); rp[a] = rp[a] + step * basis
            rm = e.rho.copy(); rm[a] = rm[a] - step * basis
            direction = (h_at(e.q, e.p, rp) - h_at(e.q, e.p, rm)) / (2 * step)
            # <G, B> = Tr(G B); the Pauli basis is orthogonal with norm^2 = 2
            grad += direction * basis / 2.0
        expected_drho = -1j * (grad @ e.rho[a] - e.rho[a] @ grad) / e.w[a]
        assert np.max(np.abs(deriv.drho[a] - expected_drho)) <= rtol * scale + 1e-12
