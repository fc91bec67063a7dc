"""Each output check passes on valid data and fails on an injected fault.

    python3 -m pytest -q perfbench/test_checks.py
"""

import numpy as np
import pytest

import checks
from spans import PER_LAYER, layer_metrics, tail_index


def pure_states(n, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    v = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    return np.einsum("ai,aj->aij", v, v.conj())


def purity_of_mean(w, rho):
    mean = np.einsum("a,aij->ij", w, rho)
    return float(np.trace(mean @ mean).real)


def test_energy_drift():
    assert checks.check_energy_drift(np.array([0.0, 1e-4, 5e-3]), 1e-2) == []
    assert checks.check_energy_drift(np.array([0.0, 1e-4, 2e-2]), 1e-2)
    assert checks.check_energy_drift(np.array([0.0, np.nan]), 1e-2)


def test_populations():
    p1 = np.linspace(0.2, 0.9, 5)
    assert checks.check_populations(p1, 1.0 - p1) == []
    assert checks.check_populations(p1 + 0.2, 0.8 - p1)       # P1 above 1
    assert checks.check_populations(p1, 1.0 - p1 + 1e-6)      # P1 + P2 != 1


@pytest.mark.parametrize("fault", ["weights", "hermitian", "trace",
                                   "eigenvalues", "purity"])
def test_ensemble(fault):
    n = 50
    w = np.full(n, 1.0 / n)
    rho = pure_states(n)
    assert checks.check_ensemble(w, rho, purity_of_mean(w, rho), 1e-2) == []
    purity = purity_of_mean(w, rho)
    if fault == "weights":
        w = w * 1.001
    elif fault == "hermitian":
        rho[3, 0, 1] += 1e-6
    elif fault == "trace":
        rho[3] *= 1.0 + 1e-6
    elif fault == "eigenvalues":
        # a Bloch vector 10% too long: unit trace, Hermitian, eigenvalue -0.05
        rho[3] = 0.5 * np.eye(2) + 1.1 * (rho[3] - 0.5 * np.eye(2))
    else:
        purity += 1e-9
    assert checks.check_ensemble(w, rho, purity, 1e-2)


def gaussian_packet(r, mu_q, mu_p, sigma_q, v0=(0.6, 0.8j)):
    g = 1.0 / (2.0 * sigma_q**2)
    psi0 = (g / np.pi) ** 0.25 * np.exp(1j * mu_p * (r - mu_q) - 0.5 * g * (r - mu_q) ** 2)
    return np.stack([v0[0] * psi0, v0[1] * psi0])


def test_norm():
    r = np.linspace(-20.0, 20.0, 2048, endpoint=False)
    psi = gaussian_packet(r, -2.0, 5.0, 1.3)
    assert checks.check_norm(r, psi) == []
    assert checks.check_norm(r, psi * (1.0 + 1e-8))


def discrete_wigner(r, psi, p):
    """W(r_j, p) by the y-sum on the grid, written out here once more."""
    dr = r[1] - r[0]
    n = len(r)
    w = np.zeros((n, len(p)))
    for j in range(n):
        m = np.arange(-min(j, n - 1 - j), min(j, n - 1 - j) + 1)
        corr = np.sum(np.conj(psi[:, j + m]) * psi[:, j - m], axis=0)
        w[j] = (corr @ np.exp(2j * np.outer(m * dr, p))).real * dr / np.pi
    return w


def test_wigner_t0_and_marginal():
    r = np.linspace(-12.0, 12.0, 256, endpoint=False)
    mu_q, mu_p, sigma_q = 0.5, 2.0, 1.1
    psi = gaussian_packet(r, mu_q, mu_p, sigma_q)
    p = np.linspace(-4.0, 8.0, 181)
    w = discrete_wigner(r, psi, p)
    assert checks.check_wigner_t0(r, p, w, mu_q, mu_p, sigma_q) == []
    assert checks.check_wigner_t0(r, p, w, mu_q + 0.01, mu_p, sigma_q)
    density = np.sum(np.abs(psi) ** 2, axis=0)
    assert checks.check_wigner_marginal(p, w, density) == []
    assert checks.check_wigner_marginal(p, w * 1.01, density)


def test_compare():
    a = {"t": np.arange(0.0, 10.0, 1.0), "P1": np.linspace(0.0, 0.5, 10)}
    b = {"t": np.arange(0.0, 10.0, 2.0), "P1": np.linspace(0.1, 0.3, 5)}
    right = float(np.max(np.abs(a["P1"][::2] - b["P1"])))
    assert checks.check_compare(a, b, right) == []
    assert checks.check_compare(a, b, right + 1e-9)


def test_identical(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    one.write_text("t,P1\n0,0.5\n")
    two.write_text("t,P1\n0,0.5000000000000001\n")
    assert checks.check_identical([checks.digest(one)] * 3, "x") == []
    assert checks.check_identical([checks.digest(one), checks.digest(two)], "x")


def test_layer_metrics_self_time_and_tail():
    # run [0, 10] > propagate [1, 9] > rk4_step x 3, one with a build_grid
    spans = {
        "name": np.array(["runner.run", "dynamics.propagate", "dynamics.rk4_step",
                          "regularization.build_grid", "dynamics.rk4_step",
                          "dynamics.rk4_step"], dtype=object),
        "parent": np.array([-1, 0, 1, 2, 1, 1]),
        "start": np.array([0.0, 1.0, 2.0, 2.5, 4.0, 6.0]),
        "end": np.array([10.0, 9.0, 3.0, 2.75, 5.0, 8.0]),
        "size": np.array([0, 0, 0, 40, 0, 0]),
    }
    m = layer_metrics(spans)
    assert m["runner.run.self_s"] == pytest.approx(2.0)
    assert m["dynamics.propagate.self_s"] == pytest.approx(4.0)
    assert m["dynamics.rk4_step.calls"] == 3
    assert m["dynamics.rk4_step.ms_p50"] == pytest.approx(1000.0)
    assert m["regularization.box_nodes.total"] == 40
    assert tail_index(100) == 89 and tail_index(5) == 4
    # run.py adds the two metrics that do not come from spans
    assert set(m) | {"runner.artifact_bytes", "trace.overhead_s"} == set(PER_LAYER)
