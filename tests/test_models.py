import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcdyn.models import (DegeneratePotentialError, HybridHamiltonian,
                           adiabatic_basis, make_model, make_rabi, make_tully,
                           model_names, nac, spectral)
from mqcdyn.pauli import PauliVector, pauli_decompose, pauli_matrix

ALL_MODELS = ["tully1", "tully2", "tully3", "rabi_us", "rabi_ds"]

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(finite, finite, finite, finite)
def test_pauli_vector_reconstruction_is_hermitian(h0, h1, h2, h3):
    m = PauliVector(h0, h1, h2, h3).matrix()
    assert np.allclose(m, m.conj().T, atol=0.0)


@given(finite, finite, finite, finite)
def test_pauli_roundtrip(h0, h1, h2, h3):
    m = pauli_matrix(h0, h1, h2, h3)
    back = pauli_decompose(m)
    assert np.allclose(back, [h0, h1, h2, h3], rtol=1e-15, atol=1e-12)


def rng_points(seed=7, n=100):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-10.0, 10.0, n)
    # keep away from the C^1 kink of the scattering models at q=0 so the
    # central-difference oracle sees a smooth function
    q = np.where(np.abs(q) < 1e-3, q + 2e-3, q)
    p = rng.uniform(-25.0, 25.0, n)
    return q, p


@pytest.mark.parametrize("name", ALL_MODELS)
def test_gradients_match_finite_differences(name):
    h = make_model(name)
    q, p = rng_points()
    step = 1e-5
    for compare_axis in ("q", "p"):
        if compare_axis == "q":
            plus = h.pauli(q + step, p)
            minus = h.pauli(q - step, p)
            grad = h.grad_q(q, p)
        else:
            plus = h.pauli(q, p + step)
            minus = h.pauli(q, p - step)
            grad = h.grad_p(q, p)
        for gp, gm, ga in zip(plus, minus, grad):
            fd = (np.asarray(gp) - np.asarray(gm)) / (2.0 * step)
            # atol floor covers the round-off noise of the difference
            # quotient itself (~eps * |f| / step)
            assert np.allclose(np.asarray(ga), fd, rtol=1e-6, atol=1e-11)


def test_interaction_is_momentum_free():
    for name in ALL_MODELS:
        h = make_model(name)
        g0, g1, g2, g3 = h.grad_p(3.0, -2.0)
        assert g1 == 0.0 and g2 == 0.0 and g3 == 0.0


def test_tully1_values_at_origin():
    h = make_tully("I")
    h0, h1, h2, h3 = h.electronic_pauli(0.0)
    assert h3 == 0.0           # sgn(0) = 0
    assert h1 == pytest.approx(0.005)
    assert h0 == 0.0


def test_tully2_values_at_origin():
    h = make_tully("II")
    h0, h1, _, h3 = h.electronic_pauli(0.0)
    assert h0 == pytest.approx(-0.025)
    assert h3 == pytest.approx(0.025)
    assert h1 == pytest.approx(0.015)


def test_tully3_asymptotics():
    h = make_tully("III")
    s = spectral(h, -40.0)
    assert s.lambda2 - s.lambda1 == pytest.approx(2 * 0.0006, rel=1e-9)
    # coupling H1 is continuous and C^1 at the branch point
    h1_left = h.electronic_pauli(-1e-12)[1]
    h1_right = h.electronic_pauli(1e-12)[1]
    assert h1_left == pytest.approx(h1_right, abs=1e-12)
    d_left = h.d_interaction(-1e-12)[1]
    d_right = h.d_interaction(1e-12)[1]
    assert d_left == pytest.approx(d_right, abs=1e-10)


def test_rabi_values():
    us = make_rabi("ultrastrong")
    mat = us.matrix(0.0, 0.0)
    assert np.allclose(mat, 0.35 * np.array([[0, 1], [1, 0]]))
    ds = make_rabi("deep_strong")
    s = spectral(ds, 0.0)
    assert s.lambda2 - s.lambda1 == pytest.approx(0.2)
    g0, g1, g2, g3 = ds.grad_p(1.3, 2.5)
    assert (g0, g1, g2, g3) == (2.5, 0.0, 0.0, 0.0)


def test_spectral_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    for name in ALL_MODELS:
        h = make_model(name)
        for q in rng.uniform(-10, 10, 25):
            s = spectral(h, q)
            mat = pauli_matrix(*h.electronic_pauli(q))
            evals, evecs = np.linalg.eigh(mat)
            assert abs(s.lambda1 - evals[0]) < 1e-12
            assert abs(s.lambda2 - evals[1]) < 1e-12
            # same one-dimensional eigenspaces
            assert abs(abs(np.vdot(s.v1, evecs[:, 0])) - 1.0) < 1e-10
            assert abs(abs(np.vdot(s.v2, evecs[:, 1])) - 1.0) < 1e-10


def test_spectral_invariants():
    h = make_tully("I")
    for q in np.linspace(-9.7, 9.7, 41):
        s = spectral(h, q)
        assert s.lambda1 <= s.lambda2
        assert np.linalg.norm(s.v1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(s.v2) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(s.v1, s.v2)) < 1e-12
        mat = pauli_matrix(*h.electronic_pauli(q))
        assert np.linalg.norm(mat @ s.v1 - s.lambda1 * s.v1) < 1e-10
        assert np.linalg.norm(mat @ s.v2 - s.lambda2 * s.v2) < 1e-10
        # trace identity
        h0 = h.electronic_pauli(q)[0]
        assert s.lambda1 + s.lambda2 == pytest.approx(2 * float(h0), abs=1e-14)


def test_spectral_examples_tully1():
    h = make_tully("I")
    s0 = spectral(h, 0.0)
    assert s0.lambda1 == pytest.approx(-0.005)
    assert s0.lambda2 == pytest.approx(0.005)
    inv_sqrt2 = 1 / np.sqrt(2)
    assert np.allclose(np.abs(s0.v1), inv_sqrt2)
    assert np.allclose(np.abs(s0.v2), inv_sqrt2)
    s8 = spectral(h, -8.0)
    assert s8.lambda1 == pytest.approx(-0.01, rel=1e-4)
    assert np.allclose(s8.v1, [1.0, 0.0], atol=1e-12)


def test_nac_tully1_peak():
    h = make_tully("I")
    assert abs(nac(h, 0.0)) == pytest.approx(1.6, rel=1e-12)


def test_nac_tully3_decays_right():
    h = make_tully("III")
    assert abs(nac(h, 25.0)) < 1e-8


def test_nac_degenerate_raises():
    h = HybridHamiltonian(
        name="classical", mass=1.0,
        classical=lambda q, p: 0.5 * (np.asarray(q)**2 + np.asarray(p)**2),
        d_classical_q=lambda q, p: np.asarray(q, dtype=float) + 0.0 * np.asarray(p),
        d_classical_p=lambda q, p: np.asarray(p, dtype=float) + 0.0 * np.asarray(q),
        interaction=lambda q: (0.0 * np.asarray(q),) * 4,
        d_interaction=lambda q: (0.0 * np.asarray(q),) * 4,
    )
    with pytest.raises(DegeneratePotentialError):
        nac(h, 1.0)


def test_nac_matches_eigenvector_finite_difference():
    # with ascending eigenvalues the matrix-element form equals
    # -<v1 | d/dq v2>; checked away from the crossing, where the phase
    # convention keeps the eigenvector field smooth
    step = 1e-6
    for name, pts in [("tully1", (-3.0, -1.0, 0.7, 2.5)),
                      ("tully2", (-4.0, -1.0, 0.5, 4.0)),
                      ("tully3", (-6.0, -2.0, 1.5, 4.0)),
                      ("rabi_us", (-2.0, -0.5, 0.8, 2.0)),
                      ("rabi_ds", (-1.5, 0.4, 1.1, 2.2))]:
        h = make_model(name)
        for q in pts:
            v2p = spectral(h, q + step).v2
            v2m = spectral(h, q - step).v2
            dv2 = (v2p - v2m) / (2.0 * step)
            fd = np.vdot(spectral(h, q).v1, dv2)
            d = nac(h, q)
            assert abs(abs(d) - abs(fd.real)) < 1e-5
            assert abs(d + fd.real) < 1e-5


def test_adiabatic_basis_vectorized_matches_scalar():
    h = make_model("rabi_ds")
    qs = np.linspace(-3, 3, 11)
    lam1, lam2, v1, v2 = adiabatic_basis(h, qs)
    for i, q in enumerate(qs):
        s = spectral(h, float(q))
        assert lam1[i] == pytest.approx(s.lambda1, abs=1e-15)
        assert np.allclose(v1[i], s.v1)
        assert np.allclose(v2[i], s.v2)


def test_model_registry():
    assert set(model_names()) == set(ALL_MODELS)
    with pytest.raises(ValueError):
        make_model("nope")
    h = make_model("tully1", a=0.02)
    assert h.params["a"] == 0.02
    with pytest.raises(ValueError):
        make_model("tully1", bogus=1.0)


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("q,p,shape", [
    (np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)[None, :], (5, 4)),
    (np.linspace(-3.0, 3.0, 6), np.linspace(-2.0, 2.0, 6), (6,)),
    (-1.5, 0.5, ()),
])
def test_coefficients_come_back_as_float_arrays_of_the_broadcast_shape(name, q, p, shape):
    h = make_model(name)
    for coeffs in (h.pauli(q, p), h.grad_q(q, p), h.grad_p(q, p)):
        assert len(coeffs) == 4
        for c in coeffs:
            assert isinstance(c, np.ndarray)
            assert c.dtype == np.float64 and c.shape == shape
    el_shape = np.shape(q)
    coeffs = h.electronic_pauli(q)
    assert len(coeffs) == 4
    for c in coeffs:
        assert isinstance(c, np.ndarray)
        assert c.dtype == np.float64 and c.shape == el_shape
