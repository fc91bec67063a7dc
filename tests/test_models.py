import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcdyn.models import _cross, adiabatic_basis, make_model, model_names
from mqcdyn.pauli import pauli_components, pauli_matrix

from helpers import (DegeneratePotentialError, grad_p, grad_q, matrix, nac,
                     pauli)
from test_backreaction import purely_classical_model

ALL_MODELS = ["tully1", "tully2", "tully3", "rabi_us", "rabi_ds"]

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(finite, finite, finite, finite)
def test_pauli_vector_reconstruction_is_hermitian(h0, h1, h2, h3):
    m = pauli_matrix(h0, h1, h2, h3)
    assert np.allclose(m, m.conj().T, atol=0.0)


@given(finite, finite, finite, finite)
def test_pauli_roundtrip(h0, h1, h2, h3):
    m = pauli_matrix(h0, h1, h2, h3)
    back = pauli_components(m)
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
            plus = pauli(h, q + step, p)
            minus = pauli(h, q - step, p)
            grad = grad_q(h, q, p)
        else:
            plus = pauli(h, q, p + step)
            minus = pauli(h, q, p - step)
            grad = grad_p(h, q, p)
        for gp, gm, ga in zip(plus, minus, grad):
            fd = (np.asarray(gp) - np.asarray(gm)) / (2.0 * step)
            # atol floor covers the round-off noise of the difference
            # quotient itself (~eps * |f| / step)
            assert np.allclose(np.asarray(ga), fd, rtol=1e-6, atol=1e-11)


def test_interaction_is_momentum_free():
    for name in ALL_MODELS:
        h = make_model(name)
        g0, g1, g2, g3 = grad_p(h, 3.0, -2.0)
        assert g1 == 0.0 and g2 == 0.0 and g3 == 0.0


def test_tully1_values_at_origin():
    h = make_model("tully1")
    h0, h1, h2, h3 = h.electronic_pauli(0.0)
    assert h3 == 0.0           # sgn(0) = 0
    assert h1 == pytest.approx(0.005)
    assert h0 == 0.0


def test_tully2_values_at_origin():
    h = make_model("tully2")
    h0, h1, _, h3 = h.electronic_pauli(0.0)
    assert h0 == pytest.approx(-0.025)
    assert h3 == pytest.approx(0.025)
    assert h1 == pytest.approx(0.015)


def test_tully3_asymptotics():
    h = make_model("tully3")
    lam1, lam2, _, _ = adiabatic_basis(h, -40.0)
    assert lam2 - lam1 == pytest.approx(2 * 0.0006, rel=1e-9)
    # coupling H1 is continuous and C^1 at the branch point
    h1_left = h.electronic_pauli(-1e-12)[1]
    h1_right = h.electronic_pauli(1e-12)[1]
    assert h1_left == pytest.approx(h1_right, abs=1e-12)
    d_left = h.d_interaction(-1e-12)[1]
    d_right = h.d_interaction(1e-12)[1]
    assert d_left == pytest.approx(d_right, abs=1e-10)


def test_rabi_values():
    us = make_model("rabi_us")
    mat = matrix(us, 0.0, 0.0)
    assert np.allclose(mat, 0.35 * np.array([[0, 1], [1, 0]]))
    ds = make_model("rabi_ds")
    lam1, lam2, _, _ = adiabatic_basis(ds, 0.0)
    assert lam2 - lam1 == pytest.approx(0.2)
    g0, g1, g2, g3 = grad_p(ds, 1.3, 2.5)
    assert (g0, g1, g2, g3) == (2.5, 0.0, 0.0, 0.0)


def test_adiabatic_basis_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    for name in ALL_MODELS:
        h = make_model(name)
        for q in rng.uniform(-10, 10, 25):
            lam1, lam2, v1, v2 = adiabatic_basis(h, q)
            mat = pauli_matrix(*h.electronic_pauli(q))
            evals, evecs = np.linalg.eigh(mat)
            assert abs(lam1 - evals[0]) < 1e-12
            assert abs(lam2 - evals[1]) < 1e-12
            # same one-dimensional eigenspaces
            assert abs(abs(np.vdot(v1, evecs[:, 0])) - 1.0) < 1e-10
            assert abs(abs(np.vdot(v2, evecs[:, 1])) - 1.0) < 1e-10


def test_adiabatic_basis_invariants():
    h = make_model("tully1")
    for q in np.linspace(-9.7, 9.7, 41):
        lam1, lam2, v1, v2 = adiabatic_basis(h, q)
        assert lam1 <= lam2
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(v1, v2)) < 1e-12
        mat = pauli_matrix(*h.electronic_pauli(q))
        assert np.linalg.norm(mat @ v1 - lam1 * v1) < 1e-10
        assert np.linalg.norm(mat @ v2 - lam2 * v2) < 1e-10
        # trace identity
        h0 = h.electronic_pauli(q)[0]
        assert lam1 + lam2 == pytest.approx(2 * float(h0), abs=1e-14)


def test_adiabatic_basis_examples_tully1():
    h = make_model("tully1")
    lam1, lam2, v1, v2 = adiabatic_basis(h, 0.0)
    assert lam1 == pytest.approx(-0.005)
    assert lam2 == pytest.approx(0.005)
    inv_sqrt2 = 1 / np.sqrt(2)
    assert np.allclose(np.abs(v1), inv_sqrt2)
    assert np.allclose(np.abs(v2), inv_sqrt2)
    lam1, _, v1, _ = adiabatic_basis(h, -8.0)
    assert lam1 == pytest.approx(-0.01, rel=1e-4)
    assert np.allclose(v1, [1.0, 0.0], atol=1e-12)


def test_nac_tully1_peak():
    h = make_model("tully1")
    assert abs(nac(h, 0.0)) == pytest.approx(1.6, rel=1e-12)


def test_nac_tully3_decays_right():
    h = make_model("tully3")
    assert abs(nac(h, 25.0)) < 1e-8


def test_nac_degenerate_raises():
    with pytest.raises(DegeneratePotentialError):
        nac(purely_classical_model(), 1.0)


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
            v2p = adiabatic_basis(h, q + step)[3]
            v2m = adiabatic_basis(h, q - step)[3]
            dv2 = (v2p - v2m) / (2.0 * step)
            fd = np.vdot(adiabatic_basis(h, q)[2], dv2)
            d = nac(h, q)
            assert abs(abs(d) - abs(fd.real)) < 1e-5
            assert abs(d + fd.real) < 1e-5


def test_adiabatic_basis_vectorized_matches_per_point_calls():
    h = make_model("rabi_ds")
    qs = np.linspace(-3, 3, 11)
    lam1, lam2, v1, v2 = adiabatic_basis(h, qs)
    for i, q in enumerate(qs):
        lam1_q, _, v1_q, v2_q = adiabatic_basis(h, float(q))
        assert lam1[i] == pytest.approx(lam1_q, abs=1e-15)
        assert np.allclose(v1[i], v1_q)
        assert np.allclose(v2[i], v2_q)


def test_model_registry():
    assert set(model_names()) == set(ALL_MODELS)
    with pytest.raises(ValueError):
        make_model("nope")
    h = make_model("tully1", a=0.02)
    assert h.params["a"] == 0.02
    for name in ALL_MODELS:
        defaults = make_model(name).params
        assert make_model(name).name == name and "mass" in defaults
        # each default parameter is an override that lands in `params`
        for key, value in defaults.items():
            h = make_model(name, **{key: 1.5 * value})
            assert h.params == {**defaults, key: 1.5 * value}
            assert h.mass == h.params["mass"]
        with pytest.raises(ValueError, match=f"{name}.*bogus"):
            make_model(name, bogus=1.0)


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("q,p,shape", [
    (np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)[None, :], (5, 4)),
    (np.linspace(-3.0, 3.0, 6), np.linspace(-2.0, 2.0, 6), (6,)),
    (-1.5, 0.5, ()),
])
def test_coefficients_come_back_as_float_arrays_of_the_broadcast_shape(name, q, p, shape):
    h = make_model(name)
    for coeffs in (pauli(h, q, p), grad_q(h, q, p), grad_p(h, q, p)):
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


def test_cross_of_float_arrays_is_bitwise_np_cross():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 3, 50))
    got = np.stack(_cross(list(a), list(b)))
    assert got.tobytes() == np.cross(a.T, b.T).T.tobytes()


@pytest.mark.parametrize("zeros_a,zeros_b", [
    ((), ()), ((1,), ()), ((), (0, 2)), ((0, 2), (1,)), ((0, 1), (0, 1))])
def test_cross_into_out_has_the_same_bits(zeros_a, zeros_b):
    rng = np.random.default_rng(14)
    a = [0.0 if m in zeros_a else rng.standard_normal(20) for m in range(3)]
    b = [0.0 if m in zeros_b else rng.standard_normal(20) for m in range(3)]
    out = [np.full(20, np.nan) for _ in range(3)]
    got = _cross(a, b, out=out)
    for m, (c, want) in enumerate(zip(got, _cross(a, b))):
        if isinstance(want, np.ndarray):
            assert c is out[m] and c.tobytes() == want.tobytes()
        else:
            assert type(c) is float and c == 0.0
            assert np.isnan(out[m]).all()     # not written


@pytest.mark.parametrize("zeros_a,zeros_b", [
    ((1,), ()), ((), (0, 2)), ((0, 2), (1,)), ((0, 1), (0, 1)), ((0,), (0,))])
def test_cross_skips_scalar_zero_factors(zeros_a, zeros_b):
    # equal to np.cross of the broadcast zeros up to the sign of a zero;
    # a nonzero scalar factor multiplies like its broadcast array
    rng = np.random.default_rng(13)
    a = [0.0 if m in zeros_a else 0.7 if m == 2 else rng.standard_normal(20)
         for m in range(3)]
    b = [0.0 if m in zeros_b else rng.standard_normal(20) for m in range(3)]
    got = _cross(a, b)
    want = np.cross(np.stack(np.broadcast_arrays(*a)).T,
                    np.stack(np.broadcast_arrays(*b)).T).T
    for m, c in enumerate(got):
        assert np.array_equal(np.broadcast_to(c, (20,)), want[m])
        i, j = (m + 1) % 3, (m + 2) % 3
        if (i in zeros_a or j in zeros_b) and (j in zeros_a or i in zeros_b):
            assert type(c) is float and c == 0.0    # no product was formed
        else:
            assert isinstance(c, np.ndarray)
