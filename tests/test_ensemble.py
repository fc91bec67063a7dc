import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mqcdyn.ensemble import (Ensemble2D, ParticleEnsemble, read_snapshot,
                             validate)
from mqcdyn.pauli import pauli_components, projector

from helpers import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z,
                     TRACE_RENORM_THRESHOLD, aggregate_density, from_rho,
                     hermitize, rehermitize, snapshot_string, validate_loop)

HERM_BASIS = np.stack([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])


def pure_state(theta, phi=0.0):
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return projector(v)


def small_ensemble(n=3, seed=0):
    rng = np.random.default_rng(seed)
    rho = np.stack([pure_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    return ParticleEnsemble(q=rng.normal(size=n), p=rng.normal(size=n),
                            components=pauli_components(rho),
                            w=np.full(n, 1.0 / n))


def test_rho_is_a_read_only_view_of_the_components():
    e = small_ensemble(4, seed=2)
    comp = e.components
    assert comp.shape == (4, 4) and comp.dtype == float
    assert np.allclose(np.einsum("m,mij->ij", comp[:, 1], HERM_BASIS),
                       e.rho[1])
    # an in-place edit of rho raises instead of being lost
    with pytest.raises(ValueError, match="read-only"):
        e.rho[1] = pure_state(2.0, 0.4)
    with pytest.raises(ValueError, match="read-only"):
        e.rho[0, 0, 1] += 1e-6j
    assert np.array_equal(e.components, comp)
    # an edit of the components shows in the next read of rho
    e.components[:, 1] = pauli_components(pure_state(2.0, 0.4))
    assert np.allclose(e.rho[1], pure_state(2.0, 0.4), rtol=0.0, atol=1e-16)
    assert [f.name for f in dataclasses.fields(ParticleEnsemble)] == \
        ["q", "p", "components", "w"]


def test_aggregate_single_particle_identity():
    e = small_ensemble(1)
    assert np.allclose(aggregate_density(e), e.rho[0])


def test_aggregate_equal_states_is_that_state():
    rho0 = pure_state(0.7)
    e = from_rho(np.zeros(4), np.zeros(4),
                 np.broadcast_to(rho0, (4, 2, 2)), np.full(4, 0.25))
    assert np.allclose(aggregate_density(e), rho0)


def test_aggregate_opposite_projectors_maximally_mixed():
    rho = np.stack([np.diag([1.0, 0.0]).astype(complex),
                    np.diag([0.0, 1.0]).astype(complex)])
    e = from_rho(np.zeros(2), np.zeros(2), rho, np.array([0.5, 0.5]))
    agg = aggregate_density(e)
    assert np.allclose(agg, 0.5 * np.eye(2))
    assert np.einsum("ij,ji->", agg, agg).real == pytest.approx(0.5)


@given(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
       st.floats(0.01, 0.99))
def test_aggregate_convexity_preserves_invariants(theta, phi, w1):
    rho = np.stack([pure_state(theta, phi), pure_state(theta + 1.0, phi + 0.5)])
    e = from_rho(np.zeros(2), np.zeros(2), rho, np.array([w1, 1.0 - w1]))
    agg = aggregate_density(e)
    assert np.allclose(agg, agg.conj().T)
    assert np.trace(agg).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(agg)
    assert evals.min() > -1e-12
    purity = float(np.einsum("ij,ji->", agg, agg).real)
    assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12


def test_validate_clean_ensemble():
    assert validate(small_ensemble()) == []


def test_validate_flags_bad_trace():
    e = small_ensemble()
    e.components[:, 1] *= 0.9
    report = validate(e)
    assert any(v.index == 1 and v.check == "trace" for v in report)


def test_validate_flags_weights():
    e = small_ensemble()
    e.w = e.w * 2.0
    checks = {(v.index, v.check) for v in validate(e)}
    assert (None, "weight_sum") in checks


def test_validate_flags_negative_eigenvalue():
    rho = np.array([[[1.2, 0.0], [0.0, -0.2]]], dtype=complex)
    e = from_rho(np.zeros(1), np.zeros(1), rho, np.ones(1))
    assert any(v.check == "positivity" for v in validate(e))


def defective_ensemble(seed, n=40):
    """A clean ensemble with trace, positivity, purity, weight and
    weight-sum defects injected at random particles."""
    e = small_ensemble(n, seed=seed)
    rng = np.random.default_rng(seed + 100)
    picks = rng.choice(n, size=(5, 3), replace=False)
    e.components[0, picks[0]] *= rng.uniform(0.5, 1.5, 3)     # trace
    e.components[1:, picks[1]] *= rng.uniform(1.1, 2.0, 3)    # |s| > c0
    e.components[1:, picks[2]] *= rng.uniform(0.0, 0.3, 3)    # purity < 1/2
    e.w[picks[3]] = -rng.uniform(0.0, 0.1, 3)                 # weight < 0
    e.w[picks[4]] = 0.0                                       # weight = 0
    e.w[0] += rng.uniform(-1e-6, 1e-6)                        # weight sum
    return e


@pytest.mark.parametrize("seed", range(6))
def test_validate_equals_the_loop_over_the_particles(seed):
    e = defective_ensemble(seed)
    assert {v.check for v in validate(e)} == {
        "trace", "positivity", "purity_range", "weight_positive", "weight_sum"}
    for tols in ({}, dict(trace_tol=0.3, psd_tol=1e-3)):
        got, expected = validate(e, **tols), validate_loop(e, **tols)
        assert [(v.index, v.check) for v in got] == \
            [(v.index, v.check) for v in expected]
        for v, u in zip(got, expected):
            assert v.magnitude == pytest.approx(u.magnitude, rel=1e-12,
                                                abs=1e-15)
    clean = small_ensemble(40, seed=seed)
    assert validate(clean) == validate_loop(clean) == []


def test_rehermitize_projects_and_renormalizes():
    rho = np.array([[[0.6, 0.1 + 0.05j], [0.1 - 0.02j, 0.5]]], dtype=complex)
    fixed = rehermitize(rho)
    assert np.allclose(fixed, np.conj(np.swapaxes(fixed, -1, -2)))
    assert np.trace(fixed[0]).real == pytest.approx(1.0, abs=1e-15)
    # a clean state passes through bitwise
    clean = np.asarray([pure_state(0.3)])
    assert np.array_equal(rehermitize(clean), clean)


def test_rehermitize_divides_only_the_drifted_matrices():
    rng = np.random.default_rng(12)
    n = 9
    rho = np.stack([pure_state(t, f) for t, f in
                    zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))])
    # a non-Hermitian part that leaves the real part of the trace alone
    noise = 1e-9 * (rng.standard_normal((n, 2, 2))
                    + 1j * rng.standard_normal((n, 2, 2)))
    noise[:, [0, 1], [0, 1]] = noise[:, [0, 1], [0, 1]].imag * 1j
    rho += noise
    # the trace of matrices 0, 4 and 8 drifts past the threshold; matrix 3
    # drifts by less than it
    rho[[0, 4, 8]] *= 1.0 + 1e-8
    rho[3] *= 1.0 + 0.5 * TRACE_RENORM_THRESHOLD
    projected = hermitize(rho)
    tr = (projected[:, 0, 0] + projected[:, 1, 1]).real
    drifted = np.abs(tr - 1.0) > TRACE_RENORM_THRESHOLD
    assert drifted.any() and not drifted.all() and not drifted[3]

    fixed = rehermitize(rho)
    assert fixed[~drifted].tobytes() == projected[~drifted].tobytes()
    assert fixed[drifted].tobytes() == \
        (projected[drifted] / tr[drifted][:, None, None]).tobytes()
    assert np.all(np.abs(np.trace(fixed[drifted], axis1=1, axis2=2) - 1.0) < 1e-15)


def test_snapshot_roundtrip():
    e = small_ensemble(5, seed=3)
    text = snapshot_string(e)
    back = read_snapshot(io.StringIO(text))
    assert np.array_equal(back.q, e.q)
    assert np.array_equal(back.p, e.p)
    assert np.array_equal(back.w, e.w)
    assert np.allclose(back.rho, e.rho, atol=0.0)
    # serialization is canonical: same ensemble, same bytes
    assert snapshot_string(e) == text
    # the state is stored as Pauli components and the table holds rho, so
    # a second round trip moves the rho columns by round-off alone
    again = np.loadtxt(io.StringIO(snapshot_string(back)), delimiter=",",
                       skiprows=1)
    first = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(again[:, :4], first[:, :4])
    assert np.max(np.abs(again[:, 4:] - first[:, 4:])) <= 2.0**-51


def test_snapshot_header_checked():
    with pytest.raises(ValueError):
        read_snapshot(io.StringIO("wrong,header\n"))


def test_snapshot_header_error_names_the_header_found():
    with pytest.raises(ValueError, match=re.escape(
            "unexpected snapshot header: 'wrong,header'")):
        read_snapshot(io.StringIO("wrong,header\n1,2\n"))


def test_snapshot_text_is_the_index_then_format_17g_per_value():
    # every value written as format(v, ".17g") writes it, special values
    # included, after the particle index written as an integer
    e = small_ensemble(12, seed=5)
    e.q[:6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]
    e.p[:4] = [1e16, -1.0, np.finfo(float).max, 2.2250738585072009e-308]
    e.w[1] = 0.0
    e.components[1:3, 2] = (-0.0, np.nan)
    lines = ["index,q,p,w,rho11,re_rho12,im_rho12,rho22"]
    for a in range(e.n):
        values = (e.q[a], e.p[a], e.w[a], e.rho[a, 0, 0].real,
                  e.rho[a, 0, 1].real, e.rho[a, 0, 1].imag,
                  e.rho[a, 1, 1].real)
        lines.append(",".join([str(a)] + [format(float(v), ".17g")
                                          for v in values]))
    assert snapshot_string(e) == "\n".join(lines) + "\n"
    assert lines[12].startswith("11,")
    assert lines[1].startswith("0,-0,") and lines[3].split(",")[6] == "nan"


def test_ensemble_shape_validation():
    with pytest.raises(ValueError):
        ParticleEnsemble(q=np.zeros(2), p=np.zeros(3),
                         components=np.zeros((4, 2)), w=np.ones(2))
    with pytest.raises(ValueError):
        ParticleEnsemble(q=np.zeros(2), p=np.zeros(2),
                         components=np.zeros((2, 4)), w=np.ones(2))


def test_ensemble2d_layout():
    rho = np.broadcast_to(pure_state(0.2), (2, 3, 2, 2)).copy()
    e2 = Ensemble2D(q1=np.zeros(2), p1=np.zeros(2), w1=np.full(2, 0.5),
                    q2=np.zeros(3), p2=np.zeros(3), w2=np.full(3, 1 / 3),
                    components=pauli_components(rho))
    assert e2.shape == (2, 3)
    w = e2.weights()
    assert w.shape == (2, 3)
    assert np.allclose(w.sum(), 1.0)
    with pytest.raises(ValueError):
        Ensemble2D(q1=np.zeros(2), p1=np.zeros(2), w1=np.full(2, 0.5),
                   q2=np.zeros(3), p2=np.zeros(3), w2=np.full(3, 1 / 3),
                   components=np.zeros((4, 3, 2)))
