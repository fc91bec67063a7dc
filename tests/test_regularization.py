import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mqcdyn.regularization import (GridCoverageError, GridParams, KernelSpec,
                                   build_grid, build_grid_1d, kernel_rows,
                                   quadrature)

from helpers import kernel_1d

widths = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)
offsets = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def kernel(spec, y, n_rows=1):
    """`kernel_rows` of one particle at the origin on the nodes ``y``:
    (n_rows, len(y)), K first."""
    return kernel_rows(spec, np.zeros(1), np.atleast_1d(y).astype(float),
                       n_rows)[:, 0]


def wide_grid_1d(spec, n_sigma=20.0, j=2):
    # centered box wide enough that the truncated kernel mass is negligible
    return build_grid_1d(np.array([0.0]), spec,
                         GridParams(n_q=int(np.ceil(n_sigma)), j_q=j))


@given(widths, offsets)
def test_kernel_symmetry(alpha, y):
    spec = KernelSpec(alpha=alpha)
    (k, k_minus), (dk, dk_minus) = kernel(spec, [y, -y], 2)
    assert k == k_minus
    assert dk == -dk_minus


def test_kernel_peak_value():
    spec = KernelSpec(alpha=0.5)
    (k,), (dk,) = kernel(spec, 0.0, 2)
    assert k == pytest.approx(2.0 / np.sqrt(np.pi))
    assert dk == 0.0


@pytest.mark.parametrize("y", [np.float64(-1.3), 0.7, -2, np.array(0.4),
                               np.linspace(-9.0, 9.0, 301),
                               np.linspace(-30.0, 30.0, 600).reshape(20, 30).T])
def test_kernel_equals_the_formula_bitwise(y):
    spec = KernelSpec(alpha=0.37)
    expected = np.exp(-(np.asarray(y, dtype=float) / spec.alpha) ** 2) / (
        spec.alpha * np.sqrt(np.pi))
    got = kernel_1d(spec, y)
    assert type(got) is type(expected)
    assert np.array_equal(np.asarray(got).view(np.uint64),
                          np.asarray(expected).view(np.uint64))


def test_kernel_derivatives_match_fd():
    spec = KernelSpec(alpha=0.7)
    y = np.linspace(-3, 3, 41)
    step = 1e-6
    _, dk, ddk = kernel(spec, y, 3)
    fd1, fd2 = (kernel(spec, y + step, 2)
                - kernel(spec, y - step, 2)) / (2 * step)
    assert np.allclose(dk, fd1, rtol=1e-8, atol=1e-10)
    assert np.allclose(ddk, fd2, rtol=1e-8, atol=1e-10)


def test_kernel_normalization_on_wide_grid():
    # trapezoid over [-20 sigma, 20 sigma] at spacing sigma/2
    spec = KernelSpec(alpha=0.5)
    grid = wide_grid_1d(spec)
    mass = quadrature(kernel(spec, grid.nodes)[0], grid)
    assert abs(mass - 1.0) < 1e-8


def test_kernel_mass_deficit_on_production_box():
    # a 2-sigma padding truncates the Gaussian tails: per axis the retained
    # mass is erf(sqrt(2)) ~= 0.9545, and the trapezoid rule adds an O(h^2)
    # boundary term since the integrand does not vanish at the box edge
    from scipy.integrate import quad
    from scipy.special import erf
    spec = KernelSpec(alpha=0.5)
    grid = build_grid_1d(np.array([0.0]), spec, GridParams(n_q=2, n_p=2))
    mass = quadrature(kernel(spec, grid.nodes)[0], grid)
    truncated, _ = quad(lambda y: float(kernel(spec, y)[0, 0]),
                        grid.nodes[0], grid.nodes[-1], epsabs=1e-14)
    assert truncated == pytest.approx(float(erf(np.sqrt(2.0))), abs=1e-12)
    assert mass == pytest.approx(truncated, abs=5e-3)


def test_sigma_k():
    assert KernelSpec(alpha=0.5).sigma_k == pytest.approx(0.5 / np.sqrt(2))
    with pytest.raises(ValueError):
        KernelSpec(alpha=0.0)


def test_build_grid_single_particle_box():
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(np.array([0.0]), np.array([0.0]), spec,
                      GridParams(n_q=2, n_p=2))
    s = spec.sigma_k
    assert grid.q_nodes[0] == pytest.approx(-2 * s)
    assert grid.q_nodes[-1] == pytest.approx(2 * s)
    assert grid.p_nodes[0] == pytest.approx(-2 * s)
    assert grid.p_nodes[-1] == pytest.approx(2 * s)
    assert grid.q.spacing == pytest.approx(s / 2)
    assert grid.q.spacing == pytest.approx(0.17677669529663687)
    # extent is an exact multiple of the spacing here: 9 nodes per axis
    assert grid.shape == (9, 9)


@pytest.mark.parametrize("seed", range(4))
def test_boxes_sit_on_one_global_lattice(seed):
    # every box is a range of the nodes i * spacing, the shortest that spans
    # [min - pad, max + pad]; the boxes of two clouds share their nodes
    rng = np.random.default_rng(seed)
    spec = KernelSpec(alpha=rng.uniform(0.2, 1.5))
    params = GridParams(n_q=int(rng.integers(1, 9)), n_p=8,
                        j_q=int(rng.integers(1, 5)), j_p=2)
    s = spec.sigma_k
    q = rng.uniform(-30, 30) + 3 * rng.standard_normal(9)
    p = rng.uniform(-30, 30) + 3 * rng.standard_normal(9)
    box = build_grid(q, p, spec, params)
    assert build_grid_1d(q, spec, params) == box.q
    assert box.q.spacing == s / params.j_q and box.p.spacing == s / params.j_p
    for axis, x, pad in ((box.q, q, params.n_q * s), (box.p, p, params.n_p * s)):
        assert np.array_equal(axis.nodes,
                              axis.spacing * np.arange(axis.i0, axis.i1 + 1))
        assert 0.0 <= (x.min() - pad) - axis.nodes[0] < axis.spacing
        assert 0.0 <= axis.nodes[-1] - (x.max() + pad) < axis.spacing
    # a shifted cloud's box overlaps this one and is bitwise equal to it on
    # the common index range
    other = build_grid(q + 1.3, p - 0.7, spec, params)
    for a, b in zip(box.axes, other.axes):
        lo, hi = max(a.i0, b.i0), min(a.i1, b.i1)
        assert hi > lo
        assert np.array_equal(a.nodes[lo - a.i0:hi - a.i0 + 1],
                              b.nodes[lo - b.i0:hi - b.i0 + 1])


def test_grid_covers_particles():
    spec = KernelSpec(alpha=0.5)
    q = np.random.default_rng(0).uniform(-3, 3, 17)
    p = np.random.default_rng(1).uniform(-2, 2, 17)
    grid = build_grid(q, p, spec)
    grid.check_coverage(q, p)               # no raise
    moved = q.copy()
    moved[[3, 11]] += 10.0
    with pytest.raises(GridCoverageError) as err:
        grid.check_coverage(moved, p)
    assert err.value.particles.tolist() == [3, 11]
    assert err.value.bounds == ((grid.q_nodes[0], grid.q_nodes[-1]),
                                (grid.p_nodes[0], grid.p_nodes[-1]))


def test_trapezoid_2d_constant_gives_area():
    spec = KernelSpec(alpha=1.0)
    grid = build_grid(np.array([0.0]), np.array([0.0]), spec)
    area = ((grid.q_nodes[-1] - grid.q_nodes[0])
            * (grid.p_nodes[-1] - grid.p_nodes[0]))
    ones = np.ones(grid.shape)
    assert quadrature(ones, grid) == pytest.approx(area, rel=1e-14)


def test_trapezoid_2d_odd_function_vanishes():
    spec = KernelSpec(alpha=1.0)
    grid = build_grid(np.array([0.0]), np.array([0.0]), spec)
    vals = grid.q_nodes[:, None] * np.exp(-grid.q_nodes[:, None] ** 2
                                          - grid.p_nodes[None, :] ** 2)
    assert abs(quadrature(vals, grid)) < 1e-15


def test_trapezoid_2d_gaussian_mass_wide_box():
    spec = KernelSpec(alpha=0.5)
    grid = build_grid(np.array([0.3]), np.array([-0.2]), spec,
                      GridParams(n_q=12, n_p=12))
    vals = (kernel(spec, grid.q_nodes - 0.3)[0, :, None]
            * kernel(spec, grid.p_nodes + 0.2)[0, None, :])
    assert quadrature(vals, grid) == pytest.approx(1.0, abs=1e-6)


def test_trapezoid_2d_matrix_valued():
    spec = KernelSpec(alpha=1.0)
    grid = build_grid(np.array([0.0]), np.array([0.0]), spec)
    scalar = np.exp(-grid.q_nodes[:, None] ** 2 - grid.p_nodes[None, :] ** 2)
    stacked = np.stack([scalar, 2 * scalar, -scalar], axis=-1)
    out = quadrature(stacked, grid)
    ref = quadrature(scalar, grid)
    assert np.allclose(out, [ref, 2 * ref, -ref], rtol=1e-14)


def test_grid_refinement_converges():
    # j = 2 is already converged for smooth Gaussian mixtures: doubling the
    # resolution moves the integral by a negligible relative amount
    spec = KernelSpec(alpha=0.5)
    q = np.array([-0.3, 0.4])
    p = np.array([0.1, -0.2])

    def mass(params):
        grid = build_grid(q, p, spec, params)
        vals = sum(0.5 * kernel(spec, grid.q_nodes - qa)[0, :, None]
                   * kernel(spec, grid.p_nodes - pa)[0, None, :]
                   for qa, pa in zip(q, p))
        return quadrature(vals, grid)

    coarse = mass(GridParams(n_q=8, n_p=8, j_q=2, j_p=2))
    fine = mass(GridParams(n_q=8, n_p=8, j_q=4, j_p=4))
    assert abs(coarse - fine) / abs(fine) < 1e-10
