"""Gaussian regularization kernels and the adaptive quadrature grid.

The phase-space kernel is a product of 1D normalized Gaussians
``K(q, p) = Ktilde(q) Ktilde(p)`` with ``Ktilde(y) = exp(-y^2/alpha^2) /
(alpha sqrt(pi))``, i.e. a normal density of standard deviation
``sigma_K = alpha/sqrt(2)``.

Integrals are evaluated with the composite trapezoidal rule on a rectangular
box that tracks the particle cloud: the box extends ``n_q sigma_K`` /
``n_p sigma_K`` beyond the extreme particle coordinates and is rebuilt from
the current state at every evaluation, while the spacings ``sigma_K/j_q`` and
``sigma_K/j_p`` are fixed.  When the box extent is not an integer multiple of
the spacing, the upper edge is pushed out to the next grid node, so nodes are
always anchored at the lower edge with uniform spacing.

The kernel is cut off at ``_KERNEL_CUTOFF sigma_K = 8 sigma_K``, where it is
``e^-32 ~ 1.3e-14`` of its peak: `backreaction._kernel_rows` returns exact
zeros for the kernel and its derivatives at every node at least that far from
the particle, and every coupling integral is built from those rows.  The
default padding is the same radius.  Because the box is rebuilt at every RK4
stage, it gains or loses nodes as the cloud moves; a node that enters or
leaves a box padded by the cutoff radius lies at least that far from every
particle, so it carries exact zeros and the discrete energy does not depend
on the box extent.  What is left is a step of at most ``e^-32`` of the
kernel's peak where a node crosses the cutoff radius of one particle.  With
a ``2 sigma_K`` padding the edge kernel was still ``e^-2`` of its peak and the
energy drift stopped converging with the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Smallest admissible kernel-mixture denominator; integrand terms where the
#: denominator underflows below this are set to zero (the exact integrand
#: vanishes there as well).
DENOMINATOR_FLOOR = 1e-300

#: Kernel cutoff radius in units of sigma_K, and the default box padding.
_KERNEL_CUTOFF = 8


class GridCoverageError(ValueError):
    """A particle lies outside the quadrature box it is paired with."""


@dataclass(frozen=True)
class KernelSpec:
    """Width parameter of the Gaussian regularization kernel."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"kernel width alpha must be positive, got {self.alpha}")

    @property
    def sigma_k(self) -> float:
        """Standard deviation of the 1D kernel, alpha/sqrt(2)."""
        return self.alpha / np.sqrt(2.0)


@dataclass(frozen=True)
class GridParams:
    """Box padding multiples and nodes-per-sigma for the quadrature grid.

    The padding defaults to the kernel cutoff radius, ``8 sigma_K``, so that
    every kernel is exactly zero on the edge nodes and the box-size changes
    between RK4 stages leave the conserved energy unchanged; see the module
    docstring.
    """

    n_q: int = _KERNEL_CUTOFF
    n_p: int = _KERNEL_CUTOFF
    j_q: int = 2
    j_p: int = 2

    def __post_init__(self):
        for name in ("n_q", "n_p", "j_q", "j_p"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


def kernel_1d(spec: KernelSpec, y):
    """Normalized 1D Gaussian kernel Ktilde(y)."""
    y = np.asarray(y, dtype=float)
    return np.exp(-(y / spec.alpha) ** 2) / (spec.alpha * np.sqrt(np.pi))


def kernel_1d_deriv(spec: KernelSpec, y):
    """d/dy of the 1D kernel, -2y/alpha^2 * Ktilde(y)."""
    y = np.asarray(y, dtype=float)
    return -2.0 * y / spec.alpha**2 * kernel_1d(spec, y)


def kernel_1d_deriv2(spec: KernelSpec, y):
    """Second derivative of the 1D kernel."""
    y = np.asarray(y, dtype=float)
    a2 = spec.alpha**2
    return (4.0 * y**2 / a2**2 - 2.0 / a2) * kernel_1d(spec, y)


def _axis_nodes(lo: float, hi: float, spacing: float) -> np.ndarray:
    extent = hi - lo
    # never collapse to a single node; ceil pushes the upper edge outward
    n_cells = max(int(np.ceil(extent / spacing - 1e-12)), 1)
    return lo + spacing * np.arange(n_cells + 1)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D quadrature grid for configuration-space integrals.

    ``rule`` is "midpoint" (nodes at cell centers, equal weights) or
    "trapezoid" (nodes include the box edges, half-weighted there).
    """

    nodes: np.ndarray
    spacing: float
    rule: str = "midpoint"

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.nodes.shape, self.spacing)
        if self.rule == "trapezoid":
            w[0] *= 0.5
            w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product trapezoid grid over the phase-space truncation box."""

    q_nodes: np.ndarray
    p_nodes: np.ndarray
    dq: float
    dp: float

    @property
    def q_min(self) -> float:
        return float(self.q_nodes[0])

    @property
    def q_max(self) -> float:
        return float(self.q_nodes[-1])

    @property
    def p_min(self) -> float:
        return float(self.p_nodes[0])

    @property
    def p_max(self) -> float:
        return float(self.p_nodes[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.q_nodes), len(self.p_nodes)

    def trap_weights_q(self) -> np.ndarray:
        w = np.full(self.q_nodes.shape, self.dq)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def trap_weights_p(self) -> np.ndarray:
        w = np.full(self.p_nodes.shape, self.dp)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def check_coverage(self, q: np.ndarray, p: np.ndarray) -> None:
        if (np.min(q) < self.q_min or np.max(q) > self.q_max
                or np.min(p) < self.p_min or np.max(p) > self.p_max):
            raise GridCoverageError(
                "particles outside quadrature box "
                f"[{self.q_min}, {self.q_max}] x [{self.p_min}, {self.p_max}]")


def build_grid(q: np.ndarray, p: np.ndarray, spec: KernelSpec,
               params: GridParams = GridParams()) -> QuadratureGrid:
    """Quadrature grid adapted to the current particle coordinates.

    The box is ``[min q - n_q s, max q + n_q s] x [min p - n_p s, max p + n_p s]``
    with ``s = sigma_K``; spacings are ``sigma_K/j_q`` and ``sigma_K/j_p``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.size < 1:
        raise ValueError("at least one particle is required to build a grid")
    s = spec.sigma_k
    dq = s / params.j_q
    dp = s / params.j_p
    q_nodes = _axis_nodes(np.min(q) - params.n_q * s, np.max(q) + params.n_q * s, dq)
    p_nodes = _axis_nodes(np.min(p) - params.n_p * s, np.max(p) + params.n_p * s, dp)
    return QuadratureGrid(q_nodes=q_nodes, p_nodes=p_nodes, dq=dq, dp=dp)


def build_grid_1d(q: np.ndarray, spec: KernelSpec,
                  params: GridParams = GridParams(),
                  rule: str = "midpoint") -> Grid1D:
    """1D analogue of `build_grid` over the position coordinates only.

    The default composite midpoint rule keeps every node strictly inside the
    truncation box, which noticeably reduces the edge noise of the
    kernel-ratio integrands as the box follows the cloud.
    """
    q = np.asarray(q, dtype=float)
    if q.size < 1:
        raise ValueError("at least one particle is required to build a grid")
    if rule not in ("midpoint", "trapezoid"):
        raise ValueError(f"unknown quadrature rule {rule!r}")
    s = spec.sigma_k
    dr = s / params.j_q
    lo = np.min(q) - params.n_q * s
    hi = np.max(q) + params.n_q * s
    if rule == "trapezoid":
        return Grid1D(nodes=_axis_nodes(lo, hi, dr), spacing=dr, rule=rule)
    n_cells = max(int(np.ceil((hi - lo) / dr - 1e-12)), 1)
    nodes = lo + dr * (np.arange(n_cells) + 0.5)
    return Grid1D(nodes=nodes, spacing=dr, rule=rule)


def trapezoid_1d(values: np.ndarray, grid: Grid1D) -> float:
    """Composite quadrature on a `Grid1D`; the weights come from the grid's
    rule (midpoint or trapezoid)."""
    return float(np.sum(np.asarray(values) * grid.weights))


def trapezoid_2d(values: np.ndarray, grid: QuadratureGrid):
    """Composite trapezoid rule over the box.

    ``values`` has shape ``grid.shape`` for a scalar integrand, or
    ``grid.shape + extra`` for an array-valued integrand (e.g. Pauli
    components); the quadrature is applied to the two leading axes.
    """
    values = np.asarray(values)
    wq = grid.trap_weights_q()
    wp = grid.trap_weights_p()
    weighted = values * wq.reshape((-1, 1) + (1,) * (values.ndim - 2))
    weighted = weighted * wp.reshape((1, -1) + (1,) * (values.ndim - 2))
    return np.sum(weighted, axis=(0, 1))
