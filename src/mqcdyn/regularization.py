"""Gaussian regularization kernels and the adaptive quadrature grid.

The phase-space kernel is a product of 1D normalized Gaussians
``K(q, p) = Ktilde(q) Ktilde(p)`` with ``Ktilde(y) = exp(-y^2/alpha^2) /
(alpha sqrt(pi))``, i.e. a normal density of standard deviation
``sigma_K = alpha/sqrt(2)``.

Integrals are evaluated with the composite trapezoidal rule on a rectangular
box around the particle cloud.  Each axis of the box is a `Lattice`: a range
of the nodes ``i * spacing`` of one lattice through the origin, with the
spacings ``sigma_K/j_q`` and ``sigma_K/j_p`` fixed and the integer range of
``i`` the shortest that spans ``n_q sigma_K`` / ``n_p sigma_K`` beyond the
extreme particle coordinates.  The box is rebuilt from the current state at
every evaluation, but its nodes do not move with the cloud: a rebuilt box only
gains or loses nodes at its ends, and a node that two boxes share sits at
bitwise the same place in both.

The kernel is cut off at ``_KERNEL_CUTOFF sigma_K = 9 sigma_K``, where it is
``e^-40.5 ~ 2.6e-18`` of its peak: `kernel_rows` returns exact zeros for the
kernel and its derivatives at every node at least that far from the particle,
and every coupling integral and snapshot density is built from them.  The
default padding is the same radius, so a node that enters or leaves the box
lies at least that far from every particle and carries exact zeros.  Neither
the extent of the box nor where it starts enters the discrete energy: it is
the quadrature sum over the whole lattice, one smooth function of the state,
and the forces, which differentiate the kernel centres only, are its exact
gradient.  What is left is the cut itself: a step of at most ``e^-40.5`` of
the kernel's peak where a node crosses one particle's cutoff radius, and the
tail it drops.  The bohmion integrand weights the kernel by up to the cube of
K'/K, so at 8 sigma_K the tail that a lone bohmion misses on the lattice gave
it a self force of about 1e-12 at alpha = 0.5; at 9 sigma_K it is below
1e-15.  Both conditions are needed: with nodes that moved with the box, or a
padding short of the cutoff, the energy would change with the box in a way
the forces do not see, and the energy drift would stop converging with the
step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Smallest admissible kernel-mixture denominator; integrand terms where the
#: denominator underflows below this are set to zero (the exact integrand
#: vanishes there as well).
DENOMINATOR_FLOOR = 1e-300

#: Kernel cutoff radius in units of sigma_K, and the default box padding.
_KERNEL_CUTOFF = 9


class GridCoverageError(ValueError):
    """Particles lie outside the quadrature box they are paired with.

    ``particles`` holds their indices, ``bounds`` the (first, last) node of
    the box on each axis.
    """

    def __init__(self, particles: np.ndarray, bounds: tuple):
        self.particles = particles
        self.bounds = bounds
        box = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in bounds)
        more = " ..." if particles.size > 10 else ""
        super().__init__(f"{particles.size} particle(s) outside the quadrature "
                         f"box {box}: {particles[:10].tolist()}{more}")


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

    The padding defaults to the kernel cutoff radius, ``9 sigma_K``, so that
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


def kernel_rows(spec: KernelSpec, centers: np.ndarray, nodes: np.ndarray,
                n_rows: int = 2) -> np.ndarray:
    """The kernel Ktilde(node - center), then K' and K'' up to ``n_rows``
    rows, stacked to shape (n_rows, N, n_nodes): the only kernel evaluation.

    All are exact zeros where |node - center| >= _KERNEL_CUTOFF sigma_K, where
    the kernel is e^-40.5 of its peak.  The cut sits a relative 1e-10 inside
    that radius, so that the edge nodes of a box padded by it, which lie at
    the radius from the extreme particles up to rounding, carry exact zeros.
    """
    y = nodes[None, :] - centers[:, None]
    a2 = spec.alpha**2
    # -(y/alpha)^2, over y if no row reads y: K alone holds two (N, n) arrays
    t = np.square(y, out=y if n_rows == 1 else None)
    t /= -a2
    rows = np.zeros((n_rows,) + t.shape)
    k = rows[0]
    np.exp(t, out=k, where=t > -0.5 * _KERNEL_CUTOFF**2 * (1.0 - 1e-10))
    k /= spec.alpha * np.sqrt(np.pi)
    if n_rows > 1:
        np.multiply((-2.0 / a2) * y, k, out=rows[1])
    if n_rows == 3:
        np.multiply(4.0 / (a2 * a2) * y * y - 2.0 / a2, k, out=rows[2])
    return rows


class _Box:
    """The coverage check shared by the 1-D and the 2-D box; each box lists
    its `Lattice` per coordinate in ``axes``."""

    def check_coverage(self, *coords: np.ndarray) -> None:
        """Raise `GridCoverageError` unless every particle lies in the box;
        ``coords`` holds one coordinate array per axis."""
        outside = np.zeros(np.shape(coords[0]), dtype=bool)
        for axis, x in zip(self.axes, coords):
            outside |= (x < axis.nodes[0]) | (x > axis.nodes[-1])
        if outside.any():
            raise GridCoverageError(
                np.flatnonzero(outside),
                tuple((float(a.nodes[0]), float(a.nodes[-1])) for a in self.axes))


@dataclass(frozen=True)
class Lattice(_Box):
    """One axis of a quadrature box, and the 1-D box itself: the nodes
    ``spacing * i`` of the lattice through the origin for the integers
    ``i0 <= i <= i1``, with composite-trapezoid weights."""

    i0: int
    i1: int
    spacing: float

    @classmethod
    def covering(cls, x, pad: float, spacing: float) -> "Lattice":
        """The shortest index range whose nodes span ``[min x - pad,
        max x + pad]``; it extends that interval by less than one spacing at
        each end."""
        x = np.asarray(x, dtype=float)
        if x.size < 1:
            raise ValueError("at least one particle is required to build a grid")
        return cls(int(np.floor((np.min(x) - pad) / spacing)),
                   int(np.ceil((np.max(x) + pad) / spacing)), spacing)

    @property
    def axes(self) -> tuple["Lattice"]:
        return (self,)

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(self.i0, self.i1 + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.i1 - self.i0 + 1, self.spacing)
        w[[0, -1]] *= 0.5
        return w


@dataclass(frozen=True)
class QuadratureGrid(_Box):
    """The phase-space box: the tensor product of a q and a p `Lattice`."""

    q: Lattice
    p: Lattice

    @property
    def axes(self) -> tuple[Lattice, Lattice]:
        return self.q, self.p

    @property
    def q_nodes(self) -> np.ndarray:
        return self.q.nodes

    @property
    def p_nodes(self) -> np.ndarray:
        return self.p.nodes

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.q.nodes), len(self.p.nodes)


def build_grid(q: np.ndarray, p: np.ndarray, spec: KernelSpec,
               params: GridParams = GridParams()) -> QuadratureGrid:
    """Phase-space box for the current particle coordinates.

    Its axes are the lattices of spacing ``sigma_K/j_q`` and ``sigma_K/j_p``
    that cover ``[min q - n_q s, max q + n_q s] x [min p - n_p s,
    max p + n_p s]`` with ``s = sigma_K``.
    """
    s = spec.sigma_k
    return QuadratureGrid(Lattice.covering(q, params.n_q * s, s / params.j_q),
                          Lattice.covering(p, params.n_p * s, s / params.j_p))


def build_grid_1d(q: np.ndarray, spec: KernelSpec,
                  params: GridParams = GridParams()) -> Lattice:
    """Configuration-space box: the q axis of `build_grid`."""
    s = spec.sigma_k
    return Lattice.covering(q, params.n_q * s, s / params.j_q)


def quadrature(values: np.ndarray, box):
    """Composite trapezoid rule over a `Lattice` or a `QuadratureGrid`.

    Each axis's weights contract the matching leading axis of ``values``, so
    an array-valued integrand (e.g. Pauli components last) keeps its trailing
    axes; a scalar integrand gives a numpy scalar.
    """
    out = np.asarray(values)
    for axis in box.axes:
        out = np.tensordot(axis.weights, out, axes=1)
    return out[()]
