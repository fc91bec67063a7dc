"""Quasi-random ensemble initialization.

Positions and momenta are drawn from the Gaussian phase-space distribution of
the initial wavepacket, N(mu_q, sigma_q^2) x N(mu_p, sigma_p^2) with
``sigma_p = 1/(2 sigma_q)`` (minimum-uncertainty pairing, hbar = 1), by
pushing a two-dimensional Sobol sequence through the inverse normal CDF.
The monotone transform preserves the low discrepancy of the sequence, which
is what makes the particle methods converge quickly in N.

The inverse normal CDF is a port of Cephes ``ndtri`` (S. L. Moshier), the
algorithm ``scipy.special.ndtri`` runs: a central rational approximation for
|u - 1/2| <= 1/2 - exp(-2) and two tail approximations in 1/x, with
x = sqrt(-2 ln y), split at x = 8.  The arithmetic runs in numpy, whose
+, -, *, / and sqrt round exactly as the C code does, in the Cephes Horner
order; only the two logs of each tail element are taken one at a time with
``math.log``, the C library's log, as in Cephes, because numpy's vectorized
``np.log`` differs from it in the last bit on some inputs.  So the result is
bitwise equal to scipy's ``ndtri`` and the package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import ParticleEnsemble
from .pauli import pauli_components

# Direction numbers for the standard two-dimensional Sobol sequence
# (Bratley & Fox / Joe & Kuo tables).  Dimension 1 is the base-2 van der
# Corput radical inverse; dimension 2 uses the primitive polynomial x + 1
# with initial direction integer m_1 = 1, giving m-values 1, 3, 5, 15, 17, ...
# via m_k = m_{k-1} xor (2 * m_{k-1}).  Points are generated in Gray-code
# order (Antonov-Saleev), matching the reference sequence
# (0,0), (1/2,1/2), (3/4,1/4), (1/4,3/4), (3/8,3/8), ...
_SOBOL_BITS = 52


def _direction_integers() -> np.ndarray:
    v = np.zeros((2, _SOBOL_BITS), dtype=np.uint64)
    m = 1
    for k in range(_SOBOL_BITS):
        v[0, k] = np.uint64(1) << np.uint64(_SOBOL_BITS - 1 - k)
        v[1, k] = np.uint64(m) << np.uint64(_SOBOL_BITS - 1 - k)
        m = m ^ (2 * m)
    return v


_DIRECTIONS = _direction_integers()


def sobol_2d(n: int, skip: int = 0) -> np.ndarray:
    """First ``n`` points of the 2D Sobol sequence after dropping ``skip``.

    Deterministic, unscrambled.  With ``skip >= 1`` the origin is dropped and
    every returned coordinate lies strictly inside (0, 1).  Point i is the
    XOR of the direction integers of the set bits of its Gray code
    i ^ (i >> 1), the closed form of the Antonov-Saleev recurrence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if skip < 0:
        raise ValueError("skip must be >= 0")
    gray = np.arange(skip, skip + n, dtype=np.uint64)
    gray ^= gray >> np.uint64(1)
    state = np.zeros((n, 2), dtype=np.uint64)
    for k in range(int(gray.max()).bit_length()):
        state[(gray >> np.uint64(k)) & np.uint64(1) == 1] ^= _DIRECTIONS[:, k]
    return state * 0.5 ** _SOBOL_BITS


# Cephes ndtri coefficient tables, highest power first.
# Central range |u - 1/2| <= 1/2 - exp(-2): numerator of
# x/sqrt(2 pi) = y + y y^2 P0(y^2)/Q0(y^2), y = u - 1/2.
_P0 = (
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
# Central range: denominator Q0.
_Q0 = (
    1.0,
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
)
# Tail with 2 <= x < 8, i.e. exp(-32) < y <= exp(-2): numerator of the
# correction z P1(z)/Q1(z), z = 1/x, subtracted from x - ln(x)/x.
_P1 = (
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
# Tail with 2 <= x < 8: denominator Q1.
_Q1 = (
    1.0,
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
)
# Far tail with x >= 8, i.e. y <= exp(-32): numerator of z P2(z)/Q2(z).
_P2 = (
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
# Far tail with x >= 8: denominator Q2.
_Q2 = (
    1.0,
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2), the central/tail branch point
_SQRT_2PI = 2.50662827463100050242


#: float64 bit masks: the quiet bit of a NaN, and the sign bit
_QUIET_NAN_BIT = np.uint64(1 << 51)
_SIGN_BIT = np.uint64(1 << 63)


def _polevl(x, coef: tuple):
    """Horner's rule, elementwise.  Cephes ``p1evl`` (leading coefficient 1)
    starts from ``x + coef[1]``, which is what ``1.0 * x + coef[1]`` rounds
    to."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(a: np.ndarray) -> np.ndarray:
    """``math.log`` of each element."""
    return np.fromiter(map(math.log, a.tolist()), dtype=float, count=a.size)


def inverse_normal_cdf(u):
    """Quantile function of the standard normal, elementwise on ``u``.

    Cephes ``ndtri``: the central rational approximation for
    |u - 1/2| <= 1/2 - exp(-2), and for the tails the approximations in
    z = 1/x, x = sqrt(-2 ln y) with y = min(u, 1 - u), split at x = 8
    (y = exp(-32)).  0 maps to -inf, 1 to +inf, and u outside [0, 1] to
    nan.  A nan input comes out as Cephes leaves it, quieted and with its
    sign flipped, its payload kept.  The result is bitwise equal to
    ``scipy.special.ndtri``: each element goes through the same operations
    in the same order, with ``math.log``, which is the C library's log.
    Returns a float array of the shape of ``u``, or a numpy scalar for a
    0-d input.
    """
    u = np.asarray(u, dtype=float)
    y0 = u.ravel()
    x = np.full(y0.shape, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    nan = np.isnan(y0)
    # in Cephes a nan falls through to the lower tail, whose arithmetic
    # carries it to the end, where the lower tail negates its result
    x[nan] = ((y0[nan].view(np.uint64) | _QUIET_NAN_BIT)
              ^ _SIGN_BIT).view(float)

    inside = (y0 > 0.0) & (y0 < 1.0)
    y = y0[inside]
    upper = y > 1.0 - _EXP_M2
    y[upper] = 1.0 - y[upper]
    central = y > _EXP_M2
    tail = ~central
    out = np.empty_like(y)

    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) \
        * _SQRT_2PI

    xt = np.sqrt(-2.0 * _log(y[tail]))
    x0 = xt - _log(xt) / xt
    z = 1.0 / xt
    x1 = np.where(xt < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)

    x[inside] = out
    return x.reshape(u.shape)[()]


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition parameters for a particle ensemble."""

    mu_q: float
    mu_p: float
    sigma_q: float
    rho0: np.ndarray = field(repr=False)
    n: int
    sobol_skip: int = 1

    def __post_init__(self):
        if not self.sigma_q > 0.0:
            raise ValueError("sigma_q must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sobol_skip < 1:
            raise ValueError("sobol_skip must be >= 1")
        object.__setattr__(self, "rho0", np.asarray(self.rho0, dtype=complex))
        if self.rho0.shape != (2, 2):
            raise ValueError("rho0 must be a 2x2 matrix")

    @property
    def sigma_p(self) -> float:
        """Momentum width 1/(2 sigma_q); sigma_q * sigma_p = 1/2."""
        return 1.0 / (2.0 * self.sigma_q)


def init_ensemble(spec: InitSpec) -> ParticleEnsemble:
    """Ensemble sampled from the wavepacket's Gaussian phase-space density.

    All particles share the weight 1/N and the quantum state ``rho0``.
    Deterministic: the same spec always yields the same ensemble.
    """
    u = sobol_2d(spec.n, skip=spec.sobol_skip)
    q = spec.mu_q + spec.sigma_q * inverse_normal_cdf(u[:, 0])
    p = spec.mu_p + spec.sigma_p * inverse_normal_cdf(u[:, 1])
    w = np.full(spec.n, 1.0 / spec.n)
    comp = pauli_components(spec.rho0)
    return ParticleEnsemble(q=q, p=p, w=w, components=np.repeat(
        comp[:, None], spec.n, axis=1))
