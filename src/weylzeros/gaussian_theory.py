"""Closed-form Gaussian baseline: first intensity, its integrals, the limiting
pair correlation of the zero process, and the variance constant per unit length.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from .errors import NumericalInstabilityError

#: published value of the variance-per-unit-length constant
CW_REFERENCE = 0.18198

_RADICAND_ERROR = -1e-10

# the variance-constant integral: truncation |t|, panel width, nodes per panel
_CW_TRUNCATION, _CW_PANEL, _CW_NODES = 40.0, 0.5, 24


def _far_tail_intensity(x, n):
    """First intensity beyond the soft edge (x^2 > n), free of cancellation.

    With K(s, t) = sum_{i<=n} (st)^i / i!, d^2/ds dt log K at s = t = x equals
    Var(I) / x^2 for I ~ Poisson(x^2) truncated to {0, ..., n}, so the
    intensity is sqrt(Var I) / (pi x).  Beyond the edge the weights grow up to
    i = n; indexing by j = n - i, the weight relative to i = n is
    prod_{k<j} (n - k) / x^2, each factor below 1/zeta (zeta = x^2 / n) and
    below 1 - k/n, which bounds the terms kept above exp(-80).  The variance is
    taken about the mean, so nothing cancels however small it is.
    """
    u = x * x
    if math.isinf(u):
        return 0.0  # the intensity's limit; log(n / u) below would warn
    keep = min(80.0 / math.log1p((u - n) / n), math.sqrt(160.0 * n)) + 2
    m = n if keep >= n else int(keep)
    log_r = np.concatenate(([0.0], np.cumsum(np.log(np.arange(n, n - m, -1) / u))))
    p = np.exp(log_r)
    p /= p.sum()
    j = np.arange(m + 1)
    mean = float(p @ j)
    var = float(p @ (j - mean) ** 2)
    return math.sqrt(var) / (math.pi * x)


def intensity_gaussian(x, n):
    """First intensity of real zeros of the degree-n Gaussian Weyl polynomial.

    In the bulk and up to the soft edge (x^2 <= n) the ratio
    a = x^(2n) e^(-x^2) / Gamma(n+1, x^2) is formed entirely in the log domain
    (there Q(n+1, x^2) is at least about 1/2, so it cannot underflow) and
    rho = sqrt(1 + a(x^2 - n - 1) - a^2 x^2) / pi; round-off can push the
    radicand a hair below zero in the deep bulk, which is clamped, while
    anything materially negative or not finite signals a broken
    special-function path.  Beyond the edge that radicand cancels, and the
    truncated-Poisson variance form of `_far_tail_intensity` is used; there
    rho * pi * x^2 / sqrt(n) tends to zeta / (zeta - 1), zeta = x^2 / n.
    """
    if n < 1:
        raise NumericalInstabilityError("intensity requires n >= 1")
    if x < 0:
        raise NumericalInstabilityError("intensity defined for x >= 0")
    if x * x > n:
        return _far_tail_intensity(x, n)
    if x == 0.0:
        x = 1e-300  # log x appears only multiplied by 2n; limit is 1/pi smoothly
    log_a = 2 * n * math.log(x) - x * x - gammaln(n + 1) - math.log(gammaincc(n + 1, x * x))
    if not math.isfinite(log_a):
        raise NumericalInstabilityError(f"intensity log-ratio {log_a} at x={x}, n={n}")
    a = math.exp(log_a)
    radicand = 1.0 + a * (x * x - n - 1) - a * a * x * x
    if not (radicand >= _RADICAND_ERROR):  # also catches nan
        raise NumericalInstabilityError(
            f"intensity radicand {radicand} at x={x}, n={n}"
        )
    return math.sqrt(max(radicand, 0.0)) / math.pi


def expected_count_gaussian(iv, n):
    """Integral of the Gaussian intensity over [iv.a, iv.b] (adaptive quadrature)."""
    a, b = float(iv.a), float(iv.b)
    if b <= a:
        return 0.0
    val, _ = quad(lambda t: intensity_gaussian(t, n), a, b, epsrel=1e-8, limit=400)
    return float(val)


def _one_minus_u_series(t2):
    # 1 - e^{-t^2} - t^2 e^{-t^2 / 2}, stable at small t (leading term t^6/24);
    # terms: sum_{k>=2} (-1)^k t^{2k+2} [1/(k+1)! - 1/(2^k k!)], k < 2 vanishes
    total = 0.0
    for k in range(2, 42):
        c = 1.0 / math.factorial(k + 1) - 1.0 / (2**k * math.factorial(k))
        add = ((-1) ** k) * t2 ** (k + 1) * c
        total += add
        if abs(add) < 1e-22 * abs(total):
            break
    return total


def _pair_correlation_pieces(t):
    """(prefactor, delta, 1 - delta^2) for the zero-pair correlation at gap t.

    The conditional-covariance reduction of the two-point Kac-Rice integral for
    the stationary limit process (covariance e^{-t^2/2}) gives

        rho(0,t) = pref * (1 + delta*arcsin(delta)/sqrt(1-delta^2)) / pi^2,
        pref  = sqrt((1-u)^2 - t^4 u) / (1-u),            u = e^{-t^2},
        delta = e^{-t^2/2} (1 - t^2 - u) / (1 - u - t^2 u).

    All near-cancelling combinations are built from expm1/series pieces so the
    t -> 0 repulsion regime stays accurate.
    """
    t2 = t * t
    u = math.exp(-t2)
    su = math.exp(-t2 / 2)
    one_u = -math.expm1(-t2)
    den = one_u - t2 * u  # 1 - u - t^2 u, leading t^4/2
    num = su * (-math.expm1(-t2) - t2)  # e^{-t^2/2}(1 - t^2 - u), leading -t^4/2
    if t < 0.2:
        q_minus = _one_minus_u_series(t2)  # 1 - u - t^2 su, leading t^6/24
    else:
        q_minus = one_u - t2 * su
    q_plus = one_u + t2 * su
    q = q_minus * q_plus  # (1-u)^2 - t^4 u
    delta = num / den
    one_minus_d2 = one_u * q / (den * den)
    return math.sqrt(max(q, 0.0)) / one_u, delta, one_minus_d2


def pair_correlation_limit(t):
    """Two-point intensity rho(0, t) of the limiting zero process; even in t."""
    t = abs(float(t))
    if t == 0.0:
        raise NumericalInstabilityError("pair correlation requires t != 0")
    if t < 1e-6:
        return t / (4.0 * math.pi)  # series limit of the repulsion regime
    pref, delta, one_minus_d2 = _pair_correlation_pieces(t)
    if abs(delta) > 1.0 + 1e-9:
        raise NumericalInstabilityError(f"pair-correlation delta {delta} outside [-1, 1]")
    delta = min(1.0, max(-1.0, delta))
    one_minus_d2 = max(one_minus_d2, 0.0)
    if one_minus_d2 == 0.0:
        raise NumericalInstabilityError("pair-correlation correlation degenerate")
    val = pref * (1.0 + delta * math.asin(delta) / math.sqrt(one_minus_d2)) / math.pi**2
    return val


@dataclass(frozen=True)
class VarianceConstant:
    reading_a: float
    reading_b: float
    selected: float
    selected_name: str
    tail_bound: float
    truncation: float


def variance_constant_weyl():
    """Both printed readings of the variance constant, and the one matching
    the reference value 0.18198.

    reading_a = (1/pi) * I  and  reading_b = 1/pi + I  with
    I = int_R (rho(0,t) - 1/pi^2) dt, Gauss-Legendre panels of width 0.5
    truncated at |t| = 40 (integrand decays like e^{-t^2/2}; the analytic
    tail estimate is recorded).
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(_CW_NODES)
    total = 0.0
    lo = 0.0
    while lo < _CW_TRUNCATION - 1e-12:
        hi = min(lo + _CW_PANEL, _CW_TRUNCATION)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = mid + half * gl_x
        vals = np.array([pair_correlation_limit(p) - 1.0 / math.pi**2 for p in pts])
        total += half * float(gl_w @ vals)
        lo = hi
    integral = 2.0 * total  # even integrand
    tail = 2.0 * _CW_TRUNCATION**4 * math.exp(-_CW_TRUNCATION**2) / math.pi**2
    reading_a = integral / math.pi
    reading_b = 1.0 / math.pi + integral
    for name, value in (("reading_a", reading_a), ("reading_b", reading_b)):
        if abs(value - CW_REFERENCE) < 1e-3:
            return VarianceConstant(reading_a, reading_b, value, name, tail, _CW_TRUNCATION)
    raise NumericalInstabilityError(
        f"neither reading matches {CW_REFERENCE}: a={reading_a}, b={reading_b}"
    )
