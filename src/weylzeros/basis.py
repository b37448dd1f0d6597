"""Localized, log-domain evaluation of the normalized Weyl basis.

The working objects are the unit-mass weights

    bt_i(x) = exp(-x^2/2) * x^i / sqrt(i!),

whose squares form the x^2-Poisson pmf, and the derivative weights
bt_i(x) * (i - x^2)/x.  Everything is computed as log bt_i first: the naive
recurrence starting from exp(-x^2/2) underflows beyond x ~ 27.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError

#: window cut parameter: the upper window edge drops weights below
#: exp(-TAU_DEFAULT); the lower edge cuts higher, near exp(-24) for large x
#: (see window_halfwidth)
TAU_DEFAULT = 60.0

#: below this abscissa the window rule is bypassed and all terms are summed
SMALL_X = 2.0

_EXP_FLOOR = -700.0

_log_factorial_cache = np.zeros(0)


def log_factorial(i):
    """log i! = gammaln(i+1) from a grow-only cache (written once, then read-only)."""
    global _log_factorial_cache
    top = int(np.max(i)) if np.ndim(i) else int(i)
    if top + 1 > _log_factorial_cache.size:
        size = max(top + 1, 2 * _log_factorial_cache.size, 1024)
        _log_factorial_cache = gammaln(np.arange(size, dtype=float) + 1.0)
    return _log_factorial_cache[i]


@dataclass(frozen=True)
class WeylSample:
    """One random polynomial: degree n and coefficient vector xi_0..xi_n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.n + 1,):
            raise ConfigError(f"coefficient vector must have length n+1={self.n + 1}")
        if not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class BasisWindow:
    """Retained index range at a fixed abscissa, with log-weights and ratios."""

    x: float
    i_lo: int
    i_hi: int
    log_w: np.ndarray
    deriv_ratio: np.ndarray
    tau: float
    n: int
    mass: float
    edge_clipped: bool

    @property
    def indices(self):
        return np.arange(self.i_lo, self.i_hi + 1)

    def weights(self):
        return np.exp(np.maximum(self.log_w, _EXP_FLOOR)) * (self.log_w > _EXP_FLOOR)


def basis_log_weight(i, x):
    """log bt_i(x) = -x^2/2 + i log x - lgamma(i+1)/2; requires x > 0."""
    if x <= 0:
        raise ConfigError("basis_log_weight requires x > 0")
    i = np.asarray(i)
    return -0.5 * x * x + i * np.log(x) - 0.5 * log_factorial(i)


def window_halfwidth(x, tau):
    """Index half-width x*(sqrt(tau)+2) around x^2.

    The log-weight falls off like -(offset/x)^2/4 near the peak, so at this
    offset it is only about -(sqrt(tau)+2)^2/4, i.e. -24 at tau = 60, not
    -tau.  The lower window edge therefore drops terms of weight up to about
    exp(-24) at large x (measured at tau = 60: -46 at x = 10, -31 at x = 20,
    -29 at x = 35); `window_bounds` extends only the upper edge to -tau.
    """
    return int(np.ceil(x * (np.sqrt(tau) + 2.0)))


def window_bounds(x, n, tau):
    """(i_lo, i_hi, clipped) for the retained index range at abscissa x.

    The quadratic-decay half-width is only sharp for large x; at moderate x
    the Poisson upper tail is heavier, so the upper edge is extended until the
    boundary log-weight actually falls below -tau.
    """
    if x < SMALL_X:
        return 0, n, False
    w = window_halfwidth(x, tau)
    center = int(np.floor(x * x))
    i_lo = max(0, center - w)
    i_hi = center + w
    step = max(8, int(np.ceil(x)))
    while i_hi < n and basis_log_weight(i_hi, x) > -tau:
        i_hi += step
    return i_lo, min(n, i_hi), i_hi > n


def support_window(x, n, tau=TAU_DEFAULT):
    """Window [x^2 - w, x^2 + w] clipped to [0, n]; full range for small x."""
    if tau <= 0:
        raise ConfigError("tau must be > 0")
    if x <= 0:
        raise ConfigError("support_window requires x > 0")
    if x > np.sqrt(n) + 1.0:
        raise ConfigError(f"x={x} beyond sqrt(n)+1 for n={n}")
    i_lo, i_hi, clipped = window_bounds(x, n, tau)
    idx = np.arange(i_lo, i_hi + 1)
    log_w = basis_log_weight(idx, x)
    wts = np.exp(np.maximum(log_w, _EXP_FLOOR)) * (log_w > _EXP_FLOOR)
    return BasisWindow(
        x=float(x),
        i_lo=i_lo,
        i_hi=i_hi,
        log_w=log_w,
        deriv_ratio=(idx - x * x) / x,
        tau=float(tau),
        n=int(n),
        mass=float(wts @ wts),
        edge_clipped=clipped,
    )


def evaluate(sample: WeylSample, window: BasisWindow):
    """(p, dp) of the normalized polynomial exp(-x^2/2) * P_n at window.x.

    dp sums xi_i bt_i (i - x^2)/x, i.e. the exact derivative of the normalized
    variant (Gaussian-weight derivative included).
    """
    if window.n != sample.n:
        raise ConfigError("window built for a different degree")
    terms = sample.coeffs[window.i_lo : window.i_hi + 1] * window.weights()
    return float(terms.sum()), float(terms @ window.deriv_ratio)


def evaluate_at(sample: WeylSample, x, tau=TAU_DEFAULT):
    """Windowed evaluation at a single abscissa; x = 0 handled directly."""
    if x == 0.0:
        return float(sample.coeffs[0]), float(sample.coeffs[1]) if sample.n >= 1 else 0.0
    return evaluate(sample, support_window(x, sample.n, tau))


def _pair_sums(x, y, n):
    """The four cross sums of value/derivative weights at (x, y) over [0, n]."""
    i = np.arange(0, n + 1)
    lw = 0.5 * (basis_log_weight(i, x) + basis_log_weight(i, y))
    w = np.exp(np.maximum(lw, _EXP_FLOOR)) * (lw > _EXP_FLOOR)
    rx = (i - x * x) / x
    ry = (i - y * y) / y
    w2 = w * w
    return (
        float(w2.sum()),
        float(w2 @ ry),
        float(w2 @ rx),
        float(w2 @ (rx * ry)),
    )


def covariance_2d(x, n):
    """V_n(x): covariance of the normalized (value, derivative) pair, by direct sum."""
    bb, bc, _, cc = _pair_sums(x, x, n)
    return np.array([[bb, bc], [bc, cc]])


def covariance_4d(x, y, n):
    """V_n(x, y): covariance of the 4-d walk (value/derivative at x and at y)."""
    v = np.empty((4, 4))
    v[:2, :2] = covariance_2d(x, n)
    v[2:, 2:] = covariance_2d(y, n)
    bb, bc, cb, cc = _pair_sums(x, y, n)
    cross = np.array([[bb, bc], [cb, cc]])
    v[:2, 2:] = cross
    v[2:, :2] = cross.T
    return v
