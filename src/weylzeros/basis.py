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

#: window cut parameter of `window_bounds`: the upper window edge drops
#: weights below exp(-TAU_DEFAULT); the lower edge cuts higher
TAU_DEFAULT = 60.0

#: below this abscissa the window rule is bypassed and all terms are summed
SMALL_X = 2.0

#: log-weights at or below this floor are weight 0 (exp underflows near -745)
_EXP_FLOOR = -700.0

#: below this abscissa (P, P') are taken as (xi_0, xi_1), their values at 0,
#: which they match to within 1e-150 of the coefficient scale; the floored
#: log-weights would drop the x^1 term, whose derivative weight is about 1
ORIGIN_X = 1e-150

# upper-edge extension steps tried per pass of `window_bounds`: at tau = 60
# the edge settles within about 10 steps, so one pass almost always suffices
_EDGE_STEPS = np.arange(16)

_log_factorial_cache = np.zeros(0)


def log_factorial(i):
    """log i! = gammaln(i+1) from a grow-only cache (written once, then read-only)."""
    global _log_factorial_cache
    top = int(np.asarray(i).max())
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
    """Retained index range at a fixed abscissa, with log-weights, weights and ratios."""

    x: float
    i_lo: int
    i_hi: int
    log_w: np.ndarray
    weights: np.ndarray
    deriv_ratio: np.ndarray
    n: int
    edge_clipped: bool

    @property
    def indices(self):
        return np.arange(self.i_lo, self.i_hi + 1)

    @property
    def mass(self):
        return float(self.weights @ self.weights)


def basis_log_weight(i, x):
    """log bt_i(x) = -x^2/2 + i log x - lgamma(i+1)/2; requires x > 0."""
    if x <= 0:
        raise ConfigError("basis_log_weight requires x > 0")
    i = np.asarray(i)
    return -0.5 * x * x + i * np.log(x) - 0.5 * log_factorial(i)


def _floored_exp(log_w):
    """exp(log_w), and 0 where log_w is at or below the floor."""
    return np.where(log_w > _EXP_FLOOR, np.exp(np.maximum(log_w, _EXP_FLOOR)), 0.0)


def weight_block(xs, idx, half_log_fact, row_lo=None, row_hi=None):
    """Value and derivative weights of the consecutive indices `idx` at each
    abscissa in xs, one row per abscissa; `half_log_fact` is
    0.5 * log_factorial(idx).

    Row k is zero outside [row_lo[k], row_hi[k]] when those are given.  A row
    at x < ORIGIN_X follows P(0) = xi_0, P'(0) = xi_1 (it needs idx[0] = 0).
    """
    x = np.asarray(xs, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = -0.5 * x * x + idx * np.log(x) - half_log_fact
        if row_lo is not None:
            log_w[(idx < row_lo[:, None]) | (idx > row_hi[:, None])] = -np.inf
        w = _floored_exp(log_w)
        dw = np.where(x > 0, w * (idx - x * x) / np.where(x > 0, x, 1.0), 0.0)
    origin = x[:, 0] < ORIGIN_X
    if origin.any():
        w[origin], dw[origin] = 0.0, 0.0
        w[origin, 0] = 1.0
        if idx.size > 1:
            dw[origin, 1] = 1.0
    return w, dw


def window_bounds(x, n, tau):
    """(i_lo, i_hi, clipped): the retained index range at abscissa x, as
    Python (int, int, bool) for a scalar x and as arrays for an array of them.

    Below SMALL_X the window is all of [0, n].  Otherwise it starts as
    [x^2 - w, x^2 + w] with w = ceil(x (sqrt(tau) + 2)); the upper edge then
    moves up in steps of max(8, ceil(x)) until its log-weight is <= -tau or
    it reaches n (at moderate x the Poisson upper tail is heavier than the
    quadratic decay), `clipped` says it passed n, and both edges are cut to
    [0, n].  The lower edge is not extended: the log-weight falls off like
    -(offset/x)^2/4 near the peak, so at offset w it is only about
    -(sqrt(tau)+2)^2/4 = -24 at tau = 60, and the lower edge drops terms of
    weight up to about exp(-24) at large x (measured at tau = 60: -46 at
    x = 10, -31 at x = 20, -29 at x = 35).
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0 and xs < SMALL_X:
        return 0, int(n), False
    flat = xs.reshape(-1)
    # a row below SMALL_X is taken at SMALL_X, where i_lo is already 0, and
    # its upper edge starts at n, where the search below leaves it
    xr = np.maximum(flat, SMALL_X)
    w = np.ceil(xr * (np.sqrt(tau) + 2.0))
    center = np.floor(xr * xr)
    i_lo = np.maximum(center - w, 0.0)
    i_hi = center + w
    i_hi[flat < SMALL_X] = n
    # Each pass tries every row's next _EDGE_STEPS candidate edges at once and
    # moves the edge to the first one at or past n or with log-weight <= -tau.
    xr = xr[:, None]
    step = np.maximum(np.ceil(xr), 8.0)
    offsets = step * _EDGE_STEPS
    half_x2, log_x = -0.5 * xr * xr, np.log(xr)
    while True:
        cand = i_hi[:, None] + offsets
        log_w = half_x2 + cand * log_x - 0.5 * log_factorial(np.minimum(cand, n).astype(np.intp))
        stop = (cand >= n) | (log_w <= -tau)
        stop[:, -1] = True  # the last candidate only hands the search on to the next pass
        first = stop.argmax(axis=1)
        i_hi += step[:, 0] * first
        if first.max(initial=0) < _EDGE_STEPS[-1]:
            break
    if xs.ndim == 0:
        return int(i_lo[0]), int(min(i_hi[0], n)), bool(i_hi[0] > n)
    lo, hi = i_lo.astype(np.int64), np.minimum(i_hi, n).astype(np.int64)
    return lo.reshape(xs.shape), hi.reshape(xs.shape), (i_hi > n).reshape(xs.shape)


def support_window(x, n, tau=TAU_DEFAULT):
    """The `window_bounds` window at x with its log-weights, weights and ratios."""
    if tau <= 0:
        raise ConfigError("tau must be > 0")
    if x <= 0:
        raise ConfigError("support_window requires x > 0")
    if x > np.sqrt(n) + 1.0:
        raise ConfigError(f"x={x} beyond sqrt(n)+1 for n={n}")
    i_lo, i_hi, clipped = window_bounds(x, n, tau)
    idx = np.arange(i_lo, i_hi + 1)
    log_w = basis_log_weight(idx, x)
    return BasisWindow(
        x=float(x),
        i_lo=i_lo,
        i_hi=i_hi,
        log_w=log_w,
        weights=_floored_exp(log_w),
        deriv_ratio=(idx - x * x) / x,
        n=int(n),
        edge_clipped=clipped,
    )


def evaluate(sample: WeylSample, window: BasisWindow):
    """(p, dp) of the normalized polynomial exp(-x^2/2) * P_n at window.x.

    dp sums xi_i bt_i (i - x^2)/x, i.e. the exact derivative of the normalized
    variant (Gaussian-weight derivative included).
    """
    if window.n != sample.n:
        raise ConfigError("window built for a different degree")
    terms = sample.coeffs[window.i_lo : window.i_hi + 1] * window.weights
    return float(terms.sum()), float(terms @ window.deriv_ratio)


def evaluate_at(sample: WeylSample, x, tau=TAU_DEFAULT):
    """Windowed evaluation at a single abscissa; x < ORIGIN_X handled directly."""
    if x < ORIGIN_X:
        return float(sample.coeffs[0]), float(sample.coeffs[1]) if sample.n >= 1 else 0.0
    return evaluate(sample, support_window(x, sample.n, tau))


def _pair_sums(x, y, n):
    """The four cross sums of value/derivative weights at (x, y) over [0, n]."""
    i = np.arange(0, n + 1)
    lw = 0.5 * (basis_log_weight(i, x) + basis_log_weight(i, y))
    w = _floored_exp(lw)
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
