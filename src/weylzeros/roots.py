"""Real-zero counting for one sample: adaptive sign-change detection and the
finite-delta Kac-Rice functional, with the endpoint/margin validity guard.

Counting is half-open on [a, b): a crossing exactly at b belongs to the next
interval, which makes interval additivity an exact integer identity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import TAU_DEFAULT, WeylSample, evaluate_at, log_factorial, window_bounds
from .errors import ConfigError

DEFAULT_H0 = 0.02
DEFAULT_THETA = 5.0
REFINE_FLOOR = 1e-4
BISECT_XTOL = 1e-10

# same-sign cells whose endpoint |p| exceeds 4 (cell width)^2 cannot dip to
# zero unless |p''| > 32, far above bulk scale; used to prune pair hunting
_DIP_CURVATURE = 4.0

# |p|+|p'| grid values above this never hide a sub-delta continuum minimum
# at default deltas (delta <= 1e-5 in every supported configuration)
METRIC_REFINE_CUTOFF = 5e-3

# scan-grid rows per dense GridKernel tile
_TILE_ROWS = 64


@dataclass(frozen=True)
class IntervalSpec:
    """Interval [a, b] in the soft-edge-guarded bulk, in [c1*M, c2*M] form.

    The guard requires b <= sqrt(n) - n^(guard_exponent/2) at validation time
    unless edge_mode is set.
    """

    a: float
    b: float
    guard_exponent: float = 0.2
    edge_mode: bool = False

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ConfigError(f"need 0 <= a < b, got [{self.a}, {self.b}]")
        if not 0 < self.guard_exponent < 1:
            raise ConfigError("guard_exponent must be in (0, 1)")

    @property
    def M(self):
        return self.b

    @property
    def c1(self):
        return self.a / self.b

    @property
    def c2(self):
        return 1.0

    def validate_for_degree(self, n):
        if self.edge_mode:
            return
        guard = n ** (self.guard_exponent / 2.0)
        if self.b > math.sqrt(n) - guard:
            raise ConfigError(
                f"b={self.b} violates soft-edge guard sqrt({n}) - {guard:.3g}; "
                "set edge_mode to override"
            )

    def delta(self, theta=DEFAULT_THETA):
        if theta <= 0:
            raise ConfigError("theta must be > 0")
        return self.M**-theta


@dataclass
class RootCountResult:
    count: int
    roots: np.ndarray
    validity: bool
    delta_used: float
    kac_rice_value: float = field(default=math.nan)


class GridKernel:
    """Precomputed basis weights on a fixed scan grid, in dense row tiles.

    Row j holds the window weights at grid[j].  The grid is cut into tiles of
    `_TILE_ROWS` consecutive rows; each tile is one dense array, its value
    rows stacked on its derivative rows, over the union of its rows' index
    windows (entries outside a row's own window are 0).  One GEMM per tile
    gives (P, P') for one coefficient vector, or for a whole batch at once.
    Construction is done once per configuration and shared read-only across
    trials.
    """

    def __init__(self, n, a, b, h0=DEFAULT_H0, tau=TAU_DEFAULT):
        if h0 <= 0:
            raise ConfigError("scan step must be > 0")
        self.n = int(n)
        m = max(1, int(math.ceil((b - a) / h0 - 1e-9)))
        self.grid = np.linspace(a, b, m + 1)
        self.h0 = float(h0)
        self.tau = float(tau)
        self._build()

    def _build(self):
        bounds = np.array([window_bounds(x, self.n, self.tau)[:2] for x in self.grid])
        self.tiles = []  # (first row, first index, stacked value/derivative block)
        for r0 in range(0, self.grid.size, _TILE_ROWS):
            lo, hi = bounds[r0 : r0 + _TILE_ROWS].T
            idx = np.arange(int(lo.min()), int(hi.max()) + 1)
            w, dw = _weight_block(
                self.grid[r0 : r0 + _TILE_ROWS], idx, 0.5 * log_factorial(idx), lo, hi
            )
            self.tiles.append((r0, idx[0], np.concatenate([w, dw])))

    def values(self, coeffs):
        """(P, P') on the grid; `coeffs` is (n+1,) or (n+1, batch)."""
        shape = (self.grid.size,) + np.shape(coeffs)[1:]
        p, dp = np.empty(shape), np.empty(shape)
        for r0, i0, tile in self.tiles:
            rows = tile.shape[0] // 2
            out = tile @ coeffs[i0 : i0 + tile.shape[1]]
            p[r0 : r0 + rows] = out[:rows]
            dp[r0 : r0 + rows] = out[rows:]
        return p, dp


def _weight_block(xs, idx, half_log_fact, row_lo=None, row_hi=None):
    """Value and derivative weights of the consecutive indices `idx` at each
    abscissa in xs; `half_log_fact` is 0.5 * log_factorial(idx).

    Row k is zero outside [row_lo[k], row_hi[k]] when those are given.  A row
    at x = 0 follows P(0) = xi_0, P'(0) = xi_1 (it needs idx[0] = 0).
    """
    x = np.asarray(xs, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = -0.5 * x * x + idx * np.log(x) - half_log_fact
        keep = logw > -700.0
        if row_lo is not None:
            keep &= (idx >= row_lo[:, None]) & (idx <= row_hi[:, None])
        w = np.where(keep, np.exp(np.maximum(logw, -700.0)), 0.0)
        dw = np.where(x > 0, w * (idx - x * x) / np.where(x > 0, x, 1.0), 0.0)
    origin = x[:, 0] == 0.0
    if origin.any():
        w[origin], dw[origin] = 0.0, 0.0
        w[origin, 0] = 1.0
        if idx.size > 1:
            dw[origin, 1] = 1.0
    return w, dw


class LocalEvaluator:
    """(P, P') of one sample at points of a span [lo, hi], from one window.

    The index window is the union of `window_bounds` at lo and at hi, taken
    once; its indices, half log-factorials and coefficient slice are kept, so
    a call at a scalar or a vector of points is one exp and two dot products.
    At a point where the two rules differ, the union sums terms that the
    point's own window cuts, or drops terms it keeps; both weigh no more
    than the window cut.  Points outside [lo, hi] fall back to `evaluate_at`.
    """

    def __init__(self, sample: WeylSample, lo, hi):
        i_lo, i_hi, _ = window_bounds(lo, sample.n, TAU_DEFAULT)
        i_lo2, i_hi2, _ = window_bounds(hi, sample.n, TAU_DEFAULT)
        i_lo, i_hi = min(i_lo, i_lo2), max(i_hi, i_hi2)
        self.idx = np.arange(i_lo, i_hi + 1, dtype=float)
        self.half_log_fact = 0.5 * log_factorial(np.arange(i_lo, i_hi + 1))
        self.coeffs = sample.coeffs[i_lo : i_hi + 1]
        self.sample, self.lo, self.hi = sample, lo, hi

    def __call__(self, x):
        """(p, dp) as floats at a scalar x, as arrays at a vector of points."""
        if np.ndim(x) == 0:
            if not (0.0 < x and self.lo <= x <= self.hi):
                p, dp = self(np.array([x], dtype=float))
                return float(p[0]), float(dp[0])
            w = self._weights(x)
            dw = w * (self.idx - x * x) / x
            return float(w @ self.coeffs), float(dw @ self.coeffs)
        xs = np.asarray(x, dtype=float)
        inside = (xs >= self.lo) & (xs <= self.hi)
        p, dp = np.empty(xs.shape), np.empty(xs.shape)
        w, dw = _weight_block(xs[inside], self.idx, self.half_log_fact)
        p[inside], dp[inside] = w @ self.coeffs, dw @ self.coeffs
        for k in np.flatnonzero(~inside):
            p[k], dp[k] = evaluate_at(self.sample, xs[k])
        return p, dp

    def value(self, x):
        """P alone at a scalar x."""
        if 0.0 < x and self.lo <= x <= self.hi:
            return float(self._weights(x) @ self.coeffs)
        return self(x)[0]

    def _weights(self, x):
        # one row of _weight_block at a scalar 0 < x, without its array set-up
        # and guards (exp underflows to 0 silently)
        return np.exp(-0.5 * x * x + self.idx * math.log(x) - self.half_log_fact)


def _bisect_root(f, lo, hi, flo, xtol=BISECT_XTOL):
    neg_lo = flo < 0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _hunt_same_sign_cell(f, lo, hi, flo, fhi, delta, floor=REFINE_FLOOR):
    """Search a same-sign cell for a hidden even number of crossings.

    Recursive halving down to `floor`; returns (roots, ambiguous).  ambiguous
    is set when the floor is hit with |p| still below 10*delta, i.e. the cell
    cannot be certified either way.  Cells whose endpoint values exceed the
    curvature dip bound cannot reach zero inside and resolve immediately.
    """
    if flo == 0.0 or fhi == 0.0:
        return [], False  # root exactly on the boundary; owned by the flip scan
    if min(abs(flo), abs(fhi)) > _DIP_CURVATURE * (hi - lo) ** 2:
        return [], False
    if hi - lo <= floor:
        return [], min(abs(flo), abs(fhi)) < 10.0 * delta
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    if (fmid < 0) != (flo < 0):
        return [
            _bisect_root(f, lo, mid, flo),
            _bisect_root(f, mid, hi, fmid),
        ], False
    r1, a1 = _hunt_same_sign_cell(f, lo, mid, flo, fmid, delta, floor)
    r2, a2 = _hunt_same_sign_cell(f, mid, hi, fmid, fhi, delta, floor)
    return r1 + r2, a1 or a2


def _value_fn(sample):
    return lambda x: evaluate_at(sample, x)[0]


def count_sign_changes(sample: WeylSample, iv: IntervalSpec, h0=DEFAULT_H0,
                       kernel: GridKernel | None = None, theta=DEFAULT_THETA):
    """Roots of the sample in [a, b) by grid scan plus bisection refinement.

    Bracketing cells are bisected to abscissa tolerance 1e-10, each on its own
    `LocalEvaluator`; same-sign cells that could hide a near-double pair (both
    endpoint values below 10*delta, or an interior extremum with a small
    endpoint value) are recursively halved down to step 1e-4.
    """
    if kernel is None:
        kernel = GridKernel(sample.n, iv.a, iv.b, h0)
    delta = iv.delta(theta)
    p, dp = kernel.values(sample.coeffs)
    grid = kernel.grid
    neg = p < 0
    flips = np.nonzero(neg[1:] != neg[:-1])[0]
    roots = []
    for j in flips:
        cell = LocalEvaluator(sample, grid[j], grid[j + 1])
        roots.append(_bisect_root(cell.value, grid[j], grid[j + 1], p[j]))
    ambiguous = False
    f = _value_fn(sample)
    (cells,) = _suspicious_cells(p, dp, neg, grid, delta)
    for j in cells:
        found, amb = _hunt_same_sign_cell(f, grid[j], grid[j + 1], p[j], p[j + 1], delta)
        roots.extend(found)
        ambiguous = ambiguous or amb
    roots = np.array(sorted(r for r in roots if iv.a <= r < iv.b))
    return RootCountResult(
        count=roots.size, roots=roots, validity=not ambiguous, delta_used=delta
    )


def _suspicious_cells(p, dp, neg, grid, delta):
    """Same-sign cells worth hunting: tiny endpoint values, or an interior
    extremum whose endpoint value is within dip range of zero.

    The grid runs along axis 0 of `p`, `dp` and `neg`, which are (grid,) or
    (grid, batch); returns the np.nonzero tuple, (cells,) or (cells, trials).
    """
    h = grid[1] - grid[0] if grid.size > 1 else 0.0
    same = neg[1:] == neg[:-1]
    ap = np.abs(p)
    end_min = np.minimum(ap[1:], ap[:-1])
    tiny_both = np.maximum(ap[1:], ap[:-1]) < 10.0 * delta
    dneg = dp < 0
    extremum = dneg[1:] != dneg[:-1]
    dip_possible = end_min < _DIP_CURVATURE * h * h
    return np.nonzero(same & (tiny_both | (extremum & dip_possible)))


def validity_check(sample: WeylSample, iv: IntervalSpec, delta,
                   h0=DEFAULT_H0, kernel: GridKernel | None = None):
    """True iff |P(a)|, |P(b)| > delta and the refined grid minimum of
    |P| + |P'| exceeds delta."""
    if kernel is None:
        kernel = GridKernel(sample.n, iv.a, iv.b, h0)
    p, dp = kernel.values(sample.coeffs)
    if abs(p[0]) <= delta or abs(p[-1]) <= delta:
        return False
    metric = np.abs(p) + np.abs(dp)
    if metric.min() <= delta:
        return False
    grid = kernel.grid
    cells = np.nonzero(np.minimum(metric[1:], metric[:-1]) < METRIC_REFINE_CUTOFF)[0]
    for j in cells:
        if _refined_metric_min(sample, grid[j], grid[j + 1]) <= delta:
            return False
    return True


def _refined_metric_min(sample, lo, hi, step=REFINE_FLOOR):
    """Minimum of |P| + |P'| on the points lo, lo + step, ... of a grid cell.

    All points share one `LocalEvaluator` from the first to the last point,
    so P and P' come from one product each.
    """
    xs = np.arange(lo, hi + step, step)
    p, dp = LocalEvaluator(sample, xs[0], xs[-1])(xs)
    return float((np.abs(p) + np.abs(dp)).min())


def kac_rice_count(sample: WeylSample, iv: IntervalSpec, delta,
                   h0=DEFAULT_H0, kernel: GridKernel | None = None,
                   roots: np.ndarray | None = None):
    """(1/2 delta) * integral of |P'| over the |P| < delta excursions.

    Each detected root's excursion boundaries are located by bisection on
    |P| - delta, then |P'| is integrated over the excursion with adaptive
    Gauss-Legendre panels to 1e-6 relative.  Both use one `LocalEvaluator`
    per root, on [root - h0, root + h0] clipped to [a, b]; the first step out
    of the root is delta / |P'(root)|, from one `evaluate_at` per root.
    """
    if delta <= 0:
        raise ConfigError("delta must be > 0")
    if roots is None:
        roots = count_sign_changes(sample, iv, h0, kernel=kernel).roots
    total = 0.0
    for r in roots:
        ev = LocalEvaluator(sample, max(iv.a, r - h0), min(iv.b, r + h0))
        step = delta / max(abs(evaluate_at(sample, r)[1]), 1e-12)
        xl = _excursion_boundary(ev.value, r, step, delta, -1, iv.a)
        xr = _excursion_boundary(ev.value, r, step, delta, +1, iv.b)
        total += _integrate_abs_deriv(ev, xl, xr)
    return total / (2.0 * delta)


def _excursion_boundary(f, root, step, delta, direction, limit):
    """Abscissa where |f| grows back to delta on one side of a root, searched
    outwards from `step` in doubling steps, then bisected."""
    x = root
    for _ in range(200):
        x_next = root + direction * step
        if (direction < 0 and x_next <= limit) or (direction > 0 and x_next >= limit):
            x_next = limit
        if abs(f(x_next)) >= delta or x_next == limit:
            break
        x = x_next
        step *= 2.0
    else:
        return limit
    if x_next == limit and abs(f(limit)) < delta:
        return limit
    lo, hi = (x_next, x) if direction < 0 else (x, x_next)
    # bisect |P| - delta; inside end is < 0 by construction.  Once mid is lo
    # or hi, every further step returns the same mid, so stopping is exact.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        inside = abs(f(mid)) < delta
        if direction < 0:
            if inside:
                hi = mid
            else:
                lo = mid
        else:
            if inside:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _abs_deriv_panel(ev, lo, hi):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * float(_GL_WEIGHTS @ np.abs(ev(mid + half * _GL_NODES)[1]))


def _integrate_abs_deriv(ev, lo, hi, rel=1e-6, max_depth=12):
    if hi <= lo:
        return 0.0
    whole = _abs_deriv_panel(ev, lo, hi)
    stack = [(lo, hi, whole, 0)]
    total = 0.0
    while stack:
        a, b, coarse, depth = stack.pop()
        m = 0.5 * (a + b)
        left = _abs_deriv_panel(ev, a, m)
        right = _abs_deriv_panel(ev, m, b)
        fine = left + right
        if abs(fine - coarse) <= rel * max(abs(fine), 1e-300) or depth >= max_depth:
            total += fine
        else:
            stack.append((a, m, left, depth + 1))
            stack.append((m, b, right, depth + 1))
    return total


def analyze(sample: WeylSample, iv: IntervalSpec, h0=DEFAULT_H0,
            theta=DEFAULT_THETA, kernel: GridKernel | None = None):
    """Full per-sample result: count, roots, Kac-Rice value, validity."""
    if kernel is None:
        kernel = GridKernel(sample.n, iv.a, iv.b, h0)
    delta = iv.delta(theta)
    res = count_sign_changes(sample, iv, h0, kernel=kernel, theta=theta)
    valid = res.validity and validity_check(sample, iv, delta, h0, kernel=kernel)
    kr = kac_rice_count(sample, iv, delta, h0, kernel=kernel, roots=res.roots)
    return RootCountResult(
        count=res.count,
        roots=res.roots,
        validity=valid,
        delta_used=delta,
        kac_rice_value=kr,
    )
