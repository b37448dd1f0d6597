"""Real-zero counting for one sample: adaptive sign-change detection and the
finite-delta Kac-Rice functional, with the endpoint/margin validity guard.

Counting is half-open on [a, b): a crossing exactly at b belongs to the next
interval, which makes interval additivity an exact integer identity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    ORIGIN_X, TAU_DEFAULT, WeylSample, evaluate_at, log_factorial, weight_block, window_bounds,
)
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
    """Interval [a, b] in the soft-edge-guarded bulk, with scale M = b.

    The guard requires b <= sqrt(n) - n^0.1 at validation time unless
    edge_mode is set.
    """

    a: float
    b: float
    edge_mode: bool = False

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ConfigError(f"need 0 <= a < b, got [{self.a}, {self.b}]")

    @property
    def M(self):
        return self.b

    def validate_for_degree(self, n):
        if self.edge_mode:
            return
        guard = n**0.1
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

    def __init__(self, n, a, b, h0=DEFAULT_H0):
        if h0 <= 0:
            raise ConfigError("scan step must be > 0")
        self.n = int(n)
        m = max(1, int(math.ceil((b - a) / h0 - 1e-9)))
        self.grid = np.linspace(a, b, m + 1)
        self.tau = TAU_DEFAULT
        lo, hi, _ = window_bounds(self.grid, self.n, self.tau)
        self.tiles = []  # (first row, first index, stacked value/derivative block)
        for r0 in range(0, self.grid.size, _TILE_ROWS):
            rows = slice(r0, r0 + _TILE_ROWS)
            idx = np.arange(lo[rows].min(), hi[rows].max() + 1)
            w, dw = weight_block(self.grid[rows], idx, 0.5 * log_factorial(idx), lo[rows], hi[rows])
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

    def block_starts(self, edges):
        """First grid cell of each block [edges[k], edges[k+1]); a cell belongs
        to the block holding its midpoint, and every block must hold one."""
        nb = np.size(edges) - 1
        mids = 0.5 * (self.grid[1:] + self.grid[:-1])
        cell_block = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, nb - 1)
        if np.unique(cell_block).size != nb:
            raise ConfigError("block width below scan resolution")
        return np.searchsorted(cell_block, np.arange(nb), side="left")


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
        i_lo, i_hi, _ = window_bounds(np.array([lo, hi], dtype=float), sample.n, TAU_DEFAULT)
        i_lo, i_hi = i_lo.min(), i_hi.max()
        self.idx = np.arange(i_lo, i_hi + 1, dtype=float)
        self.half_log_fact = 0.5 * log_factorial(np.arange(i_lo, i_hi + 1))
        self.coeffs = sample.coeffs[i_lo : i_hi + 1]
        self.sample, self.lo, self.hi = sample, lo, hi

    def __call__(self, x):
        """(p, dp) as floats at a scalar x, as arrays at a vector of points."""
        if np.ndim(x) == 0:
            if not (ORIGIN_X <= x and self.lo <= x <= self.hi):
                p, dp = self(np.array([x], dtype=float))
                return float(p[0]), float(dp[0])
            w = self._weights(x)
            dw = w * (self.idx - x * x) / x
            return float(w @ self.coeffs), float(dw @ self.coeffs)
        xs = np.asarray(x, dtype=float)
        inside = (xs >= self.lo) & (xs <= self.hi)
        p, dp = np.empty(xs.shape), np.empty(xs.shape)
        w, dw = weight_block(xs[inside], self.idx, self.half_log_fact)
        p[inside], dp[inside] = w @ self.coeffs, dw @ self.coeffs
        for k in np.flatnonzero(~inside):
            p[k], dp[k] = evaluate_at(self.sample, xs[k])
        return p, dp

    def value(self, x):
        """P alone at a scalar x."""
        if ORIGIN_X <= x and self.lo <= x <= self.hi:
            return float(self._weights(x) @ self.coeffs)
        return self(x)[0]

    def _weights(self, x):
        # one row of weight_block at a scalar x >= ORIGIN_X, without its array set-up
        # and guards (exp underflows to 0 silently)
        return np.exp(-0.5 * x * x + self.idx * math.log(x) - self.half_log_fact)


def _bisect_root(f, lo, hi, flo):
    neg_lo = flo < 0
    while hi - lo > BISECT_XTOL:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _hunt_same_sign_cell(f, lo, hi, flo, fhi, delta):
    """Search a same-sign cell for a hidden even number of crossings.

    Recursive halving down to REFINE_FLOOR; returns (roots, ambiguous).  ambiguous
    is set when the floor is hit with |p| still below 10*delta, i.e. the cell
    cannot be certified either way.  Cells whose endpoint values exceed the
    curvature dip bound cannot reach zero inside and resolve immediately.
    """
    if flo == 0.0 or fhi == 0.0:
        return [], False  # root exactly on the boundary; owned by the flip scan
    if min(abs(flo), abs(fhi)) > _DIP_CURVATURE * (hi - lo) ** 2:
        return [], False
    if hi - lo <= REFINE_FLOOR:
        return [], min(abs(flo), abs(fhi)) < 10.0 * delta
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    if (fmid < 0) != (flo < 0):
        return [
            _bisect_root(f, lo, mid, flo),
            _bisect_root(f, mid, hi, fmid),
        ], False
    r1, a1 = _hunt_same_sign_cell(f, lo, mid, flo, fmid, delta)
    r2, a2 = _hunt_same_sign_cell(f, mid, hi, fmid, fhi, delta)
    return r1 + r2, a1 or a2


def _value_fn(sample):
    return lambda x: evaluate_at(sample, x)[0]


@dataclass
class BlockScan:
    """Per-trial results of `scan_block`, one entry per column of the block."""

    counts: np.ndarray                # int32 root counts on [a, b)
    valid: np.ndarray                 # the full validity verdict
    ambiguous: np.ndarray             # some hunted cell could not be certified
    roots: list | None = None         # each trial's sorted roots, with find_roots
    blocks: np.ndarray | None = None  # (blocks, trials) counts, with block_edges


def scan_block(kernel: GridKernel, xi, p, dp, delta, find_roots=False, block_edges=None):
    """Root counts and validity of a block of trials on the kernel's grid.

    `xi` is the (n+1, B) coefficient block and (p, dp) = kernel.values(xi).
    A trial's count is its sign flips on the grid plus the roots hunted in the
    same-sign cells that could hide a near-double pair (both endpoint values
    below 10*delta, or an interior extremum with a small endpoint value),
    which are recursively halved down to step 1e-4.  The trial is valid when
    |P(a)|, |P(b)| and the grid minimum of |P| + |P'| exceed delta, no hunted
    cell is ambiguous, and the refined minimum of |P| + |P'| exceeds delta in
    every cell whose grid metric is below METRIC_REFINE_CUTOFF.

    With `find_roots`, each flipped cell is bisected to abscissa tolerance
    1e-10 on its own `LocalEvaluator`.  With `block_edges`, a flip counts in
    the block holding its cell's midpoint and a hunted root in the block
    holding the root.  Each column is scanned on its own, so a trial's
    results do not depend on the other columns of the block.
    """
    grid = kernel.grid
    n = xi.shape[0] - 1
    samples = {}

    def sample(t):
        if t not in samples:
            samples[t] = WeylSample(n, xi[:, t])
        return samples[t]

    neg = p < 0.0
    flips = neg[1:] != neg[:-1]
    counts = flips.sum(axis=0).astype(np.int32)
    metric = np.abs(p) + np.abs(dp)
    valid = (np.abs(p[0]) > delta) & (np.abs(p[-1]) > delta) & (metric.min(axis=0) > delta)
    ambiguous = np.zeros(counts.size, dtype=bool)
    roots = None
    if find_roots:
        roots = [[] for _ in range(counts.size)]
        for j, t in zip(*np.nonzero(flips)):
            cell = LocalEvaluator(sample(t), grid[j], grid[j + 1])
            roots[t].append(_bisect_root(cell.value, grid[j], grid[j + 1], p[j, t]))
    blocks = None
    if block_edges is not None:
        blocks = np.add.reduceat(flips, kernel.block_starts(block_edges), axis=0).astype(np.int32)
    for j, t in zip(*_suspicious_cells(p, dp, neg, grid, delta)):
        found, amb = _hunt_same_sign_cell(
            _value_fn(sample(t)), grid[j], grid[j + 1], p[j, t], p[j + 1, t], delta
        )
        counts[t] += len(found)
        ambiguous[t] |= amb
        if roots is not None:
            roots[t].extend(found)
        if blocks is not None:
            for r in found:
                b = np.searchsorted(block_edges, r, side="right") - 1
                blocks[np.clip(b, 0, blocks.shape[0] - 1), t] += 1
    valid &= ~ambiguous
    near = (np.minimum(metric[1:], metric[:-1]) < METRIC_REFINE_CUTOFF) & valid
    for t, j in zip(*np.nonzero(near.T)):
        if valid[t] and _refined_metric_min(sample(t), grid[j], grid[j + 1]) <= delta:
            valid[t] = False
    if roots is not None:
        roots = [np.sort(np.array(r, dtype=float)) for r in roots]
    return BlockScan(counts, valid, ambiguous, roots, blocks)


def _scan_sample(sample, iv, h0, kernel, delta, find_roots=False):
    """`scan_block` on one sample, as a batch of one."""
    if kernel is None:
        kernel = GridKernel(sample.n, iv.a, iv.b, h0)
    xi = sample.coeffs[:, None]
    p, dp = kernel.values(xi)
    return scan_block(kernel, xi, p, dp, delta, find_roots=find_roots)


def count_sign_changes(sample: WeylSample, iv: IntervalSpec, h0=DEFAULT_H0,
                       kernel: GridKernel | None = None, theta=DEFAULT_THETA):
    """Roots of the sample in [a, b) by grid scan plus bisection refinement
    (`scan_block`); `validity` is False when a hunted cell is ambiguous."""
    delta = iv.delta(theta)
    scan = _scan_sample(sample, iv, h0, kernel, delta, find_roots=True)
    return RootCountResult(
        count=int(scan.counts[0]),
        roots=scan.roots[0],
        validity=not scan.ambiguous[0],
    )


def _suspicious_cells(p, dp, neg, grid, delta):
    """Same-sign cells worth hunting: tiny endpoint values, or an interior
    extremum whose endpoint value is within dip range of zero.

    `p`, `dp` and `neg` are (grid, batch) arrays; returns the np.nonzero pair
    (cells, trials).
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
    """The full validity verdict of `scan_block`: |P(a)|, |P(b)| > delta, no
    ambiguous hunted cell, and the refined grid minimum of |P| + |P'|
    exceeds delta."""
    return bool(_scan_sample(sample, iv, h0, kernel, delta).valid[0])


def _refined_metric_min(sample, lo, hi):
    """Minimum of |P| + |P'| at lo, lo + REFINE_FLOOR, ... in a grid cell.

    All points share one `LocalEvaluator` from the first to the last point,
    so P and P' come from one product each.
    """
    xs = np.arange(lo, hi + REFINE_FLOOR, REFINE_FLOOR)
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


def _integrate_abs_deriv(ev, lo, hi):
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
        if abs(fine - coarse) <= 1e-6 * max(abs(fine), 1e-300) or depth >= 12:
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
        kac_rice_value=kr,
    )
