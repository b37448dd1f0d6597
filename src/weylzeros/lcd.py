"""Distance-to-integrality diagnostics: xi-norms, the characteristic-function
bound, and certified brute-force scans for small common dilations of a weight
family (the anti-concentration obstruction).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import TAU_DEFAULT, support_window
from .dists import CoefficientDistribution
from .errors import ConfigError, ResourceBudgetError

SCAN_BUDGET = 10_000_000_000
MAX_EXCLUDED = 3


def dist_to_int(a):
    """Distance to the nearest integer, elementwise."""
    a = np.asarray(a, dtype=float)
    return np.abs(a - np.round(a))


def _difference_atoms(dist: CoefficientDistribution):
    """Atoms and probabilities of xi1 - xi2 for discrete laws, else None."""
    if dist.kind == "rademacher":
        z, p = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    elif dist.kind == "discrete_sym":
        z, p = dist.values, dist.probs
    else:
        return None
    diff = (z[:, None] - z[None, :]).ravel()
    prob = (p[:, None] * p[None, :]).ravel()
    return diff, prob


_SERIES_K = np.arange(1, 4001, dtype=float)
_SERIES_SIGNS = np.where(_SERIES_K % 2 == 0, -1.0, 1.0)
# alternating tail of sum (-1)^(k+1)/(pi k)^2 beyond the kept terms
_SERIES_TAIL = 1.0 / 12.0 - float((_SERIES_SIGNS / (np.pi * _SERIES_K) ** 2).sum())


def xi_norm_sq(w, dist: CoefficientDistribution):
    """E || w (xi1 - xi2) ||_{R/Z}^2: exact double sum for discrete laws; for
    continuous laws the Fourier series of the periodized square,

        E ||w Y||^2 = 1/12 + sum_{k>=1} (-1)^k Re phi_Y(2 pi k w) / (pi k)^2,

    with phi_Y the characteristic function of Y = xi1 - xi2 (closed form for
    both continuous kinds), summed until the k^-2 tail is negligible."""
    w = np.asarray(w, dtype=float)
    atoms = _difference_atoms(dist)
    if atoms is not None:
        diff, prob = atoms
        vals = dist_to_int(w[..., None] * diff) ** 2
        out = vals @ prob
    elif dist.kind in ("gaussian", "uniform_sym"):
        s = 2.0 * math.pi * np.abs(w)[..., None] * _SERIES_K
        if dist.kind == "gaussian":
            phi = np.exp(-np.minimum(s * s, 700.0))  # Y ~ N(0, 2)
        else:
            # Y = 2 sqrt(3) T with T triangular on (-1, 1): phi = sinc(sqrt(3) s)^2
            arg = math.sqrt(3.0) * s
            phi = np.where(arg < 1e-8, 1.0, np.sin(arg) / np.maximum(arg, 1e-300)) ** 2
        # 1/12 + sum (-1)^k phi_k/(pi k)^2, rearranged so w -> 0 is exactly 0,
        # with the phi = 0 alternating tail restored where phi has decayed
        out = ((1.0 - phi) * _SERIES_SIGNS / (np.pi * _SERIES_K) ** 2).sum(axis=-1)
        out = out + _SERIES_TAIL * (1.0 - phi[..., -1])
    else:
        raise ConfigError(f"unsupported kind for xi-norm: {dist.kind!r}")
    return float(out) if np.ndim(out) == 0 else out


def char_bound(weights, eta, dist: CoefficientDistribution):
    """exp(-sum_i ||<v_i, eta/2pi>||_xi^2), an upper bound on |prod phi_i(eta)|."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    phases = weights @ eta / (2.0 * math.pi)
    return math.exp(-float(np.sum(xi_norm_sq(phases, dist))))


@dataclass(frozen=True)
class LCDQuery:
    """Scan request over dilation magnitudes [r, D_max] with threshold tau."""

    weights: np.ndarray
    r: float
    D_max: float
    tau: float
    excluded: tuple = ()
    scan_step: float = 1e-3

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2 or w.shape[1] not in (1, 2):
            raise ConfigError("weights must be (n,), (n,1) or (n,2)")
        if not (self.r > 0 and self.D_max > self.r and self.tau > 0 and self.scan_step > 0):
            raise ConfigError("need r > 0, D_max > r, tau > 0, scan_step > 0")
        if len(self.excluded) > MAX_EXCLUDED:
            raise ConfigError(f"excluded set limited to {MAX_EXCLUDED} indices")
        object.__setattr__(self, "weights", w)

    @property
    def d(self):
        return self.weights.shape[1]

    def kept_weights(self):
        if not self.excluded:
            return self.weights
        mask = np.ones(self.weights.shape[0], dtype=bool)
        mask[list(self.excluded)] = False
        return self.weights[mask]


@dataclass(frozen=True)
class LCDResult:
    d_star: float
    min_objective: float
    argmin: np.ndarray
    certified_resolution: float
    lipschitz: float
    certified_lower_bound: float
    profile: tuple = field(default=(), repr=False)  # (|D|, objective) samples


def _objective_1d(v, ds):
    # sum_i ||d * v_i||^2 for a batch of scalars d
    return (dist_to_int(np.outer(ds, v)) ** 2).sum(axis=1)


def lcd_search(query: LCDQuery, profile_points=512) -> LCDResult:
    """Certified coarse-to-fine scan for the smallest dilation with
    objective <= tau.

    The objective is sum over kept indices of ||<v_i, D>||_{R/Z}^2; the
    gradient is bounded by Lambda = sum_i ||v_i||_2, so a grid of step h
    certifies the minimum to within Lambda * h * sqrt(d) / 2.  Coarse cells
    that cannot reach tau under that bound are never refined.  d_star is the
    smallest refined magnitude whose objective is <= tau, +inf if none.
    """
    v = query.kept_weights()
    n = v.shape[0]
    d = query.d
    span = query.D_max - query.r
    n_fine = span / query.scan_step
    if n * n_fine**d > SCAN_BUDGET:
        raise ResourceBudgetError(
            f"scan budget exceeded: n={n}, D_max={query.D_max}, "
            f"step={query.scan_step}, d={d}"
        )
    lam = float(np.linalg.norm(v, axis=1).sum())
    if d == 1:
        return _search_1d(query, v[:, 0], lam, profile_points)
    return _search_2d(query, v, lam, profile_points)


def _search_1d(query, v, lam, profile_points):
    h = query.scan_step
    coarse_h = max(h, min(0.05, query.tau / max(lam, 1e-12)))
    grid = np.arange(query.r, query.D_max + coarse_h, coarse_h)
    best = math.inf
    best_d = query.r
    d_star = math.inf
    prof_ds = np.linspace(query.r, query.D_max, profile_points)
    profile = tuple(zip(prof_ds.tolist(), _objective_1d(v, prof_ds).tolist()))
    chunk = max(1, int(2e7 // max(v.size, 1)))
    for k in range(0, grid.size, chunk):
        ds = grid[k : k + chunk]
        obj = _objective_1d(v, ds)
        j = int(np.argmin(obj))
        if obj[j] < best:
            best, best_d = float(obj[j]), float(ds[j])
        hot = ds[obj - lam * coarse_h / 2.0 <= query.tau]
        for d0 in hot:
            fine = np.arange(max(query.r, d0 - coarse_h), min(query.D_max, d0 + coarse_h) + h, h)
            fobj = _objective_1d(v, fine)
            fj = int(np.argmin(fobj))
            if fobj[fj] < best:
                best, best_d = float(fobj[fj]), float(fine[fj])
            crossings = fine[fobj <= query.tau]
            if crossings.size and crossings[0] < d_star:
                d_star = float(crossings[0])
    return LCDResult(
        d_star=d_star,
        min_objective=best,
        argmin=np.array([best_d]),
        certified_resolution=h,
        lipschitz=lam,
        certified_lower_bound=best - lam * h / 2.0,
        profile=profile,
    )


def _search_2d(query, v, lam, profile_points):
    h = query.scan_step
    axis = np.arange(-query.D_max, query.D_max + h, h)
    best = math.inf
    best_d = np.array([query.r, 0.0])
    d_star = math.inf
    for x in axis:
        ys = axis
        rad2 = x * x + ys * ys
        keep = (rad2 >= query.r**2) & (rad2 <= query.D_max**2)
        if not np.any(keep):
            continue
        ys = ys[keep]
        pts = np.column_stack([np.full(ys.size, x), ys])
        obj = (dist_to_int(pts @ v.T) ** 2).sum(axis=1)
        j = int(np.argmin(obj))
        if obj[j] < best:
            best, best_d = float(obj[j]), pts[j]
        hit = obj <= query.tau
        if np.any(hit):
            r_hit = float(np.sqrt(rad2[keep][hit].min()))
            d_star = min(d_star, r_hit)
    return LCDResult(
        d_star=d_star,
        min_objective=best,
        argmin=best_d,
        certified_resolution=h,
        lipschitz=lam,
        certified_lower_bound=best - lam * h * math.sqrt(2.0) / 2.0,
        profile=(),
    )


def sk_objective(n, D):
    """Closed form (n/2)(||D||^2 + ||D sqrt(2)||^2) for the alternating family."""
    if n % 2 != 0:
        raise ConfigError("alternating family needs even n")
    D = np.asarray(D, dtype=float)
    out = (n / 2.0) * (dist_to_int(D) ** 2 + dist_to_int(D * math.sqrt(2.0)) ** 2)
    return float(out) if out.ndim == 0 else out


def sk_weights(n):
    """The alternating (1, sqrt(2)) family of length n (n even)."""
    if n % 2 != 0:
        raise ConfigError("alternating family needs even n")
    w = np.empty(n)
    w[0::2] = 1.0
    w[1::2] = math.sqrt(2.0)
    return w


def weyl_weights(x, n, N, d=1, tau=TAU_DEFAULT):
    """sqrt(N)-normalized Weyl basis weights at x over the retained window."""
    win = support_window(x, n, tau)
    b = math.sqrt(N) * win.weights
    if d == 1:
        return b
    return np.column_stack([b, b * win.deriv_ratio])
