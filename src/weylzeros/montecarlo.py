"""Parallel experiment harness: expectation/variance estimation with theory
comparison, small-ball frequencies, block-covariance diagnostics, and the
empirical distribution fit against the order-4 expansion.

Every experiment, small ball and fit included, maps its trials in chunks
over the worker pool with `_run_engine`.  Every trial owns a counter-based
stream derived from (seed, trial index), all shared inputs are immutable, and
chunk outputs are joined in trial order, so results are bit-identical for any
worker count.  A chunk draws its coefficients with one Philox, re-keyed to
each trial's fresh `trial_stream(seed, t)` state, and transforms the whole
block at once.
"""

import ctypes
import dataclasses
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np
from scipy.stats import norm

from . import edgeworth, gaussian_theory
from .basis import support_window
from .dists import CoefficientDistribution, _from_uniforms, trial_rekeyer, trial_stream
from .errors import ConfigError, NumericalInstabilityError, ResourceBudgetError
from .roots import DEFAULT_H0, DEFAULT_THETA, GridKernel, IntervalSpec, scan_block

# kept for perfbench/spans.py, which patches them (and trial_stream,
# _from_uniforms, support_window) by name on this module
from .roots import _hunt_same_sign_cell, _refined_metric_min, _suspicious_cells  # noqa: F401

_CHUNK = 256
_FLOP_BUDGET = 2e13
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def default_workers():
    """WEYLZEROS_WORKERS, a positive integer, else min(8, cpu count)."""
    env = os.environ.get("WEYLZEROS_WORKERS")
    if env:
        if not env.strip().isdigit() or int(env) < 1:
            raise ConfigError(f"WEYLZEROS_WORKERS must be a positive integer, got {env!r}")
        return int(env)
    return max(1, min(8, os.cpu_count() or 1))


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    iv: IntervalSpec
    dist: CoefficientDistribution
    trials: int
    seed: int
    delta_exponent: float = DEFAULT_THETA
    grid_step: float = DEFAULT_H0
    block_exponent: float = 0.3
    workers: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0 (0 picks the default)")
        if self.delta_exponent <= 0:
            raise ConfigError("delta exponent must be > 0")
        if not 0 < self.block_exponent < 0.5:
            raise ConfigError("block exponent must be in (0, 1/2)")
        self.iv.validate_for_degree(self.n)
        est = self.estimated_flops()
        if est > _FLOP_BUDGET:
            raise ResourceBudgetError(
                f"estimated cost {est:.2e} flops exceeds budget {_FLOP_BUDGET:.2e} "
                f"(trials={self.trials}, n={self.n}, interval={self.iv.a}..{self.iv.b}, "
                f"h0={self.grid_step})"
            )

    def estimated_flops(self):
        grid_points = (self.iv.b - self.iv.a) / self.grid_step
        mean_window = min(
            self.n + 1.0, 2.0 * (0.5 * (self.iv.a + self.iv.b)) * 10.0
        )
        return 4.0 * self.trials * grid_points * mean_window

    @property
    def delta(self):
        return self.iv.delta(self.delta_exponent)

    def resolved_workers(self):
        return self.workers if self.workers >= 1 else default_workers()


@dataclass
class EstimateSummary:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    trials: int
    theory_mean: float
    theory_variance: float
    z_scores: tuple
    validity_fail_rate: float
    dist: str
    n: int
    a: float
    b: float
    warning: str | None = None
    per_trial_counts: np.ndarray | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# trial engine (shared read-only with forked workers)


class _TrialEngine:
    """Counts roots for batches of trials on a shared scan grid, with
    `roots.scan_block`; block edges, when set, also yield per-trial block
    counts."""

    def __init__(self, config: ExperimentConfig, block_edges=None):
        self.config = config
        self.kernel = GridKernel(config.n, config.iv.a, config.iv.b, config.grid_step)
        self.delta = config.delta
        self.block_edges = None if block_edges is None else np.asarray(block_edges)
        if self.block_edges is not None:
            self.kernel.block_starts(self.block_edges)  # a block too narrow raises here

    def coefficients(self, lo, hi):
        """(n+1, _CHUNK) coefficient matrix, trial lo + k in column k and zeros
        after column hi-lo-1 (a transposed row-major array, so each trial's
        coefficients are contiguous)."""
        return _coefficient_rows(self.config, lo, hi, _CHUNK).T

    def count_chunk(self, lo, hi):
        # GEMM bits of a column depend on the block width, so every block is
        # _CHUNK wide: a trial's values never depend on the total trial count
        xi = self.coefficients(lo, hi)
        p, dp = self.kernel.values(xi)
        real = slice(0, hi - lo)
        scan = scan_block(self.kernel, xi[:, real], p[:, real], dp[:, real], self.delta,
                          block_edges=self.block_edges)
        return scan.counts, scan.valid, scan.blocks


def _coefficient_rows(config, lo, hi, rows):
    """(rows, n+1) block whose row k holds trial lo + k's coefficients, drawn
    from the stream of `trial_stream(seed, lo + k)`, for k < hi - lo; later
    rows are zero.  One Philox, re-keyed per trial, draws the uniforms into
    the block, and the law's transform maps them in place once."""
    out = np.zeros((rows, config.n + 1))
    real = out[: hi - lo]
    stream = trial_stream(config.seed, lo)
    rekey = trial_rekeyer(stream, config.seed)
    for k, row in enumerate(real):
        rekey(lo + k)
        stream.random(out=row)
    _from_uniforms(config.dist, real)
    return out


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the engine's GEMMs on one BLAS thread (forked workers inherit it).

    GEMM bits vary with the BLAS thread count, and the worker pool already
    keeps every core busy.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


_ACTIVE_ENGINE: _TrialEngine | None = None


def _chunk_worker(bounds):
    return _ACTIVE_ENGINE.count_chunk(*bounds)


def _run_engine(engine: _TrialEngine):
    """Map engine.count_chunk over _CHUNK-trial chunks; each output is the
    chunks' outputs joined along the trial (last) axis (None stays None)."""
    global _ACTIVE_ENGINE
    trials = engine.config.trials
    chunks = [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]
    workers = engine.config.resolved_workers()
    _ACTIVE_ENGINE = engine
    try:
        with _one_blas_thread():
            if workers == 1 or len(chunks) == 1:
                results = list(map(_chunk_worker, chunks))
            else:
                fork = get_context("fork")
                with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
                    results = list(pool.map(_chunk_worker, chunks))
    finally:
        _ACTIVE_ENGINE = None
    return tuple(None if out[0] is None else np.concatenate(out, axis=-1) for out in zip(*results))


def _validity_policy(valid, trials):
    fail_rate = 1.0 - float(valid.sum()) / trials
    if fail_rate > 0.10:
        raise NumericalInstabilityError(
            f"validity-check failure rate {fail_rate:.3f} exceeds 10%"
        )
    warning = (
        f"validity-check failure rate {fail_rate:.4f} exceeds 1%"
        if fail_rate > 0.01
        else None
    )
    return fail_rate, warning


@functools.cache
def _cw_selected():
    return gaussian_theory.variance_constant_weyl().selected


def _theories(config):
    gaussian_mean = gaussian_theory.expected_count_gaussian(config.iv, config.n)
    shift = edgeworth.correction_constant(config.dist) * math.log(
        config.iv.b / config.iv.a
    )
    theory_mean = gaussian_mean + shift
    theory_var = _cw_selected() * (config.iv.b - config.iv.a)
    return theory_mean, theory_var


def _summarize(config, counts, valid):
    fail_rate, warning = _validity_policy(valid, config.trials)
    theory_mean, theory_var = _theories(config)
    x = counts.astype(float)
    mean = float(x.mean())
    if config.trials > 1:
        variance = float(x.var(ddof=1))
        se_mean = math.sqrt(variance / config.trials)
        se_var = _jackknife_se_var(x)
    else:
        variance, se_mean, se_var = math.nan, math.nan, math.nan
    z_mean = (mean - theory_mean) / se_mean if se_mean and se_mean > 0 else math.nan
    z_var = (variance - theory_var) / se_var if se_var and se_var > 0 else math.nan
    return EstimateSummary(
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_var,
        trials=config.trials,
        theory_mean=theory_mean,
        theory_variance=theory_var,
        z_scores=(z_mean, z_var),
        validity_fail_rate=fail_rate,
        dist=config.dist.kind,
        n=config.n,
        a=config.iv.a,
        b=config.iv.b,
        warning=warning,
        per_trial_counts=counts,
    )


def _jackknife_se_var(x):
    """Delete-one jackknife standard error of the sample variance."""
    t = x.size
    if t < 3:
        return math.nan
    s1, s2 = x.sum(), (x * x).sum()
    m_i = (s1 - x) / (t - 1)
    var_i = (s2 - x * x - (t - 1) * m_i * m_i) / (t - 2)
    return math.sqrt((t - 1) / t * ((var_i - var_i.mean()) ** 2).sum())


def run_expectation(config: ExperimentConfig) -> EstimateSummary:
    """Mean and variance of the root count against their theory; the variance
    carries a jackknife standard error."""
    counts, valid, _ = _run_engine(_TrialEngine(config))
    return _summarize(config, counts, valid)


@dataclass(frozen=True)
class PairedDifference:
    mean_diff: float
    se_diff: float
    theory_diff: float
    z: float
    trials: int
    dists: tuple


def paired_expectation_difference(config: ExperimentConfig, other: CoefficientDistribution):
    """Mean-count difference config.dist minus `other` on trial-matched streams.

    The per-trial streams depend only on (seed, index), so the two runs are
    coupled draw-by-draw and the SE comes from the paired differences.
    """
    a = run_expectation(config)
    b = run_expectation(dataclasses.replace(config, dist=other))
    d = a.per_trial_counts.astype(float) - b.per_trial_counts.astype(float)
    se = float(d.std(ddof=1) / math.sqrt(d.size)) if d.size > 1 else math.nan
    log_ratio = math.log(config.iv.b / config.iv.a)
    theory = (
        edgeworth.correction_constant(config.dist)
        - edgeworth.correction_constant(other)
    ) * log_ratio
    mean_diff = float(d.mean())
    z = (mean_diff - theory) / se if se and se > 0 else math.nan
    return PairedDifference(
        mean_diff=mean_diff,
        se_diff=se,
        theory_diff=theory,
        z=z,
        trials=config.trials,
        dists=(config.dist.kind, other.kind),
    )


# ---------------------------------------------------------------------------
# single-abscissa experiments (small ball, distribution fit)


class _PointJob:
    """(P(x), P'(x)) of batches of trials at one abscissa, for `_run_engine`."""

    def __init__(self, config: ExperimentConfig, x, need_deriv):
        self.config = config
        win = support_window(x, config.n)
        self.window = slice(win.i_lo, win.i_hi + 1)
        self.b = win.weights
        self.d = win.weights * win.deriv_ratio if need_deriv else None

    def count_chunk(self, lo, hi):
        # the name `_run_engine` maps.  Padded to _CHUNK rows like the trial
        # engine: OpenBLAS's GEMV runs rows in groups of 4, so every real row
        # takes the main kernel and its bits never depend on the trial count
        xi = _coefficient_rows(self.config, lo, hi, _CHUNK)[:, self.window]
        real = slice(0, hi - lo)
        return (xi @ self.b)[real], None if self.d is None else (xi @ self.d)[real]


def _point_values(config, x, need_deriv=False):
    """(P(x), P'(x)) arrays over all trials at one abscissa; P'(x) is None
    unless need_deriv."""
    return _run_engine(_PointJob(config, x, need_deriv))


@dataclass(frozen=True)
class SmallBallRow:
    dist: str
    n: int
    x: float
    delta: float
    dim: int
    freq: float
    freq_over_vol: float
    theory: float


def run_smallball(x, deltas, config: ExperimentConfig):
    """Empirical small-ball frequencies of P(x) and of (P(x), P'(x)).

    freq_over_vol normalizes by the ball volume (2 delta, pi delta^2); the
    theory column is the standard normal density at the origin (1d) and the
    bivariate one (2d), exact in the Gaussian limit by the identity covariance.
    """
    p, dp = _point_values(config, x, need_deriv=True)
    rows = []
    for delta in deltas:
        f1 = float(np.mean(np.abs(p) < delta))
        rows.append(
            SmallBallRow(
                config.dist.kind, config.n, x, delta, 1,
                f1, f1 / (2.0 * delta), 1.0 / _SQRT_2PI,
            )
        )
        f2 = float(np.mean(p * p + dp * dp < delta * delta))
        rows.append(
            SmallBallRow(
                config.dist.kind, config.n, x, delta, 2,
                f2, f2 / (math.pi * delta * delta), 1.0 / (2.0 * math.pi),
            )
        )
    return rows


def edgeworth_fit(x, config: ExperimentConfig):
    """Sup-distance of the empirical CDF of standardized P(x) against the
    integrated order-4 expansion (cumulants from the true weights) and
    against the plain normal CDF."""
    win = support_window(x, config.n)
    b = win.weights
    sigma2 = float(b @ b)
    m3, k4 = (config.dist.m3, config.dist.m4 - 3.0)
    lam3 = m3 * float((b**3).sum()) / sigma2**1.5
    lam4 = k4 * float((b**4).sum()) / sigma2**2
    p, _ = _point_values(config, x)
    s = np.sort(p / math.sqrt(sigma2))
    gauss_cdf = norm.cdf(s)
    # integral of phi4: Phi(x) - phi(x) [lam3 H2/6 + lam4 H3/24 + lam3^2 H5/72]
    phi = np.exp(-0.5 * s * s) / _SQRT_2PI
    corr = (
        lam3 / 6.0 * edgeworth.hermite(2, s)
        + lam4 / 24.0 * edgeworth.hermite(3, s)
        + lam3**2 / 72.0 * edgeworth.hermite(5, s)
    )
    edge_cdf = gauss_cdf - phi * corr
    return _ks_distance(edge_cdf), _ks_distance(gauss_cdf)


def _ks_distance(model_cdf_at_sorted):
    t = model_cdf_at_sorted.size
    hi = np.arange(1, t + 1) / t
    lo = np.arange(0, t) / t
    return float(
        np.maximum(
            np.abs(model_cdf_at_sorted - hi), np.abs(model_cdf_at_sorted - lo)
        ).max()
    )


# ---------------------------------------------------------------------------
# block decomposition diagnostics


@dataclass(frozen=True)
class BlockCovariance:
    edges: np.ndarray
    matrix: np.ndarray
    total_variance: float
    additivity_residual: float
    offdiag_fraction: float
    trials: int


def block_edges(iv: IntervalSpec, block_exponent):
    """Partition edges of [a, b] into blocks of width M^eps, last one clipped."""
    width = iv.M**block_exponent
    k = max(1, int(math.ceil((iv.b - iv.a) / width - 1e-9)))
    edges = iv.a + width * np.arange(k + 1)
    edges[-1] = iv.b
    return edges


def block_covariance(config: ExperimentConfig, edges=None) -> BlockCovariance:
    """Empirical covariance matrix of per-block root counts.

    The sum of all entries equals the sample variance of the total count
    exactly (bilinearity); the reported off-diagonal fraction aggregates
    |s - t| > 1 mass relative to the total.
    """
    if edges is None:
        edges = block_edges(config.iv, config.block_exponent)
    counts, valid, blocks = _run_engine(_TrialEngine(config, block_edges=edges))
    _validity_policy(valid, config.trials)
    b = blocks.astype(float)
    cov = np.cov(b, ddof=1) if b.shape[0] > 1 else np.atleast_2d(np.var(b, ddof=1))
    total_var = float(counts.astype(float).var(ddof=1))
    residual = abs(float(cov.sum()) - total_var)
    k = cov.shape[0]
    s_idx, t_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    far = np.abs(s_idx - t_idx) > 1
    off_frac = float(np.abs(cov[far].sum()) / max(total_var, 1e-300))
    return BlockCovariance(
        edges=np.asarray(edges),
        matrix=cov,
        total_variance=total_var,
        additivity_residual=residual,
        offdiag_fraction=off_frac,
        trials=config.trials,
    )


@dataclass(frozen=True)
class OctaveRow:
    octave: int
    lo: float
    hi: float
    mean: float
    se: float
    gaussian_theory: float


def dyadic_expectation(config: ExperimentConfig):
    """Per-octave mean counts over [a, b] split at max(a, 1) * 2^k (diagnostic only).

    The per-octave shift prediction is one constant times log 2, but desk-scale
    standard errors cannot resolve it reliably, so no gate is attached.
    """
    edges = [config.iv.a]
    e = max(config.iv.a, 1.0)
    while e < config.iv.b:
        if e > edges[-1]:
            edges.append(float(e))
        e *= 2.0
    edges.append(config.iv.b)
    edges = np.unique(np.asarray(edges))
    counts, valid, blocks = _run_engine(_TrialEngine(config, block_edges=edges))
    _validity_policy(valid, config.trials)
    rows = []
    for k in range(edges.size - 1):
        seg = IntervalSpec(edges[k], edges[k + 1], edge_mode=True)
        x = blocks[k].astype(float)
        rows.append(
            OctaveRow(
                octave=k,
                lo=float(edges[k]),
                hi=float(edges[k + 1]),
                mean=float(x.mean()),
                se=float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan,
                gaussian_theory=gaussian_theory.expected_count_gaussian(seg, config.n),
            )
        )
    return rows
