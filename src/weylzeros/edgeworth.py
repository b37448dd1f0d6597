"""Edgeworth machinery: Hermite polynomials, averaged cumulants, correction
polynomials, expansion densities, the Hermite-moment tables, the localized
asymptotic sum with its closed form, and the assembly of the expectation
correction constant from those pieces.

Conventions: probabilists' Hermite polynomials (H2 = x^2 - 1); a multi-index
is an exponent vector (n1..nd) of weight sum(n) in {3, 4}; the averaged
cumulant attached to it is

    c_n(alpha) = C_{|alpha|} * (1/N) * sum_i  b_i^{n1} c_i^{n2} (...),

with b, c the sqrt(N)-normalized value/derivative basis weights and
C_3 = E xi^3, C_4 = E xi^4 - 3.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .basis import TAU_DEFAULT, BasisWindow, basis_log_weight, support_window
from .dists import CoefficientDistribution, excess_cumulants
from .errors import AssemblyError, ConfigError

HERMITE_MAX = 12

#: expectation-shift constants of the bulk theorem:
#: C_xi = K4_COEFF * (E xi^4 - 3) + K3SQ_COEFF * (E xi^3)^2 per log-octave unit
K4_COEFF = -7.0 / (192.0 * math.pi * math.sqrt(math.pi))
K3SQ_COEFF = math.sqrt(2.0) / (12.0 * math.pi * math.sqrt(math.pi))

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Hermite polynomials


def hermite(k, x):
    """H_k(x) by the three-term recurrence H_{k+1} = x H_k - k H_{k-1}."""
    if k < 0 or k > HERMITE_MAX:
        raise ConfigError(f"hermite order must be in [0, {HERMITE_MAX}]")
    x = np.asarray(x, dtype=float)
    h_prev, h = np.ones_like(x), x.copy()
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    for j in range(1, k):
        h_prev, h = h, x * h - j * h_prev
    return h if h.ndim else float(h)


def hermite_coeffs(k):
    """Monomial coefficients of H_k, ascending degree."""
    if k < 0 or k > HERMITE_MAX:
        raise ConfigError(f"hermite order must be in [0, {HERMITE_MAX}]")
    c_prev = np.array([1.0])
    if k == 0:
        return c_prev
    c = np.array([0.0, 1.0])
    for j in range(1, k):
        nxt = np.zeros(j + 2)
        nxt[1:] = c  # x * H_j
        nxt[: j] -= j * c_prev
        c_prev, c = c, nxt
    return c


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector over the walk coordinates; weight = total moment order."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.entries) or len(self.entries) > 4:
            raise ConfigError("multi-index entries must be >= 0, dimension <= 4")

    @property
    def weight(self):
        return sum(self.entries)

    @property
    def dim(self):
        return len(self.entries)


def multi_indices(d, weight):
    """All exponent vectors of the given dimension and weight."""
    out = []
    for combo in product(range(weight + 1), repeat=d):
        if sum(combo) == weight:
            out.append(MultiIndex(combo))
    return out


def multiplicity(alpha: MultiIndex):
    """Number of coordinate tuples collapsing to this exponent vector."""
    m = math.factorial(alpha.weight)
    for e in alpha.entries:
        m //= math.factorial(e)
    return m


def hermite_multi(alpha: MultiIndex, x):
    """prod_j H_{alpha_j}(x_j); permutation-invariant in the underlying tuples."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != alpha.dim:
        raise ConfigError("point dimension does not match multi-index")
    val = np.ones(x.shape[:-1])
    for j, e in enumerate(alpha.entries):
        val = val * hermite(e, x[..., j])
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# Averaged cumulants


@dataclass(frozen=True)
class CumulantTable:
    """c_n(alpha) for every alpha of weight 3 and 4 in dimension d."""

    d: int
    N: float
    entries: dict

    def __getitem__(self, alpha):
        key = alpha.entries if isinstance(alpha, MultiIndex) else tuple(alpha)
        return self.entries[key]


def avg_cumulant(alpha, window: BasisWindow, dist: CoefficientDistribution, N):
    """c_n(alpha, X) from one abscissa; dimension 1 uses value weights only.

    The basis weights carry the sqrt(N) normalization, so the sum scales like
    N^(w/2 - 1) times the unit-weight sum of bt^(n1) * (bt*ratio)^(n2).
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    if alpha.weight not in (3, 4):
        raise ConfigError("averaged cumulants defined for weights 3 and 4 only")
    if alpha.dim not in (1, 2):
        raise ConfigError("single-window cumulants are 1- or 2-dimensional")
    c3, c4 = excess_cumulants(dist)
    const = c3 if alpha.weight == 3 else c4
    if const == 0.0:
        return 0.0
    w = window.weights
    n2 = alpha.entries[1] if alpha.dim == 2 else 0
    s = float((w ** alpha.weight) @ (window.deriv_ratio**n2))
    return const * N ** (alpha.weight / 2.0 - 1.0) * s


def avg_cumulant_pair(alpha, wx: BasisWindow, wy: BasisWindow, dist, N):
    """c_n(alpha, X) for the 4-d walk built from abscissas x and y."""
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    if alpha.dim != 4 or alpha.weight not in (3, 4):
        raise ConfigError("pair cumulants take 4-d multi-indices of weight 3 or 4")
    c3, c4 = excess_cumulants(dist)
    const = c3 if alpha.weight == 3 else c4
    if const == 0.0:
        return 0.0
    lo = min(wx.i_lo, wy.i_lo)
    hi = max(wx.i_hi, wy.i_hi)
    i = np.arange(lo, hi + 1)
    a1, a2, a3, a4 = alpha.entries
    lw = (a1 + a2) * basis_log_weight(i, wx.x) + (a3 + a4) * basis_log_weight(i, wy.x)
    keep = lw > -700
    if not np.any(keep):
        return 0.0
    i = i[keep]
    term = np.exp(lw[keep])
    term *= ((i - wx.x**2) / wx.x) ** a2
    term *= ((i - wy.x**2) / wy.x) ** a4
    return const * N ** (alpha.weight / 2.0 - 1.0) * float(term.sum())


def cumulant_table(window, dist, N, d=2):
    """CumulantTable at one abscissa (d = 1 or 2)."""
    entries = {
        a.entries: avg_cumulant(a, window, dist, N)
        for w in (3, 4)
        for a in multi_indices(d, w)
    }
    return CumulantTable(d=d, N=float(N), entries=entries)


def cumulant_table_pair(wx, wy, dist, N):
    """CumulantTable for the 4-d walk at abscissas x and y."""
    entries = {
        a.entries: avg_cumulant_pair(a, wx, wy, dist, N)
        for w in (3, 4)
        for a in multi_indices(4, w)
    }
    return CumulantTable(d=4, N=float(N), entries=entries)


# ---------------------------------------------------------------------------
# Correction polynomials and expansion densities


def gamma1(table: CumulantTable, x):
    """Order-1 correction polynomial (1/6) sum over weight-3 tuples."""
    total = 0.0
    for a in multi_indices(table.d, 3):
        c = table[a]
        if c != 0.0:
            total = total + (multiplicity(a) / 6.0) * c * hermite_multi(a, x)
    return total


def gamma2(table: CumulantTable, x):
    """Order-2 correction as displayed: weight-4 part plus half the squared
    weight-3 part, with Hermite products H_alpha * H_beta in the square."""
    total = 0.0
    for a in multi_indices(table.d, 4):
        c = table[a]
        if c != 0.0:
            total = total + (multiplicity(a) / 24.0) * c * hermite_multi(a, x)
    g1 = gamma1(table, x)
    return total + 0.5 * g1 * g1


def _gamma2_convolved(table: CumulantTable, x):
    """Order-2 correction with the inversion-formula index sums H_{alpha+beta}.

    The displayed square uses Hermite products, whose Gaussian mean is not
    zero once third cumulants are present; applying the squared derivative
    operator to the density instead yields H at the summed multi-index, which
    is orthogonal to constants and keeps the expansion a signed probability
    density.
    """
    total = 0.0
    for a in multi_indices(table.d, 4):
        c = table[a]
        if c != 0.0:
            total = total + (multiplicity(a) / 24.0) * c * hermite_multi(a, x)
    third = [(a, table[a]) for a in multi_indices(table.d, 3) if table[a] != 0.0]
    for a, ca in third:
        for b, cb in third:
            merged = MultiIndex(tuple(i + j for i, j in zip(a.entries, b.entries)))
            total = total + (
                multiplicity(a) * multiplicity(b) / 72.0
            ) * ca * cb * hermite_multi(merged, x)
    return total


def gaussian_density(x):
    """Standard d-dimensional Gaussian density at x (d from the last axis)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[-1]
    val = np.exp(-0.5 * np.sum(x * x, axis=-1)) / _SQRT_2PI**d
    return val if val.ndim else float(val)


def density_q2(table: CumulantTable, x, N):
    """Order-2 expansion density (1 + Gamma1/sqrt(N) + Gamma2/N) * phi.

    Uses the convolved form of the order-2 correction so the signed mass is
    exactly one for any cumulant input.
    """
    body = 1.0 + gamma1(table, x) / math.sqrt(N) + _gamma2_convolved(table, x) / N
    return body * gaussian_density(x)


@dataclass(frozen=True)
class EdgeworthDensity1D:
    """Parameters of the 1-d expansion density of order 3, 4, or 5."""

    order: int
    chi3: float
    chi4: float
    chi5: float
    N: float

    def __post_init__(self):
        if self.order not in (3, 4, 5):
            raise ConfigError("expansion order must be 3, 4, or 5")
        if self.N <= 0:
            raise ConfigError("N must be positive")


def density_1d(params: EdgeworthDensity1D, x):
    """Evaluate the selected-order 1-d expansion density at x."""
    x = np.asarray(x, dtype=float)
    rn = 1.0 / math.sqrt(params.N)
    body = 1.0 + rn * (params.chi3 / 6.0) * hermite(3, x)
    if params.order >= 4:
        body = body + rn**2 * (
            (params.chi4 / 24.0) * hermite(4, x)
            + (params.chi3**2 / 72.0) * hermite(6, x)
        )
    if params.order >= 5:
        body = body + rn**3 * (
            (params.chi5 / 120.0) * hermite(5, x)
            + (params.chi3 * params.chi4 / 144.0) * hermite(7, x)
            + (params.chi3**3 / 1296.0) * hermite(9, x)
        )
    phi = np.exp(-0.5 * x * x) / _SQRT_2PI
    return body * phi


# ---------------------------------------------------------------------------
# Hermite-moment tables (the two linear functionals of the assembly)


def _gauss_abs_moment(m):
    # E |Z|^(m+1) for even m, i.e. E|Z| z^m contributions; odd m integrates to 0
    j = m // 2
    return 2.0**j * math.factorial(j) * math.sqrt(2.0 / math.pi)


def abs_moment_poly(coeffs):
    """integral |t| p(t) phi(t) dt for p given by ascending monomial coeffs."""
    total = 0.0
    for m, c in enumerate(coeffs):
        if c != 0.0 and m % 2 == 0:
            total += c * _gauss_abs_moment(m)
    return total


def density_at_zero_poly(coeffs):
    """lim_{d->0} (1/2d) integral 1_{|t|<d} p(t) phi(t) dt = p(0) phi(0)."""
    return float(coeffs[0]) / _SQRT_2PI


def hermite_moment_abs(k):
    """integral |t| H_k(t) phi(t) dt in closed form; exactly 0 for odd k."""
    if k < 0 or k > 10:
        raise ConfigError("hermite_moment_abs supports k <= 10")
    if k % 2 == 1:
        return 0.0
    return abs_moment_poly(hermite_coeffs(k))


def hermite_density_at_zero(k):
    """H_k(0) phi(0), the delta -> 0 limit of the windowed average; 0 for odd k."""
    if k < 0 or k > 10:
        raise ConfigError("hermite_density_at_zero supports k <= 10")
    if k % 2 == 1:
        return 0.0
    return density_at_zero_poly(hermite_coeffs(k))


# ---------------------------------------------------------------------------
# Localized asymptotic sum and its closed form


def asymptotic_sum_constant(t, s):
    """C(t, s) with sum_i e^{-t x^2/2} x^{ti}/(i!)^{t/2} ((i-x^2)/x)^s
    = C(t, s) x^{-(t-2)/2} + exponentially small remainder."""
    return (
        (2.0 * math.pi) ** (-t / 4.0)
        * (4.0 / t) ** ((s + 1) / 2.0)
        * math.gamma((s + 1) / 2.0)
    )


def asymptotic_sum(t, s, x, n):
    """(exact, closed_form) for the localized power sum.

    exact is the direct windowed log-domain sum; closed_form is the Laplace
    value C(t, s) x^{-(t-2)/2}.  Terms are accumulated pairwise from the peak
    outward, largest first, to limit cancellation.
    """
    if t < 2 or int(t) != t:
        raise ConfigError("t must be an integer >= 2")
    if s < 0 or s % 2 != 0:
        raise ConfigError("s must be an even integer >= 0")
    if x < 10:
        raise ConfigError("asymptotic sum requires x >= 10")
    if n < x * x + 10 * x * math.sqrt(math.log(n)):
        raise ConfigError("degree too small: need n >= x^2 + 10 x sqrt(log n)")
    window = support_window(x, n, TAU_DEFAULT)
    if window.edge_clipped:
        raise ConfigError("window clipped by the degree; result would be edge-biased")
    idx = window.indices
    terms = np.exp(t * np.maximum(window.log_w, -700.0 / t)) * window.deriv_ratio**s
    center = int(np.argmin(np.abs(idx - x * x)))
    left = terms[:center][::-1]
    right = terms[center + 1 :]
    m = min(left.size, right.size)
    paired = left[:m] + right[:m]
    rest = np.concatenate([left[m:], right[m:]])
    exact = float(terms[center] + paired.sum() + rest.sum())
    closed = asymptotic_sum_constant(t, s) * x ** (-(t - 2) / 2.0)
    return exact, closed


# ---------------------------------------------------------------------------
# Assembly of the expectation-correction constant


@dataclass(frozen=True)
class CorrectionTerm:
    """One surviving term of the correction assembly, all factors explicit."""

    source: str  # "kurtosis" or "skew_sq"
    indices: tuple
    weight: float
    abs_factor: float
    zero_factor: float
    log_coeff: float

    @property
    def contribution(self):
        return self.weight * self.abs_factor * self.zero_factor * self.log_coeff


def correction_terms():
    """Every nonvanishing term of the per-log-octave expectation shift.

    Kurtosis block: weight-4 multi-indices (n1, n2), multinomial/24, paired
    with E|Z| H_{n1} and H_{n2}(0) phi(0), and the x-integral coefficient
    C(4, n2).  Skew-squared block: ordered pairs of weight-3 indices,
    multinomial product / 72, the same functionals on the polynomial products,
    and C(3, a2) C(3, b2).
    """
    terms = []
    for a in multi_indices(2, 4):
        n1, n2 = a.entries
        t_abs = abs_moment_poly(hermite_coeffs(n1))
        t_zero = density_at_zero_poly(hermite_coeffs(n2))
        if t_abs == 0.0 or t_zero == 0.0:
            continue
        terms.append(
            CorrectionTerm(
                source="kurtosis",
                indices=(a.entries,),
                weight=multiplicity(a) / 24.0,
                abs_factor=t_abs,
                zero_factor=t_zero,
                log_coeff=asymptotic_sum_constant(4, n2),
            )
        )
    for a in multi_indices(2, 3):
        for b in multi_indices(2, 3):
            pa = np.polynomial.polynomial.polymul(
                hermite_coeffs(a.entries[0]), hermite_coeffs(b.entries[0])
            )
            pb = np.polynomial.polynomial.polymul(
                hermite_coeffs(a.entries[1]), hermite_coeffs(b.entries[1])
            )
            t_abs = abs_moment_poly(pa)
            t_zero = density_at_zero_poly(pb)
            if t_abs == 0.0 or t_zero == 0.0:
                continue
            terms.append(
                CorrectionTerm(
                    source="skew_sq",
                    indices=(a.entries, b.entries),
                    weight=multiplicity(a) * multiplicity(b) / 72.0,
                    abs_factor=t_abs,
                    zero_factor=t_zero,
                    log_coeff=asymptotic_sum_constant(3, a.entries[1])
                    * asymptotic_sum_constant(3, b.entries[1]),
                )
            )
    return terms


def expectation_correction_coefficients():
    """(kurtosis coefficient, skew-squared coefficient, term ledger)."""
    terms = correction_terms()
    k4 = sum(t.contribution for t in terms if t.source == "kurtosis")
    k3sq = sum(t.contribution for t in terms if t.source == "skew_sq")
    return k4, k3sq, terms


def expectation_correction(c1, c2, dist: CoefficientDistribution):
    """(assembled, closed_form) expectation shift over [c1*M, c2*M].

    assembled re-derives the constant from the Hermite-moment functionals and
    the asymptotic-sum closed forms; closed_form plugs the distribution's
    excess moments into the published constants.  Disagreement beyond 1e-10
    relative means the assembly itself is broken.
    """
    if not 0 < c1 < c2:
        raise ConfigError("need 0 < c1 < c2")
    m3, k4_excess = excess_cumulants(dist)
    log_ratio = math.log(c2 / c1)
    k4_coeff, k3sq_coeff, _ = expectation_correction_coefficients()
    assembled = (k4_coeff * k4_excess + k3sq_coeff * m3**2) * log_ratio
    closed = (K4_COEFF * k4_excess + K3SQ_COEFF * m3**2) * log_ratio
    scale = max(abs(assembled), abs(closed), 1e-30)
    if abs(assembled - closed) > 1e-10 * scale:
        raise AssemblyError(
            f"expectation-correction assembly mismatch: {assembled} vs {closed}"
        )
    return assembled, closed


def correction_constant(dist: CoefficientDistribution):
    """The per-log-octave constant for one distribution (closed form)."""
    m3, k4_excess = excess_cumulants(dist)
    return K4_COEFF * k4_excess + K3SQ_COEFF * m3**2
