import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.integrate import quad

from weylzeros import basis, dists, edgeworth as ew
from weylzeros.errors import ConfigError

SQRT_2PI = math.sqrt(2 * math.pi)


def phi(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / SQRT_2PI


# ---------------------------------------------------------------------------
# Hermite polynomials


def test_hermite_examples():
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(ew.hermite(2, xs), xs**2 - 1)
    assert ew.hermite(0, 123.0) == 1.0
    # H6 = x^6 - 15 x^4 + 45 x^2 - 15 by the recurrence
    x = 1.5
    assert ew.hermite(6, x) == pytest.approx(x**6 - 15 * x**4 + 45 * x**2 - 15)


@given(st.integers(0, 12), st.floats(-6, 6))
@settings(max_examples=120, deadline=None)
def test_hermite_matches_reference(k, x):
    ref = hermite_e.hermeval(x, [0.0] * k + [1.0])
    assert ew.hermite(k, x) == pytest.approx(ref, rel=1e-10, abs=1e-9)


def test_hermite_order_cap():
    with pytest.raises(ConfigError):
        ew.hermite(13, 0.0)
    for k in (-1, 13):
        with pytest.raises(ConfigError):
            ew.hermite_coeffs(k)


def test_hermite_coeffs_match_evaluation():
    for k in range(0, 11):
        c = ew.hermite_coeffs(k)
        x = 0.73
        assert np.polynomial.polynomial.polyval(x, c) == pytest.approx(
            ew.hermite(k, x), rel=1e-12
        )


def test_hermite_multi_examples():
    with pytest.raises(ConfigError):
        ew.MultiIndex((1, 1, 1))


def test_hermite_orthogonality_by_quadrature():
    for j in range(0, 9):
        for k in range(j, 9):
            val, _ = quad(
                lambda t: ew.hermite(j, t) * ew.hermite(k, t) * float(phi(t)),
                -12, 12, limit=300,
            )
            expect = math.factorial(j) if j == k else 0.0
            assert abs(val - expect) < 1e-9


# ---------------------------------------------------------------------------
# moment functionals


def abs_moment_quadrature(coeffs):
    # full_output silences the roundoff warning on exactly-zero odd integrals
    poly = lambda t: np.polynomial.polynomial.polyval(t, coeffs)
    val = quad(lambda t: t * poly(t) * float(phi(t)), 0, 14, limit=300,
               epsabs=1e-14, full_output=1)[0]
    val2 = quad(lambda t: -t * poly(t) * float(phi(t)), -14, 0, limit=300,
                epsabs=1e-14, full_output=1)[0]
    return val + val2


def at_zero_quadrature(coeffs):
    # Richardson extrapolation of (1/2d) int_{-d}^{d} p phi over d, d/2, d/4
    poly = lambda t: np.polynomial.polynomial.polyval(t, coeffs)
    vals = []
    for d in (8e-3, 4e-3, 2e-3):
        v, _ = quad(lambda t: poly(t) * float(phi(t)), -d, d, epsabs=1e-15)
        vals.append(v / (2 * d))
    r1 = (4 * vals[1] - vals[0]) / 3
    r2 = (4 * vals[2] - vals[1]) / 3
    return (16 * r2 - r1) / 15


@pytest.mark.parametrize("k", range(0, 11))
def test_hermite_moment_abs_vs_quadrature(k):
    c = ew.hermite_coeffs(k)
    assert ew.abs_moment_poly(c) == pytest.approx(abs_moment_quadrature(c), abs=1e-10)


@pytest.mark.parametrize("k", range(0, 11))
def test_hermite_density_at_zero_vs_quadrature(k):
    c = ew.hermite_coeffs(k)
    assert ew.density_at_zero_poly(c) == pytest.approx(at_zero_quadrature(c), abs=1e-10)


def test_moment_table_values():
    h3, h4 = ew.hermite_coeffs(3), ew.hermite_coeffs(4)
    assert ew.abs_moment_poly(h4) == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-14)
    assert ew.density_at_zero_poly(h4) == pytest.approx(3 / SQRT_2PI, rel=1e-14)
    assert ew.abs_moment_poly(h3) == 0.0
    assert ew.density_at_zero_poly(h3) == 0.0


# ---------------------------------------------------------------------------
# averaged cumulants and correction polynomials


@pytest.fixture(scope="module")
def window30():
    return basis.support_window(30.0, 1200, 60.0)


def test_avg_cumulant_gaussian_zero(window30):
    for a in ew.multi_indices(2, 3) + ew.multi_indices(2, 4):
        assert ew.avg_cumulant(a, window30, dists.gaussian(), 30.0) == 0.0


def test_avg_cumulant_symmetric_skew_zero(window30):
    for a in ew.multi_indices(2, 3):
        assert ew.avg_cumulant(a, window30, dists.rademacher(), 30.0) == 0.0


def test_avg_cumulant_rademacher_value(window30):
    val = ew.avg_cumulant((4, 0), window30, dists.rademacher(), 30.0)
    assert val == pytest.approx(-1 / math.sqrt(math.pi), rel=1e-2)


def test_avg_cumulant_weight_validation(window30):
    with pytest.raises(ConfigError):
        ew.avg_cumulant((2, 0), window30, dists.rademacher(), 30.0)


def test_cumulant_table_gaussian_all_zero(window30):
    t = ew.cumulant_table(window30, dists.gaussian(), 30.0)
    assert all(v == 0.0 for v in t.entries.values())


def test_gamma1_forms(window30):
    t = ew.cumulant_table(window30, dists.gaussian(), 30.0)
    assert ew.gamma1(t, [0.3, -1.2]) == 0.0
    # d = 1 table with only c3: gamma1 = (c3/6) H3, zero at the origin
    c3 = 0.8
    t1 = ew.CumulantTable(d=1, N=10.0, entries={(3,): c3, (4,): 0.0})
    assert ew.gamma1(t1, [1.7]) == pytest.approx(c3 / 6 * ew.hermite(3, 1.7))
    assert ew.gamma1(t1, [0.0]) == 0.0


def test_gamma1_even_pairing_vanishes():
    # int f(x) Gamma1 phi dx = 0 for even f
    t1 = ew.CumulantTable(d=1, N=10.0, entries={(3,): 0.9, (4,): 0.0})
    val, _ = quad(
        lambda x: (x**4 + 1) * ew.gamma1(t1, [x]) * float(phi(x)), -10, 10, limit=200
    )
    assert abs(val) < 1e-10


def test_density_q2_gaussian_case():
    zero = {a.entries: 0.0 for a in ew.multi_indices(1, 3) + ew.multi_indices(1, 4)}
    t = ew.CumulantTable(d=1, N=25.0, entries=zero)
    assert ew.density_q2(t, [0.3], 25.0) == pytest.approx(float(phi(0.3)), rel=1e-14)


def test_density_q2_mass_and_third_moment():
    n_norm = 16.0
    t = ew.CumulantTable(d=1, N=n_norm, entries={(3,): 0.7, (4,): -1.1})
    mass, _ = quad(lambda x: ew.density_q2(t, [x], n_norm), -12, 12, limit=300)
    assert abs(mass - 1.0) < 1e-9
    third, _ = quad(lambda x: x**3 * ew.density_q2(t, [x], n_norm), -12, 12, limit=300)
    assert third == pytest.approx(0.7 / math.sqrt(n_norm), abs=1e-8)


def multiplicity(alpha):
    """Number of coordinate tuples collapsing to this exponent vector."""
    m = math.factorial(alpha.weight)
    for e in alpha.entries:
        m //= math.factorial(e)
    return m


def reference_terms(table, x, h=ew.hermite):
    """The hand loops the Hermite series replaced, one value per term:
    (Gamma1 terms, Gamma2 terms), each a product of h per coordinate at the
    weight-4 index or at the summed index of a pair of weight-3 indices."""

    def term(weight, cumulant, entries):
        return weight * cumulant * math.prod(h(e, xj) for e, xj in zip(entries, x))

    third = ew.multi_indices(table.d, 3)
    g1 = [term(multiplicity(a) / 6.0, table[a], a.entries) for a in third]
    g2 = [term(multiplicity(a) / 24.0, table[a], a.entries)
          for a in ew.multi_indices(table.d, 4)]
    g2 += [
        term(multiplicity(a) * multiplicity(b) / 72.0, table[a] * table[b],
             tuple(i + j for i, j in zip(a.entries, b.entries)))
        for a in third for b in third
    ]
    return g1, g2


def abs_hermite(k, t):
    # H_k with its monomial coefficients in absolute value, at |t|: the scale
    # of the rounding error of H_k(t), which does not vanish at H_k's roots
    return np.polynomial.polynomial.polyval(abs(t), np.abs(ew.hermite_coeffs(k)))


@st.composite
def cumulant_tables(draw):
    # nonzero entries stay above 1e-3 so that no product of two underflows
    d = draw(st.sampled_from([1, 2]))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
    keys = [a.entries for w in (3, 4) for a in ew.multi_indices(d, w)]
    return ew.CumulantTable(d=d, N=1.0, entries={k: draw(entry) for k in keys})


@given(cumulant_tables(), st.floats(1.0, 50.0),
       st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_series_density_matches_reference_loops(table, n_norm, point):
    x = point[: table.d]
    g1, g2 = reference_terms(table, x)
    abs_table = ew.CumulantTable(table.d, table.N, {k: abs(v) for k, v in table.entries.items()})
    s1, s2 = reference_terms(abs_table, x, abs_hermite)
    assert abs(ew.gamma1(table, x) - sum(g1)) <= 1e-12 * sum(s1)
    body = 1.0 + sum(g1) / math.sqrt(n_norm) + sum(g2) / n_norm
    scale = 1.0 + sum(s1) / math.sqrt(n_norm) + sum(s2) / n_norm
    phi_x = ew.gaussian_density(x)
    assert abs(ew.density_q2(table, x, n_norm) - body * phi_x) <= 1e-12 * scale * phi_x


#: the order-2 terms as the expansion had them written out, per order:
#: a weight-3 index with multiplicity/6, a weight-4 index with
#: multiplicity/24, an ordered pair of weight-3 indices with the product of
#: multiplicities/72
ORDER2_TERMS = {
    1: (
        ((((3,),), 1 / 6.0),),
        ((((4,),), 1 / 24.0), (((3,), (3,)), 1 * 1 / 72.0)),
    ),
    2: (
        (
            (((0, 3),), 1 / 6.0),
            (((1, 2),), 3 / 6.0),
            (((2, 1),), 3 / 6.0),
            (((3, 0),), 1 / 6.0),
        ),
        (
            (((0, 4),), 1 / 24.0),
            (((1, 3),), 4 / 24.0),
            (((2, 2),), 6 / 24.0),
            (((3, 1),), 4 / 24.0),
            (((4, 0),), 1 / 24.0),
            (((0, 3), (0, 3)), 1 * 1 / 72.0),
            (((0, 3), (1, 2)), 1 * 3 / 72.0),
            (((0, 3), (2, 1)), 1 * 3 / 72.0),
            (((0, 3), (3, 0)), 1 * 1 / 72.0),
            (((1, 2), (0, 3)), 3 * 1 / 72.0),
            (((1, 2), (1, 2)), 3 * 3 / 72.0),
            (((1, 2), (2, 1)), 3 * 3 / 72.0),
            (((1, 2), (3, 0)), 3 * 1 / 72.0),
            (((2, 1), (0, 3)), 3 * 1 / 72.0),
            (((2, 1), (1, 2)), 3 * 3 / 72.0),
            (((2, 1), (2, 1)), 3 * 3 / 72.0),
            (((2, 1), (3, 0)), 3 * 1 / 72.0),
            (((3, 0), (0, 3)), 1 * 1 / 72.0),
            (((3, 0), (1, 2)), 1 * 3 / 72.0),
            (((3, 0), (2, 1)), 1 * 3 / 72.0),
            (((3, 0), (3, 0)), 1 * 1 / 72.0),
        ),
    ),
}


@pytest.mark.parametrize("d", [1, 2])
def test_expansion_terms_reproduce_order2_list(d):
    # bit for bit: the shift ledger and density_q2 walk these terms
    assert ew._expansion_terms(d, 2) == ORDER2_TERMS[d]
    assert ew._expansion_terms(d, 4)[:2] == ORDER2_TERMS[d]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("top", [3, 4, 5])
def test_zero_table_gives_phi_exactly(d, top):
    entries = {a.entries: 0.0 for w in range(3, top + 1) for a in ew.multi_indices(d, w)}
    table = ew.CumulantTable(d=d, N=1.0, entries=entries)
    x = [0.7, -1.3][:d]
    assert len(table.series) == top - 2
    assert ew._expansion_density(table.series, x, 3.0) == ew.gaussian_density(x)
    if d == 1:
        p = ew.EdgeworthDensity1D(order=top, chi3=0.0, chi4=0.0, chi5=0.0, N=3.0)
        assert ew.density_1d(p, x[0]) == ew.gaussian_density(x)


#: a cumulant in [-3, 3] away from the underflow range, where a product of
#: two or three loses the bits that a relative tolerance needs
cumulants = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
points = st.floats(-8.0, 8.0, allow_subnormal=False)


def fit_cdf_reference(lam3, lam4, s, h=ew.hermite):
    """The hand-written CDF correction of the fit, one value per term."""
    return [lam3 / 6.0 * h(2, s), lam4 / 24.0 * h(3, s), lam3**2 / 72.0 * h(5, s)]


@given(cumulants, cumulants, points)
@settings(max_examples=100, deadline=None)
def test_cdf_correction_matches_hand_form(lam3, lam4, s):
    table = ew.CumulantTable(d=1, N=1.0, entries={(3,): lam3, (4,): lam4})
    scale = sum(fit_cdf_reference(abs(lam3), abs(lam4), s, abs_hermite))
    assert abs(ew.cdf_correction(table, s) - sum(fit_cdf_reference(lam3, lam4, s))) <= (
        1e-12 * scale
    )


#: the expectation-shift constants with the Kac-Rice roles of the value and
#: derivative coordinates (`DECISIONS.md`, the K3SQ entry), written out here
#: rather than read from the package
K4_RESTATED = -1.0 / (64.0 * math.pi**1.5)
K3SQ_RESTATED = math.sqrt(2.0) / (216.0 * math.pi**1.5)


@pytest.mark.parametrize("law", [dists.rademacher(), dists.discrete_sym([0, 1], [0.9, 0.1])],
                         ids=["rademacher", "bernoulli_0.1"])
@pytest.mark.parametrize("x", [40.0, 80.0])
def test_expansion_intensity_gives_restated_constants(law, x):
    # rho = int |v| q2(0, v) dv is the order-2 expansion's Kac-Rice intensity
    # (1/pi for a Gaussian law); x (rho - 1/pi) tends to the per-log-octave
    # shift constant, which is the restated one, not K4_COEFF / K3SQ_COEFF
    w = basis.support_window(x, 4 * x * x + 200)
    t = ew.cumulant_table(w, law, 1.0)
    rho, _ = quad(lambda v: abs(v) * ew.density_q2(t, (0.0, v), 1.0), -14, 14, points=[0])
    m3, k4 = dists.excess_cumulants(law)
    c = K4_RESTATED * k4 + K3SQ_RESTATED * m3**2
    assert abs(x * (rho - 1 / math.pi) - c) <= 0.01 * abs(c)


class TestDensity1D:
    def test_gaussian_degenerate(self):
        p = ew.EdgeworthDensity1D(order=5, chi3=0.0, chi4=0.0, chi5=0.0, N=7.0)
        assert ew.density_1d(p, 0.9) == pytest.approx(float(phi(0.9)), rel=1e-14)

    def test_order4_at_zero(self):
        kappa, n_norm = -1.7, 13.0
        p = ew.EdgeworthDensity1D(order=4, chi3=0.0, chi4=kappa, chi5=0.0, N=n_norm)
        assert ew.density_1d(p, 0.0) == pytest.approx(
            float(phi(0.0)) * (1 + kappa / (8 * n_norm)), rel=1e-12
        )

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_signed_mass_one(self, order):
        p = ew.EdgeworthDensity1D(order=order, chi3=0.9, chi4=-1.4, chi5=2.2, N=9.0)
        mass, _ = quad(lambda x: ew.density_1d(p, x), -14, 14, limit=400)
        assert abs(mass - 1.0) < 1e-9

    @staticmethod
    def hand_terms(order, chi3, chi4, chi5, n_norm, x, h=ew.hermite):
        """The hand-written orders 3-5 of the density, one value per term."""
        rn = 1.0 / math.sqrt(n_norm)
        terms = [rn * (chi3 / 6.0) * h(3, x)]
        if order >= 4:
            terms += [rn**2 * (chi4 / 24.0) * h(4, x), rn**2 * (chi3**2 / 72.0) * h(6, x)]
        if order >= 5:
            terms += [
                rn**3 * (chi5 / 120.0) * h(5, x),
                rn**3 * (chi3 * chi4 / 144.0) * h(7, x),
                rn**3 * (chi3**3 / 1296.0) * h(9, x),
            ]
        return terms

    @given(st.sampled_from([3, 4, 5]), st.lists(cumulants, min_size=3, max_size=3),
           st.floats(1.0, 50.0), points)
    @settings(max_examples=100, deadline=None)
    def test_matches_hand_orders(self, order, chis, n_norm, x):
        p = ew.EdgeworthDensity1D(order, *chis, n_norm)
        body = 1.0 + sum(self.hand_terms(order, *chis, n_norm, x))
        scale = 1.0 + sum(self.hand_terms(order, *map(abs, chis), n_norm, x, abs_hermite))
        phi_x = float(phi(x))
        assert abs(ew.density_1d(p, x) - body * phi_x) <= 1e-12 * scale * phi_x

    def test_order_validation(self):
        with pytest.raises(ConfigError):
            ew.EdgeworthDensity1D(order=6, chi3=0, chi4=0, chi5=0, N=1.0)


# ---------------------------------------------------------------------------
# asymptotic sum


class TestAsymptoticSum:
    def test_t4_s0_example(self):
        exact, closed = ew.asymptotic_sum(4, 0, 30.0, 2000)
        assert closed == pytest.approx(1 / (2 * math.sqrt(math.pi) * 30), rel=1e-12)
        assert abs(exact / closed - 1) < 0.01

    def test_poisson_normalization(self):
        exact, closed = ew.asymptotic_sum(2, 0, 25.0, 1600)
        assert closed == pytest.approx(1.0, rel=1e-12)
        assert abs(exact - 1.0) < 1e-6

    def test_t3_squared_coefficient(self):
        # C(3,0)^2 = 2/(3 sqrt(2 pi)), the per-log coefficient of the skew term
        c = ew.asymptotic_sum_constant(3, 0)
        assert c * c == pytest.approx(2 / (3 * SQRT_2PI), rel=1e-12)
        exact, closed = ew.asymptotic_sum(3, 0, 30.0, 2000)
        assert exact**2 == pytest.approx((2 / (3 * SQRT_2PI)) / 30.0, rel=1e-3)

    @pytest.mark.parametrize("t", [3, 4])
    @pytest.mark.parametrize("s", [0, 2, 4])
    @pytest.mark.parametrize("x", [20.0, 40.0, 60.0])
    def test_relative_error_envelope(self, t, s, x):
        n = int(x * x + 30 * x + 200)
        exact, closed = ew.asymptotic_sum(t, s, x, n)
        assert abs(exact / closed - 1) <= 10.0 / (x * x)

    @pytest.mark.parametrize("t", [3, 4])
    @pytest.mark.parametrize("s", [1, 3])
    def test_odd_power_has_no_leading_term(self, t, s):
        # the sum of an odd power is below 1/x times the size the even-s
        # formula gives, so its leading Laplace coefficient is zero
        assert ew.asymptotic_sum_constant(t, s) == 0.0
        size = (2 * math.pi) ** (-t / 4) * (4 / t) ** ((s + 1) / 2) * math.gamma((s + 1) / 2)
        for x in (20.0, 40.0, 80.0):
            w = basis.support_window(x, int(x * x + 30 * x + 200))
            direct = float(np.sum(np.exp(t * w.log_w) * w.deriv_ratio**s))
            assert abs(direct) / (size * x ** (-(t - 2) / 2)) < 1 / x

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            ew.asymptotic_sum(4, 1, 30.0, 2000)  # odd s
        with pytest.raises(ConfigError):
            ew.asymptotic_sum(4, 0, 5.0, 2000)  # small x
        with pytest.raises(ConfigError):
            ew.asymptotic_sum(4, 0, 30.0, 950)  # degree too small


# ---------------------------------------------------------------------------
# expectation-correction assembly


def test_assembled_coefficients_match_closed_forms():
    k4, k3sq, terms = ew.expectation_correction_coefficients()
    assert abs(k4 / ew.K4_COEFF - 1) < 1e-12
    assert abs(k3sq / ew.K3SQ_COEFF - 1) < 1e-12
    assert len(terms) == 7  # 3 kurtosis terms + 4 surviving skew pairs


def test_correction_gaussian_zero():
    assert ew.correction_constant(dists.gaussian()) == 0.0


def test_correction_rademacher_log2():
    # E xi^4 - 3 = -2 and E xi^3 = 0: the shift over one octave is 7 log 2/(96 pi^1.5)
    shift = ew.correction_constant(dists.rademacher()) * math.log(2.0)
    assert shift == pytest.approx(7 / (96 * math.pi * math.sqrt(math.pi)) * math.log(2.0),
                                  rel=1e-14)


def test_correction_skew_contribution():
    d = dists.discrete_sym([-1.0, 0.0, 3.0], [0.45, 0.4, 0.15])
    expect = (
        -7 / 192 * (d.m4 - 3.0) + math.sqrt(2.0) / 12 * d.m3**2
    ) / (math.pi * math.sqrt(math.pi))
    assert d.m3 != 0.0
    assert ew.correction_constant(d) == pytest.approx(expect, rel=1e-14)
