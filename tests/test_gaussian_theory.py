import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from weylzeros import dists, gaussian_theory as gt, montecarlo as mc, roots
from weylzeros.errors import NumericalInstabilityError


def test_bulk_value():
    assert abs(gt.intensity_gaussian(15.0, 1000) - 1 / math.pi) < 1e-6


def test_bulk_plateau_sweep():
    n = 1000
    xs = np.linspace(5.0, 0.9 * math.sqrt(n), 60)
    dev = max(abs(gt.intensity_gaussian(x, n) - 1 / math.pi) for x in xs)
    assert dev < 1e-3


def test_degree_one_against_kac_rice_quadrature():
    # oracle: rho(x) = int |y| p(0, y) dy for the 2-d Gaussian (P, P') at x,
    # covariance [[1 + x^2, x], [x, 1]]
    for x in (0.3, 1.0, 2.5):
        cov = np.array([[1 + x * x, x], [x, 1.0]])
        det = np.linalg.det(cov)
        inv = np.linalg.inv(cov)

        def dens(y):
            v = np.array([0.0, y])
            return math.exp(-0.5 * v @ inv @ v) / (2 * math.pi * math.sqrt(det))

        oracle, _ = quad(lambda y: abs(y) * dens(y), -12, 12, limit=200)
        assert gt.intensity_gaussian(x, 1) == pytest.approx(oracle, rel=1e-8)


def test_far_tail_against_direct_second_derivative():
    # oracle: (1/pi) sqrt(d^2/ds dt log K) via central differences on the
    # truncated kernel, evaluated in the weight-normalized form
    x, n = 34.0, 1000

    def log_k(s, t):
        i = np.arange(n + 1)
        lw = i * (math.log(s) + math.log(t)) - gammaln(i + 1)
        m = lw.max()
        return m + math.log(np.exp(lw - m).sum())

    h = 1e-5 * x
    d2 = (
        log_k(x + h, x + h) - log_k(x + h, x - h) - log_k(x - h, x + h) + log_k(x - h, x - h)
    ) / (4 * h * h)
    oracle = math.sqrt(d2) / math.pi
    # double-precision finite differences are noise-limited near 1e-4 relative
    assert gt.intensity_gaussian(x, n) == pytest.approx(oracle, rel=1e-3)


def _truncated_poisson_oracle(x, n, mp):
    # rho = sqrt(Var I) / (pi x), I ~ Poisson(x^2) truncated to {0, ..., n},
    # from d^2/ds dt log K(st) = Var(I) / x^2; summed at 60 digits
    u = mp.mpf(x) ** 2
    w = [mp.mpf(1)]
    for i in range(1, n + 1):
        w.append(w[-1] * u / i)
    z = mp.fsum(w)
    mean = mp.fsum(i * wi for i, wi in enumerate(w)) / z
    var = mp.fsum((i - mean) ** 2 * wi for i, wi in enumerate(w)) / z
    return mp.sqrt(var) / (mp.pi * mp.mpf(x))


def test_far_tail_against_truncated_poisson_oracle():
    mp = pytest.importorskip("mpmath")
    n = 1000
    with mp.workdps(60):
        for x in (34.0, 45.0, 60.0, 100.0, 150.0, 300.0):
            value = gt.intensity_gaussian(x, n)
            assert math.isfinite(value), x
            assert value == pytest.approx(float(_truncated_poisson_oracle(x, n, mp)), rel=1e-8)


# values of the log-domain bulk path (x^2 <= n), pinned bit for bit
BULK_PINS = [
    (0.0, 1000, "0x1.45f306dc9c883p-2"),
    (1.0, 1, "0x1.45f306dc9c883p-3"),
    (15.0, 1000, "0x1.45f306dc9c883p-2"),
    (30.0, 1000, "0x1.44f8a4697b047p-2"),
    (31.0, 1000, "0x1.11469f8436b89p-2"),
    (31.6, 1000, "0x1.8c623e868b498p-3"),
    (39.0, 1600, "0x1.3347754039160p-2"),
]


def test_bulk_values_pinned():
    for x, n, pinned in BULK_PINS:
        assert gt.intensity_gaussian(x, n) == float.fromhex(pinned), (x, n)


def test_bulk_pins_against_truncated_poisson_oracle():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for x, n, pinned in BULK_PINS:
            if x > 0.0:
                oracle = float(_truncated_poisson_oracle(x, n, mp))
                assert float.fromhex(pinned) == pytest.approx(oracle, rel=1e-11), (x, n)


def test_nonfinite_input_raises():
    with pytest.raises(NumericalInstabilityError):
        gt.intensity_gaussian(float("nan"), 1000)


def test_far_tail_overflow_is_silent_zero():
    # x^2 overflows to inf: the limit 0.0, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gt.intensity_gaussian(1e200, 10) == 0.0
        assert gt.intensity_gaussian(math.inf, 10) == 0.0
        assert 0.0 < gt.intensity_gaussian(1e150, 10) < 1e-299


def test_incomplete_gamma_regularized_range():
    for x in (2.0, 15.0, 31.0, 45.0):
        q = gammaincc(1001, x * x)
        assert 0.0 <= q <= 1.0


class TestExpectedCount:
    def test_bulk_interval(self):
        iv = roots.IntervalSpec(2.0, 18.0)
        val = gt.expected_count_gaussian(iv, 400)
        assert abs(val - 5.0930) < 1e-3

    def test_degenerate_interval(self):
        class IV:
            a = b = 3.0

        assert gt.expected_count_gaussian(IV, 400) == 0.0

    def test_full_range_half_count(self):
        iv = roots.IntervalSpec(0.0, 20.0, edge_mode=True)
        val = gt.expected_count_gaussian(iv, 400)
        assert abs(val / (math.sqrt(400) / math.pi) - 1) < 0.02


class TestPairCorrelation:
    def test_large_gap_limit(self):
        assert abs(gt.pair_correlation_limit(20.0) - 1 / math.pi**2) < 1e-8

    def test_small_gap_repulsion(self):
        assert gt.pair_correlation_limit(1e-3) < 1e-4

    def test_delta_in_arcsine_domain(self):
        _, delta, one_minus_d2 = gt._pair_correlation_pieces(1.0)
        assert -1.0 < delta < 1.0
        assert 0.0 < one_minus_d2 < 1.0

    def test_even(self):
        for t in (0.3, 1.0, 2.7, 8.0):
            assert gt.pair_correlation_limit(t) == gt.pair_correlation_limit(-t)

    def test_series_matches_direct_at_crossover(self):
        # both branches of the cancelling piece agree at the switch point
        t2 = 0.2**2
        series = gt._one_minus_u_series(t2)
        direct = -math.expm1(-t2) - t2 * math.exp(-t2 / 2)
        assert series == pytest.approx(direct, rel=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(NumericalInstabilityError):
            gt.pair_correlation_limit(0.0)


class TestVarianceConstant:
    def test_selected_value(self):
        vc = gt.variance_constant_weyl()
        assert abs(vc.selected - 0.18198) < 1e-3
        assert vc.selected_name == "reading_b"
        assert vc.reading_a != vc.selected  # the losing reading is reported

    def test_tail_negligible(self):
        assert abs(gt.pair_correlation_limit(40.0) - 1 / math.pi**2) < 1e-12

    def test_readings_are_distinct_formulas(self):
        vc = gt.variance_constant_weyl()
        integral = vc.reading_b - 1 / math.pi
        assert vc.reading_a == pytest.approx(integral / math.pi, rel=1e-12)


def test_histogram_cross_check():
    # root histogram over [2,18] (bin 0.5) against the intensity, 1e4 trials
    n, trials = 400, 10**4
    edges = np.arange(2.0, 18.01, 0.5)
    cfg = mc.ExperimentConfig(
        n=n, iv=roots.IntervalSpec(2.0, 18.0), dist=dists.gaussian(),
        trials=trials, seed=2024, workers=2,
    )
    _, _, blocks = mc._run_engine(mc._TrialEngine(cfg, block_edges=edges))
    means = blocks.mean(axis=1)
    ses = blocks.std(axis=1, ddof=1) / math.sqrt(trials)
    for k in range(edges.size - 1):
        seg = roots.IntervalSpec(edges[k], edges[k + 1], edge_mode=True)
        theory = gt.expected_count_gaussian(seg, n)
        assert abs(means[k] - theory) < 4 * ses[k]


def test_intensity_profile_invariants():
    n = 1000
    grid = np.linspace(0.5, math.sqrt(n), 80)
    values = np.array([gt.intensity_gaussian(x, n) for x in grid.tolist()])
    assert values.shape == grid.shape
    assert np.all(values >= 0.0)
    bulk = (grid >= 5.0) & (grid <= math.sqrt(n) - 3 * math.sqrt(math.log(n)))
    assert np.abs(values[bulk] - 1 / math.pi).max() < 1e-3
