import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeros import basis, dists
from weylzeros.errors import ConfigError


def full_weights(x, n):
    lw = basis.basis_log_weight(np.arange(n + 1), x)
    return np.exp(np.clip(lw, -700, None)) * (lw > -700)


def test_log_weight_base_case():
    assert basis.basis_log_weight(0, 1.0) == pytest.approx(-0.5, abs=1e-14)


def test_log_weight_rejects_nonpositive_x():
    with pytest.raises(ConfigError):
        basis.basis_log_weight(3, 0.0)


def test_log_weight_peak_stirling():
    # peak weight ~ (2 pi x^2)^(-1/4) at i = floor(x^2)
    x = 30.0
    peak = basis.basis_log_weight(int(x * x), x)
    assert abs(peak - math.log((2 * math.pi * x * x) ** -0.25)) < 0.01


def test_log_weight_gaussian_decay_rate():
    # offset L x from the peak drops the log-weight by ~c L^2 with c in [1/8, 1]
    x, L = 30.0, 5.0
    peak = basis.basis_log_weight(int(x * x), x)
    off = basis.basis_log_weight(int(x * x + L * x), x)
    c = (peak - off) / L**2
    assert 1.0 / 8.0 <= c <= 1.0


def test_log_weight_precision():
    # against exact log computation at moderate index
    from scipy.special import gammaln

    x, i = 7.3, 40
    expect = -x * x / 2 + i * math.log(x) - 0.5 * float(gammaln(i + 1))
    assert basis.basis_log_weight(i, x) == pytest.approx(expect, rel=1e-12)


class TestSupportWindow:
    def test_window_width_and_mass(self):
        x, n, tau = 30.0, 1000, 40.0
        w = basis.support_window(x, n, tau)
        half = max(x * x - w.i_lo, w.i_hi - x * x)
        assert x * math.sqrt(tau) <= half + 1
        assert half <= 4 * x * math.sqrt(tau)
        # mass defect vs full [0, n] summation below e^{-tau/2}
        fw = full_weights(x, n)
        assert float(fw @ fw) - w.mass < math.exp(-tau / 2)

    def test_window_contains_peak(self):
        w = basis.support_window(12.0, 400, 60.0)
        assert w.i_lo <= math.floor(144.0) <= w.i_hi

    def test_retained_entries_above_cut(self):
        w = basis.support_window(25.0, 1000, 60.0)
        assert w.log_w.max() >= -60.0
        # entries at the window boundary sit far above the drop cut
        assert w.log_w[0] >= -60.0 or w.i_lo == 0

    def test_small_x_full_summation(self):
        w = basis.support_window(0.5, 100, 40.0)
        assert (w.i_lo, w.i_hi) == (0, 100)

    def test_hard_edge_clipped_and_flagged(self):
        n = 400
        w = basis.support_window(math.sqrt(n), n, 40.0)
        assert w.i_hi == n
        assert w.edge_clipped
        assert 1.0 - w.mass < 0.6  # about half the Poisson mass survives

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            basis.support_window(5.0, 100, 0.0)
        with pytest.raises(ConfigError):
            basis.support_window(30.0, 100, 40.0)


def reference_window_bounds(x, n, tau):
    """The window rule at one abscissa, the upper edge extended one step per
    loop: the reference the vectorised `window_bounds` must match."""
    if x < basis.SMALL_X:
        return 0, n, False
    w = int(np.ceil(x * (np.sqrt(tau) + 2.0)))
    center = int(np.floor(x * x))
    i_lo = max(0, center - w)
    i_hi = center + w
    step = max(8, int(np.ceil(x)))
    while i_hi < n and basis.basis_log_weight(i_hi, x) > -tau:
        i_hi += step
    return i_lo, min(n, i_hi), i_hi > n


@st.composite
def window_inputs(draw):
    """(xs, n, tau): abscissas below, at and above SMALL_X, including the
    clipped range (sqrt(n), sqrt(n) + 1]."""
    n = draw(st.integers(1, 5000))
    top = math.sqrt(n)
    x = st.one_of(
        st.floats(0.0, basis.SMALL_X, exclude_max=True),
        st.just(basis.SMALL_X),
        st.floats(basis.SMALL_X, max(top, basis.SMALL_X)),
        st.floats(top, top + 1.0, exclude_min=True),
    )
    xs = draw(st.lists(x, min_size=1, max_size=40))
    return xs, n, draw(st.sampled_from([22.0, 40.0, 60.0]))


@given(window_inputs())
@settings(max_examples=300, deadline=None)
def test_property_window_bounds_matches_scalar_reference(case):
    xs, n, tau = case
    i_lo, i_hi, clipped = basis.window_bounds(np.array(xs), n, tau)
    assert i_lo.shape == i_hi.shape == clipped.shape == (len(xs),)
    for k, x in enumerate(xs):
        ref = reference_window_bounds(x, n, tau)
        assert (i_lo[k], i_hi[k], clipped[k]) == ref, (x, n, tau)
        one = basis.window_bounds(x, n, tau)
        assert one == ref and [type(v) for v in one] == [int, int, bool], (x, n, tau)


def test_window_bounds_edge_search_over_several_passes():
    # a deep cut moves the upper edge by more steps than one pass tries
    xs = np.linspace(0.0, 71.0, 400)
    i_lo, i_hi, clipped = basis.window_bounds(xs.reshape(20, 20), 5000, 400.0)
    got = np.stack([i_lo.ravel(), i_hi.ravel(), clipped.ravel()], axis=1).tolist()
    assert got == [list(reference_window_bounds(x, 5000, 400.0)) for x in xs]


@pytest.mark.parametrize("x, n", [(1.5, 100), (10.0, 400), (30.0, 1600), (20.5, 400)])
def test_window_weights_are_a_weight_block_row(x, n):
    w = basis.support_window(x, n)
    idx = w.indices
    block, _ = basis.weight_block(np.array([x, x + 1.0]), idx, 0.5 * basis.log_factorial(idx))
    assert block[0].tobytes() == w.weights.tobytes()


class TestEvaluate:
    def test_two_term_polynomial(self):
        c = np.zeros(11)
        c[0], c[1] = 0.7, -0.3
        s = basis.WeylSample(10, c)
        for x in (0.2, 0.9, 1.7):
            p, _ = basis.evaluate_at(s, x)
            assert p == pytest.approx(math.exp(-x * x / 2) * (0.7 - 0.3 * x), rel=1e-12)

    def test_linear_root_sign_change(self):
        c = np.zeros(11)
        c[0], c[1] = -2.0, 1.0
        s = basis.WeylSample(10, c)
        assert basis.evaluate_at(s, 1.9)[0] < 0 < basis.evaluate_at(s, 2.1)[0]
        assert abs(basis.evaluate_at(s, 2.0)[0]) < 1e-15

    def test_windowed_matches_full_summation(self):
        rng = np.random.default_rng(0)
        for n in (300, 2000):
            xi = rng.standard_normal(n + 1)
            s = basis.WeylSample(n, xi)
            for x in (3.0, 11.5, 0.8 * math.sqrt(n)):
                w = basis.support_window(x, n, 60.0)
                p, dp = basis.evaluate(s, w)
                fw = full_weights(x, n)
                ratio = (np.arange(n + 1) - x * x) / x
                assert p == pytest.approx(float(fw @ xi), abs=1e-9)
                assert dp == pytest.approx(float((fw * ratio) @ xi), abs=1e-9)

    def test_value_variance_near_one(self):
        # Var P(x) = sum of squared unit-mass weights ~ 1 in the bulk
        x, n, trials = 10.0, 400, 10**5
        w = basis.support_window(x, n, 60.0)
        b = w.weights
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((trials, b.size)) @ b
        assert abs(vals.var() - 1.0) < 0.02

    def test_degree_mismatch(self):
        s = basis.WeylSample(10, np.zeros(11))
        w = basis.support_window(2.0, 20, 60.0)
        with pytest.raises(ConfigError):
            basis.evaluate(s, w)


class TestPoissonIdentities:
    @pytest.mark.parametrize("x", [5.0, 12.0, 24.0])
    def test_normalization(self, x):
        n = 1000
        fw = full_weights(x, n)
        assert abs(float(fw @ fw) - 1.0) < 1e-6

    @pytest.mark.parametrize("x", [5.0, 12.0, 24.0])
    def test_value_derivative_orthogonality(self, x):
        n = 1000
        fw = full_weights(x, n)
        ratio = (np.arange(n + 1) - x * x) / x
        assert abs(float((fw * fw) @ ratio)) < 1e-8

    @pytest.mark.parametrize("x", [5.0, 12.0, 24.0])
    def test_derivative_normalization(self, x):
        n = 1000
        fw = full_weights(x, n)
        ratio = (np.arange(n + 1) - x * x) / x
        assert abs(float((fw * ratio) @ (fw * ratio)) - 1.0) < 1e-6

    def test_cross_decorrelation(self):
        n = 1000
        gap = 3 * math.sqrt(math.log(n))
        for x, y in [(6.0, 6.0 + gap), (10.0, 22.0), (15.0, 15.0 + gap)]:
            v = basis.covariance_4d(x, y, n)
            cross = np.abs(v[:2, 2:])
            assert cross.max() < 1e-6

    def test_bulk_covariance_is_identity(self):
        v = basis.covariance_2d(10.0, 400)
        assert np.abs(v - np.eye(2)).max() < 1e-8


def test_sample_validation():
    with pytest.raises(ConfigError):
        basis.WeylSample(4, np.zeros(4))
    with pytest.raises(ConfigError):
        basis.WeylSample(2, np.array([1.0, np.inf, 0.0]))
