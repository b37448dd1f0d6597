import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from weylzeros import basis, dists, roots
from weylzeros.errors import ConfigError


def linear_sample(n=60):
    c = np.zeros(n + 1)
    c[0], c[1] = -2.0, 1.0
    return basis.WeylSample(n, c)


def gaussian_sample(n, seed, index=0):
    xi = dists.sample(dists.gaussian(), dists.trial_stream(seed, index), n + 1)
    return basis.WeylSample(n, xi)


class TestIntervalSpec:
    def test_basic_validation(self):
        with pytest.raises(ConfigError):
            roots.IntervalSpec(5.0, 5.0)
        with pytest.raises(ConfigError):
            roots.IntervalSpec(-1.0, 5.0)

    def test_edge_guard(self):
        iv = roots.IntervalSpec(2.0, 19.5)
        with pytest.raises(ConfigError):
            iv.validate_for_degree(400)
        roots.IntervalSpec(2.0, 19.5, edge_mode=True).validate_for_degree(400)
        roots.IntervalSpec(2.0, 18.0).validate_for_degree(400)

    def test_interval_representation(self):
        iv = roots.IntervalSpec(5.0, 35.0)
        assert iv.M == 35.0
        assert iv.c1 == pytest.approx(1.0 / 7.0)
        assert iv.c2 == 1.0

    def test_delta(self):
        iv = roots.IntervalSpec(5.0, 35.0)
        assert iv.delta(5.0) == pytest.approx(35.0**-5)
        with pytest.raises(ConfigError):
            iv.delta(0.0)


class TestCountSignChanges:
    def test_linear_root(self):
        iv = roots.IntervalSpec(0.0, 5.0, edge_mode=True)
        res = roots.count_sign_changes(linear_sample(), iv)
        assert res.count == 1
        assert abs(res.roots[0] - 2.0) < 1e-8
        assert res.validity

    def test_pure_monomial_no_roots(self):
        c = np.zeros(61)
        c[7] = 1.0
        iv = roots.IntervalSpec(1.0, 5.0, edge_mode=True)
        res = roots.count_sign_changes(basis.WeylSample(60, c), iv)
        assert res.count == 0

    def test_half_open_additivity(self):
        # count[a,c) = count[a,b) + count[b,c) when b is not a root
        iv_ac = roots.IntervalSpec(1.0, 7.0, edge_mode=True)
        iv_ab = roots.IntervalSpec(1.0, 4.0, edge_mode=True)
        iv_bc = roots.IntervalSpec(4.0, 7.0, edge_mode=True)
        for t in range(25):
            s = gaussian_sample(120, 77, t)
            whole = roots.count_sign_changes(s, iv_ac).count
            parts = (
                roots.count_sign_changes(s, iv_ab).count
                + roots.count_sign_changes(s, iv_bc).count
            )
            assert whole == parts

    def test_halving_step_never_decreases_count(self):
        iv = roots.IntervalSpec(1.0, 8.0, edge_mode=True)
        for t in range(15):
            s = gaussian_sample(120, 13, t)
            coarse = roots.count_sign_changes(s, iv, h0=0.04).count
            fine = roots.count_sign_changes(s, iv, h0=0.02).count
            finest = roots.count_sign_changes(s, iv, h0=0.01).count
            assert coarse <= fine <= finest or coarse == fine == finest

    def test_against_eigenvalue_oracle(self):
        # exact real roots from the companion matrix at small degree
        n = 60
        iv = roots.IntervalSpec(2.0, 6.0, edge_mode=True)
        k = roots.GridKernel(n, 2.0, 6.0)
        for law in (dists.gaussian(), dists.rademacher()):
            for t in range(120):
                xi = dists.sample(law, dists.trial_stream(99, t), n + 1)
                coef = xi * np.exp(-0.5 * gammaln(np.arange(n + 1) + 1))
                rr = np.roots(coef[::-1])
                real = rr[np.abs(rr.imag) < 1e-9].real
                oracle = int(np.sum((real >= 2.0) & (real < 6.0)))
                mine = roots.count_sign_changes(
                    basis.WeylSample(n, xi), iv, kernel=k
                ).count
                assert mine == oracle


class TestHuntSameSignCell:
    def test_finds_hidden_pair(self):
        f = lambda x: (x - 3.0) ** 2 - 1e-4  # roots at 3 +- 0.01
        found, ambiguous = roots._hunt_same_sign_cell(f, 2.985, 3.02, f(2.985), f(3.02), 1e-8)
        assert len(found) == 2
        assert not ambiguous
        assert abs(found[0] - 2.99) < 1e-8 and abs(found[1] - 3.01) < 1e-8

    def test_tangent_dip_is_ambiguous(self):
        f = lambda x: (x - 3.0) ** 2 + 1e-12  # touches without crossing
        found, ambiguous = roots._hunt_same_sign_cell(f, 2.999, 3.001, f(2.999), f(3.001), 1e-6)
        assert found == []
        assert ambiguous

    def test_clear_cell_untouched(self):
        f = lambda x: 1.0 + 0.0 * x
        found, ambiguous = roots._hunt_same_sign_cell(f, 0.0, 0.02, 1.0, 1.0, 1e-8)
        assert found == [] and not ambiguous


class TestKacRice:
    def test_single_transversal_root(self):
        iv = roots.IntervalSpec(0.0, 5.0, edge_mode=True)
        val = roots.kac_rice_count(linear_sample(), iv, 1e-6)
        assert abs(val - 1.0) < 1e-6

    def test_matches_count_on_random_samples(self):
        iv = roots.IntervalSpec(2.0, 10.0, edge_mode=True)
        k = roots.GridKernel(150, 2.0, 10.0)
        for t in range(20):
            s = gaussian_sample(150, 5, t)
            res = roots.analyze(s, iv, kernel=k)
            if res.validity:
                assert abs(res.kac_rice_value - res.count) < 1e-6

    def test_delta_validation(self):
        with pytest.raises(ConfigError):
            roots.kac_rice_count(linear_sample(), roots.IntervalSpec(0.0, 5.0, edge_mode=True), 0.0)


class TestValidityCheck:
    def test_root_at_endpoint_fails(self):
        # solve xi_0 so that P(a) = 0
        n = 150
        s = gaussian_sample(n, 21, 4)
        w = basis.support_window(2.0, n)
        bt = np.zeros(n + 1)
        bt[w.i_lo : w.i_hi + 1] = w.weights()
        xi = s.coeffs.copy()
        xi[0] -= (bt @ xi) / bt[0]
        iv = roots.IntervalSpec(2.0, 10.0, edge_mode=True)
        assert not roots.validity_check(basis.WeylSample(n, xi), iv, 1e-8)

    def test_margins_exceed_delta(self):
        # deterministic sample with min |P| + |P'| well above delta = 0.1
        c = np.zeros(61)
        c[0] = 5.0  # P = 5 e^{-x^2/2}: |P| + |P'| >= 0.5 on [0, 2]
        iv = roots.IntervalSpec(0.0, 2.0, edge_mode=True)
        assert roots.validity_check(basis.WeylSample(60, c), iv, 0.1)

    def test_typical_sample_is_valid(self):
        iv = roots.IntervalSpec(2.0, 10.0, edge_mode=True)
        s = gaussian_sample(150, 21, 0)
        assert roots.validity_check(s, iv, 1e-10)


def test_kernel_handles_origin():
    k = roots.GridKernel(50, 0.0, 1.0, h0=0.5)
    c = np.zeros(51)
    c[0], c[1] = 2.0, -1.0
    p, dp = k.values(c)
    assert p[0] == pytest.approx(2.0)
    assert dp[0] == pytest.approx(-1.0)


@st.composite
def kernel_configs(draw):
    """(n, a, b, h0): grids of 65-160 rows, so at least two tiles, starting at
    0, below basis.SMALL_X or in the bulk, and never past sqrt(n)."""
    n = draw(st.integers(20, 1600))
    root_n = math.sqrt(n)
    start = draw(st.sampled_from(["origin", "small", "bulk"]))
    if start == "origin":
        a = 0.0
    elif start == "small":
        a = draw(st.floats(0.01, basis.SMALL_X - 0.01))
    else:
        a = draw(st.floats(basis.SMALL_X, root_n - 1.0))
    b = draw(st.floats(min(a + 0.5, root_n), root_n))
    rows = draw(st.integers(65, 160))
    return n, a, b, (b - a) / rows


@given(kernel_configs(), st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_property_kernel_values_match_evaluate_at(cfg, seed):
    n, a, b, h0 = cfg
    k = roots.GridKernel(n, a, b, h0)
    xi = np.stack([gaussian_sample(n, seed, t).coeffs for t in range(3)], axis=1)
    p, dp = k.values(xi)
    p1, dp1 = k.values(xi[:, 1])
    assert p.shape == dp.shape == (k.grid.size, 3) and p1.shape == (k.grid.size,)
    for j, x in enumerate(k.grid):
        mass = 1.0 if x == 0.0 else basis.support_window(x, n).mass
        for t in range(3):
            ref = basis.evaluate_at(basis.WeylSample(n, xi[:, t]), x)
            assert abs(p[j, t] - ref[0]) <= 1e-12 * mass, (x, t)
            assert abs(dp[j, t] - ref[1]) <= 1e-12 * mass, (x, t)
        assert abs(p1[j] - p[j, 1]) <= 1e-12 * mass and abs(dp1[j] - dp[j, 1]) <= 1e-12 * mass


def union_window(n, lo, hi):
    ends = [basis.window_bounds(x, n, basis.TAU_DEFAULT) for x in (lo, hi)]
    return np.arange(min(e[0] for e in ends), max(e[1] for e in ends) + 1)


def union_moved(sample, union, x):
    """Bound on what summing the indices `union` in place of x's own window
    changes in P and in P' at x: the weight of every index in one of the two
    but not in both."""
    i_lo, i_hi, _ = basis.window_bounds(x, sample.n, basis.TAU_DEFAULT)
    idx = np.setxor1d(union, np.arange(i_lo, i_hi + 1))
    if not idx.size:
        return 0.0
    w = np.exp(basis.basis_log_weight(idx, x))
    return float(np.abs(sample.coeffs[idx]) @ (w + w * np.abs(idx - x * x) / x))


def per_point_metric_min(sample, lo, hi, step=roots.REFINE_FLOOR):
    """Reference fine-grid minimum, one windowed evaluation per point, and a
    bound on what summing the union of the end windows changes at any point."""
    xs = np.arange(lo, hi + step, step)
    union = union_window(sample.n, xs[0], xs[-1])
    vals = [sum(map(abs, basis.evaluate_at(sample, x))) for x in xs]
    return min(vals), max(union_moved(sample, union, x) for x in xs)


def span_start(n, start, u, width=roots.DEFAULT_H0):
    """A span start at 0, below basis.SMALL_X or in the bulk, at least
    `width` below sqrt(n)."""
    if start == "origin":
        return 0.0
    if start == "small":
        return 0.01 + u * (basis.SMALL_X - 0.01)
    return basis.SMALL_X + u * (math.sqrt(n) - width - basis.SMALL_X)


@given(
    st.integers(20, 1600),
    st.sampled_from(["origin", "small", "bulk"]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_refined_metric_min_matches_per_point(n, start, u, seed):
    h = roots.DEFAULT_H0
    lo = span_start(n, start, u)
    sample = gaussian_sample(n, seed)
    ref, moved = per_point_metric_min(sample, lo, lo + h)
    assert abs(roots._refined_metric_min(sample, lo, lo + h) - ref) <= moved + 1e-12


@given(
    st.integers(20, 1600),
    st.sampled_from(["origin", "small", "bulk"]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_local_evaluator_matches_evaluate_at(n, start, u, v, seed):
    # spans up to four scan steps wide, as wide as a Kac-Rice span and more
    lo = span_start(n, start, u)
    hi = min(lo + v * 4 * roots.DEFAULT_H0, math.sqrt(n))
    sample = gaussian_sample(n, seed)
    ev = roots.LocalEvaluator(sample, lo, hi)
    union = union_window(n, lo, hi)
    xs = np.linspace(lo, hi, 9)
    p, dp = ev(xs)
    for k, x in enumerate(xs):
        ref = basis.evaluate_at(sample, x)
        bound = union_moved(sample, union, x) + 1e-12
        scalar = ev(x)
        for got in ((p[k], dp[k]), scalar):
            assert abs(got[0] - ref[0]) <= bound and abs(got[1] - ref[1]) <= bound, (x, got, ref)
        assert ev.value(x) == scalar[0]
    # points outside the span are evaluate_at's own values
    outside = np.array([x for x in (lo - 0.05, hi + 0.05) if 0.0 < x <= math.sqrt(n)])
    po, dpo = ev(outside)
    for k, x in enumerate(outside):
        assert (po[k], dpo[k]) == basis.evaluate_at(sample, x) == ev(x)


def full_excursion_boundary(f, root, step, delta, direction, limit):
    """The excursion boundary search with all 64 bisection steps."""
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
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if (abs(f(mid)) < delta) == (direction < 0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


KR_IV = roots.IntervalSpec(2.0, 18.0)
KR_KERNEL = roots.GridKernel(400, KR_IV.a, KR_IV.b)


@given(
    st.integers(0, 2**31),
    st.sampled_from([dists.gaussian(), dists.rademacher(), dists.uniform_sym()]),
    st.floats(-12.0, -1.0),
)
@settings(max_examples=25, deadline=None)
def test_property_excursion_early_stop_is_exact(seed, law, log_delta):
    n, iv, h = 400, KR_IV, roots.DEFAULT_H0
    delta = 10.0**log_delta
    sample = basis.WeylSample(n, dists.sample(law, dists.trial_stream(seed, 0), n + 1))
    for r in roots.count_sign_changes(sample, iv, kernel=KR_KERNEL).roots:
        ev = roots.LocalEvaluator(sample, max(iv.a, r - h), min(iv.b, r + h))
        step = delta / max(abs(basis.evaluate_at(sample, r)[1]), 1e-12)
        for direction, limit in ((-1, iv.a), (+1, iv.b)):
            got = roots._excursion_boundary(ev.value, r, step, delta, direction, limit)
            ref = full_excursion_boundary(ev.value, r, step, delta, direction, limit)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (r, direction)
