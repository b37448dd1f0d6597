import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeros import basis, dists, montecarlo as mc, roots
from weylzeros.errors import ConfigError, NumericalInstabilityError, ResourceBudgetError


def make_config(**over):
    base = dict(
        n=400,
        iv=roots.IntervalSpec(2.0, 18.0),
        dist=dists.gaussian(),
        trials=400,
        seed=11,
        workers=1,
    )
    base.update(over)
    return mc.ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_config(trials=0)
        with pytest.raises(ConfigError):
            make_config(delta_exponent=0.0)
        with pytest.raises(ConfigError):
            make_config(block_exponent=0.7)

    def test_edge_guard_enforced(self):
        with pytest.raises(ConfigError):
            make_config(iv=roots.IntervalSpec(2.0, 19.9))

    def test_flop_budget(self):
        with pytest.raises(ResourceBudgetError):
            make_config(trials=10**9)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            make_config(workers=-1)

    def test_worker_count_from_environment_must_be_a_positive_integer(self, monkeypatch):
        cfg = make_config(workers=0)
        monkeypatch.setenv("WEYLZEROS_WORKERS", "3")
        assert cfg.resolved_workers() == 3
        for bad in ("two", "0", "-1"):
            monkeypatch.setenv("WEYLZEROS_WORKERS", bad)
            with pytest.raises(ConfigError):
                cfg.resolved_workers()


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        s1 = mc.run_expectation(make_config(workers=1, trials=600))
        s2 = mc.run_expectation(make_config(workers=2, trials=600))
        assert np.array_equal(s1.per_trial_counts, s2.per_trial_counts)
        assert s1.mean == s2.mean and s1.se_mean == s2.se_mean

    def test_short_last_chunk_matches_full_chunk(self):
        # trials 256..299 end a 300-trial run in a 44-wide chunk and sit in a
        # full 256-wide chunk of a 600-trial run
        c1, v1, _ = mc._run_engine(mc._TrialEngine(make_config(trials=300)))
        c2, v2, _ = mc._run_engine(mc._TrialEngine(make_config(trials=600)))
        assert np.array_equal(c1, c2[:300]) and np.array_equal(v1, v2[:300])
        # the products behind them agree bit for bit
        engine = mc._TrialEngine(make_config(trials=600))
        with mc._one_blas_thread():
            short = engine.kernel.values(engine.coefficients(256, 300))
            full = engine.kernel.values(engine.coefficients(256, 512))
        for a, b in zip(short, full):
            assert np.array_equal(a[:, :44], b[:, :44])

    def test_different_seeds_differ(self):
        a = mc.run_expectation(make_config(seed=1))
        b = mc.run_expectation(make_config(seed=2))
        assert not np.array_equal(a.per_trial_counts, b.per_trial_counts)


@given(
    st.sampled_from([dists.gaussian(), dists.rademacher(), dists.uniform_sym()]),
    st.integers(0, 2**31),
)
@settings(max_examples=6, deadline=None)
def test_property_engine_matches_per_sample(law, seed):
    cfg = make_config(dist=law, seed=seed, trials=48)
    engine = mc._TrialEngine(cfg)
    counts, valid, _ = mc._run_engine(engine)
    for t in range(cfg.trials):
        xi = dists.sample(law, dists.trial_stream(seed, t), cfg.n + 1)
        sample = basis.WeylSample(cfg.n, xi)
        res = roots.count_sign_changes(sample, cfg.iv, kernel=engine.kernel)
        ok = res.validity and roots.validity_check(sample, cfg.iv, cfg.delta, kernel=engine.kernel)
        assert valid[t] == ok, t
        if ok:
            assert counts[t] == res.count, t


class TestExpectation:
    def test_summary_fields(self):
        s = mc.run_expectation(make_config(trials=2000, workers=2))
        assert s.trials == 2000
        assert abs(s.mean - s.theory_mean) < 5 * s.se_mean
        assert s.validity_fail_rate == 0.0
        assert s.warning is None
        assert math.isfinite(s.z_scores[0]) and math.isfinite(s.z_scores[1])

    def test_single_trial_variance_missing(self):
        s = mc.run_expectation(make_config(trials=1))
        assert math.isnan(s.variance)
        assert math.isnan(s.se_mean)

    def test_gaussian_theory_has_no_shift(self):
        cfg = make_config()
        from weylzeros import gaussian_theory
        assert mc._theories(cfg)[0] == pytest.approx(
            gaussian_theory.expected_count_gaussian(cfg.iv, cfg.n), rel=1e-12
        )

    def test_validity_hard_failure(self):
        # delta ~ M^-0.02 ~ 0.94 makes endpoint margins fail on most trials
        with pytest.raises(NumericalInstabilityError):
            mc.run_expectation(make_config(delta_exponent=0.02, trials=100))


def test_paired_difference_structure():
    cfg = make_config(dist=dists.rademacher(), trials=800, workers=2)
    pd = mc.paired_expectation_difference(cfg, dists.gaussian())
    assert pd.dists == ("rademacher", "gaussian")
    assert pd.theory_diff == pytest.approx(
        (7 / (96 * math.pi * math.sqrt(math.pi))) * math.log(9.0), rel=1e-12
    )
    assert pd.se_diff > 0
    # paired streams couple the runs: difference variance below sum of variances
    a = mc.run_expectation(cfg)
    var_sum = 2 * a.variance  # same-law proxy for the unpaired floor
    assert pd.se_diff**2 * cfg.trials < var_sum


class TestBlocks:
    def test_additivity_exact(self):
        bc = mc.block_covariance(make_config(trials=500, workers=2))
        assert bc.additivity_residual < 1e-10

    def test_single_block(self):
        cfg = make_config(trials=300)
        bc = mc.block_covariance(cfg, edges=np.array([2.0, 18.0]))
        assert bc.matrix.shape == (1, 1)
        assert bc.matrix[0, 0] == pytest.approx(bc.total_variance)

    def test_block_width_guard(self):
        with pytest.raises(ConfigError):
            mc.block_covariance(make_config(trials=10), edges=np.arange(2.0, 18.0, 0.01))


class TestSmallBall:
    def test_frequencies_and_normalizers(self):
        cfg = make_config(dist=dists.rademacher(), trials=200000)
        rows = mc.run_smallball(10.0, [0.05], cfg)
        one = [r for r in rows if r.dim == 1][0]
        two = [r for r in rows if r.dim == 2][0]
        assert one.freq_over_vol == pytest.approx(one.freq / 0.1, rel=1e-12)
        assert one.theory == pytest.approx(1 / math.sqrt(2 * math.pi))
        assert two.theory == pytest.approx(1 / (2 * math.pi))
        assert abs(one.freq_over_vol - one.theory) < 0.05 * one.theory


class TestEdgeworthFit:
    def test_gaussian_degenerates(self):
        cfg = make_config(trials=20000)
        d_edge, d_gauss = mc.edgeworth_fit(10.0, cfg)
        assert abs(d_edge - d_gauss) < 1e-12

    def test_rademacher_improves(self):
        cfg = make_config(dist=dists.rademacher(), trials=200000)
        d_edge, d_gauss = mc.edgeworth_fit(10.0, cfg)
        assert d_edge < d_gauss


def test_dyadic_diagnostic_rows():
    cfg = make_config(trials=300, workers=2)
    rows = mc.dyadic_expectation(cfg, m0=2.0)
    assert rows[0].lo == 2.0 and rows[-1].hi == 18.0
    assert all(r.hi == pytest.approx(2 * r.lo, rel=1e-12) or r is rows[-1] for r in rows)
    total_mean = sum(r.mean for r in rows)
    direct = mc.run_expectation(cfg)
    assert total_mean == pytest.approx(direct.mean, abs=1e-12)


def test_offdiagonal_block_mass_decays():
    # width-3 blocks on [5, 35] at n = 1600: |s-t| > 1 covariance mass is a
    # small fraction of the total (correlations decay like the pair kernel)
    cfg = mc.ExperimentConfig(
        n=1600, iv=roots.IntervalSpec(5.0, 35.0), dist=dists.gaussian(),
        trials=4000, seed=44, workers=0,
        block_exponent=math.log(3.0) / math.log(35.0),
    )
    bc = mc.block_covariance(cfg)
    assert bc.matrix.shape[0] == 10
    assert bc.offdiag_fraction < 0.05
