import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeros import dists
from weylzeros.errors import ConfigError

ALL_KINDS = [dists.gaussian(), dists.rademacher(), dists.uniform_sym(),
             dists.discrete_sym([-2.0, 0.0, 1.0], [0.2, 0.3, 0.5])]


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
def test_moment_matrix_positivity(dist):
    assert dist.m4 >= 1.0 + dist.m3**2 - 1e-12


def test_excess_cumulants_examples():
    assert dists.excess_cumulants(dists.gaussian()) == (0.0, 0.0)
    assert dists.excess_cumulants(dists.rademacher()) == (0.0, -2.0)
    c3, c4 = dists.excess_cumulants(dists.uniform_sym())
    assert c3 == 0.0
    assert abs(c4 - (-6.0 / 5.0)) < 1e-15


def test_symmetric_kinds_have_zero_skew():
    for dist in (dists.rademacher(), dists.uniform_sym(),
                 dists.discrete_sym([-3.0, -1.0, 1.0, 3.0], [0.1, 0.4, 0.4, 0.1])):
        assert dist.m3 == pytest.approx(0.0, abs=1e-15)


def test_rademacher_support():
    v = dists.sample(dists.rademacher(), dists.trial_stream(1, 0), 4)
    assert set(np.unique(v)) <= {-1.0, 1.0}


def test_gaussian_mean_five_se():
    v = dists.sample(dists.gaussian(), dists.trial_stream(123, 0), 10**6)
    assert abs(v.mean()) < 5e-3  # 5 standard errors of 0


def test_uniform_fourth_moment():
    v = dists.sample(dists.uniform_sym(), dists.trial_stream(7, 0), 10**6)
    assert abs(np.mean(v**4) - 9.0 / 5.0) < 0.02


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
def test_empirical_mean_variance(dist):
    v = dists.sample(dist, dists.trial_stream(99, 3), 10**6)
    se_mean = 1.0 / 1000.0
    se_var = np.sqrt(max(dist.m4 - 1.0, 0.0)) / 1000.0
    assert abs(v.mean()) < 5 * se_mean
    # the mean^2 debiasing term is O(1/T), relevant when m4 = 1 exactly
    assert abs(v.var() - 1.0) < 5 * se_var + 1e-5


def test_reproducible_bit_identical():
    a = dists.sample(dists.gaussian(), dists.trial_stream(5, 17), 4096)
    b = dists.sample(dists.gaussian(), dists.trial_stream(5, 17), 4096)
    assert np.array_equal(a, b)
    c = dists.sample(dists.gaussian(), dists.trial_stream(5, 18), 4096)
    assert not np.array_equal(a, c)


def test_unsupported_kind_is_config_error():
    with pytest.raises(ConfigError):
        dists.from_name("cauchy")
    with pytest.raises(ConfigError):
        dists.sample(
            dists.CoefficientDistribution("weird", 0.0, 3.0),
            dists.trial_stream(0, 0), 2,
        )


@given(
    values=st.lists(st.floats(-20, 20), min_size=2, max_size=6, unique=True),
    probs=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_discrete_table_standardization(values, probs):
    k = min(len(values), len(probs))
    values, probs = values[:k], probs[:k]
    if np.var(values) < 1e-12:
        return
    d = dists.discrete_sym(values, probs)
    assert abs(float(d.probs @ d.values)) < 1e-12
    assert abs(float(d.probs @ d.values**2) - 1.0) < 1e-10
    assert d.m4 >= 1.0 + d.m3**2 - 1e-9


def test_discrete_bad_tables():
    with pytest.raises(ConfigError):
        dists.discrete_sym([1.0, 1.0], [0.5, 0.5])  # degenerate
    with pytest.raises(ConfigError):
        dists.discrete_sym([0.0, 1.0], [0.5, -0.5])


def test_sample_count_validation():
    with pytest.raises(ConfigError):
        dists.sample(dists.gaussian(), dists.trial_stream(0, 0), 0)
