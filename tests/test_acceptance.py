"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with -s / -rA); the
heavy Monte Carlo runs are shared module-scoped fixtures.  Criteria budgets
follow the stated trial counts exactly.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylzeros import basis, dists, edgeworth as ew, gaussian_theory as gt, lcd
from weylzeros import montecarlo as mc, roots

SQRT_2PI = math.sqrt(2 * math.pi)
S2P = math.sqrt(2 / math.pi)

_LINES = []


def report(num, ok, detail):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    _LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n==== acceptance summary ====")
    for line in _LINES:
        print(line)


# ---------------------------------------------------------------------------
# 1-7: pure numerics


def test_criterion_01_intensity_limits():
    n = 1000
    bulk_dev = max(abs(gt.intensity_gaussian(x, n) - 1 / math.pi) for x in (5, 10, 15, 20, 25))
    ok_bulk = bulk_dev < 1e-3
    # beyond the edge rho * pi * x^2 / sqrt(n) -> zeta / (zeta - 1), zeta = x^2 / n,
    # which reaches 1 only as zeta -> infinity (derivation in DECISIONS.md)
    edge = {}
    for x in (45.0, 100.0, 300.0):
        zeta = x * x / n
        ratio = gt.intensity_gaussian(x, n) * math.pi * x * x / math.sqrt(n)
        edge[x] = (ratio, zeta / (zeta - 1.0))
    ok_edge = all(abs(ratio - limit) < 0.05 for ratio, limit in edge.values())
    ok_far = abs(edge[300.0][0] - 1.0) < 0.05
    report(
        1,
        ok_bulk and ok_edge and ok_far,
        f"bulk dev {bulk_dev:.2e} (<1e-3: {ok_bulk}); edge ratio vs zeta/(zeta-1) "
        + ", ".join(f"x={x:g}: {r:.4f}/{lim:.4f}" for x, (r, lim) in edge.items())
        + f" (within 0.05: {ok_edge}); x=300 within 5% of 1: {ok_far}",
    )
    assert ok_bulk, f"bulk intensity deviation {bulk_dev}"
    assert ok_edge, f"edge ratios (measured, zeta/(zeta-1)) {edge}, not within 0.05"
    assert ok_far, f"rho(300,1000)*pi*x^2/sqrt(n) = {edge[300.0][0]:.4f}, not within 0.05 of 1"


def test_criterion_02_variance_constant():
    vc = gt.variance_constant_weyl()
    ok = abs(vc.selected - 0.18198) <= 1e-3
    report(
        2,
        ok,
        f"selected {vc.selected:.6f} ({vc.selected_name}); losing reading "
        f"{vc.reading_a if vc.selected_name == 'reading_b' else vc.reading_b:.6f}",
    )
    assert ok
    assert vc.selected_name in ("reading_a", "reading_b")


def test_criterion_03_edgeworth_constants():
    k4, k3sq, _ = ew.expectation_correction_coefficients()
    c1 = -7.0 / (192.0 * math.pi * math.sqrt(math.pi))
    c2 = math.sqrt(2.0) / (12.0 * math.pi * math.sqrt(math.pi))
    ok = abs(k4 / c1 - 1) <= 1e-12 and abs(k3sq / c2 - 1) <= 1e-12
    report(3, ok, f"k4 rel {abs(k4 / c1 - 1):.2e}, k3sq rel {abs(k3sq / c2 - 1):.2e}")
    assert ok


HERMITE_TABLE = [
    # (functional, degrees, closed form)
    ("abs", (4,), -S2P),
    ("zero", (0,), 1 / SQRT_2PI),
    ("abs", (2,), S2P),
    ("zero", (2,), -1 / SQRT_2PI),
    ("abs", (0,), S2P),
    ("zero", (4,), 3 / SQRT_2PI),
    ("abs", (3, 3), 18 * S2P),
    ("zero", (0, 0), 1 / SQRT_2PI),
    ("abs", (0, 0), S2P),
    ("zero", (3, 3), 0.0),
    ("abs", (1, 1), 2 * S2P),
    ("zero", (2, 2), 1 / SQRT_2PI),
    ("abs", (2, 2), 5 * S2P),
    ("zero", (1, 1), 0.0),
    ("abs", (3, 1), 2 * S2P),
    ("zero", (0, 2), -1 / SQRT_2PI),
    ("abs", (0, 2), S2P),
    ("zero", (1, 3), 0.0),
]


def _poly(degrees):
    c = ew.hermite_coeffs(degrees[0])
    for d in degrees[1:]:
        c = np.polynomial.polynomial.polymul(c, ew.hermite_coeffs(d))
    return c


def test_criterion_04_hermite_tables():
    worst = 0.0
    for kind, degrees, closed in HERMITE_TABLE:
        c = _poly(degrees)
        if kind == "abs":
            value = ew.abs_moment_poly(c)
            poly = lambda t: np.polynomial.polynomial.polyval(t, c)
            quad_val = (
                quad(lambda t: t * poly(t) * math.exp(-t * t / 2) / SQRT_2PI, 0, 14,
                     epsabs=1e-14, limit=300)[0]
                - quad(lambda t: t * poly(t) * math.exp(-t * t / 2) / SQRT_2PI, -14, 0,
                       epsabs=1e-14, limit=300)[0]
            )
        else:
            value = ew.density_at_zero_poly(c)
            poly = lambda t: np.polynomial.polynomial.polyval(t, c)
            vals = []
            for d in (8e-3, 4e-3, 2e-3):
                v = quad(lambda t: poly(t) * math.exp(-t * t / 2) / SQRT_2PI, -d, d,
                         epsabs=1e-16)[0] / (2 * d)
                vals.append(v)
            r1 = (4 * vals[1] - vals[0]) / 3
            r2 = (4 * vals[2] - vals[1]) / 3
            quad_val = (16 * r2 - r1) / 15
        worst = max(worst, abs(value - closed), abs(value - quad_val))
    ok = worst < 1e-10
    report(4, ok, f"max deviation across {len(HERMITE_TABLE)} table entries: {worst:.2e}")
    assert ok


def test_criterion_05_asymptotic_sum_lemma():
    worst = 0.0
    for x in (20.0, 30.0, 60.0):
        n = int(x * x + 30 * x + 200)
        for t in (3, 4):
            for s in (0, 2, 4):
                exact, closed = ew.asymptotic_sum(t, s, x, n)
                rel = abs(exact / closed - 1.0)
                worst = max(worst, rel * x * x / 10.0)
                assert rel <= 10.0 / (x * x), (t, s, x, rel)
    report(5, True, f"max rel-err/envelope ratio {worst:.3f} over 18 cases")


def test_criterion_06_covariance_identities():
    n = 1600
    xs = (5.0, 10.0, 20.0, 30.0)
    worst = 0.0
    for x in xs:
        worst = max(worst, np.abs(basis.covariance_2d(x, n) - np.eye(2)).max())
    for x in xs:
        for y in xs:
            if y - x >= 10.0:
                worst = max(worst, np.abs(basis.covariance_4d(x, y, n) - np.eye(4)).max())
    ok = worst < 1e-6
    report(6, ok, f"max |V - I| entry {worst:.2e}")
    assert ok


def test_criterion_07_lcd_scans():
    # alternating family, n = 256, tau = log(n^4)
    n = 256
    tau = math.log(float(n) ** 4)
    q_sk = lcd.LCDQuery(weights=lcd.sk_weights(n), r=0.5, D_max=40.0, tau=tau,
                        scan_step=1e-4)
    res_sk = lcd.lcd_search(q_sk)
    # on [0.5, 1.06] the objective is (n/2)(3D^2 - 2(1 + sqrt 2)D + 2), which
    # falls to tau first at the smaller root D0 of that quadratic
    s2 = math.sqrt(2.0)
    disc = (1.0 + s2) ** 2 - 3.0 * (2.0 - 2.0 * tau / n)
    d0 = ((1.0 + s2) - math.sqrt(disc)) / 3.0
    assert lcd.sk_objective(n, d0) == pytest.approx(tau, rel=1e-12)
    ok_sk = d0 <= res_sk.d_star <= d0 + q_sk.scan_step
    # Weyl weights at x = 30, N = 30, scan [0.5, N^2]; below r0 = 1/(2 max|w|)
    # no coordinate of D w wraps, so the objective is D^2 |w|^2 with the
    # trivial lattice point 0 nearest, and the certified scan starts at r0
    w = lcd.weyl_weights(30.0, 1500, 30.0)
    thresh = 3.0 * math.log(30.0)
    r0 = 1.0 / (2.0 * np.abs(w).max())
    ds = np.linspace(0.5, r0, 200, endpoint=False)
    trivial = (lcd.dist_to_int(np.outer(ds, w)) ** 2).sum(axis=1)
    ok_trivial = np.allclose(trivial, ds**2 * (w @ w), rtol=1e-12, atol=0.0)
    q_w = lcd.LCDQuery(weights=w, r=r0, D_max=900.0, tau=thresh, scan_step=2e-3)
    res_w = lcd.lcd_search(q_w)
    certified = res_w.certified_lower_bound
    ok_w = certified > thresh
    report(
        7,
        ok_sk and ok_trivial and ok_w,
        f"sk d_star {res_sk.d_star:.4f} (in [D0, D0 + step] = [{d0:.6f}, "
        f"{d0 + q_sk.scan_step:.6f}]: {ok_sk}); weyl objective = D^2 |w|^2 on "
        f"[0.5, {r0:.4f}): {ok_trivial}; certified min on [{r0:.4f}, 900] "
        f"{certified:.3f} (> {thresh:.3f}: {ok_w})",
    )
    assert ok_sk, (
        f"sk d_star = {res_sk.d_star:.6f} outside [D0, D0 + scan_step], "
        f"D0 = {d0:.6f} (closed-form first crossing; see DECISIONS.md)"
    )
    assert ok_trivial, "weyl objective differs from D^2 |w|^2 below r0 = 1/(2 max|w|)"
    assert ok_w, (
        f"weyl certified min objective {certified:.3f} <= 3 log N = {thresh:.3f} "
        f"on [r0, 900], r0 = {r0:.4f}"
    )


# ---------------------------------------------------------------------------
# 8-12: Monte Carlo


@pytest.fixture(scope="module")
def gaussian_expect_run():
    cfg = mc.ExperimentConfig(
        n=400, iv=roots.IntervalSpec(2.0, 18.0), dist=dists.gaussian(),
        trials=20_000, seed=1801, workers=0,
    )
    return mc.run_expectation(cfg)


def test_criterion_08_gaussian_expectation(gaussian_expect_run):
    s = gaussian_expect_run
    dev = abs(s.mean - s.theory_mean)
    ok = dev <= 3 * s.se_mean
    report(
        8, ok,
        f"mean {s.mean:.4f} vs quadrature {s.theory_mean:.4f} "
        f"(|z| = {abs(s.z_scores[0]):.2f}, se {s.se_mean:.4f})",
    )
    assert ok


@pytest.fixture(scope="module")
def paired_run():
    cfg = mc.ExperimentConfig(
        n=1600, iv=roots.IntervalSpec(5.0, 35.0), dist=dists.rademacher(),
        trials=400_000, seed=20260810, workers=0,
    )
    return mc.paired_expectation_difference(cfg, dists.gaussian())


def test_criterion_09_expectation_correction(paired_run):
    pd = paired_run
    target = (7.0 / (96.0 * math.pi * math.sqrt(math.pi))) * math.log(7.0)
    ok_window = abs(pd.mean_diff - target) <= 3 * pd.se_diff
    ok_sign = pd.mean_diff > 0
    report(
        9,
        ok_window and ok_sign,
        f"paired diff {pd.mean_diff:+.5f} +- {pd.se_diff:.5f} vs theory "
        f"{target:+.5f} (z = {pd.z:+.2f}); positive sign: {ok_sign}",
    )
    assert ok_window and ok_sign, (
        f"paired Rademacher-Gaussian difference {pd.mean_diff:+.5f} +- "
        f"{pd.se_diff:.5f} vs +{target:.5f} (z = {pd.z:+.2f}): the bulk-theorem "
        "o(1) term dominates at M = 5; see DECISIONS.md"
    )


@pytest.fixture(scope="module")
def variance_runs():
    out = {}
    for law in (dists.gaussian(), dists.rademacher()):
        cfg = mc.ExperimentConfig(
            n=1600, iv=roots.IntervalSpec(5.0, 35.0), dist=law,
            trials=10_000, seed=907, workers=0,
        )
        out[law.kind] = mc.run_expectation(cfg)
    return out


def test_criterion_10_variance_universality(variance_runs):
    vg = variance_runs["gaussian"].variance
    vr = variance_runs["rademacher"].variance
    per_unit = vg / 30.0
    ok_cw = abs(per_unit - 0.18198) <= 0.15 * 0.18198
    ok_univ = abs(vr - vg) <= 0.10 * vg
    report(
        10,
        ok_cw and ok_univ,
        f"Var_G/30 = {per_unit:.4f} (within 15% of 0.18198: {ok_cw}); "
        f"|Var_R - Var_G|/Var_G = {abs(vr - vg) / vg:.4f} (<= 0.10: {ok_univ})",
    )
    assert ok_cw and ok_univ


@pytest.fixture(scope="module")
def smallball_rows():
    cfg = mc.ExperimentConfig(
        n=400, iv=roots.IntervalSpec(5.0, 18.0), dist=dists.rademacher(),
        trials=1_000_000, seed=515, workers=0,
    )
    return mc.run_smallball(10.0, [0.05, 0.1], cfg)


def test_criterion_11_small_ball(smallball_rows):
    rows = {(r.dim, r.delta): r for r in smallball_rows}
    one = rows[(1, 0.05)]
    ok_1d = abs(one.freq_over_vol - 1 / SQRT_2PI) <= 0.05 / SQRT_2PI
    ratio = rows[(2, 0.1)].freq / rows[(2, 0.05)].freq
    ok_2d = abs(ratio - 4.0) <= 0.15 * 4.0
    report(
        11,
        ok_1d and ok_2d,
        f"1d freq/(2d) = {one.freq_over_vol:.4f} vs {1 / SQRT_2PI:.4f} ({ok_1d}); "
        f"2d delta-scaling ratio {ratio:.3f} vs 4 ({ok_2d})",
    )
    assert ok_1d and ok_2d


@pytest.fixture(scope="module")
def kac_rice_trials():
    n = 400
    iv = roots.IntervalSpec(2.0, 18.0)
    kernel = roots.GridKernel(n, iv.a, iv.b)
    laws = [dists.gaussian(), dists.rademacher(), dists.uniform_sym()]
    results = []
    for t in range(1000):
        law = laws[t % 3]
        xi = dists.sample(law, dists.trial_stream(1212, t), n + 1)
        res = roots.analyze(basis.WeylSample(n, xi), iv, kernel=kernel)
        results.append(res)
    return results


def test_criterion_12_kac_rice_oracle(kac_rice_trials):
    valid = [r for r in kac_rice_trials if r.validity]
    mism = sum(1 for r in valid if round(r.kac_rice_value) != r.count)
    fail_rate = 1.0 - len(valid) / len(kac_rice_trials)
    ok = mism == 0 and fail_rate < 0.01
    report(
        12, ok,
        f"{len(valid)}/1000 valid (fail rate {fail_rate:.4f}); "
        f"round(KR) != count on {mism} valid trials",
    )
    assert ok


# ---------------------------------------------------------------------------
# property suites (no paper number)


def test_property_signed_mass_expansion_densities():
    for order in (3, 4, 5):
        p = ew.EdgeworthDensity1D(order=order, chi3=1.1, chi4=-1.8, chi5=2.4, N=6.0)
        mass, _ = quad(lambda x: ew.density_1d(p, x), -14, 14, limit=400)
        assert abs(mass - 1.0) < 1e-9, order
    t1 = ew.CumulantTable(d=1, N=9.0, entries={(3,): 0.8, (4,): -1.5})
    mass, _ = quad(lambda x: ew.density_q2(t1, [x], 9.0), -14, 14, limit=400)
    assert abs(mass - 1.0) < 1e-9
    entries = {a.entries: 0.1 * (i + 1) * (-1) ** i
               for i, a in enumerate(ew.multi_indices(2, 3) + ew.multi_indices(2, 4))}
    t2 = ew.CumulantTable(d=2, N=16.0, entries=entries)
    from scipy.integrate import dblquad

    mass2, _ = dblquad(
        lambda y, x: ew.density_q2(t2, [x, y], 16.0), -9, 9, -9, 9, epsabs=1e-10
    )
    assert abs(mass2 - 1.0) < 1e-8


def test_property_hermite_orthogonality():
    for j in range(9):
        for k in range(9):
            val, _ = quad(
                lambda t: ew.hermite(j, t) * ew.hermite(k, t)
                * math.exp(-t * t / 2) / SQRT_2PI,
                -13, 13, limit=300,
            )
            expect = math.factorial(j) if j == k else 0.0
            assert abs(val - expect) < 1e-9


def test_property_determinism_byte_exact():
    def run(workers):
        cfg = mc.ExperimentConfig(
            n=400, iv=roots.IntervalSpec(2.0, 18.0), dist=dists.rademacher(),
            trials=512, seed=42, workers=workers,
        )
        return mc.run_expectation(cfg)

    a, b = run(1), run(2)
    assert np.array_equal(a.per_trial_counts, b.per_trial_counts)
    assert (a.mean, a.variance, a.se_mean) == (b.mean, b.variance, b.se_mean)


def test_property_block_additivity_exact():
    cfg = mc.ExperimentConfig(
        n=400, iv=roots.IntervalSpec(2.0, 18.0), dist=dists.gaussian(),
        trials=600, seed=77, workers=0,
    )
    bc = mc.block_covariance(cfg)
    assert bc.additivity_residual < 1e-10
