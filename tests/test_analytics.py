"""Tests for the cumulant quadrature, exponents, and rate function.

The quadrature H is cross-checked against three independent routes:
scipy's QUADPACK on the raw quantile integral, the log-gamma identity
for the double-exponential family, and saddle-point asymptotics.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import gammaln

from pamlab import analytics
from pamlab.analytics import (
    ExponentTable,
    critical_a,
    cumulant_exponent_G,
    cumulant_H,
    frechet_alpha,
    growth_J,
    intermittency_shape_f1,
    rate_I,
    transition_exponents,
)
from pamlab.environments import TailFamily, sample_environment
from pamlab.feynman_kac import exit_tail_mc
from pamlab.regimes import annealed_reference
from pamlab.solver import required_radius

WEIBULL2 = TailFamily.weibull(2.0)
DEXP1 = TailFamily.double_exp(1.0)
SQDE = TailFamily.squared_double_exp()
FRECHET1 = TailFamily.frechet(1.0)
HARD = TailFamily.hard_core(0.5)

CONTINUOUS = [WEIBULL2, TailFamily.weibull(3.0), DEXP1, TailFamily.double_exp(1.5), SQDE, FRECHET1]


def quad_log_reference(log_g, speak, lo, hi):
    """QUADPACK reference for log int e^{g(s)} ds with a peak shift."""
    shift = log_g(speak)
    val, err = integrate.quad(
        lambda s: math.exp(log_g(s) - shift),
        lo,
        hi,
        points=[speak],
        limit=400,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-8 * val
    return shift + math.log(val)


def test_rate_I_pinned_values():
    assert rate_I(0.0) == 0.0
    assert np.isclose(rate_I(1.0), math.log(1 + math.sqrt(2)) - math.sqrt(2) + 1, rtol=1e-12)
    # vectorized and increasing
    y = np.linspace(0.0, 5.0, 101)
    vals = rate_I(y)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        rate_I(-0.5)


def test_rate_I_legendre_transform():
    """I(y) = sup over lam of [lam*y - (cosh lam - 1)] to 1e-10."""
    for y in [0.1, 0.5, 1.0, 2.0, 3.0, 5.0]:
        res = optimize.minimize_scalar(
            lambda lam: -(lam * y - (math.cosh(lam) - 1.0)),
            bounds=(0.0, 10.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert np.isclose(rate_I(y), -res.fun, atol=1e-10, rtol=0)


def test_H_weibull_against_quadpack():
    for t in (0.5, 1.0, 2.5, 5.0):
        speak = (t / 2.0) ** 2.0
        ref = quad_log_reference(lambda s: t * math.sqrt(s) - s, max(speak, 1e-6), 0.0, speak + 80 + 20 * t)
        assert np.isclose(cumulant_H(WEIBULL2, t), ref, atol=1e-8, rtol=0)


# Exponential-scale quantiles qtilde(s), written out here so the
# reference shares nothing with the package's integrands.
_QTILDE = {
    "weibull": lambda fam: (lambda s: s ** (1.0 / fam.rho)),
    "double_exp": lambda fam: (lambda s: fam.rho * math.log(s)),
    "frechet": lambda fam: (lambda s: -(s ** (-1.0 / fam.rho))),
    "sq_double_exp": lambda fam: (lambda s: math.sqrt(math.log(s)) if s > 1.0 else 0.0),
}


def quad_H_reference(fam, t):
    """H(t) = log1p(int_0^inf (e^{t qtilde(s)} - 1) e^{-s} ds) by QUADPACK at 1e-13.

    Integrating e^{tv} - 1 rather than e^{tv} keeps full relative
    accuracy as t -> 0, where H(t) ~ t E v is far below 1.
    """
    q = _QTILDE[fam.kind](fam)

    def f(s):
        x = t * q(s) if s > 0.0 else -math.inf
        return math.expm1(x) * math.exp(-s) if x < 1.0 else math.exp(x - s) - math.exp(-s)

    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, 60.0 + 10.0 * t * t), (60.0 + 10.0 * t * t, math.inf)):
        val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)
        total += val
    return math.log1p(total)


@pytest.mark.parametrize(
    "fam", [WEIBULL2, TailFamily.weibull(1.5), DEXP1, FRECHET1, SQDE], ids=lambda f: f.label()
)
def test_H_small_t_matches_quadpack_and_expansion(fam):
    # at t <= 3e-3 the parent's peak estimate dropped the Jacobian term,
    # and the quadrature raised or took seconds
    for t in np.logspace(-6.0, 1.0, 15):
        t = float(t)
        H = cumulant_H(fam, t)
        ref = quad_H_reference(fam, t)
        assert abs(H - ref) <= 1e-12 * abs(ref) + 1e-15, (t, H, ref)
        if fam.kind == "weibull" and t <= 1e-2:
            # H = t E v + t^2 Var v / 2 + O(t^3), E v^k = Gamma(1 + k / rho)
            mean = math.gamma(1.0 + 1.0 / fam.rho)
            var = math.gamma(1.0 + 2.0 / fam.rho) - mean * mean
            assert abs(H - (t * mean + 0.5 * t * t * var)) <= t**3 + 1e-15, (t, H)


def test_H_double_exp_loggamma_identity():
    """v = rho*log E with E ~ Exp(1) makes E[e^(tv)] = Gamma(1 + rho t)."""
    for rho in (0.5, 1.0, 1.5, 2.0):
        fam = TailFamily.double_exp(rho)
        for t in (0.1, 0.7, 1.0, 3.0, 7.0, 20.0):
            assert np.isclose(cumulant_H(fam, t), gammaln(1 + rho * t), atol=1e-9, rtol=0)


def test_H_squared_double_exp():
    # flat quantile below the atom boundary contributes int_0^1 e^{-s} ds
    assert cumulant_H(SQDE, 0.0) == 0.0
    assert 0 < cumulant_H(SQDE, 1e-6) < 1e-4
    for t in (0.5, 2.0, 3.0):
        smooth = quad_log_reference(
            lambda s: t * math.sqrt(math.log(s)) - s, max(1.5, (t / 2) ** 2), 1.0, 60 + 10 * t
        )
        ref = np.logaddexp(smooth, math.log(1 - math.exp(-1.0)))
        assert np.isclose(cumulant_H(SQDE, t), ref, atol=1e-8, rtol=0)


def test_H_frechet_negative_decreasing():
    vals = [cumulant_H(FRECHET1, t) for t in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(v < 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for t in (1.0, 5.0):
        speak = math.sqrt(t)
        ref = quad_log_reference(lambda s: -t / s - s, speak, 1e-12, speak + 80)
        assert np.isclose(cumulant_H(FRECHET1, t), ref, atol=1e-8, rtol=0)


def test_H_hardcore_constant():
    for t in (0.0, 0.5, 7.0, 100.0):
        assert cumulant_H(HARD, t) == math.log(0.5)


def test_H_at_zero_and_validation():
    for fam in CONTINUOUS:
        assert cumulant_H(fam, 0.0) == 0.0
    with pytest.raises(ValueError):
        cumulant_H(WEIBULL2, -1.0)


def test_H_refuses_a_window_that_rounds_to_a_point():
    # H(100) of weibull(1.1) is about 3.50e20 (mpmath); at that peak
    # G_peak - 60 rounds to G_peak, both window cuts land on the peak, and
    # the quadrature over a zero-width range used to return -inf
    for t in (100.0, 150.0):
        with pytest.raises(analytics.QuadratureError, match=r"G_peak = 3\.\d+e\+(20|22)"):
            cumulant_H(TailFamily.weibull(1.1), t)
    assert cumulant_H(TailFamily.weibull(1.1), 3.0) == pytest.approx(6216.530322322008, rel=1e-12)


def test_H_panel_budget_refusal_names_t_family_and_peak():
    # at weibull(1.1), t = 5 no panel ever agrees with its halves, so the
    # tree splits down to panels too narrow to halve until the budget ends;
    # those once raised a divide-by-zero RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            analytics.QuadratureError,
            match=r"H\(5\) for weibull\(rho=1\.1\): panel budget 20000 exhausted at G_peak = 1\.71141e\+06",
        ):
            cumulant_H(TailFamily.weibull(1.1), 5.0)


def test_H_quadrature_evaluates_each_panel_once(monkeypatch):
    panels = []
    panel_log = analytics._panel_log

    def spy(g, a, b):
        panels.append((a, b))
        return panel_log(g, a, b)

    monkeypatch.setattr(analytics, "_panel_log", spy)
    analytics._cumulant_smooth.cache_clear()
    for fam in CONTINUOUS:
        for t in (0.01, 1.0, 10.0):
            panels.clear()
            cumulant_H(fam, t)
            assert len(panels) > 1 and len(set(panels)) == len(panels), (fam, t)
    analytics._cumulant_smooth.cache_clear()


def test_H_nondecreasing_for_nonnegative_support():
    # families whose potential is >= 0; the double-exponential family has
    # negative mean potential, so its H dips below 0 first and is excluded
    ts = np.linspace(0.0, 6.0, 40)
    for fam in (WEIBULL2, SQDE):
        vals = [cumulant_H(fam, float(t)) for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)


def test_H_superadditive_grid():
    """H(t1 + t2) >= H(t1) + H(t2) on a 20 x 20 grid."""
    ts = np.linspace(0.25, 5.0, 20)
    for fam in CONTINUOUS:
        H = {float(t): cumulant_H(fam, float(t)) for t in ts}
        for t1, t2 in itertools.product(ts, ts):
            both = cumulant_H(fam, float(t1 + t2))
            assert both >= H[float(t1)] + H[float(t2)] - 1e-9, (fam.label(), t1, t2)


def test_G_nonnegative_for_small_theta():
    """Jensen gives G_theta(t) >= 0 for 0 < theta <= 1, all families."""
    for fam in CONTINUOUS + [HARD]:
        for theta in (0.1, 0.25, 0.5, 1.0):
            for t in (0.0, 0.5, 2.0, 5.0):
                assert cumulant_exponent_G(fam, theta, t) >= -1e-10


def test_G_hardcore_constant_in_t():
    # constant H = log(1-p) gives G = (H - (1+theta)H)/theta = -log(1-p),
    # positive, matching the Jensen lower bound
    want = -math.log(0.5)
    for theta in (0.25, 1.0, -0.5):
        for t in (0.0, 1.0, 9.0):
            assert np.isclose(cumulant_exponent_G(HARD, theta, t), want, rtol=1e-12)


def test_G_theta_validation():
    with pytest.raises(ValueError):
        cumulant_exponent_G(WEIBULL2, 0.0, 1.0)
    with pytest.raises(ValueError):
        cumulant_exponent_G(WEIBULL2, -1.0, 1.0)
    # negative theta above -1 is fine
    cumulant_exponent_G(WEIBULL2, -0.5, 1.0)


@pytest.mark.parametrize(
    "call, refusal",
    [
        # once nan, an OverflowError and a table for d = 1.5
        (lambda: intermittency_shape_f1(WEIBULL2, math.nan), "theta must be > -1 and nonzero, and finite, got nan"),
        (lambda: cumulant_exponent_G(WEIBULL2, math.inf, 1.0), "theta must be > -1 and nonzero, and finite, got inf"),
        (lambda: cumulant_exponent_G(WEIBULL2, -1.0, 1.0), "theta must be > -1 and nonzero, and finite, got -1"),
        (lambda: transition_exponents(WEIBULL2, 1.5), "d must be an integer >= 1, got 1.5"),
        (lambda: transition_exponents(WEIBULL2, 0), "d must be an integer >= 1, got 0"),
    ],
)
def test_theta_and_d_refusals_name_the_value(call, refusal):
    with pytest.raises(ValueError, match=refusal):
        call()


@pytest.mark.parametrize(
    "call, refusal",
    [
        # once a NaN inside the root finder, an OverflowError, all-NaN rates,
        # a radius for d = 0 or 1.5, a ZeroDivisionError and numpy's "lam < 0"
        (lambda: cumulant_H(WEIBULL2, math.nan), "cumulant_H needs a finite t >= 0, got nan"),
        (lambda: cumulant_H(WEIBULL2, math.inf), "cumulant_H needs a finite t >= 0, got inf"),
        (lambda: growth_J(WEIBULL2, 1, math.nan), "growth_J needs a finite t > 0, got nan"),
        (lambda: growth_J(DEXP1, 1, math.inf), "growth_J needs a finite t > 0, got inf"),
        (lambda: annealed_reference(WEIBULL2, math.nan), "cumulant_H needs a finite t >= 0, got nan"),
        (lambda: sample_environment(WEIBULL2, 1, 3, 1, baseline_death=math.nan),
         "baseline_death must be >= 0, got nan"),
        (lambda: sample_environment(WEIBULL2, 1, 3, 1, baseline_death=math.inf),
         "baseline_death must be finite, got inf"),
        (lambda: required_radius(1.0, 1.0, 1e-6, d=0), "d must be an integer >= 1, got 0"),
        (lambda: required_radius(1.0, 1.0, 1e-6, d=1.5), "d must be an integer >= 1, got 1.5"),
        (lambda: growth_J(FRECHET1, 1.5, 3.0), "d must be an integer >= 1, got 1.5"),
        (lambda: intermittency_shape_f1(FRECHET1, 0.5, 1.5), "d must be an integer >= 1, got 1.5"),
        (lambda: exit_tail_mc(0.0, 100, 1), "kappa must be finite and > 0, got 0.0"),
        (lambda: exit_tail_mc(-1.0, 100, 1), "kappa must be finite and > 0, got -1.0"),
        (lambda: exit_tail_mc(1.0, 100, 1, times=(1.0, 0.0)), "t must be finite and > 0, got 0.0"),
    ],
)
def test_non_finite_reals_and_non_lattice_d_are_refused_by_value(call, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)):
        call()


def test_G_small_theta_finite_difference():
    """G_theta approaches t H'(t) - H(t) as theta -> 0.

    The leading correction is (theta/2) t^2 H''(t), which for rho = 2 at
    t = 10 is about 0.25, i.e. 1.05% of the limit at theta = 0.01, so the
    nominal one-percent agreement is checked at slightly relaxed 1.5%
    and the linear shrinkage of the deviation is asserted as well.
    """
    t, h = 10.0, 1e-4
    deriv = (cumulant_H(WEIBULL2, t + h) - cumulant_H(WEIBULL2, t - h)) / (2 * h)
    target = t * deriv - cumulant_H(WEIBULL2, t)
    dev_1 = abs(cumulant_exponent_G(WEIBULL2, 0.01, t) - target)
    dev_5 = abs(cumulant_exponent_G(WEIBULL2, 0.002, t) - target)
    assert dev_1 <= 0.015 * abs(target)
    assert dev_5 <= 0.0031 * abs(target)  # five times smaller theta


def test_transition_exponents_pinned():
    tw = transition_exponents(WEIBULL2, 1)
    assert np.isclose(tw.gamma1, 1.0, atol=1e-12) and np.isclose(tw.gamma2, 4.0, atol=1e-12)
    td = transition_exponents(DEXP1, 1)
    assert np.isclose(td.gamma1, 1.0, atol=1e-12) and np.isclose(td.gamma2, 2.0, atol=1e-12)
    tf = transition_exponents(FRECHET1, 1)
    assert np.isclose(tf.gamma1, 0.04, atol=1e-12)
    assert np.isclose(tf.gamma2, 2**0.96 * 0.04, atol=1e-12)
    assert np.isclose(tf.nu, 0.2, atol=1e-15)
    ts = transition_exponents(SQDE, 1)
    assert (ts.gamma1, ts.gamma2) == (1.0, 2.0)


def test_transition_exponents_ordering_and_flags():
    fams = [WEIBULL2, TailFamily.weibull(1.3), DEXP1, TailFamily.double_exp(0.3),
            SQDE, FRECHET1, TailFamily.frechet(2.5), TailFamily.hard_core(0.2)]
    for fam in fams:
        for d in (1, 2, 3):
            tab = transition_exponents(fam, d)
            assert isinstance(tab, ExponentTable)
            assert tab.gamma2 > tab.gamma1 > 0
            assert tab.empirical_only == (fam.kind == "hard_core")


def test_weibull_gamma2_shorthand_disagrees():
    """Two closed forms circulate for the Weibull gamma2.

    The doubling derivation (F_theta(2t)/F_theta(t) -> 2^(rho/(rho-1)))
    gives gamma2 = 2^(rho/(rho-1)) * gamma1, which is what this package
    implements.  A summary-table shorthand prints 2^(1-gamma1) * gamma1
    instead; the two disagree for every rho > 1, so this test documents
    that the shorthand is deliberately not used.
    """
    for rho in (1.5, 2.0, 3.0):
        fam = TailFamily.weibull(rho)
        tab = transition_exponents(fam, 1)
        g1 = 1.0 / (rho - 1.0)
        derived = 2 ** (rho / (rho - 1.0)) * g1
        shorthand = 2 ** (1.0 - g1) * g1
        assert np.isclose(tab.gamma2, derived, rtol=1e-14)
        assert abs(derived - shorthand) > 0.1


def test_critical_a_pinned_values():
    assert np.isclose(critical_a(WEIBULL2, 0.5), 0.91421356237309515, atol=1e-12)
    assert np.isclose(critical_a(WEIBULL2, 1.0), 1.0, atol=1e-12)  # a at gamma1
    g1 = transition_exponents(FRECHET1, 1).gamma1
    assert np.isclose(critical_a(FRECHET1, g1), 1.0, atol=1e-12)
    # double-exponential form peaks at rho, not 1 (only rho = 1 gives 1)
    assert np.isclose(critical_a(DEXP1, 1.0), 1.0, atol=1e-12)
    assert np.isclose(critical_a(TailFamily.double_exp(2.0), 2.0), 2.0, atol=1e-12)
    assert np.isclose(critical_a(SQDE, 1.0), 1.0, atol=1e-12)


def test_critical_a_domain():
    with pytest.raises(ValueError):
        critical_a(WEIBULL2, 0.0)
    with pytest.raises(ValueError):
        critical_a(WEIBULL2, 1.5)  # above gamma1 = 1
    with pytest.raises(ValueError):
        critical_a(HARD, 0.3)
    # positive and finite across the domain
    for gamma in np.linspace(0.05, 1.0, 20):
        assert 0 < critical_a(WEIBULL2, float(gamma)) <= 1.0 + 1e-12


def test_kasahara_index():
    """log H(2t) - log H(t) -> (rho/(rho-1)) log 2; within 10% at t=40."""
    target = 2.0 * math.log(2.0)
    got = math.log(cumulant_H(WEIBULL2, 80.0)) - math.log(cumulant_H(WEIBULL2, 40.0))
    assert abs(got - target) <= 0.1 * target


def test_weibull_saddle_asymptotics():
    """H(t) ~ sup_x (xt - x^2) = t^2/4 for rho = 2; within 15% at t=40."""
    t = 40.0
    assert abs(cumulant_H(WEIBULL2, t) / (t * t / 4.0) - 1.0) <= 0.15


def test_strong_intermittency_trend():
    """(G_2theta - G_theta)/(theta t) grows without bound for Weibull."""
    ts = [5.0, 10.0, 20.0, 40.0]
    for theta in (0.1, 0.25, -0.1, -0.25):
        vals = [
            (cumulant_exponent_G(WEIBULL2, 2 * theta, t) - cumulant_exponent_G(WEIBULL2, theta, t))
            / (theta * t)
            for t in ts
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 4.0 * vals[0]


def test_growth_J_values():
    assert growth_J(DEXP1, 1, 5.0) == 5.0
    t = math.e**4
    assert np.isclose(growth_J(SQDE, 1, t), t / 4.0, rtol=1e-12)
    for t in (1.0, 3.0):
        assert np.isclose(growth_J(WEIBULL2, 1, t), cumulant_H(WEIBULL2, t), rtol=1e-12)
    assert np.isclose(growth_J(TailFamily.hard_core(0.3), 1, 8.0), 8.0 ** (1.0 / 3.0), rtol=1e-12)
    with pytest.raises(ValueError):
        growth_J(SQDE, 1, 2.0)  # needs t > e
    with pytest.raises(ValueError):
        growth_J(DEXP1, 1, 0.0)


def test_growth_scales_name_the_t_they_refuse():
    with pytest.raises(ValueError, match="almost-bounded growth scale needs t > e, got 2$"):
        growth_J(SQDE, 1, 2.0)
    for t, shown in ((0.0, "0"), (-1.5, "-1.5"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=f"frechet alpha needs a finite t > 0, got {shown}$"):
            frechet_alpha(FRECHET1, 1, t)


def test_frechet_alpha_solves_implicit_equation():
    for t in (2.0, 10.0, 50.0):
        a = frechet_alpha(FRECHET1, 1, t)
        s = t / a
        resid = cumulant_exponent_G(FRECHET1, 1.0, s) * a * a - s
        assert abs(resid) <= 1e-8 * s
        assert growth_J(FRECHET1, 1, t) == pytest.approx(t / a**2, rel=1e-9)
    with pytest.raises(ValueError):
        frechet_alpha(WEIBULL2, 1, 2.0)


def test_frechet_alpha_refuses_an_unresolved_gap():
    # alpha_t settles to a constant as t -> 0 while the gap G_1 is resolved ...
    assert frechet_alpha(FRECHET1, 1, 1e-8) == pytest.approx(0.8493, abs=1e-4)
    # ... and at these t G_1 is rounding noise of H, so a root of phi would be noise too
    cases = [(FRECHET1, t) for t in (1e-17, 1e-20, 1e-29, 1e-300)]
    cases += [(TailFamily.frechet(2.0), t) for t in (1e-4, 1e-5, 1e-8, 1e-11, 1e-14)]
    for fam, t in cases:
        with pytest.raises(ValueError, match=r"frechet alpha at t = .*G_1\(s\) = .* at s = "):
            frechet_alpha(fam, 1, t)
        with pytest.raises(ValueError, match="G_1"):
            growth_J(fam, 1, t)


def test_brentq_matches_scipy_bit_for_bit(monkeypatch):
    """Every root the analytics take (peak slopes, window cuts, frechet phi) equals scipy's brentq."""
    own = analytics._brentq
    roots = []

    def both(f, a, b, xtol, rtol):
        mine = own(f, a, b, xtol=xtol, rtol=rtol)
        roots.append((mine, optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)))
        return mine

    monkeypatch.setattr(analytics, "_brentq", both)
    analytics._cumulant_smooth.cache_clear()
    for fam in CONTINUOUS + [TailFamily.weibull(1.5), TailFamily.frechet(3.0)]:
        for t in np.logspace(-4, 1.5, 12):
            cumulant_H(fam, t)
    n_quadrature = len(roots)
    for t in (0.5, 2.0, 10.0, 50.0):
        frechet_alpha(FRECHET1, 1, t)
    analytics._cumulant_smooth.cache_clear()
    assert n_quadrature >= 8 * 12 * 2 and len(roots) > n_quadrature
    assert all(mine == ref for mine, ref in roots)


def test_brentq_refusals_match_scipy():
    cases = [
        (lambda x: x * x + 1.0, {}, ValueError),  # same-sign bracket
        (lambda x: math.nan if x > 0.5 else x - 0.7, {}, ValueError),  # NaN value
        (lambda x: x**3 - 0.2, {"maxiter": 2}, RuntimeError),
    ]
    for f, extra, err in cases:
        with pytest.raises(err):
            optimize.brentq(f, 0.0, 1.0, xtol=1e-300, rtol=1e-13, **extra)
        with pytest.raises(err):
            analytics._brentq(f, 0.0, 1.0, xtol=1e-300, rtol=1e-13, **extra)
    # a root on an end of the bracket is returned as is
    assert analytics._brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 1e-13) == 1.0


def test_intermittency_shape_f1_limits():
    for fam in (WEIBULL2, DEXP1, TailFamily.double_exp(2.0), SQDE, FRECHET1):
        g1 = transition_exponents(fam, 1).gamma1
        assert np.isclose(intermittency_shape_f1(fam, 1e-7, 1), g1, rtol=1e-5)
        # increasing in theta
        thetas = [0.1, 0.3, 0.6, 1.0]
        vals = [intermittency_shape_f1(fam, th, 1) for th in thetas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        intermittency_shape_f1(HARD, 0.5)
