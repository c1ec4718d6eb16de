import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from pamlab import regimes
from pamlab.analytics import critical_a, cumulant_H, growth_J
from pamlab.environments import TailFamily
from pamlab.regimes import (
    RegimeConfig,
    RegimeThresholds,
    ScheduleOverflowError,
    ScheduleRule,
    annealed_reference,
    clt_experiment,
    critical_experiment,
    lln_experiment,
    schedule_L,
    verdict_consistent,
)

WEIBULL2 = TailFamily.weibull(2.0)
DEXP1 = TailFamily.double_exp(1.0)


def test_schedule_gamma_j_double_exp():
    rule = ScheduleRule(kind="gamma-j", gamma=2.0)
    L, gamma_eq = schedule_L(rule, 3.0, DEXP1, d=1)
    assert L == 404
    assert np.isclose(gamma_eq, math.log(404) / 3.0, rtol=1e-12)


def test_schedule_gamma_zero_gives_single_site():
    rule = ScheduleRule(kind="gamma-j", gamma=0.0)
    L, gamma_eq = schedule_L(rule, 3.0, WEIBULL2, d=1)
    assert L == 1
    assert gamma_eq == 0.0


def test_schedule_weibull_matches_annealed_mean_scale():
    # gamma = 1 puts log L at H(t), so L is the annealed mean rounded up.
    rule = ScheduleRule(kind="gamma-j", gamma=1.0)
    L, _ = schedule_L(rule, 3.0, WEIBULL2, d=1)
    assert L == math.ceil(math.exp(cumulant_H(WEIBULL2, 3.0)))
    assert L == 51


def test_schedule_explicit_and_f_hat():
    rule = ScheduleRule(kind="explicit", table=((3.0, 200),))
    L, gamma_eq = schedule_L(rule, 3.0, WEIBULL2, d=1)
    assert L == 200
    assert np.isclose(gamma_eq, math.log(200) / growth_J(WEIBULL2, 1, 3.0))

    rule = ScheduleRule(kind="f-hat", table=((2.0, 5.0),))
    L, gamma_eq = schedule_L(rule, 2.0, WEIBULL2, d=1)
    assert L == 149
    assert gamma_eq > 0.0


def test_schedule_overflow_carries_required_size():
    rule = ScheduleRule(kind="gamma-j", gamma=6.0)
    with pytest.raises(ScheduleOverflowError) as err:
        schedule_L(rule, 3.0, WEIBULL2, d=1)
    need = 6.0 * cumulant_H(WEIBULL2, 3.0)
    assert np.isclose(err.value.required_log_L, need, rtol=1e-12)


def test_schedule_rule_validation():
    with pytest.raises(ValueError):
        ScheduleRule(kind="dyadic")
    with pytest.raises(ValueError):
        ScheduleRule(kind="gamma-j")
    with pytest.raises(ValueError):
        ScheduleRule(kind="explicit")
    rule = ScheduleRule(kind="explicit", table=((1.0, 4),))
    with pytest.raises(ValueError):
        schedule_L(rule, 2.0, WEIBULL2, d=1)
    rule = ScheduleRule(kind="explicit", table=((1.0, 0),))
    with pytest.raises(ValueError):
        schedule_L(rule, 1.0, WEIBULL2, d=1)


def test_config_validation():
    rule = ScheduleRule(kind="gamma-j", gamma=1.0)
    with pytest.raises(ValueError):
        RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(1.0,), n_replica=50)
    with pytest.raises(ValueError):
        RegimeConfig(family=WEIBULL2, rule=rule, t_grid=())
    with pytest.raises(ValueError):
        RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(1.0,), kappa=-0.5)
    with pytest.raises(ValueError):
        RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(1.0,), d=0)


def test_annealed_reference_weibull():
    mu, sd = annealed_reference(WEIBULL2, 3.0)
    assert np.isclose(mu, 50.5947, rtol=1e-5)
    assert np.isclose(sd, 289.161, rtol=1e-4)


def test_lln_monotone_in_dyadic_sweep():
    # Weibull rho = 2 at t = 3: growing L pushes the box average into the
    # annealed band, and the verdict flips once and stays flipped.
    fracs = []
    verdicts = []
    for k in range(13):
        rule = ScheduleRule(kind="explicit", table=((3.0, 2**k),))
        config = RegimeConfig(
            family=WEIBULL2, rule=rule, t_grid=(3.0,), n_replica=300, seed=1812
        )
        v = lln_experiment(config)[0]
        fracs.append(v.frac_in_band)
        verdicts.append(v)
        assert verdict_consistent(v)
        assert v.gamma1 == 1.0 and v.gamma2 == 4.0
    for lo, hi in zip(fracs, fracs[1:]):
        assert hi >= lo - 0.05
    assert fracs[0] < 0.5
    assert fracs[-1] >= 0.95
    annealed = [v.classification == "annealed" for v in verdicts]
    first = annealed.index(True)
    assert all(annealed[first:])
    assert not any(annealed[:first])


def test_two_point_enumeration_reference():
    # v takes values {0, c} with weight 0.3 on c; with L = 1 in d = 1 the
    # box average has exactly the 2^3 atoms of the three-site enumeration.
    c, t, p = 0.8, 1.3, 0.3
    E = math.exp(c * t)
    mu_site = (1.0 - p) + p * E
    sd_site = math.sqrt(p * (1.0 - p)) * (E - 1.0)
    atoms = []
    mu_enum = 0.0
    sq_enum = 0.0
    for bits in itertools.product((0, 1), repeat=3):
        w = math.prod(p if b else 1.0 - p for b in bits)
        m = sum(E if b else 1.0 for b in bits) / 3.0
        atoms.append(m)
        mu_enum += w * m
        sq_enum += w * m * m
    assert np.isclose(mu_enum, mu_site, rtol=1e-14)
    assert np.isclose(math.sqrt(sq_enum - mu_enum**2), sd_site / math.sqrt(3), rtol=1e-12)

    def draw(rng, n):
        return c * (rng.random(n) < p)

    rule = ScheduleRule(kind="explicit", table=((t, 1),))
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(t,), n_replica=2000, seed=7
    )
    v = clt_experiment(config, draw_fn=draw, reference=(mu_site, sd_site))[0]
    assert verdict_consistent(v)
    # mean and sd of the scaled statistic against the exact standardization
    scale = mu_site * math.sqrt(3) / sd_site
    assert abs((v.ratio_mean - 1.0) * scale) < 0.12
    assert abs(v.ratio_sd * scale - 1.0) < 0.06
    # recorded quantiles and the statistic extremes must land on atoms
    ratio_atoms = np.array(sorted(set(atoms))) / mu_site
    for q in (v.ratio_q10, v.ratio_q50, v.ratio_q90):
        assert np.min(np.abs(ratio_atoms - q)) < 1e-9
    stat_atoms = np.abs((np.array(sorted(set(atoms))) - mu_site) / sd_site)
    assert np.min(np.abs(stat_atoms - v.median_abs_statistic)) < 1e-9
    assert np.min(np.abs(stat_atoms - v.max_abs_statistic)) < 1e-9
    # three-site sums of an asymmetric two-point law are visibly skewed
    assert abs(v.skew - (1.0 - 2.0 * p) / math.sqrt(3 * p * (1.0 - p))) < 0.2
    assert v.classification == "inconclusive"


def test_constant_potential_statistic_is_zero():
    c, t = 0.6, 1.0

    def draw(rng, n):
        rng.random(n)
        return np.full(n, c)

    rule = ScheduleRule(kind="explicit", table=((t, 4),))
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(t,), n_replica=150, seed=3
    )
    v = clt_experiment(config, draw_fn=draw, reference=(math.exp(c * t), 0.0))[0]
    assert v.max_abs_statistic == 0.0
    assert v.median_abs_statistic == 0.0
    assert math.isnan(v.skew)
    assert v.ks_p == 0.0
    assert v.classification == "non-gaussian"
    assert verdict_consistent(v)


def test_hardcore_family_atoms():
    # Hard-core potentials make e^{vt} a 0/1 indicator, so the L = 1 box
    # average is (open sites)/3 and every statistic sits on a lattice.
    fam = TailFamily.hard_core(0.3)
    t = 1.7
    rule = ScheduleRule(kind="explicit", table=((t, 1),))
    config = RegimeConfig(family=fam, rule=rule, t_grid=(t,), n_replica=400, seed=11)
    v = clt_experiment(config)[0]
    mu, sd = annealed_reference(fam, t)
    assert np.isclose(mu, 0.7, rtol=1e-12)
    assert np.isclose(sd, math.sqrt(0.21), rtol=1e-12)
    stat_atoms = np.abs((np.arange(4) / 3.0 - mu) / sd)
    assert np.min(np.abs(stat_atoms - v.median_abs_statistic)) < 1e-9
    assert np.min(np.abs(stat_atoms - v.max_abs_statistic)) < 1e-9
    assert verdict_consistent(v)

    lv = lln_experiment(config)[0]
    assert np.isclose(lv.ref_log_mu, math.log(0.7), rtol=1e-12)
    assert abs(lv.ratio_mean - 1.0) < 0.08
    assert verdict_consistent(lv)


def test_verdicts_deterministic():
    rule = ScheduleRule(kind="gamma-j", gamma=1.5)
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(2.0,), n_replica=120, seed=42
    )
    a = lln_experiment(config)[0]
    b = lln_experiment(config)[0]
    assert (a.frac_in_band, a.ratio_mean, a.classification) == (
        b.frac_in_band,
        b.ratio_mean,
        b.classification,
    )


def test_gaussian_regime_detected():
    # gamma above gamma_2 = 4 should pass the normality gates.
    rule = ScheduleRule(kind="gamma-j", gamma=6.0, )
    config = RegimeConfig(
        family=DEXP1, rule=rule, t_grid=(1.0,), n_replica=400, seed=5,
        max_log_L=math.log(3_000_000),
    )
    v = clt_experiment(config)[0]
    assert v.gamma1 == 1.0 and v.gamma2 == 2.0
    assert v.L == math.ceil(math.exp(6.0))
    assert v.classification == "gaussian"
    assert abs(v.skew) <= 0.2 and abs(v.exkurt) <= 0.5 and v.ks_p >= 0.01
    assert verdict_consistent(v)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 50, 100, 140, 141, 200, 1000, 5000])
def test_clt_gate_statistics_match_scipy_stats(n):
    """KS p-value within 1e-5 (n <= 140, where scipy is exact too) or 1e-4; moments within 1e-12."""
    rng = np.random.default_rng(n)
    tol = 1e-5 if n <= 140 else 1e-4
    samples = [rng.standard_normal(n), rng.standard_t(4, n), 1.2 * rng.standard_normal(n) + 0.1, rng.exponential(size=n)]
    for z in samples:
        p = regimes._ks_normal_pvalue(z)
        assert p == pytest.approx(scipy.stats.kstest(z, "norm").pvalue, rel=tol, abs=1e-300)
        if n > 2:
            skew, exkurt = regimes._moment_shape(z)
            assert skew == pytest.approx(scipy.stats.skew(z), rel=1e-12, abs=1e-12)
            assert exkurt == pytest.approx(scipy.stats.kurtosis(z), rel=1e-12, abs=1e-12)


def test_kolmogorov_sf_exact_branch_and_tail_meet():
    # the exact Durbin-matrix branch against scipy's exact kstwo, across n d^2 < 2.2
    for n in (3, 30, 140):
        for d in np.linspace(0.51 / n, min(0.49, math.sqrt(2.19 / n)), 9):
            assert regimes._kolmogorov_sf(n, d) == pytest.approx(scipy.stats.kstwo.sf(d, n), rel=1e-9)
    # continuity across the switch to 2 smirnov and at a lattice point n d = 3
    n = 100
    d = math.sqrt(2.2 / n)
    below = regimes._kolmogorov_sf(n, np.nextafter(d, 0.0))
    assert below == pytest.approx(regimes._kolmogorov_sf(n, d), rel=1e-5)
    assert regimes._kolmogorov_sf(10, 0.3) == pytest.approx(regimes._kolmogorov_sf(10, np.nextafter(0.3, 1.0)), rel=1e-12)
    assert regimes._kolmogorov_sf(10, 0.04) == 1.0


@pytest.mark.filterwarnings("ignore:Precision loss occurred")
def test_moment_shape_of_near_constant_data_matches_scipy():
    skew, exkurt = regimes._moment_shape(np.full(50, 3.0))  # m2 = 0 exactly
    assert math.isnan(skew) and math.isnan(exkurt)
    assert math.isnan(scipy.stats.skew(np.full(50, 3.0)))
    z = np.full(50, 0.1)  # the mean is off 0.1 by rounding, so m2 is tiny but not zero
    assert regimes._moment_shape(z) == (scipy.stats.skew(z), scipy.stats.kurtosis(z))


def test_critical_validation():
    rule = ScheduleRule(kind="gamma-j", gamma=0.5)
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(3.0,), n_replica=100, seed=1
    )
    with pytest.raises(ValueError):
        critical_experiment(config, gamma=1.0, delta=0.1)
    with pytest.raises(ValueError):
        critical_experiment(config, gamma=0.0, delta=0.1)
    with pytest.raises(ValueError):
        critical_experiment(config, gamma=0.5, delta=0.0)
    hc = RegimeConfig(
        family=TailFamily.hard_core(0.2), rule=rule, t_grid=(3.0,),
        n_replica=100, seed=1,
    )
    with pytest.raises(ValueError):
        critical_experiment(hc, gamma=0.3, delta=0.1)


def test_critical_fraction_monotone_in_delta():
    rule = ScheduleRule(kind="gamma-j", gamma=0.5)
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(3.0,), n_replica=500, seed=99
    )
    up = critical_experiment(config, gamma=0.5, delta=0.1)[0]
    down = critical_experiment(config, gamma=0.5, delta=-0.3)[0]
    assert up.L == down.L == math.ceil(math.exp(0.5 * cumulant_H(WEIBULL2, 3.0)))
    assert np.isclose(up.a_gamma, critical_a(WEIBULL2, 0.5), rtol=1e-12)
    assert up.frac_below > down.frac_below + 0.3
    assert down.frac_below < 0.5
    assert up.passed == (up.frac_below >= 0.95)
    assert down.passed == (down.frac_below >= 0.95)


def test_critical_double_exp_normalizer():
    rule = ScheduleRule(kind="gamma-j", gamma=0.5)
    config = RegimeConfig(
        family=DEXP1, rule=rule, t_grid=(2.0,), n_replica=200, seed=17
    )
    v = critical_experiment(config, gamma=0.5, delta=0.1)[0]
    a = critical_a(DEXP1, 0.5)
    want = scipy.special.gammaln(1.0 + (a + 0.1) * 2.0) / (a + 0.1)
    assert np.isclose(v.log_normalizer, want, rtol=1e-12)
    assert 0.0 <= v.frac_below <= 1.0
    with pytest.raises(ValueError):
        critical_experiment(config, gamma=0.5, delta=-0.4)


def test_critical_frechet_calibrated_scale():
    fam = TailFamily.frechet(1.0)
    rule = ScheduleRule(kind="gamma-j", gamma=0.02)
    config = RegimeConfig(
        family=fam, rule=rule, t_grid=(2.0,), n_replica=150, seed=23
    )
    v = critical_experiment(config, gamma=0.02, delta=0.005)[0]
    assert v.L >= 1
    assert np.isclose(v.a_gamma, critical_a(fam, 0.02), rtol=1e-12)
    assert v.log_normalizer < 0.0
    assert 0.0 <= v.frac_below <= 1.0


def test_diffusive_run_limits():
    rule = ScheduleRule(kind="explicit", table=((2.0, 12),))
    config = RegimeConfig(
        family=WEIBULL2, rule=rule, t_grid=(2.0,), kappa=1.0,
        n_replica=100, seed=31, tol=1e-3,
    )
    v = lln_experiment(config)[0]
    assert v.ref_sys_halfwidth == 2.0
    assert np.isclose(v.ref_log_mu, cumulant_H(WEIBULL2, 2.0) - 2.0, rtol=1e-12)
    assert verdict_consistent(v)

    with pytest.raises(ValueError):
        lln_experiment(
            RegimeConfig(
                family=WEIBULL2, rule=rule, t_grid=(2.0,), kappa=1.0,
                d=2, n_replica=100, seed=31,
            )
        )
    bad_t = RegimeConfig(
        family=WEIBULL2,
        rule=ScheduleRule(kind="explicit", table=((4.0, 10),)),
        t_grid=(4.0,), kappa=1.0, n_replica=100, seed=31,
    )
    with pytest.raises(ValueError):
        lln_experiment(bad_t)
    big_L = RegimeConfig(
        family=WEIBULL2,
        rule=ScheduleRule(kind="explicit", table=((2.0, 2500),)),
        t_grid=(2.0,), kappa=1.0, n_replica=100, seed=31,
    )
    with pytest.raises(ValueError):
        lln_experiment(big_L)
    with pytest.raises(ValueError):
        lln_experiment(config, draw_fn=lambda rng, n: np.zeros(n))
