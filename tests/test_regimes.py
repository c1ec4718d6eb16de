import dataclasses
import inspect
import itertools
import json
import math
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats

from helpers import record_fixture
import pamlab.environments
import pamlab.solver
from pamlab import regimes
from pamlab.analytics import critical_a, cumulant_H, growth_J, intermittency_shape_f1
from pamlab.cli import main as cli_main
from pamlab.environments import TailFamily
from pamlab.moments import estimate_F_theta
from pamlab.regimes import (
    RegimeConfig,
    RegimeThresholds,
    RegimeVerdict,
    ScheduleOverflowError,
    ScheduleRule,
    annealed_reference,
    clt_experiment,
    critical_experiment,
    lln_experiment,
    schedule_L,
    verdict_consistent,
)
from pamlab.seeding import derive_seed

WEIBULL2 = TailFamily.weibull(2.0)
DEXP1 = TailFamily.double_exp(1.0)
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "regime_fixture.json")


def _two_point_draw(rng, n):
    return 0.8 * (rng.random(n) < 0.3)


def _constant_draw(rng, n):
    rng.random(n)
    return np.full(n, 0.6)


def clt_with_draws(config, draw, **kw):
    """clt_experiment with every kappa = 0 site piece v set to draw(rng, len(v)).

    The patch reaches the draw pool's workers through fork, so draw may be
    a closure.
    """

    def fill(family, rng, v):
        v[...] = draw(rng, len(v))

    with mock.patch.object(regimes, "_draw_sites", fill):
        return clt_experiment(config, **kw)


def _verdict_record(v):
    """Every field of a verdict: numbers as float.hex, labels and flags as they are."""
    return {
        f.name: x if isinstance(x, (str, bool)) else float(x).hex()
        for f in dataclasses.fields(v)
        for x in [getattr(v, f.name)]
    }


def regime_values():
    """Every regime fixture entry, as lists of verdict records."""

    def config(family, rule, t_grid, seed, **kw):
        return RegimeConfig(family=family, rule=rule, t_grid=t_grid, n_replica=100, seed=seed, **kw)

    def explicit(*pairs):
        return ScheduleRule(kind="explicit", table=pairs)

    gamma_j = ScheduleRule(kind="gamma-j", gamma=1.5)
    two_point_mu = 0.7 + 0.3 * math.exp(0.8 * 1.3)
    two_point_sd = math.sqrt(0.21) * (math.exp(0.8 * 1.3) - 1.0)
    critical = ScheduleRule(kind="gamma-j", gamma=0.5)
    runs = {
        "lln_k0_gamma_j": lln_experiment(config(WEIBULL2, gamma_j, (1.0, 2.0, 3.0), 41)),
        "lln_k0_dyadic": lln_experiment(config(WEIBULL2, explicit((3.0, 1), (2.0, 64)), (3.0, 2.0), 42)),
        "lln_k0_non_annealed": lln_experiment(config(DEXP1, explicit((12.0, 1),), (12.0,), 42)),
        "lln_k0_t0": lln_experiment(config(WEIBULL2, explicit((0.0, 3),), (0.0,), 43)),
        "lln_k1_explicit": lln_experiment(config(WEIBULL2, explicit((1.0, 8), (2.0, 12)), (1.0, 2.0), 44, kappa=1.0, tol=1e-3)),
        "clt_dexp_k0": clt_experiment(config(DEXP1, ScheduleRule(kind="gamma-j", gamma=6.0), (1.0,), 47)),
        "clt_dexp_k0_small_L": clt_experiment(config(DEXP1, ScheduleRule(kind="gamma-j", gamma=1.0), (2.0,), 46)),
        "clt_hard_core": clt_experiment(config(TailFamily.hard_core(0.3), explicit((1.7, 1),), (1.7,), 47)),
        "clt_two_point_draw_fn": clt_with_draws(
            config(WEIBULL2, explicit((1.3, 1),), (1.3,), 48), _two_point_draw,
            reference=(two_point_mu, two_point_sd),
        ),
        "clt_constant_draw_fn": clt_with_draws(
            config(WEIBULL2, explicit((1.0, 4),), (1.0,), 49), _constant_draw,
            reference=(math.exp(0.6), 0.0),
        ),
        "clt_k1_reference": clt_experiment(
            config(WEIBULL2, explicit((1.0, 8),), (1.0,), 50, kappa=1.0, tol=1e-3), reference=(1.5, 0.8),
        ),
        "critical_weibull": critical_experiment(config(WEIBULL2, critical, (3.0, 2.0), 51), gamma=0.5, delta=0.1)
        + critical_experiment(config(WEIBULL2, critical, (3.0,), 51), gamma=0.5, delta=0.3)
        + critical_experiment(config(WEIBULL2, critical, (3.0,), 51), gamma=0.5, delta=-0.3),
        "critical_frechet": critical_experiment(
            config(TailFamily.frechet(1.0), ScheduleRule(kind="gamma-j", gamma=0.02), (2.0,), 52), gamma=0.02, delta=0.005,
        ),
    }
    return {key: [_verdict_record(v) for v in verdicts] for key, verdicts in runs.items()}


def test_regime_verdicts_match_fixture():
    # recorded before the experiments shared one verdict builder; the two
    # kappa > 0 entries were re-recorded when the box averages began to sum
    # each replica's site logs in C order (last bits of ratio_sd and the clt
    # shape statistics; every site log kept its bits)
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = regime_values()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


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
    for L in (0, 2.7, math.inf):
        with pytest.raises(ValueError, match="explicit schedule needs integer L >= 1"):
            ScheduleRule(kind="explicit", table=((1.0, L),))
    with pytest.raises(ValueError, match="names t = 2 twice"):
        ScheduleRule(kind="f-hat", table=((2.0, 5.0), (1.0, 4.0), (2.0 + 1e-13, 6.0)))
    for gamma in (math.nan, math.inf, -0.5):
        # nan once passed, and schedule_L failed in numpy's int conversion
        with pytest.raises(ValueError, match=f"gamma-j rule needs a finite gamma >= 0, got {gamma}"):
            ScheduleRule(kind="gamma-j", gamma=gamma)


def test_schedule_needs_a_family_and_reads_an_undefined_growth_scale_as_nan():
    rule = ScheduleRule(kind="explicit", table=((1.0, 5),))
    with pytest.raises(TypeError, match="family"):  # once an AttributeError from growth_J
        schedule_L(rule, 1.0)
    # the almost-bounded growth scale J(t) is undefined for t <= e
    L, gamma_eq = schedule_L(rule, 1.0, TailFamily.squared_double_exp())
    assert L == 5 and math.isnan(gamma_eq)
    assert inspect.signature(schedule_L).parameters["max_log_L"].default == RegimeConfig.max_log_L


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
    for tol in (0.0, 1.0, 7.0):  # refused at kappa = 0 too, which never reaches required_radius
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(1.0,), tol=tol)


@pytest.mark.parametrize(
    "field, value, refusal",
    [
        # d = nan once ran an lln verdict with ref_log_mu nan; 1.5 and 150.5 raised a TypeError in the draws
        ("d", math.nan, "d must be an integer >= 1, got nan"),
        ("d", 1.5, "d must be an integer >= 1, got 1.5"),
        ("n_replica", 150.5, "n_replica must be an integer >= 100, got 150.5"),
        ("n_replica", 50, "n_replica must be an integer >= 100, got 50"),
        ("kappa", math.nan, "kappa must be finite and >= 0, got nan"),
        ("t_grid", (1.0, -2.0), "t must be finite and >= 0, got -2.0"),
    ],
)
def test_config_refusals_name_the_value(field, value, refusal):
    fields = {"family": WEIBULL2, "rule": ScheduleRule(kind="gamma-j", gamma=1.0), "t_grid": (1.0,), field: value}
    with pytest.raises(ValueError, match=refusal):
        RegimeConfig(**fields)


@pytest.mark.parametrize(
    "fields, refusal",
    [
        ({"band": -1, "fraction": 3, "degenerate_median": -5}, "band must be finite and > 0, got -1"),
        ({"band": 0.0}, "band must be finite and > 0, got 0"),
        ({"band": math.inf}, "band must be finite and > 0, got inf"),
        ({"fraction": 0.0}, r"fraction must be finite and in \(0, 1\], got 0"),
        ({"fraction": 3}, r"fraction must be finite and in \(0, 1\], got 3"),
        ({"skew_max": -1}, "skew_max must be finite and > 0, got -1"),
        ({"exkurt_max": math.nan}, "exkurt_max must be finite and > 0, got nan"),
        ({"ks_p_min": 2}, r"ks_p_min must be finite and in \[0, 1\], got 2"),
        ({"ks_p_min": -0.01}, r"ks_p_min must be finite and in \[0, 1\], got -0.01"),
        ({"degenerate_median": -5}, "degenerate_median must be finite and >= 0, got -5"),
    ],
)
def test_thresholds_refuse_gates_that_cannot_pass(fields, refusal):
    with pytest.raises(ValueError, match=refusal):
        RegimeThresholds(**fields)


def test_thresholds_accept_their_closed_ends():
    RegimeThresholds(fraction=1.0, ks_p_min=0.0, degenerate_median=0.0)
    RegimeThresholds(ks_p_min=1.0)


def test_annealed_reference_weibull():
    mu, sd = annealed_reference(WEIBULL2, 3.0)
    assert np.isclose(mu, 50.5947, rtol=1e-5)
    assert np.isclose(sd, 289.161, rtol=1e-4)


def test_annealed_reference_refuses_an_unresolved_gap():
    # e^H(2t) - e^2H(t) is rounding noise of H at these t: a variance read
    # from it gives 0.0 or 2.1e-8 where the true sd is about 1e-13 to 1e-9
    for fam, t in ((WEIBULL2, 1e-8), (WEIBULL2, 1e-12), (DEXP1, 1e-9)):
        with pytest.raises(ValueError, match=r"annealed reference at t = .*G_1\(s\) = "):
            annealed_reference(fam, t)
    # a resolved gap gives sd = t sd(v) (1 + O(t)), with Var v = 1 - pi/4 for weibull(2)
    assert annealed_reference(WEIBULL2, 1e-3)[1] == pytest.approx(1e-3 * math.sqrt(1 - math.pi / 4), rel=5e-3)
    # H(0) and the hard-core H are exact, so their sd stands at any t
    assert annealed_reference(WEIBULL2, 0.0) == (1.0, 0.0)
    assert annealed_reference(TailFamily.hard_core(0.3), 1e-12)[1] == pytest.approx(math.sqrt(0.21), rel=1e-12)


def test_kappa_zero_overflow_is_refused_naming_t_and_exponent():
    # at t = 400 some e^(t v) of a weibull(2) box, and e^H(800) of
    # double_exp(1), overflow a double
    rule = ScheduleRule(kind="explicit", table=((400.0, 5),))
    config = RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(400.0,), n_replica=100, seed=5)
    with pytest.raises(ValueError, match=r"e\^\(t v\) overflows at t = 400: t v reaches \d+"):
        lln_experiment(config)

    def no_draw(rng, n):
        raise AssertionError("drew a site")

    with pytest.raises(ValueError, match=r"annealed reference at t = 400 overflows: .*H\(2t\) = 4551\.95"):
        clt_with_draws(dataclasses.replace(config, family=DEXP1), no_draw)


def test_clt_refuses_an_unresolved_reference_before_any_draw():
    def no_draw(rng, n):
        raise AssertionError("drew a site")

    rule = ScheduleRule(kind="explicit", table=((1.0, 4), (1e-9, 50)))
    config = RegimeConfig(family=DEXP1, rule=rule, t_grid=(1.0, 1e-9), n_replica=100, seed=5)
    with pytest.raises(ValueError, match="annealed reference at t = 1e-09"):
        clt_with_draws(config, no_draw)


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
    v = clt_with_draws(config, draw, reference=(mu_site, sd_site))[0]
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
    v = clt_with_draws(config, draw, reference=(math.exp(c * t), 0.0))[0]
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


@pytest.mark.parametrize(
    "family, delta, refusal",
    [
        (WEIBULL2, math.nan, "delta must be finite and nonzero, got nan"),
        (WEIBULL2, math.inf, "delta must be finite and nonzero, got inf"),
        (WEIBULL2, -math.inf, "delta must be finite and nonzero, got -inf"),
        (DEXP1, -0.4, r"delta = -0.4 pushes the normalizer index a\(gamma\) \+ delta below zero"),
        (TailFamily.squared_double_exp(), -1.0, "delta = -1 pushes the normalizer index"),
    ],
)
def test_critical_delta_refusals_come_before_any_draw(family, delta, refusal):
    config = RegimeConfig(
        family=family, rule=ScheduleRule(kind="gamma-j", gamma=0.5), t_grid=(2.0,), n_replica=100, seed=17
    )
    with mock.patch.object(regimes, "_block_log_means", side_effect=AssertionError("drew blocks")):
        with pytest.raises(ValueError, match=refusal):
            critical_experiment(config, gamma=0.5, delta=delta)


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


def test_critical_frechet_diffusive_scale_is_the_estimated_gap():
    # at kappa > 0 the Frechet J is calibrated as F_theta(t) / f1(theta),
    # with F_theta from estimate_F_theta on the critical-scale stream
    fam = TailFamily.frechet(1.0)
    config = RegimeConfig(
        family=fam, rule=ScheduleRule(kind="gamma-j", gamma=0.02), t_grid=(1.0, 2.0), kappa=1.0,
        n_replica=100, seed=29,
    )
    verdicts = critical_experiment(config, gamma=0.02, delta=0.005)
    f1 = intermittency_shape_f1(fam, 0.5, 1)
    for ti, (t, v) in enumerate(zip(config.t_grid, verdicts)):
        F = estimate_F_theta(fam, 0.5, 1.0, t, 100, derive_seed(29, "critical-scale", ti)).value
        assert v.L == 2
        # grouped as the code groups it: the scale F / f1 first
        assert v.log_normalizer == -(v.a_gamma - 0.005) * (F / f1)


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


def test_diffusive_runs_past_the_old_t_and_L_limits():
    # t = 4 and L = 2500 were refused while every box site was read through its own window
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="explicit", table=((4.0, 2500),)),
        t_grid=(4.0,), kappa=1.0, n_replica=100, seed=31,
    )
    for v in (lln_experiment(config)[0], clt_experiment(config, reference=(1.0, 1.0))[0]):
        assert (v.t, v.L) == (4.0, 2500)
        assert 0.0 < v.ratio_q10 <= v.ratio_q90 < math.inf
        assert verdict_consistent(v)


def test_diffusive_lln_at_t3_L2000_is_fast():
    # on a 2-core machine the tiles took 0.35 s and the per-site windows 5.7 to 10.3 s,
    # so a fall back to the windows fails this bound
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="explicit", table=((3.0, 2000),)),
        t_grid=(3.0,), kappa=1.0, n_replica=100, seed=5,
    )
    start = time.perf_counter()
    v = lln_experiment(config)[0]
    assert time.perf_counter() - start < 2.5
    assert v.L == 2000 and verdict_consistent(v)


def test_diffusive_regime_reads_boxes_by_tiles_not_windows(monkeypatch):
    for name in ("site_log_moments", "_replica_site_logs"):
        monkeypatch.setattr(pamlab.solver, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    widths = []
    read = pamlab.solver._block_logs

    def spy(v, hard, corners, w, R, kappa, t):
        widths.append(w)
        return read(v, hard, corners, w, R, kappa, t)

    monkeypatch.setattr(pamlab.solver, "_block_logs", spy)
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="explicit", table=((1.0, 8), (2.0, 30))),
        t_grid=(1.0, 2.0), kappa=1.0, n_replica=100, seed=5,
    )
    assert [v.L for v in lln_experiment(config)] == [8, 30]
    assert clt_experiment(config, reference=(1.5, 0.8))[0].L == 8
    gamma = ScheduleRule(kind="gamma-j", gamma=0.5)
    critical_experiment(dataclasses.replace(config, family=DEXP1, rule=gamma, t_grid=(2.0,)), gamma=0.5, delta=0.1)
    # blocks of more than one site: tiles, not windows
    assert widths and min(widths) > 1, widths



def _stats(kind, **fields):
    """A verdict with neutral statistics, overridden by fields; no label yet."""
    base = dict(
        kind=kind, t=1.0, L=4, gamma=1.0, gamma1=1.0, gamma2=2.0, n_replica=100, ref_log_mu=1.0,
        ref_sys_halfwidth=0.0, ratio_mean=1.0, ratio_sd=0.1, ratio_q10=0.9, ratio_q50=1.0, ratio_q90=1.1,
        frac_in_band=0.5, frac_raw_in_band=0.5, frac_below_half=0.0, skew=math.nan, exkurt=math.nan,
        ks_p=math.nan, median_abs_statistic=math.nan, max_abs_statistic=math.nan, classification="",
    )
    return RegimeVerdict(**{**base, **fields})


# labels written out by hand from the default RegimeThresholds
# (band 0.05, fraction 0.95, skew 0.2, exkurt 0.5, ks_p 0.01, median 0.1)
_CLASSIFICATION_TABLE = [
    (_stats("lln", frac_in_band=0.95), "annealed"),
    (_stats("lln", frac_in_band=1.0, frac_below_half=1.0), "annealed"),
    (_stats("lln", frac_in_band=0.94, frac_below_half=0.95), "non-annealed"),
    (_stats("lln", frac_in_band=0.94, frac_below_half=0.94), "inconclusive"),
    (_stats("lln", frac_in_band=0.0, frac_below_half=0.0), "inconclusive"),
    (_stats("clt", skew=0.1, exkurt=0.1, ks_p=0.5, median_abs_statistic=0.5), "gaussian"),
    (_stats("clt", skew=-0.2, exkurt=-0.5, ks_p=0.01, median_abs_statistic=0.5), "gaussian"),
    (_stats("clt", skew=0.0, exkurt=0.0, ks_p=0.5, median_abs_statistic=0.01), "gaussian"),
    (_stats("clt", skew=0.0, exkurt=0.0, ks_p=0.0099, median_abs_statistic=0.5), "inconclusive"),
    (_stats("clt", skew=0.21, exkurt=0.0, ks_p=0.5, median_abs_statistic=0.1), "non-gaussian"),
    (_stats("clt", skew=0.0, exkurt=0.51, ks_p=0.5, median_abs_statistic=0.11), "inconclusive"),
    (_stats("clt", skew=math.nan, exkurt=0.0, ks_p=1.0, median_abs_statistic=0.5), "inconclusive"),
    (_stats("clt", skew=math.nan, exkurt=math.nan, ks_p=0.0, median_abs_statistic=0.0), "non-gaussian"),
    (_stats("clt", skew=0.0, exkurt=math.nan, ks_p=1.0, median_abs_statistic=0.05), "non-gaussian"),
]
_LABELS = ("annealed", "non-annealed", "gaussian", "non-gaussian", "inconclusive")


@pytest.mark.parametrize("stats, label", _CLASSIFICATION_TABLE)
def test_verdict_consistent_against_hand_labels(stats, label):
    assert verdict_consistent(dataclasses.replace(stats, classification=label))
    for other in _LABELS:
        if other != label:
            assert not verdict_consistent(dataclasses.replace(stats, classification=other)), other


def test_verdict_consistent_reads_the_given_thresholds():
    v = _stats("lln", frac_in_band=0.6, classification="inconclusive")
    assert verdict_consistent(v)
    assert not verdict_consistent(v, RegimeThresholds(fraction=0.6))
    assert verdict_consistent(dataclasses.replace(v, classification="annealed"), RegimeThresholds(fraction=0.6))
    g = _stats("clt", skew=0.3, exkurt=0.0, ks_p=0.5, median_abs_statistic=0.5, classification="gaussian")
    assert not verdict_consistent(g)
    assert verdict_consistent(g, RegimeThresholds(skew_max=0.3))


def test_verdict_consistent_reads_a_critical_verdicts_passed():
    # it once raised AttributeError: a CriticalVerdict has no classification
    with open(FIXTURE) as fh:
        records = json.load(fh)
    verdicts = [
        regimes.CriticalVerdict(**{k: x if isinstance(x, bool) else float.fromhex(x) for k, x in r.items()})
        for key in ("critical_weibull", "critical_frechet") for r in records[key]
    ]
    assert {v.passed for v in verdicts} == {True, False}
    for v in verdicts:
        assert verdict_consistent(v)
        assert not verdict_consistent(dataclasses.replace(v, passed=not v.passed))
    assert not verdict_consistent(verdicts[2], RegimeThresholds(fraction=1.0))


@pytest.mark.parametrize(
    "rule, got",
    [(ScheduleRule(kind="explicit", table=((3.0, 5),)), "the explicit rule"),
     (ScheduleRule(kind="f-hat", table=((3.0, 2.0),)), "the f-hat rule"),
     (ScheduleRule(kind="gamma-j", gamma=1.5), "gamma-j at gamma = 1.5")],
)
def test_critical_refuses_a_rule_it_would_not_run_before_any_draw(rule, got):
    # each once ran without a word on the gamma-j schedule at the gamma passed: the explicit table at L = 8
    config = RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(3.0,), n_replica=100, seed=1)
    refusal = f"critical_experiment runs the gamma-j rule at gamma = 0.5, but config.rule is {got}"
    with mock.patch.object(regimes, "_block_log_means", side_effect=AssertionError("drew blocks")), \
            mock.patch.object(regimes, "_critical_scale", side_effect=AssertionError("drew a scale")):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            critical_experiment(config, 0.5, 0.1)


def test_clt_refuses_kappa_positive_without_reference_before_any_site_is_hashed(monkeypatch):
    def no_hashing(*args, **kwargs):
        raise AssertionError("hashed a site")

    monkeypatch.setattr(pamlab.environments, "site_uniforms", no_hashing)
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="explicit", table=((1.0, 8),)), t_grid=(1.0,),
        kappa=1.0, n_replica=100, seed=31,
    )
    with pytest.raises(ValueError, match="needs kappa = 0 or an explicit reference"):
        clt_experiment(config)


def _force_pool(monkeypatch):
    """Send every later kappa = 0 block draw to the fork pool; returns the chunk futures it submits."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the draw pool needs two or more CPUs")
    monkeypatch.setattr(regimes, "_POOL_MIN_SITES", 0)
    chunks = []
    submit = ProcessPoolExecutor.submit

    def recorded_submit(self, *args, **kwargs):
        chunks.append(submit(self, *args, **kwargs))
        return chunks[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded_submit)
    return chunks


def _pool_comparison_runs():
    def config(rule, t_grid, seed):
        # 101 replicas: the pool's chunks differ in size
        return RegimeConfig(family=WEIBULL2, rule=rule, t_grid=t_grid, n_replica=101, seed=seed)

    shift = 0.25

    def shifted_draw(rng, n):  # a closure, which a pickling pool could not send
        return rng.random(n) + shift

    t = 1.0
    mu = (math.exp(t * (1 + shift)) - math.exp(t * shift)) / t
    second = (math.exp(2 * t * (1 + shift)) - math.exp(2 * t * shift)) / (2 * t)
    gamma_j = ScheduleRule(kind="gamma-j", gamma=1.5)
    runs = {
        "lln": lln_experiment(config(gamma_j, (1.0, 2.0, 3.0), 61)),
        "critical": critical_experiment(
            config(ScheduleRule(kind="gamma-j", gamma=0.5), (2.0, 3.0), 62), gamma=0.5, delta=0.1,
        ),
        "clt_closure": clt_with_draws(
            config(ScheduleRule(kind="explicit", table=((t, 40),)), (t,), 63), shifted_draw,
            reference=(mu, math.sqrt(second - mu * mu)),
        ),
    }
    return {key: [_verdict_record(v) for v in verdicts] for key, verdicts in runs.items()}


def test_pool_draws_match_in_process_draws(monkeypatch):
    # pieces of 50 draws: every replica spans several, the last one partial
    monkeypatch.setattr(regimes, "_DRAW_CHUNK", 50)
    in_process = _pool_comparison_runs()
    chunks = _force_pool(monkeypatch)
    assert _pool_comparison_runs() == in_process
    assert len(chunks) >= 6 * 2  # six draws (t values), each on two or more chunks
    assert multiprocessing.active_children() == []


def test_without_fork_the_draws_stay_in_process(monkeypatch):
    in_process = _pool_comparison_runs()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    chunks = _force_pool(monkeypatch)
    assert _pool_comparison_runs() == in_process
    assert chunks == []


def test_pool_regime_csv_is_byte_identical(monkeypatch, tmp_path):
    argv = [
        "regime", "family=weibull", "rho=2", "t_grid=2,3", "mode=lln",
        "rule=gamma-j", "gamma=1.2", "n_replica=150", "seed=77",
    ]
    assert cli_main(argv + ["--out", str(tmp_path / "one")]) in (0, 1)
    chunks = _force_pool(monkeypatch)
    assert cli_main(argv + ["--out", str(tmp_path / "pool")]) in (0, 1)
    assert chunks and multiprocessing.active_children() == []
    assert (tmp_path / "one" / "regime.csv").read_bytes() == (tmp_path / "pool" / "regime.csv").read_bytes()
    one, pool = (json.loads((tmp_path / run / "summary.json").read_text()) for run in ("one", "pool"))
    assert pool["timings"]["peak_rss_children_mb"] > 1.0
    one.pop("timings")
    pool.pop("timings")
    assert one == pool


def test_pool_overflow_is_the_in_process_refusal(monkeypatch):
    rule = ScheduleRule(kind="explicit", table=((400.0, 5),))
    config = RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(400.0,), n_replica=100, seed=5)
    with pytest.raises(ValueError) as in_process:
        lln_experiment(config)
    chunks = _force_pool(monkeypatch)
    with pytest.raises(ValueError, match=r"e\^\(t v\) overflows at t = 400: t v reaches \d+") as pooled:
        lln_experiment(config)
    assert chunks and str(pooled.value) == str(in_process.value)
    assert multiprocessing.active_children() == []


def test_pool_refusal_cancels_the_chunks_not_yet_started(monkeypatch, tmp_path):
    marker = tmp_path / "refused"

    def draw(rng, n):
        # the first draw in any worker refuses; every other one takes 20 ms
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            time.sleep(0.02)
            return np.zeros(n)
        raise ValueError("refused in a worker")

    chunks = _force_pool(monkeypatch)
    rule = ScheduleRule(kind="explicit", table=((1.0, 2),))
    config = RegimeConfig(family=WEIBULL2, rule=rule, t_grid=(1.0,), n_replica=100, seed=5)
    with pytest.raises(ValueError, match="refused in a worker"):
        clt_with_draws(config, draw, reference=(1.0, 1.0))
    assert chunks[-1].cancelled()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "kappa, d, rule, t_grid, refusal",
    [
        (1.0, 1, ScheduleRule("explicit", table=((1.0, 10), (4.0, 10**7))), (1.0, 4.0),
         r"schedule needs log L = 16\.118"),
        (1.0, 2, ScheduleRule("explicit", table=((1.0, 10),)), (1.0,), "support d = 1 only, got d = 2"),
        (0.0, 1, ScheduleRule("gamma-j", gamma=1.0), (8.0, 30.0), r"schedule needs log L = 30\.000"),
    ],
    ids=["kappa-overflow", "kappa-d", "overflow"],
)
def test_schedule_refusals_come_before_the_first_draw(kappa, d, rule, t_grid, refusal):
    # each was once refused only after the blocks of the earlier t were drawn
    config = RegimeConfig(family=DEXP1, rule=rule, t_grid=t_grid, kappa=kappa, d=d, n_replica=100, seed=3)
    with mock.patch.object(regimes, "_block_log_means", side_effect=AssertionError("drew blocks")):
        for experiment in (lln_experiment, lambda c: clt_experiment(c, reference=(1.0, 0.5))):
            with pytest.raises((ValueError, ScheduleOverflowError), match=refusal):
                experiment(config)



def test_critical_sizes_every_box_before_the_first_draw():
    # J = t for double_exp, so L = e^(t / 2): 2 at t = 1, 8 at t = 4, and e^15 over the budget at t = 30.
    # frechet at kappa > 0 estimates F_theta per t to size its box; d is refused before any estimate.
    dexp = ScheduleRule(kind="gamma-j", gamma=0.5)
    frechet = ScheduleRule(kind="gamma-j", gamma=0.02)
    cases = [(DEXP1, dexp, 0.0, 1, (1.0, 30.0), 0.5, r"schedule needs log L = 15\.000"),
             (DEXP1, dexp, 1.0, 1, (1.0, 30.0), 0.5, r"schedule needs log L = 15\.000"),
             (TailFamily.frechet(1.0), frechet, 1.0, 2, (1.0,), 0.02, "support d = 1 only, got d = 2")]
    for family, rule, kappa, d, t_grid, gamma, refusal in cases:
        config = RegimeConfig(family=family, rule=rule, t_grid=t_grid, kappa=kappa, d=d, n_replica=100, seed=3)
        with mock.patch.object(regimes, "_block_log_means", side_effect=AssertionError("drew blocks")), \
                mock.patch.object(regimes, "estimate_F_theta", side_effect=AssertionError("estimated F_theta")):
            with pytest.raises((ValueError, ScheduleOverflowError), match=refusal):
                critical_experiment(config, gamma=gamma, delta=0.005)


def test_critical_scale_estimates_F_theta_in_the_box_dimension():
    # frechet at kappa > 0 calibrates J from F_theta, which must come from d-dimensional replicas
    family, d, t, kappa, theta = TailFamily.frechet(1.0), 2, 1.0, 1.0, 0.5
    with mock.patch.object(regimes, "estimate_F_theta", return_value=mock.Mock(value=2.0)) as spy:
        scale = regimes._critical_scale(family, d, t, kappa, theta, 50, 7)
    spy.assert_called_once_with(family, theta, kappa, t, 50, 7, dim=d)
    assert scale == 2.0 / intermittency_shape_f1(family, theta, d)


if __name__ == "__main__":
    # Records the fixture.  It was recorded once, before lln and clt
    # shared one verdict builder; re-recording it would make the test vacuous.
    if "--record" not in sys.argv:
        sys.exit("usage: python tests/test_regimes.py --record")
    record_fixture(FIXTURE, regime_values)
