import math

import numpy as np
import pytest

from helpers import reference_bootstrap, traced_peak
from pamlab import environments, moments, solver
from pamlab.analytics import cumulant_H, cumulant_exponent_G
from pamlab.environments import TailFamily, sample_environment
from pamlab.moments import (
    _replica_log_moments,
    block_variance,
    correlation_profile,
    estimate_F_theta,
    estimate_H1,
)
from pamlab.seeding import derive_seed
from pamlab.solver import BoxDomain, _log_mean, empirical_average, required_radius, solve_truncated


@pytest.mark.parametrize("family", [TailFamily.weibull(2.0), TailFamily.hard_core(0.3)])
def test_two_dim_replica_windows_match_per_site_solves(family):
    # the stacked d = 2 windows against one whole-box solve per replica
    kappa, t, tol, seed = 1.0, 1.0, 1e-6, 17
    got = _replica_log_moments(family, kappa, t, 8, seed, dim=2, tol=tol)
    R = required_radius(kappa, t, tol, 2)
    for i in range(8):
        env = sample_environment(family, 2, R, derive_seed(seed, "env", i))
        man, off = solve_truncated(env, BoxDomain(env, (0, 0), R), kappa, t).value_at((0, 0))
        if man == 0.0:
            assert got[i] == -math.inf
        else:
            assert abs(got[i] - (math.log(man) + off)) <= 1e-10, i


def test_kappa_zero_h1_recovers_cumulant():
    fam = TailFamily.weibull(2.0)
    t = 1.0
    est = estimate_H1(fam, 0.0, t, n_replica=4000, seed=101)
    truth = cumulant_H(fam, t)
    assert est.ci_lo <= truth <= est.ci_hi
    assert abs(est.value - truth) < 0.15


def test_h1_sandwich_with_diffusion():
    # e^{H(t) - 2 d kappa t} <= <m> <= e^{H(t)}
    fam = TailFamily.weibull(2.0)
    for t in (1.0, 2.0, 3.0):
        est = estimate_H1(fam, 1.0, t, n_replica=1200, seed=int(200 + t), tol=1e-4)
        H = cumulant_H(fam, t)
        assert est.ci_lo <= H + 1e-9, t
        assert est.ci_hi >= H - 2.0 * t - 1e-9, t


def test_h1_time_zero_is_exact_zero():
    est = estimate_H1(TailFamily.double_exp(1.0), 1.0, 0.0, n_replica=100, seed=7)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.ci_hi - est.ci_lo == pytest.approx(0.0, abs=1e-12)


def test_h1_requires_enough_replicas():
    with pytest.raises(ValueError):
        estimate_H1(TailFamily.weibull(2.0), 0.0, 1.0, n_replica=10, seed=1)


def test_bootstrap_coverage_at_kappa_zero():
    # 99 percent nominal interval should cover the truth in nearly all runs
    fam = TailFamily.double_exp(0.5)
    truth = cumulant_H(fam, 1.0)
    hits = 0
    for outer in range(100):
        est = estimate_H1(fam, 0.0, 1.0, n_replica=150, seed=5000 + outer)
        if est.ci_lo <= truth <= est.ci_hi:
            hits += 1
    assert hits >= 90


def test_f_theta_kappa_zero_matches_exact_gap():
    fam = TailFamily.weibull(2.0)
    theta = 0.5
    t = 1.5
    est = estimate_F_theta(fam, theta, 0.0, t, n_replica=6000, seed=301)
    truth = cumulant_exponent_G(fam, theta, t)
    assert est.ci_lo <= truth <= est.ci_hi
    assert abs(est.value - truth) < 0.2


def test_f_theta_increases_with_time():
    fam = TailFamily.weibull(2.0)
    values = []
    for t in (2.0, 4.0, 8.0):
        est = estimate_F_theta(fam, 0.5, 1.0, t, n_replica=900, seed=401, tol=1e-4)
        values.append(est.value)
    assert values[0] < values[1] < values[2]


def test_f_theta_hardcore_is_flat():
    fam = TailFamily.hard_core(0.3)
    truth = -math.log(0.7)
    for theta, t in ((0.5, 1.0), (1.0, 3.0)):
        est = estimate_F_theta(fam, theta, 0.0, t, n_replica=4000, seed=411)
        assert est.ci_lo <= truth <= est.ci_hi
        assert abs(est.value - truth) < 0.1


def test_f_theta_validates_inputs():
    fam = TailFamily.weibull(2.0)
    with pytest.raises(ValueError):
        estimate_F_theta(fam, 0.0, 0.0, 1.0, n_replica=100, seed=1)
    with pytest.raises(ValueError):
        estimate_F_theta(fam, -1.5, 0.0, 1.0, n_replica=100, seed=1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_f_theta_refuses_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be > -1 and nonzero"):
        estimate_F_theta(TailFamily.weibull(2.0), theta, 0.0, 1.0, n_replica=50, seed=1)


def test_h1_all_killed_raises():
    with pytest.raises(ValueError, match="all replicas were killed"):
        estimate_H1(TailFamily.hard_core(0.999), 1.0, 1.0, n_replica=50, seed=1)


def test_disjoint_windows_are_uncorrelated():
    fam = TailFamily.weibull(2.0)
    prof = correlation_profile(fam, 1.0, 1.0, lags=[1, 27, 40], n_replica=900, seed=501)
    bound = 3.0 / math.sqrt(900)
    assert prof.dependence_radius == 13
    # overlapping truncation windows leave visible correlation at lag 1
    assert prof.r[0] > 0.3
    assert abs(prof.r[1]) <= bound
    assert abs(prof.r[2]) <= bound


def test_kappa_zero_sites_are_independent():
    fam = TailFamily.double_exp(1.0)
    prof = correlation_profile(fam, 0.0, 1.0, lags=[1, 2, 5], n_replica=1600, seed=511)
    bound = 3.0 / math.sqrt(1600)
    assert prof.dependence_radius == 0
    assert np.all(np.abs(prof.r) <= bound)


def test_block_variance_time_zero_is_degenerate():
    rep = block_variance(TailFamily.weibull(2.0), 1.0, 0.0, L=20, n_replica=60, seed=601)
    assert rep.var_direct == 0.0


def test_block_variance_kappa_zero_ratio_near_one():
    rep = block_variance(TailFamily.double_exp(0.5), 0.0, 0.5, L=40, n_replica=800, seed=611)
    assert rep.dependence_radius == 0
    assert 0.8 <= rep.ratio <= 1.25


def _profile_fields(prof):
    return prof.lags.tolist(), prof.r.tolist(), prof.n_replica, prof.dependence_radius


@pytest.mark.parametrize(
    "statistic, args, buffers, fields",
    [
        pytest.param(
            block_variance, (TailFamily.weibull(2.0), 1.0, 1.0, 20, 60, 5), [20, 21] * 60, lambda rep: rep,
            id="block_variance",
        ),
        pytest.param(
            correlation_profile, (TailFamily.weibull(2.0), 1.0, 1.0, [1, 5, 40], 55, 5), [36] * 5 + [40],
            _profile_fields, id="correlation_profile",
        ),
    ],
)
def test_replica_statistics_split_stacks_match_one_stack(monkeypatch, statistic, args, buffers, fields):
    # 60 replicas x 41 sites (55 replicas x 4 sites) fit one stack.
    # Patched, a buffer holds at most 40 windows: block_variance samples one
    # replica per stack, read in two buffers of 20 and 21 windows, and
    # correlation_profile six stacks of 9, 9, 9, 9, 9 and 10 replicas, one
    # buffer each.  Far fewer windows per buffer would move these 27-site
    # boxes to the dense route, which agrees only to its 1e-8 bound.
    whole = statistic(*args)
    width = 2 * whole.dependence_radius + 1
    sizes = []
    solve = solver._solve_stack

    def spy(v, active, kappa, t, margin, n_rows):
        sizes.append(v.shape)
        return solve(v, active, kappa, t, margin, n_rows)

    monkeypatch.setattr(solver, "_STACK_SITES", 40 * width)
    monkeypatch.setattr(solver, "_solve_stack", spy)
    assert fields(statistic(*args)) == fields(whole)
    assert sizes == [(n, width) for n in buffers]


def test_block_variance_refuses_hard_cores_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an environment")

    monkeypatch.setattr(environments, "site_uniforms", no_sampling)
    with pytest.raises(ValueError, match="expects no hard cores"):
        block_variance(TailFamily.hard_core(0.2), 1.0, 1.0, L=10, n_replica=60, seed=1)


def test_block_variance_refuses_one_replica_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an environment")

    monkeypatch.setattr(environments, "site_uniforms", no_sampling)
    with pytest.raises(ValueError, match="n_replica must be an integer >= 2, got 1"):
        block_variance(TailFamily.weibull(2.0), 0.0, 1.0, L=3, n_replica=1, seed=1)


def test_correlation_profile_all_killed_raises():
    with pytest.raises(ValueError, match="all replicas were killed"):
        correlation_profile(TailFamily.hard_core(0.999), 1.0, 1.0, [1], 2, 3)


def test_block_variance_log_scale_restores_the_box_sum_variance():
    # each replica's box sum (2L + 1) m^L from its own environment, read
    # by empirical_average
    fam, kappa, t, L, n_replica, seed = TailFamily.weibull(2.0), 1.0, 1.0, 20, 40, 36
    rep = block_variance(fam, kappa, t, L, n_replica, seed)
    R = rep.dependence_radius
    sums = [
        (2 * L + 1) * math.exp(empirical_average(sample_environment(fam, 1, L + R, derive_seed(seed, "env", i)),
                                                 L, kappa, t, tol=1e-4))
        for i in range(n_replica)
    ]
    assert rep.var_direct == pytest.approx(0.675, abs=1e-3)
    assert rep.var_direct * math.exp(rep.log_scale) == pytest.approx(np.var(sums, ddof=1), rel=1e-9)


def test_block_variance_reconstruction_band():
    rep = block_variance(TailFamily.weibull(2.0), 1.0, 1.0, L=120, n_replica=400, seed=621)
    assert rep.dependence_radius == 13
    assert 0.8 <= rep.ratio <= 1.25


def _hex(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "family, n_replica, stack_sites",
    [
        (TailFamily.weibull(2.0), 50, None),
        (TailFamily.hard_core(0.2), 101, None),  # killed replicas carry weight 0
        (TailFamily.weibull(2.0), 1200, None),  # ten blocks of at most 109 rows
        (TailFamily.weibull(2.0), 101, 100),  # n_replica above _STACK_SITES: blocks of one row
    ],
)
def test_blocked_bootstrap_keeps_the_one_draw_bits(monkeypatch, family, n_replica, stack_sites):
    if stack_sites is not None:
        monkeypatch.setattr(moments, "_STACK_SITES", stack_sites)
    kappa, t, theta, seed = 1.0, 1.0, 0.5, 23
    logs = _replica_log_moments(family, kappa, t, n_replica, seed)

    h1 = estimate_H1(family, kappa, t, n_replica, seed)
    _, lo, hi = reference_bootstrap(logs, seed, (1.0,), lambda peak, m: np.log(m) + peak)
    assert _hex(h1.value, h1.ci_lo, h1.ci_hi) == _hex(_log_mean(logs), lo, hi)

    def gap(peak, m1, mq):
        return ((np.log(mq) + (1.0 + theta) * peak) - (1.0 + theta) * (np.log(m1) + peak)) / theta

    ft = estimate_F_theta(family, theta, kappa, t, n_replica, seed)
    ref = reference_bootstrap(logs, seed, (1.0, 1.0 + theta), gap)
    assert _hex(ft.value, ft.ci_lo, ft.ci_hi) == _hex(*ref)


def test_f_theta_bootstrap_memory_does_not_grow_with_replicas():
    # one (1000, 4000) index draw and its gather held 61.2 MiB; the blocks hold 1 MiB each
    _, peak = traced_peak(estimate_F_theta, TailFamily.weibull(2.0), 0.5, 1.0, 1.0, n_replica=4000, seed=3)
    assert peak <= 10 * 2**20, peak / 2**20
