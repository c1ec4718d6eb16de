import math

import numpy as np
import pytest

from pamlab import moments, solver
from pamlab.analytics import cumulant_H, cumulant_exponent_G
from pamlab.environments import TailFamily, sample_environment
from pamlab.moments import (
    PartitionError,
    _replica_log_moments,
    block_variance,
    build_partitions,
    correlation_profile,
    estimate_F_theta,
    estimate_H1,
    strip_fraction,
    strip_fraction_bound,
)
from pamlab.seeding import derive_seed
from pamlab.solver import BoxDomain, required_radius, solve_truncated


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


def test_partition_pinned_examples():
    plan = build_partitions(5, 3)
    assert plan.q == 3 and plan.qbar == 2
    assert plan.sizes == (4, 4, 3)
    assert plan.starts == (-5, -1, 3)
    with pytest.raises(PartitionError):
        build_partitions(5, 4)
    # block length equal to L still needs two blocks
    plan = build_partitions(7, 7)
    assert plan.q == 2
    assert sorted(plan.sizes) == [7, 8]


def test_partition_sweep_covers_the_box_exactly():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 200:
        L = int(rng.integers(1, 300))
        Lp = int(rng.integers(1, 2 * L + 2))
        try:
            plan = build_partitions(L, Lp)
        except PartitionError:
            continue
        checked += 1
        assert sum(plan.sizes) == 2 * L + 1
        assert plan.sizes.count(Lp + 1) == plan.qbar
        assert set(plan.sizes) <= {Lp, Lp + 1}
        pos = -L
        for start, size in zip(plan.starts, plan.sizes):
            assert start == pos
            pos += size
        assert pos == L + 1


def test_strip_fraction_respects_bound():
    rng = np.random.default_rng(29)
    for _ in range(100):
        L = int(rng.integers(5, 400))
        Lp = int(rng.integers(2, max(3, L)))
        r = int(rng.integers(0, Lp))
        try:
            plan = build_partitions(L, Lp)
        except PartitionError:
            continue
        for dim in (1, 2, 3):
            frac = strip_fraction(plan, r, dim=dim)
            assert 0.0 <= frac <= 1.0
            assert frac <= strip_fraction_bound(Lp, r, dim=dim) + 1e-12


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
    "statistic, args, n_full, n_last, fields",
    [
        pytest.param(
            block_variance, (TailFamily.weibull(2.0), 1.0, 1.0, 20, 60, 5), 61, 20, lambda rep: rep,
            id="block_variance",
        ),
        pytest.param(
            correlation_profile, (TailFamily.weibull(2.0), 1.0, 1.0, [1, 5, 40], 55, 5), 5, 20, _profile_fields,
            id="correlation_profile",
        ),
    ],
)
def test_replica_statistics_split_stacks_match_one_stack(monkeypatch, statistic, args, n_full, n_last, fields):
    # 60 replicas x 41 sites (55 replicas x 4 sites) fit one stack; patched,
    # a stack holds 40 windows and splits replicas.  Far fewer windows per
    # stack would move these 27-site boxes to the dense route, which agrees
    # only to its 1e-8 bound.
    whole = statistic(*args)
    width = 2 * whole.dependence_radius + 1
    sizes = []
    solve = solver.log_center_moment_windows

    def spy(windows, kappa, t, hardcore=None):
        sizes.append(windows.shape)
        return solve(windows, kappa, t, hardcore=hardcore)

    monkeypatch.setattr(solver, "_STACK_SITES", 40 * width)
    monkeypatch.setattr(solver, "log_center_moment_windows", spy)
    assert fields(statistic(*args)) == fields(whole)
    assert sizes == [(40, width)] * n_full + [(n_last, width)]


def test_block_variance_refuses_hard_cores_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an environment")

    monkeypatch.setattr(moments, "sample_environment", no_sampling)
    with pytest.raises(ValueError, match="expects no hard cores"):
        block_variance(TailFamily.hard_core(0.2), 1.0, 1.0, L=10, n_replica=60, seed=1)


def test_block_variance_refuses_one_replica_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an environment")

    monkeypatch.setattr(moments, "sample_environment", no_sampling)
    with pytest.raises(ValueError, match="n_replica >= 2, got 1"):
        block_variance(TailFamily.weibull(2.0), 0.0, 1.0, L=3, n_replica=1, seed=1)


def test_correlation_profile_all_killed_raises():
    with pytest.raises(ValueError, match="all replicas were killed"):
        correlation_profile(TailFamily.hard_core(0.999), 1.0, 1.0, [1], 2, 3)


def test_block_variance_reconstruction_band():
    rep = block_variance(TailFamily.weibull(2.0), 1.0, 1.0, L=120, n_replica=400, seed=621)
    assert rep.dependence_radius == 13
    assert 0.8 <= rep.ratio <= 1.25
