import math

import numpy as np
import pytest

from helpers import make_env, make_env_1d, reference_population_ensemble, traced_peak
from pamlab.environments import TailFamily, sample_environment, with_branch_cap
from pamlab.feynman_kac import fk_path_log_weights
from pamlab.particles import population_ensemble
from pamlab.seeding import derive_seed
from pamlab.solver import BoxDomain, solve_truncated


def solver_value(env, kappa, t, x=None):
    if x is None:
        x = (0,) * env.dim
    fld = solve_truncated(env, BoxDomain(env, x, env.radius - max(abs(c) for c in x)), kappa, t)
    man, off = fld.value_at(x)
    return man * math.exp(off)


def test_killing_grid_encodes_axes_and_signs():
    hard = np.array([False, False, True, False, False])
    env = make_env_1d(np.zeros(5), hardcore=hard)
    box = BoxDomain(env, (0,), 2)
    _, ok, steps = box.killing_grid()
    at = box.grid_index
    # site x=-1: the +1 step hits the hard core, the -1 step reaches x=-2
    assert not ok[at((-1,)) + steps[0]]
    assert at((-1,)) + steps[1] == at((-2,)) and ok[at((-2,))]
    # window edge kills outward moves
    assert not ok[at((2,)) + steps[0]]
    assert not ok[at((-2,)) + steps[1]]


def test_walkers_share_their_start():
    # the particle engine and the path sampler read x through one BoxDomain.grid_index
    hard = np.array([False, False, True, False, False])
    env = make_env_1d(np.zeros(5), hardcore=hard)
    for walk in (fk_path_log_weights, population_ensemble):
        with pytest.raises(ValueError, match=r"x = \(3,\) lies outside the box of radius 2 at \(0,\)"):
            walk(env, (3,), 1.0, 1.0, 10, 1)
    # both kill at once on the same hard-core start
    assert np.all(fk_path_log_weights(env, (0,), 1.0, 1.0, 10, 1) == -math.inf)
    sample = population_ensemble(env, (0,), 1.0, 1.0, 10, 1)
    assert np.all(sample.counts == 0) and np.all(sample.n_boundary_kill == 1)
    assert not (sample.n_branch.any() or sample.n_death.any())


def test_static_environment_has_no_events():
    env = make_env_1d(np.zeros(3))
    run = population_ensemble(env, (0,), kappa=0.0, t=5.0, n_runs=1, seed=1)
    assert run.counts[0] == 1
    assert run.n_branch[0] == run.n_death[0] == run.n_boundary_kill[0] == 0
    assert run.accounting_consistent().all()


def test_time_zero_keeps_single_particle():
    env = make_env_1d(np.ones(3))
    sample = population_ensemble(env, (0,), 1.0, 0.0, n_runs=50, seed=2)
    assert np.all(sample.counts == 1)


def test_hardcore_start_is_empty():
    hard = np.array([False, True, False])
    env = make_env_1d(np.zeros(3), hardcore=hard)
    run = population_ensemble(env, (0,), 1.0, 1.0, n_runs=1, seed=3)
    assert run.counts[0] == 0
    assert run.n_boundary_kill[0] == 1 and run.accounting_consistent().all()
    sample = population_ensemble(env, (0,), 1.0, 1.0, n_runs=20, seed=3)
    assert np.all(sample.counts == 0)
    assert np.all(sample.n_boundary_kill == 1) and sample.accounting_consistent().all()


def test_yule_process_mean_and_extinction_free_growth():
    # kappa = 0, pure branching at rate 1: zeta is geometric with mean e^t
    env = make_env_1d([0.0, 1.0, 0.0])
    t = 1.0
    sample = population_ensemble(env, (0,), 0.0, t, n_runs=20000, seed=4)
    mean = sample.mean()
    se = sample.stderr()
    assert abs(mean - math.exp(t)) <= 3.5 * se
    # P(zeta = 1) = e^{-t} for the Yule process
    p1 = float((sample.counts == 1).mean())
    expected = math.exp(-t)
    se1 = math.sqrt(expected * (1 - expected) / sample.n_runs)
    assert abs(p1 - expected) <= 4.0 * se1
    assert np.all(sample.counts >= 1)


def test_pure_death_is_bernoulli():
    env = make_env_1d([0.0, -0.8, 0.0])
    t = 1.5
    sample = population_ensemble(env, (0,), 0.0, t, n_runs=20000, seed=5)
    p = math.exp(-0.8 * t)
    se = math.sqrt(p * (1 - p) / sample.n_runs)
    assert set(np.unique(sample.counts)) <= {0, 1}
    assert abs(sample.mean() - p) <= 4.0 * se


def test_single_site_window_dies_at_jump_rate():
    env = make_env_1d([0.0])
    t = 0.7
    sample = population_ensemble(env, (0,), 1.0, t, n_runs=20000, seed=6)
    p = math.exp(-2.0 * t)
    se = math.sqrt(p * (1 - p) / sample.n_runs)
    assert abs(sample.mean() - p) <= 4.0 * se
    run = population_ensemble(env, (0,), 1.0, 20.0, n_runs=1, seed=7)
    assert run.counts[0] == 0
    assert run.n_boundary_kill[0] == 1


def test_accounting_identity_on_random_environments():
    env = sample_environment(TailFamily.double_exp(1.0), 1, 6, seed=11)
    for s in range(30):
        run = population_ensemble(env, (0,), 1.0, 1.0, n_runs=1, seed=s)
        assert run.accounting_consistent().all()


def test_population_mean_tracks_solver_weibull():
    env = with_branch_cap(sample_environment(TailFamily.weibull(2.0), 1, 5, seed=21), 2.0)
    expected = solver_value(env, 1.0, 1.5)
    sample = population_ensemble(env, (0,), 1.0, 1.5, n_runs=6000, seed=22)
    mean, se = sample.mean(), sample.stderr()
    assert abs(mean - expected) <= 3.5 * se


def test_population_mean_tracks_solver_double_exp():
    env = with_branch_cap(sample_environment(TailFamily.double_exp(1.5), 1, 5, seed=31), 2.0)
    expected = solver_value(env, 0.8, 1.2)
    sample = population_ensemble(env, (0,), 0.8, 1.2, n_runs=6000, seed=32)
    mean, se = sample.mean(), sample.stderr()
    assert abs(mean - expected) <= 3.5 * se


def test_population_mean_tracks_solver_two_dim():
    rng = np.random.default_rng(41)
    env = make_env(np.clip(rng.normal(0, 1, size=(7, 7)), -3, 2))
    expected = solver_value(env, 0.5, 1.0)
    sample = population_ensemble(env, (0, 0), 0.5, 1.0, n_runs=6000, seed=42)
    mean, se = sample.mean(), sample.stderr()
    assert abs(mean - expected) <= 3.5 * se


def test_ensemble_reports_per_run_accounting():
    env = sample_environment(TailFamily.double_exp(1.0), 1, 6, seed=11)
    sample = population_ensemble(env, (0,), 1.0, 1.0, n_runs=300, seed=12)
    assert sample.n_branch.shape == sample.n_death.shape == sample.n_boundary_kill.shape == (300,)
    assert np.all(sample.accounting_consistent())
    assert sample.n_branch.sum() > 0
    assert sample.n_death.sum() + sample.n_boundary_kill.sum() > 0


def test_cap_sets_truncated_flag():
    env = make_env_1d([0.0, 3.0, 0.0])
    sample = population_ensemble(env, (0,), 0.0, 4.0, n_runs=40, seed=51, cap=30)
    assert sample.truncated.any()
    assert np.all(sample.counts[sample.truncated] > 30)


def test_runs_are_deterministic_in_seed():
    env = sample_environment(TailFamily.weibull(2.0), 1, 4, seed=61)
    a = population_ensemble(env, (0,), 1.0, 1.0, n_runs=200, seed=62)
    b = population_ensemble(env, (0,), 1.0, 1.0, n_runs=200, seed=62)
    c = population_ensemble(env, (0,), 1.0, 1.0, n_runs=200, seed=63)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_negative_time_rejected():
    env = make_env_1d(np.zeros(3))
    with pytest.raises(ValueError):
        population_ensemble(env, (0,), 1.0, -1.0, n_runs=1, seed=1)


def test_non_finite_kappa_and_t_rejected():
    # a NaN t once stopped every run at once and read mean 1.0
    env = make_env_1d(np.zeros(3))
    for kappa, t, bad in ((math.nan, 1.0, "kappa"), (1.0, math.nan, "t"), (1.0, math.inf, "t")):
        with pytest.raises(ValueError, match=f"{bad} must be finite and >= 0, got"):
            population_ensemble(env, (0,), kappa, t, n_runs=2, seed=1)


def test_cap_below_one_rejected():
    # cap = 0 once flagged every run truncated with count 1
    env = make_env_1d(np.zeros(3))
    for cap in (0, -5):
        with pytest.raises(ValueError, match=f"cap must be an integer >= 1, got {cap}"):
            population_ensemble(env, (0,), 1.0, 1.0, n_runs=2, seed=1, cap=cap)


def test_start_of_wrong_dimension_rejected():
    env = make_env_1d(np.zeros(5))
    with pytest.raises(ValueError, match="x must have 1 coordinates, got 2"):
        population_ensemble(env, (1, 2), 1.0, 1.0, n_runs=10, seed=1)


def test_ensemble_mean_tracks_solver():
    fam = TailFamily.weibull(2.0)
    env = with_branch_cap(sample_environment(fam, 1, 4, 314), 2.0)
    t, kappa = 1.5, 1.0
    batch = population_ensemble(env, (0,), kappa, t, 3000, seed=62)
    exact = solver_value(env, kappa, t)
    assert abs(batch.mean() - exact) < 3.5 * batch.stderr()


def test_ensemble_yule_moments():
    env = make_env_1d(np.array([1.0]))
    t = 1.0
    sample = population_ensemble(env, (0,), 0.0, t, 20000, seed=5)
    se = sample.stderr()
    assert abs(sample.mean() - math.exp(t)) < 3.5 * se
    # Yule survival function: P(N = 1) = e^{-t}
    p1 = float(np.mean(sample.counts == 1))
    sd = math.sqrt(p1 * (1.0 - p1) / sample.n_runs)
    assert abs(p1 - math.exp(-t)) < 4.0 * sd


def test_ensemble_pure_death():
    env = make_env_1d(np.array([-0.8]))
    t = 1.2
    sample = population_ensemble(env, (0,), 0.0, t, 20000, seed=6)
    p_alive = float(np.mean(sample.counts == 1))
    want = math.exp(-0.8 * t)
    sd = math.sqrt(want * (1.0 - want) / sample.n_runs)
    assert abs(p_alive - want) < 4.0 * sd
    assert set(np.unique(sample.counts)) <= {0, 1}


def test_ensemble_edge_cases():
    hard = np.array([False, True, False])
    env = make_env_1d(np.zeros(3), hardcore=hard)
    sample = population_ensemble(env, (0,), 1.0, 2.0, 50, seed=1)
    assert np.all(sample.counts == 0)
    assert np.all(sample.n_boundary_kill == 1) and sample.accounting_consistent().all()

    env = make_env_1d(np.array([3.0]))
    a = population_ensemble(env, (0,), 0.0, 2.0, 200, seed=9)
    b = population_ensemble(env, (0,), 0.0, 2.0, 200, seed=9)
    assert np.array_equal(a.counts, b.counts)

    capped = population_ensemble(env, (0,), 0.0, 6.0, 100, seed=4, cap=20)
    assert capped.truncated.any()
    assert np.all(capped.counts[capped.truncated] > 20)

    with pytest.raises(ValueError):
        population_ensemble(env, (0,), 0.0, -1.0, 10, seed=0)


def _readme_window():
    # `pamlab particles family=weibull rho=2.0 dim=1 radius=5 seed=11`
    return sample_environment(TailFamily.weibull(2.0), 1, 5, derive_seed(11, "env"))


@pytest.mark.parametrize(
    "case, env, kappa, t, n_runs, cap",
    [
        ("1-d", _readme_window(), 0.5, 2.0, 3000, 10**7),
        ("2-d", sample_environment(TailFamily.weibull(2.0), 2, 2, 7), 0.5, 1.0, 2000, 10**7),
        ("hard-core start", make_env_1d([0.4, 0.9, -0.2], hardcore=[False, True, False]), 1.0, 1.0, 50, 10**7),
        ("truncated", make_env_1d([0.0, 3.0, 0.0]), 0.5, 4.0, 400, 30),
    ],
)
def test_buffered_sweep_keeps_the_bits_of_the_copying_sweep(case, env, kappa, t, n_runs, cap):
    x = (0,) * env.dim
    sample = population_ensemble(env, x, kappa, t, n_runs, seed=17, cap=cap)
    if case == "hard-core start":
        assert np.all(sample.n_boundary_kill == 1)
    if case == "truncated":
        assert 0 < sample.truncated.sum() < n_runs
    got = (sample.counts, sample.truncated, sample.n_branch, sample.n_death, sample.n_boundary_kill)
    want = reference_population_ensemble(env, x, kappa, t, n_runs, seed=17, cap=cap)
    for name, a, b in zip(("counts", "truncated", "n_branch", "n_death", "n_boundary_kill"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_ensemble_sweep_reuses_one_buffer():
    # fresh counts * rate, cumsum and all-at-once filtering peaked at 16.4 MiB here
    sample, peak = traced_peak(population_ensemble, _readme_window(), (0,), 0.5, 2.0, 40_000, seed=11)
    assert sample.n_runs == 40_000
    assert peak <= 14 * 2**20, peak / 2**20
