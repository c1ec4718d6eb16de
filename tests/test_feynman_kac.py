import math
import re
from unittest import mock

import numpy as np
import pytest

from helpers import make_env, make_env_1d, reference_fk_moments, reference_fk_path_log_weights, traced_peak
from pamlab import feynman_kac
from pamlab.environments import TailFamily, sample_environment
from pamlab.feynman_kac import exit_tail_mc, fk_estimate, fk_path_log_weights, wilson_interval
from pamlab.solver import BoxDomain, solve_truncated


def solver_log_value(env, box, kappa, t):
    fld = solve_truncated(env, box, kappa, t)
    man, off = fld.value_at(tuple(box.center))
    return math.log(man) + off if man > 0 else -math.inf


def test_kappa_zero_is_exact_with_no_error_bar():
    env = make_env_1d([0.2, -0.4, 1.3])
    est = fk_estimate(env, (1,), kappa=0.0, t=2.0, n_paths=100, seed=1)
    assert est.log_value == pytest.approx(2.6, abs=1e-12)
    assert est.stderr_log == 0.0
    assert est.n_killed == 0


def test_start_on_hardcore_kills_everything():
    hard = np.array([False, True, False])
    env = make_env_1d([0.0, 0.0, 0.0], hardcore=hard)
    est = fk_estimate(env, (0,), kappa=1.0, t=1.0, n_paths=500, seed=2)
    assert est.all_killed
    assert est.log_value == -math.inf
    assert est.n_killed == 500


def test_time_zero_weight_is_one():
    env = make_env_1d([0.5, 0.7, 0.9])
    est = fk_estimate(env, (0,), kappa=1.0, t=0.0, n_paths=50, seed=3)
    assert est.log_value == pytest.approx(0.0, abs=1e-12)


def test_box_survival_matches_dirichlet_heat_kernel():
    # v = 0, so the estimate is the probability of staying in the box
    env = make_env_1d(np.zeros(21))
    box = BoxDomain(env, (0,), 3)
    expected = solver_log_value(env, box, kappa=1.0, t=1.0)
    est = fk_estimate(env, (0,), 1.0, 1.0, n_paths=40000, seed=4, box=box)
    assert abs(est.log_value - expected) <= 3.0 * est.stderr_log


def test_hardcore_ring_forces_exponential_holding_cost():
    hard = np.array([False, True, False, True, False])
    env = make_env_1d(np.zeros(5), hardcore=hard)
    t = 1.25
    est = fk_estimate(env, (0,), 1.0, t, n_paths=60000, seed=5)
    # survival means no jump before t, so m = e^{-2 kappa t}
    assert abs(est.log_value - (-2.0 * t)) <= 3.0 * est.stderr_log
    p_surv = 1.0 - est.n_killed / est.n_paths
    se = math.sqrt(p_surv * (1 - p_surv) / est.n_paths)
    assert abs(p_surv - math.exp(-2.0 * t)) <= 4.0 * se


def test_agrees_with_solver_across_families():
    cases = [
        (TailFamily.weibull(2.0), 21),
        (TailFamily.double_exp(1.0), 22),
        (TailFamily.frechet(2.0), 23),
        (TailFamily.hard_core(0.2), 24),
    ]
    for fam, seed in cases:
        env = sample_environment(fam, 1, 8, seed=seed)
        box = BoxDomain(env, (0,), 8)
        if env.hardcore[env.flat_index(np.array([0]))]:
            continue
        expected = solver_log_value(env, box, kappa=1.0, t=1.0)
        est = fk_estimate(env, (0,), 1.0, 1.0, n_paths=30000, seed=seed, box=box)
        gap = abs(est.log_value - expected)
        assert gap <= 3.5 * est.stderr_log + 1e-3, (fam.kind, gap, est.stderr_log)


def test_agrees_with_solver_in_two_dimensions():
    rng = np.random.default_rng(8)
    env = make_env(rng.normal(0, 0.8, size=(9, 9)))
    box = BoxDomain(env, (0, 0), 4)
    expected = solver_log_value(env, box, kappa=0.6, t=1.0)
    est = fk_estimate(env, (0, 0), 0.6, 1.0, n_paths=30000, seed=9, box=box)
    assert abs(est.log_value - expected) <= 3.5 * est.stderr_log + 1e-3


def test_pathwise_monotone_in_box_size():
    env = sample_environment(TailFamily.weibull(2.0), 1, 12, seed=31)
    small = fk_path_log_weights(env, (0,), 1.0, 1.5, 4000, seed=77, box=BoxDomain(env, (0,), 3))
    big = fk_path_log_weights(env, (0,), 1.0, 1.5, 4000, seed=77, box=BoxDomain(env, (0,), 9))
    killed_small = np.isinf(small)
    killed_big = np.isinf(big)
    # enlarging the box can only save paths
    assert not np.any(killed_big & ~killed_small)
    both = ~killed_small
    assert np.allclose(small[both], big[both], atol=1e-12)
    assert killed_small.sum() > killed_big.sum()


def test_estimates_are_deterministic_in_the_seed():
    env = sample_environment(TailFamily.double_exp(1.0), 1, 6, seed=3)
    a = fk_estimate(env, (0,), 1.0, 1.0, n_paths=5000, seed=11)
    b = fk_estimate(env, (0,), 1.0, 1.0, n_paths=5000, seed=11)
    c = fk_estimate(env, (0,), 1.0, 1.0, n_paths=5000, seed=12)
    assert a.log_value == b.log_value and a.stderr_log == b.stderr_log
    assert a.log_value != c.log_value


def test_start_outside_box_rejected():
    env = make_env_1d(np.zeros(9))
    with pytest.raises(ValueError):
        fk_path_log_weights(env, (4,), 1.0, 1.0, 10, seed=0, box=BoxDomain(env, (0,), 2))
    # the killing grid is cut from the box's own environment, so it must be env
    with pytest.raises(ValueError, match="BoxDomain of env"):
        fk_path_log_weights(env, (0,), 1.0, 1.0, 10, seed=0, box=BoxDomain(make_env_1d(np.ones(9)), (0,), 2))


@pytest.mark.parametrize(
    "kwargs, bad",
    [({"n_paths": 0}, "n_paths"), ({"t": math.nan}, "t"), ({"kappa": math.inf}, "kappa"), ({"x": (0, 0)}, "x")],
    ids=["no_paths", "t_nan", "kappa_inf", "x_wrong_dim"],
)
def test_bad_inputs_raise(kwargs, bad):
    env = make_env_1d(np.zeros(9))
    args = {"x": (0,), "kappa": 1.0, "t": 1.0, "n_paths": 100, **kwargs}
    with pytest.raises(ValueError, match=f"^{bad} must"):
        fk_path_log_weights(env, args["x"], args["kappa"], args["t"], args["n_paths"], seed=0)
    with pytest.raises(ValueError, match=f"^{bad} must"):
        fk_estimate(env, args["x"], args["kappa"], args["t"], args["n_paths"], seed=0)


def _oracle_case(name):
    """(env, x, kappa, t, n_paths, box) for one bit-identity case."""
    if name == "d1_whole_window":
        env = sample_environment(TailFamily.double_exp(1.0), 1, 10, seed=41)
        return env, (0,), 1.0, 1.5, 20000, None
    if name == "d2_offcentre_box_hardcores":
        env = sample_environment(TailFamily.hard_core(0.15), 2, 6, seed=42)
        box = BoxDomain(env, (1, -2), 4)
        assert not env.hardcore[env.flat_index(np.array([2, -1]))] and not box.live.all()
        return env, (2, -1), 0.8, 1.5, 12000, box
    if name == "d3_weibull":
        env = sample_environment(TailFamily.weibull(2.0), 3, 4, seed=43)
        return env, (1, 0, -1), 1.0, 1.0, 10000, BoxDomain(env, (0, 0, 0), 3)
    if name == "start_on_hardcore":
        env = sample_environment(TailFamily.hard_core(0.3), 2, 4, seed=44)
        x = tuple(int(c) for c in env.coords()[np.nonzero(env.hardcore)[0][0]])
        return env, x, 1.0, 1.0, 3000, None
    if name == "no_jump":
        env = sample_environment(TailFamily.weibull(2.0), 1, 5, seed=45)
        return env, (2,), 1.0, 1e-12, 5000, None
    env = sample_environment(TailFamily.frechet(2.0), 1, 6, seed=46)
    return env, (0,), 1.0, 2.0, 8192 + 17, BoxDomain(env, (0,), 4)


@pytest.mark.parametrize(
    "name",
    ["d1_whole_window", "d2_offcentre_box_hardcores", "d3_weibull", "start_on_hardcore", "no_jump", "tail_chunk"],
)
def test_path_weights_match_reference_loop_bit_for_bit(name):
    env, x, kappa, t, n_paths, box = _oracle_case(name)
    got = fk_path_log_weights(env, x, kappa, t, n_paths, seed=90, box=box)
    want = reference_fk_path_log_weights(env, x, kappa, t, n_paths, seed=90, box=box)
    assert np.array_equal(got, want)
    killed = np.isinf(want)
    if name == "start_on_hardcore":
        assert killed.all()
    elif name == "no_jump":
        assert np.all(got == got[0]) and not killed.any()
    elif name != "d1_whole_window":
        assert 0 < killed.sum() < n_paths


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(50, 100)
    assert np.isclose(lo, 0.4038, atol=2e-4)
    assert np.isclose(hi, 0.5962, atol=2e-4)
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_exit_tail_bound_holds_on_grid():
    rows = exit_tail_mc(1.0, n_paths=20000, seed=6)
    assert len(rows) == 25
    for row in rows:
        assert row.ok, (row.radius, row.t, row.upper, row.bound)


def test_exit_tail_one_jump_probability():
    rows = exit_tail_mc(1.0, n_paths=50000, seed=15, radii=(1,), times=(0.5, 2.0))
    for row in rows:
        expected = 1.0 - math.exp(-2.0 * row.t)
        se = math.sqrt(expected * (1 - expected) / 50000)
        assert abs(row.p_hat - expected) <= 4.0 * se


def test_exit_tail_decreasing_in_radius():
    rows = exit_tail_mc(1.0, n_paths=20000, seed=16, times=(2.0,))
    ps = [row.p_hat for row in rows]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("radius", [1.5, 0, -2, math.nan])
def test_exit_tail_radii_must_be_lattice_integers(radius):
    # radii=(1.5,) once wrote a row of radius 1 whose p_hat counted |max| >= 2
    with mock.patch.object(feynman_kac, "generator", side_effect=AssertionError("drew paths")):
        with pytest.raises(ValueError, match=re.escape(f"radius must be an integer >= 1, got {radius!r}")):
            exit_tail_mc(1.0, 100, 1, radii=(2, radius))


_DOUBLE_EXP = TailFamily.double_exp(1.0)


@pytest.mark.parametrize(
    "case, x, kappa, t, n_paths",
    [
        ("some killed", (0,), 1.0, 1.5, 5000),
        ("all killed", (2,), 1.0, 1.0, 300),
        ("one path", (0,), 1.0, 1.5, 1),
        ("two paths", (0,), 1.0, 1.5, 2),
        ("1e5 paths", (0,), 1.0, 1.5, 100_000),
        ("kappa 0", (0,), 0.0, 1.5, 7),
    ],
)
def test_fk_estimate_in_place_keeps_the_bits_of_the_copying_formula(case, x, kappa, t, n_paths):
    # a double_exp window of radius 6 with a hard core at x = 2 (the start of "all killed")
    env = sample_environment(_DOUBLE_EXP, 1, 6, 5)
    hard = env.hardcore.copy()
    hard[env.flat_index((2,))] = True
    env = make_env_1d(env.v_plus - env.v_minus, hardcore=hard)
    logw = fk_path_log_weights(env, x, kappa, t, n_paths, seed=13)
    est = fk_estimate(env, x, kappa, t, n_paths, seed=13)
    assert est.n_killed == int(np.isinf(logw).sum())
    if case == "some killed":
        assert 0 < est.n_killed < n_paths
    if case == "all killed":
        assert est.all_killed
    assert [float(v).hex() for v in (est.log_value, est.stderr_log)] == [
        float(v).hex() for v in reference_fk_moments(logw)
    ]


def test_fk_estimate_holds_one_weight_per_path():
    # the copying formula held three 8-byte copies of the weights: 22.9 MiB at 1e6 paths
    env = sample_environment(_DOUBLE_EXP, 1, 1, 5)
    n_paths = 1_000_000
    est, peak = traced_peak(fk_estimate, env, (0,), 0.1, 0.1, n_paths, seed=4)
    assert 0 < est.n_killed < n_paths
    assert peak <= 8 * n_paths + 2 * 2**20, peak / 2**20
