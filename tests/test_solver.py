import itertools
import math
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg

from helpers import (
    make_env,
    make_env_1d,
    padded_with_hardcore,
    reference_box_tile_logs,
    reference_site_log_moments,
    reference_uniformized_sums,
    traced_peak,
)
from pamlab import solver
from pamlab._special import log_factorial
from pamlab.analytics import rate_I
from pamlab.environments import TailFamily, sample_environment, sample_potentials, window_coords
from pamlab.moments import correlation_profile
from pamlab.regimes import RegimeConfig, ScheduleRule, lln_experiment
from pamlab.seeding import derive_seed
from pamlab.solver import (
    BoxDomain,
    SolverError,
    _dense_fields,
    _dense_route,
    _log_mean,
    _normalized_field,
    _poisson_degree,
    _replica_box_logs,
    _replica_site_logs,
    _uniformized_sums,
    empirical_average,
    required_radius,
    site_log_moments,
    solve_truncated,
    solve_untruncated,
    windows_per_call,
)


def expm_oracle(v, kappa, t, dim=1):
    """Reference solution via the dense matrix exponential on a 1-d path.

    Built here from scratch so solver regressions cannot hide in a shared
    code path.
    """
    n = len(v)
    A = np.diag(np.asarray(v, dtype=float) - 2.0 * dim * kappa)
    for i in range(n - 1):
        A[i, i + 1] = kappa
        A[i + 1, i] = kappa
    return scipy.linalg.expm(t * A) @ np.ones(n)


def field_values(fld):
    return fld.mantissa * np.exp(fld.log_offset)


def dense_and_uniformized(box, kappa, t):
    """The same solve by both routes of the kernel, each route function called directly."""
    v, active = box.v[None], box.live[None]
    vmax, vmin = v[active].max(), v[active].min()
    c = np.array([2.0 * box.dim * kappa + vmax - vmin])
    degree = _poisson_degree(c * t)
    dense, lam0t, _ = _dense_fields(v, active, kappa, t, 0)
    summed = _uniformized_sums(v, active, kappa, t, np.array([vmin]), c, degree, 0)
    keep = box.active_mask()
    return {
        "dense-eig": _normalized_field(box, t, kappa, dense[0][keep], lam0t[0], "dense-eig"),
        "uniformization": _normalized_field(box, t, kappa, summed[0][keep], t * vmax, "uniformization"),
    }


def mpmath_log_field(env, kappa, t, dps=40):
    """Per active site log (e^{tA} 1) on the whole window, by mpmath's expm.

    The operator is built from the environment arrays by brute-force
    neighbor search, so it shares no code with BoxDomain.  Returns the
    logs and the active mask, both in window order.
    """
    active = ~env.hardcore
    c = env.coords()[active]
    v = env.v[active]
    adj = np.abs(c[:, None, :] - c[None, :, :]).sum(axis=-1) == 1
    peak = float(v.max())
    n = len(v)
    with mpmath.workdps(dps):
        A = mpmath.matrix(n)
        for i in range(n):
            A[i, i] = t * (mpmath.mpf(v[i]) - 2 * env.dim * kappa - peak)
        for i, j in zip(*np.nonzero(adj)):
            A[int(i), int(j)] = t * mpmath.mpf(kappa)
        E = mpmath.expm(A)
        logs = [float(mpmath.log(mpmath.fsum(E[i, j] for j in range(n)))) for i in range(n)]
    return np.array(logs) + peak * t, active


def test_singleton_site_decays_at_rate_two():
    env = make_env_1d([0.0, 0.0, 0.0])
    fld = solve_truncated(env, BoxDomain(env, (0,), 0), kappa=1.0, t=0.5)
    man, off = fld.value_at((0,))
    assert np.isclose(man * math.exp(off), math.exp(-1.0), rtol=1e-12)


def test_three_site_matches_expm_oracle():
    v = [0.4, -0.3, 1.1]
    env = make_env_1d(v)
    expected = expm_oracle(v, kappa=0.7, t=1.3)
    for method, fld in dense_and_uniformized(BoxDomain(env, (0,), 1), 0.7, 1.3).items():
        got = field_values(fld)
        assert np.allclose(got, expected, rtol=1e-8), method


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(12):
        radius = int(rng.integers(3, 30))
        v = rng.normal(0.0, 1.5, size=2 * radius + 1)
        env = make_env_1d(v)
        t = float(rng.uniform(0.2, 3.0))
        kappa = float(rng.uniform(0.1, 2.0))
        box = BoxDomain(env, (0,), radius)
        routes = dense_and_uniformized(box, kappa, t)
        ra = routes["dense-eig"].log_values()
        rb = routes["uniformization"].log_values()
        keep = ra > ra.max() - 25
        assert np.allclose(ra[keep], rb[keep], atol=1e-7), trial


def test_methods_agree_in_two_dimensions():
    rng = np.random.default_rng(11)
    v = rng.normal(0.0, 1.0, size=(7, 7))
    env = make_env(v)
    routes = dense_and_uniformized(BoxDomain(env, (0, 0), 3), 0.8, 1.0)
    assert np.allclose(routes["dense-eig"].log_values(), routes["uniformization"].log_values(), atol=1e-7)


@pytest.mark.parametrize(
    "family, dim, radius, kappa, t, routes",
    [
        (TailFamily.weibull(2.0), 1, 10, 1.0, 2.0, ("dense-eig", "uniformization")),
        (TailFamily.hard_core(0.3), 1, 12, 1.0, 2.0, ("dense-eig", "uniformization")),
        (TailFamily.double_exp(1.0), 2, 2, 0.7, 1.5, ("dense-eig", "uniformization")),
        # log m spans more than 30 over this box; only uniformization is checked,
        # the dense route's per-site error here is far above 1e-8
        (TailFamily.weibull(2.0), 1, 20, 0.02, 40.0, ("uniformization",)),
    ],
)
def test_routes_match_mpmath_oracle_per_site(family, dim, radius, kappa, t, routes):
    env = sample_environment(family, dim, radius, seed=2)
    box = BoxDomain(env, (0,) * dim, radius)
    assert np.array_equal(box.box_coords(), env.coords())
    ref, active = mpmath_log_field(env, kappa, t)
    if routes == ("uniformization",):
        assert ref.max() - ref.min() >= 30.0
    if family.kind == "hard_core":
        assert not active.all()
    fields = dense_and_uniformized(box, kappa, t)
    for name in routes:
        got = fields[name].log_values()
        assert np.all(np.isneginf(got[~active])), name
        err = float(np.abs(got[active] - ref).max())
        assert err <= 1e-8, (name, err)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_wide_small_box_matches_mpmath_oracle(seed):
    # 41 sites, cheap enough for dense, but log m spans 25 to 37 over the
    # box: dense eigh loses the low sites (|d log m| up to 1.24 on seed 5)
    env = sample_environment(TailFamily.weibull(2.0), 1, 20, seed=seed)
    fld = solve_truncated(env, BoxDomain(env, (0,), 20), 0.02, 40.0)
    ref, _ = mpmath_log_field(env, 0.02, 40.0)
    assert fld.method == "uniformization"
    err = float(np.abs(fld.log_values() - ref).max())
    assert err <= 1e-8, err


@pytest.mark.parametrize(
    "family, dim, radius, method",
    [
        (TailFamily.weibull(2.0), 1, 500, "uniformization"),
        (TailFamily.weibull(2.0), 2, 20, "uniformization"),
        (TailFamily.frechet(1.0), 1, 6, "dense-eig"),
        (TailFamily.hard_core(0.2), 1, 25, "dense-eig"),
    ],
)
def test_route_follows_cost(family, dim, radius, method):
    env = sample_environment(family, dim, radius, seed=3)
    box = BoxDomain(env, (0,) * dim, radius)
    assert solve_truncated(env, box, 1.0, 2.0).method == method


def test_closed_form_cases_report_their_route():
    env = make_env_1d([0.5, -1.0, 2.0])
    box = BoxDomain(env, (0,), 1)
    assert solve_truncated(env, box, 0.0, 1.0).method == "closed-form"
    assert solve_truncated(env, box, 1.0, 0.0).method == "closed-form"


def test_two_dim_cross_checks_expm():
    rng = np.random.default_rng(3)
    v = rng.normal(0.0, 1.0, size=(5, 5))
    env = make_env(v)
    box = BoxDomain(env, (0, 0), 2)
    A = box.operator_dense(0.6)
    expected = scipy.linalg.expm(1.1 * A) @ np.ones(box.n_active)
    fld = solve_truncated(env, box, 0.6, 1.1)
    got = field_values(fld)[box.active_mask()]
    assert np.allclose(got, expected, rtol=1e-9)


def test_kappa_zero_is_exact_sitewise():
    v = np.array([0.5, -2.0, 3.0, 0.0, -0.7])
    hard = np.array([False, False, False, True, False])
    env = make_env_1d(v, hardcore=hard)
    fld = solve_truncated(env, BoxDomain(env, (0,), 2), kappa=0.0, t=2.5)
    vals = field_values(fld)
    expected = np.where(hard, 0.0, np.exp(np.where(hard, 0.0, v) * 2.5))
    assert np.allclose(vals, expected, rtol=1e-12)


def test_time_zero_is_indicator_of_active_set():
    hard = np.array([False, True, False, False, True])
    env = make_env_1d(np.ones(5), hardcore=hard)
    fld = solve_truncated(env, BoxDomain(env, (0,), 2), kappa=1.0, t=0.0)
    assert np.array_equal(fld.mantissa, (~hard).astype(float))
    assert fld.log_offset == 0.0


def test_mantissa_normalization_and_positivity():
    rng = np.random.default_rng(5)
    env = make_env_1d(rng.normal(0, 2, size=41))
    for fld in dense_and_uniformized(BoxDomain(env, (0,), 20), 1.0, 2.0).values():
        assert fld.mantissa.min() >= 0.0
        assert fld.mantissa.max() == 1.0


def test_large_potential_scale_stays_finite():
    # e^{v t} overflows a double; the log offset must absorb it
    v = np.full(9, 800.0)
    env = make_env_1d(v)
    fld = solve_truncated(env, BoxDomain(env, (0,), 4), 1.0, 2.0)
    assert np.all(np.isfinite(fld.mantissa))
    man, off = fld.value_at((0,))
    assert 1595.0 < math.log(man) + off < 1601.0


def test_required_radius_reproduces_pinned_example():
    assert required_radius(1.0, 2.0, 1e-8, d=1) == 25


def test_required_radius_kappa_t_floor():
    # here (kappa t)^(3/2) = 90 dominates the exit-probability rule
    assert required_radius(2.0, 10.0, 1e-6, d=1) == 90


def test_required_radius_degenerate_and_bad_tol():
    assert required_radius(0.0, 5.0, 1e-8) == 0
    assert required_radius(1.0, 0.0, 1e-8) == 0
    for kappa in (1.0, 0.0):  # kappa t = 0 needs no radius, but a bad tol is refused there too
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\), got 2"):
            required_radius(kappa, 1.0, 2.0)


def test_required_radius_bisection_matches_linear_search():
    # the smallest R whose exit bound is below tol^2, searched one site at
    # a time as required_radius did, with the (kappa t)^(3/2) floor
    def linear(kappa, t, tol, d):
        kt = kappa * t
        R = 1
        while 2.0 * kt * rate_I(R / (2.0 * kt)) - 2.0 * d * kt < -2.0 * math.log(tol):
            R += 1
        return max(math.ceil(kt**1.5), R)

    grid = itertools.product((0.05, 0.5, 1.0, 3.0), (0.01, 0.3, 1.0, 4.0, 20.0), (1e-2, 1e-6, 1e-12), (1, 2, 3))
    for kappa, t, tol, d in grid:
        assert required_radius(kappa, t, tol, d) == linear(kappa, t, tol, d), (kappa, t, tol, d)


def test_required_radius_refuses_a_radius_over_1e6_at_once():
    # the first two return the (kappa t)^(3/2) floor, 58,094,751 and
    # 41,569,220; the third needs an exit radius over 1e6
    for kappa, t, tol, d in ((1.0, 1.5e5, 1e-6, 1), (1.0, 1.2e5, 1e-4, 3), (50.0, 2e4, 1e-6, 1)):
        start = time.perf_counter()
        with pytest.raises(SolverError, match="truncation radius exceeds 1e6"):
            required_radius(kappa, t, tol, d)
        assert time.perf_counter() - start < 0.1
    assert required_radius(1.0, 1e4, 1e-6, 1) == 10**6


def test_stack_refuses_a_rate_over_the_degree_limit_before_any_degree(monkeypatch):
    # c t = 2 d kappa t + max v - min v: 2^22 + 1 in the first box, 2 in the second
    v = np.zeros((2, 5))
    v[0, 1] = -(solver._MAX_DEGREE - 1.0)

    def no_degree(lam):
        raise AssertionError("sought a Poisson degree")

    monkeypatch.setattr(solver, "_poisson_degree", no_degree)
    refusal = r"c t = 4\.194e\+06 exceeds 4194304: a box's v runs from min v = -4\.194e\+06 to max v = 0 "
    with pytest.raises(SolverError, match=refusal):
        solver._solve_stack(v, np.ones(v.shape, dtype=bool), 1.0, 1.0, 2, 2)


def test_heavy_negative_tail_refuses_within_seconds():
    # frechet(0.5), kappa = 1, t = 1, L = 20: one replica's box reaches
    # v = -4.6e7; its log-factorial table once grew past 985 MB
    rule = ScheduleRule(kind="explicit", table=((1.0, 20),))
    config = RegimeConfig(TailFamily.frechet(0.5), rule, (1.0,), kappa=1.0, n_replica=100, seed=5)
    start = time.perf_counter()
    with pytest.raises(SolverError, match=r"c t = 4\.627e\+07 exceeds"):
        lln_experiment(config)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("kappa, t, bad", [(-1.0, 1.0, "kappa"), (1.0, -1.0, "t"), (math.nan, 1.0, "kappa"),
                                           (1.0, math.nan, "t"), (1.0, math.inf, "t")])
def test_reader_refuses_bad_kappa_and_t(kappa, t, bad):
    env = make_env_1d(np.zeros(41))
    for read in (lambda: solve_untruncated(env, (0,), kappa, t), lambda: empirical_average(env, 1, kappa, t)):
        with pytest.raises(ValueError, match=f"^{bad} must be finite and >= 0, got"):
            read()


def _read_windows(v, hard, R=1):
    """A site_log_moments read at the middle site of one environment (v, hard)."""
    v = np.asarray(v, dtype=float)
    return lambda: site_log_moments(v[None], np.asarray(hard)[None], [[0] * v.ndim], 1.0, 1.0, R)


@pytest.mark.parametrize(
    "read, refusal",
    [
        (lambda: solve_untruncated(make_env_1d(np.zeros(41)), (0, 0), 1.0, 1.0),
         "sites must have 1 coordinates, got 2"),
        (_read_windows(np.zeros(4), np.zeros(4, dtype=bool), R=0), r"cubes of odd side, got shape \(4,\)"),
        (_read_windows(np.zeros((5, 3)), np.zeros((5, 3), dtype=bool), R=0), r"cubes of odd side, got shape \(5, 3\)"),
        (_read_windows(np.zeros(5), np.zeros(3, dtype=bool)),
         r"hardcore mask must have the shape of the potentials \(1, 5\), got \(1, 3\)"),
        (_read_windows([0.0, 0.0, np.nan, 0.0, 0.0], np.zeros(5, dtype=bool)),
         "finite potentials on active sites, got nan"),
        (_read_windows([0.0, np.inf, 0.0], np.zeros(3, dtype=bool)), "finite potentials on active sites, got inf"),
        (lambda: empirical_average(make_env_1d(np.zeros(41)), -1, 1.0, 1.0), "L must be an integer >= 0, got -1"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [2, -3, -1], 60, 1),
         "lags must be an integer >= 0, got -3"),
    ],
    ids=["site-dim", "even-side", "not-a-cube", "hardcore-shape", "nan-potential", "inf-potential", "negative-L",
         "negative-lag"],
)
def test_reader_refusals_name_their_value(read, refusal):
    with pytest.raises((ValueError, SolverError), match=refusal):
        read()


def test_untruncated_value_grows_with_radius():
    rng = np.random.default_rng(17)
    env = make_env_1d(rng.normal(0, 1, size=81))
    logs = []
    for radius in (2, 4, 8, 16):
        fld = solve_truncated(env, BoxDomain(env, (0,), radius), 1.0, 1.5)
        man, off = fld.value_at((0,))
        logs.append(math.log(man) + off)
    diffs = np.diff(logs)
    assert np.all(diffs >= -1e-12)


def test_untruncated_matches_next_radius_within_tol():
    rng = np.random.default_rng(23)
    env = make_env_1d(rng.normal(0, 1, size=121))
    tol = 1e-6
    a, used = solve_untruncated(env, (0,), 1.0, 1.0, tol=tol)
    bigger = solve_truncated(env, BoxDomain(env, (0,), used + 4), 1.0, 1.0)
    man2, off2 = bigger.value_at((0,))
    b = math.log(man2) + off2
    assert abs(a - b) < tol


def test_untruncated_reports_radius_and_window_shortfall():
    env = make_env_1d(np.zeros(21))
    with pytest.raises(SolverError) as err:
        solve_untruncated(env, (0,), 1.0, 2.0, tol=1e-8)
    assert "25" in str(err.value)
    env2 = make_env_1d(np.zeros(61))
    log_m, used = solve_untruncated(env2, (0,), 1.0, 2.0, tol=1e-8)
    assert used == 25
    assert log_m > -math.inf


def test_untruncated_reads_only_its_site():
    # a peak of 2000 at site 47 puts the window's far end near e^-737 of
    # e^(t v_max), below what a double can hold, while site 0 sits near
    # e^-370; the whole-box solve fails, the one-site read does not
    v = np.zeros(99)
    v[49 + 47] = 2000.0
    env = make_env_1d(v)
    with pytest.raises(SolverError):
        solve_truncated(env, BoxDomain(env, (0,), 49), 1.0, 8.0)
    log_m, used = solve_untruncated(env, (0,), 1.0, 8.0)
    assert used == 49 and log_m > -math.inf
    # a box [-21, 49] drops the far end; paths from 0 that reach -21 and
    # come back to the peak weigh about e^-300 of m(0), so m(0) agrees
    near = solve_truncated(env, BoxDomain(env, (14,), 35), 1.0, 8.0)
    m2, o2 = near.value_at((0,))
    assert abs(log_m - (math.log(m2) + o2)) < 1e-10
    assert log_m < 16000.0 - 300.0


def test_untruncated_kappa_zero_and_hardcore():
    hard = np.zeros(5, dtype=bool)
    hard[2] = True
    env = make_env_1d([0.3, 0.4, 0.0, -0.2, 0.9], hardcore=hard)
    log_m, used = solve_untruncated(env, (0,), 0.0, 3.0)
    assert log_m == -math.inf and used == 0
    log_m, used = solve_untruncated(env, (1,), 0.0, 3.0)
    assert np.isclose(math.exp(log_m), math.exp(-0.6), rtol=1e-12)


def test_dirichlet_padding_leaves_solution_unchanged():
    rng = np.random.default_rng(31)
    env = make_env_1d(rng.normal(0, 1, size=31))
    padded = padded_with_hardcore(env, 4)
    inner = solve_truncated(env, BoxDomain(env, (0,), 15), 0.9, 1.7)
    outer = solve_truncated(padded, BoxDomain(padded, (0,), 19), 0.9, 1.7)
    for x in range(-15, 16):
        a_man, a_off = inner.value_at((x,))
        b_man, b_off = outer.value_at((x,))
        va = math.log(a_man) + a_off if a_man > 0 else -math.inf
        vb = math.log(b_man) + b_off if b_man > 0 else -math.inf
        assert np.isclose(va, vb, atol=1e-12)


def test_box_domain_validation():
    env = make_env_1d(np.zeros(9))
    with pytest.raises(ValueError):
        BoxDomain(env, (3,), 2)
    with pytest.raises(ValueError):
        BoxDomain(env, (0, 0), 1)
    with pytest.raises(ValueError):
        BoxDomain(env, (0,), -1)


def test_value_at_outside_box_raises():
    env = make_env_1d(np.zeros(9))
    fld = solve_truncated(env, BoxDomain(env, (0,), 2), 1.0, 0.5)
    with pytest.raises(IndexError, match=r"^coord = \(3,\) lies outside the box of radius 2 at \(0,\)$"):
        fld.value_at((3,))


def test_value_at_refuses_wrong_dimension():
    env = make_env(np.zeros((5, 5)))
    fld = solve_truncated(env, BoxDomain(env, (0, 0), 2), 1.0, 0.5)
    with pytest.raises(ValueError, match="coord must have 2 coordinates, got 1"):
        fld.value_at((0,))
    with pytest.raises(ValueError, match="coord must have 2 coordinates, got 3"):
        fld.value_at((0, 0, 0))


def test_solve_refuses_a_box_of_another_environment():
    # the box carries its own potentials, so a box of b would solve b
    a = make_env_1d(np.linspace(0.0, 1.0, 9))
    b = make_env_1d(np.linspace(1.0, 0.0, 9))
    for box in (BoxDomain(b, (0,), 3), (0,)):
        with pytest.raises(ValueError, match="box must be a BoxDomain of env"):
            solve_truncated(a, box, 1.0, 1.0)


@pytest.mark.parametrize("dim, radius, center, box_radius", [(1, 6, (2,), 3), (2, 4, (1, -2), 2), (3, 3, (-1, 0, 1), 1)])
def test_box_cut_matches_coordinates(dim, radius, center, box_radius):
    # an off-centre box with hard cores, cut from the window by slicing,
    # against the same box gathered site by site through flat_index
    env = sample_environment(TailFamily.hard_core(0.3), dim, radius, seed=8)
    box = BoxDomain(env, center, box_radius)
    idx = env.flat_index(box.box_coords())
    live = ~env.hardcore[idx]
    assert live.any() and not live.all()
    np.testing.assert_array_equal(box.active_mask(), live)
    np.testing.assert_array_equal(box.potential(), env.v[idx[live]])
    assert box.n_active == live.sum()
    pot, ok, steps = box.killing_grid()
    inner = (slice(1, -1),) * dim
    np.testing.assert_array_equal(ok.reshape((box.side + 2,) * dim)[inner].ravel(), live)
    np.testing.assert_array_equal(pot.reshape((box.side + 2,) * dim)[inner].ravel()[live], box.potential())
    assert not pot[~ok].any()
    # the whole window's moves, one shifted coordinate at a time: direction j
    # adds steps[j] to the grid index, and kills off the window or on a hard core
    whole = BoxDomain(env, (0,) * dim, radius)
    _, ok, steps = whole.killing_grid()
    for j in range(2 * dim):
        for x in env.coords():
            y = x.copy()
            y[j >> 1] += 1 - 2 * (j & 1)
            target = whole.grid_index(x) + steps[j]
            alive = np.abs(y).max() <= radius and not env.hardcore[env.flat_index(y)]
            assert ok[target] == alive
            if alive:
                assert target == whole.grid_index(y)
    with pytest.raises(ValueError, match="lies outside the box"):
        box.grid_index(np.asarray(center) + box_radius + 1)


def test_batched_windows_match_per_site_solves():
    # the reference is scipy's expm of BoxDomain.operator_dense, which is
    # built from neighbor pairs and shares no code with the kernel's stencil
    rng = np.random.default_rng(41)
    for dim, side in ((1, 11), (2, 5)):
        windows = rng.normal(0, 1, size=(60,) + (side,) * dim)
        no_hard = np.zeros(windows.shape, dtype=bool)
        got = _center_logs(windows, no_hard, 0.8, 1.4)
        assert not _dense_routed(windows, no_hard, 0.8, 1.4).all()
        for i in range(len(windows)):
            box = BoxDomain(make_env(windows[i]), (0,) * dim, side // 2)
            m = scipy.linalg.expm(1.4 * box.operator_dense(0.8)) @ np.ones(box.n_active)
            assert np.isclose(got[i], math.log(m[box.n_active // 2]), atol=1e-10), (dim, i)


def test_lone_window_has_the_bits_of_the_same_window_in_a_batch():
    # a window's route once followed the number of windows in its solve:
    # alone, the cost rule sent it to dense eigh, which agrees only to 1e-8
    env = sample_environment(TailFamily.weibull(2.0), 1, 40, 3)
    log, R = solve_untruncated(env, (5,), 1.0, 1.0, tol=1e-6)
    batch = site_log_moments(*env.stack(), np.arange(-20, 21), 1.0, 1.0, R)
    assert batch[0, 25] == log


def test_split_stack_matches_one_stack(monkeypatch):
    # a stack split into many calls gives the logs of one call, bit for bit
    for dim, radius in ((1, 30), (2, 4)):
        v, hard = _window_stack(TailFamily.hard_core(0.3), range(40), radius=radius, dim=dim)
        whole = _center_logs(v, hard, 1.0, 1.0)
        monkeypatch.setattr(solver, "_STACK_SITES", 3 * v[0].size)
        assert windows_per_call(v[0].size) == 3
        np.testing.assert_array_equal(_center_logs(v, hard, 1.0, 1.0), whole)
        monkeypatch.undo()
        assert np.isinf(whole).any() and np.isfinite(whole).sum() > 20


@pytest.mark.parametrize("n_env, n_sites, per_call", [(7, 9, 10), (3, 5, 4), (40, 1, 7), (5, 3, 14)])
def test_buffers_of_a_read_differ_by_at_most_one_window(monkeypatch, n_env, n_sites, per_call):
    # weibull has no hard cores, so every window of a buffer reaches the kernel
    v, hard = _window_stack(TailFamily.weibull(2.0), range(n_env), radius=6)
    sizes = []
    solve = solver._solve_stack

    def spy(v, active, kappa, t, margin, n_rows):
        sizes.append(len(v))
        return solve(v, active, kappa, t, margin, n_rows)

    monkeypatch.setattr(solver, "_STACK_SITES", 3 * per_call)
    monkeypatch.setattr(solver, "_solve_stack", spy)
    logs = site_log_moments(v, hard, np.arange(n_sites) - n_sites // 2, 1.0, 1.0, 1)
    total = n_env * n_sites
    assert np.isfinite(logs).all() and logs.shape == (n_env, n_sites)
    assert sum(sizes) == total and len(sizes) == math.ceil(total / per_call) > 1
    assert max(sizes) - min(sizes) <= 1, sizes


def _center_logs(v, hard, kappa, t):
    """log m at the center of each window of a stack, read with the windows as environments."""
    return site_log_moments(v, hard, [[0] * (v.ndim - 1)], kappa, t, v.shape[1] // 2)[:, 0]


def _window_stack(family, seeds, radius=5, dim=1):
    side = (2 * radius + 1,) * dim
    envs = [sample_environment(family, dim, radius, seed=s) for s in seeds]
    return np.stack([e.v.reshape(side) for e in envs]), np.stack(
        [e.hardcore.reshape(side) for e in envs]
    )


def _dense_routed(v, hard, kappa, t):
    """Per window, whether the kernel's cost rule sends it to dense eigh."""
    act = ~hard
    axes = tuple(range(1, v.ndim))
    v = np.where(act, v, 0.0)
    spread = np.max(v, axis=axes, where=act, initial=-np.inf) - np.min(v, axis=axes, where=act, initial=np.inf)
    degree = _poisson_degree((2.0 * len(axes) * kappa + spread) * t)
    return _dense_route(v[0].size, degree, windows_per_call(v[0].size))


def test_window_kernel_matches_mpmath_oracle():
    hc_v, hc_hard = _window_stack(TailFamily.hard_core(0.3), range(1, 69))
    # a wide spread across hard cores sends this window to the dense route
    wide = np.zeros(11)
    wide[2] = 25.0
    wide_hard = np.zeros(11, dtype=bool)
    wide_hard[[4, 8]] = True
    # the center sits e^45 below the peak at the edge: dense eigh loses
    # it entirely (the batched eigh alone read log m = 0 here, against
    # 35.04), so the kernel must solve it again by uniformization
    deep = np.zeros((1, 11))
    deep[0, -1] = 40.0
    # the cost rule charges every window as one of a full stack, which
    # sends the weibull windows to uniformization and some frechet ones to
    # eigh; the oracle checks the rows listed in `checked` (all rows otherwise)
    cases = {
        "weibull": (*_window_stack(TailFamily.weibull(2.0), range(1, 61)), 1.0, 1.5),
        "hard_core": (np.vstack([hc_v, wide]), np.vstack([hc_hard, wide_hard]), 1.0, 2.0),
        "frechet": (*_window_stack(TailFamily.frechet(1.0), range(1, 13)), 1.0, 2.0),
        "deep": (deep, np.zeros((1, 11), dtype=bool), 0.005, 2.0),
        "weibull_2d": (*_window_stack(TailFamily.weibull(2.0), range(1, 21), 2, 2), 1.0, 1.5),
        "hard_core_2d": (*_window_stack(TailFamily.hard_core(0.3), range(1, 31), 2, 2), 1.0, 2.0),
        "frechet_2d": (*_window_stack(TailFamily.frechet(1.0), [10], 2, 2), 1.0, 2.0),
        "weibull_3d": (*_window_stack(TailFamily.weibull(2.0), range(1, 21), 1, 3), 1.0, 1.5),
    }
    checked = {"weibull": range(6), "hard_core": [*range(8), -1], "weibull_2d": range(3), "hard_core_2d": range(4)}
    checked["weibull_3d"] = range(1)
    for name, (v, hard, kappa, t) in cases.items():
        got = _center_logs(v, hard, kappa, t)
        flat = hard.reshape(len(v), -1)
        c = flat.shape[1] // 2
        for row in checked.get(name, range(len(v))):
            if flat[row, c]:
                assert got[row] == -math.inf, name
                continue
            ref, active = mpmath_log_field(make_env(v[row], hardcore=hard[row]), kappa, t)
            ref_c = ref[int(active[:c].sum())]
            assert abs(got[row] - ref_c) <= 1e-10, (name, row, got[row], ref_c)
            if name == "deep":
                assert ref.max() - ref_c > 40.0
    routed = {name: _dense_routed(v, hard, kappa, t) for name, (v, hard, kappa, t) in cases.items()}
    for name in ("weibull", "weibull_2d", "hard_core_2d", "weibull_3d"):
        assert not routed[name].any(), name
    assert hc_hard[:8, 5].sum() >= 2 and not routed["hard_core"][:8].any() and routed["hard_core"][-1]
    assert cases["hard_core_2d"][1][:4, 2, 2].any()
    assert 0 < routed["frechet"].sum() < len(routed["frechet"]) and routed["frechet_2d"].all()
    v2, hard2 = cases["frechet_2d"][:2]
    assert _dense_fields(v2, ~hard2, 1.0, 2.0, 2)[2][0]
    assert routed["deep"].all() and not _dense_fields(deep, ~cases["deep"][1], 0.005, 2.0, 5)[2][0]


def test_empirical_average_kappa_zero():
    v = np.array([0.1, -0.5, 2.0, 0.3, -1.0])
    env = make_env_1d(v)
    log_mL = empirical_average(env, 2, kappa=0.0, t=2.0)
    expected = math.log(np.mean(np.exp(v * 2.0)))
    assert np.isclose(log_mL, expected, rtol=1e-12)


def test_empirical_average_batched_matches_loop():
    # the d = 2 environment has hard cores inside the averaged box
    for family, dim, radius, L in ((TailFamily.weibull(2.0), 1, 40, 3), (TailFamily.hard_core(0.3), 2, 19, 2)):
        env = sample_environment(family, dim, radius, seed=99)
        log_mL = empirical_average(env, L, kappa=1.0, t=1.0, tol=1e-6)
        coords = window_coords(dim, L)
        hard = env.hardcore[env.flat_index(coords)]
        assert hard.any() == (dim == 2)
        R = required_radius(1.0, 1.0, 1e-6, dim)
        logs = []
        for x in coords[~hard]:
            m, o = solve_truncated(env, BoxDomain(env, x, R), 1.0, 1.0).value_at(x)
            logs.append(math.log(m) + o)
        expected = math.log(np.exp(np.array(logs) - max(logs)).sum() / len(coords)) + max(logs)
        assert np.isclose(log_mL, expected, atol=1e-10), dim


def test_empirical_average_with_hardcore_sites():
    fam = TailFamily.hard_core(0.4)
    env = sample_environment(fam, 1, 30, seed=5)
    log_mL = empirical_average(env, 2, kappa=0.5, t=1.0, tol=1e-4)
    assert math.isfinite(log_mL)
    # survival costs mass, so the averaged moment sits below 1
    assert log_mL < 0.0
    # a box that is one hard-core site leaves no window to solve
    lone = make_env_1d(np.zeros(41), hardcore=np.arange(41) == 20)
    assert empirical_average(lone, 0, kappa=0.5, t=1.0, tol=1e-4) == -math.inf


def test_site_log_moments_reads_given_sites_of_each_env():
    # at kappa = 0 a window is its site: t v(x) exactly, -inf on a hard core,
    # for off-center d = 2 sites in the order given
    rng = np.random.default_rng(5)
    grid = rng.normal(0, 1, size=(7, 7))
    hard = np.zeros((7, 7), dtype=bool)
    hard[3 + 2, 3 - 3] = True
    envs = [make_env(grid, hardcore=hard), make_env(-grid)]
    sites = np.array([[0, 0], [2, -3], [-1, 1], [3, 3]])
    v, hard = (np.concatenate(a) for a in zip(*(e.stack() for e in envs)))
    got = site_log_moments(v, hard, sites, 0.0, 1.5, 0)
    idx = envs[0].flat_index(sites)
    want = [np.where(e.hardcore[idx], -np.inf, 1.5 * e.v[idx]) for e in envs]
    np.testing.assert_array_equal(got, want)
    assert got[0, 1] == -np.inf and np.isfinite(got[1]).all()
    with pytest.raises(SolverError, match="need 4"):
        site_log_moments(v, hard, sites, 1.0, 1.0, 1)


@pytest.mark.parametrize("dim", [1, 2])
def test_site_log_moments_of_no_sites_is_empty(dim):
    # once numpy's unnamed "cannot reshape array of size 0"
    v, hard = sample_environment(TailFamily.weibull(2.0), dim, 3, seed=1).stack()
    v, hard = np.concatenate([v, v]), np.concatenate([hard, hard])
    for sites in ([], np.zeros((0, dim))):
        assert site_log_moments(v, hard, sites, 1.0, 1.0, 1).shape == (2, 0)


# Per-site log allowance by which a tile may read below its window.  Dirichlet
# monotonicity puts the tile at or above the window; what is left is rounding
# over K uniformization steps (down to -6.2e-12 on frechet(1), L = 100) and the
# dense route's error, held to _SITE_LOG_TOL (down to -4.7e-11 there).
_TILE_BELOW_WINDOW = 1e-10


def _tile_logs(family, seeds, L, kappa, t, R):
    """The (n, 2L + 1) site logs that _replica_box_logs reads by tiles, before any reduction."""
    return _replica_box_logs(family, seeds, L, kappa, t, R, lambda logs: logs)


def _window_logs(family, seeds, L, kappa, t, R):
    """The windows route to the box logs that _replica_box_logs reads by tiles."""
    return _replica_site_logs(family, seeds, L + R, np.arange(-L, L + 1), kappa, t, R)


def _assert_tiles_match_windows(tiles, windows, tol):
    assert tiles.shape == windows.shape
    np.testing.assert_array_equal(np.isneginf(tiles), np.isneginf(windows))
    live = np.isfinite(windows)
    assert np.isfinite(tiles[live]).all()
    gap = tiles[live] - windows[live]
    assert gap.min(initial=0.0) >= -_TILE_BELOW_WINDOW, gap.min()
    assert gap.max(initial=0.0) <= tol, gap.max()


@pytest.mark.parametrize(
    "family, t",
    [(TailFamily.weibull(2.0), 2.0), (TailFamily.double_exp(1.0), 2.0), (TailFamily.hard_core(0.2), 2.0),
     (TailFamily.frechet(1.0), 1.0)],
)
def test_box_tiles_match_windows_per_site(family, t):
    # 2L + 1 = 91 is not a multiple of w = 2R + 1, so the last tile overlaps the one before it
    R, L = required_radius(1.0, t, 1e-4, 1), 45
    seeds = [derive_seed(9, "tiles", i) for i in range(20)]
    tiles = _tile_logs(family, seeds, L, 1.0, t, R)
    assert (2 * L + 1) % (2 * R + 1) != 0
    _assert_tiles_match_windows(tiles, _window_logs(family, seeds, L, 1.0, t, R), 1e-4)


def _with_hard_cores(monkeypatch, where):
    """Patch the tile reader's sampler to make the sites where(x) hard cores, x the coordinates of a stack."""
    real = solver.sample_potentials

    def sample(family, dim, radius, seeds):
        v, hard = real(family, dim, radius, seeds)
        hard = hard | where(np.arange(-radius, radius + 1))[None, :]
        return np.where(hard, 0.0, v), hard

    monkeypatch.setattr(solver, "sample_potentials", sample)


@pytest.mark.parametrize(
    "L, hard",
    [
        (0, ()),  # one site read
        (2, (-2, 3)),  # 2L + 1 < 2R + 1: one tile is the whole box
        (9, (-11, -3, -2, 4, 5, 11)),  # tiles read -9..-3, -2..4 and 5..9: hard cores on their edges and margins
        (9, (-9, 9)),  # hard cores at both ends of the read range
    ],
)
def test_box_tiles_edges_match_windows(monkeypatch, L, hard):
    kappa, t, tol = 0.1, 0.5, 1e-2
    R = required_radius(kappa, t, tol, 1)
    assert R == 3
    _with_hard_cores(monkeypatch, lambda x: np.isin(x, hard))
    seeds = [derive_seed(4, "tile-edges", i) for i in range(3)]
    tiles = _tile_logs(TailFamily.weibull(2.0), seeds, L, kappa, t, R)
    assert tiles.shape == (3, 2 * L + 1)
    assert np.isneginf(tiles[:, np.isin(np.arange(-L, L + 1), hard)]).all()
    _assert_tiles_match_windows(tiles, _window_logs(TailFamily.weibull(2.0), seeds, L, kappa, t, R), tol)


@pytest.mark.parametrize("margin_live", [True, False])
def test_box_tiles_of_an_all_hard_core_read_range_are_minus_inf(monkeypatch, margin_live):
    L, R = 6, 2
    _with_hard_cores(monkeypatch, lambda x: np.abs(x) <= (L if margin_live else L + R))
    monkeypatch.setattr(solver, "_solve_stack", mock.Mock(side_effect=AssertionError("solved a tile")))
    tiles = _tile_logs(TailFamily.weibull(2.0), [1, 2], L, 1.0, 1.0, R)
    assert tiles.shape == (2, 2 * L + 1) and np.isneginf(tiles).all()


@pytest.mark.parametrize("family, seed", [(TailFamily.weibull(2.0), 3), (TailFamily.hard_core(0.3), 5)])
def test_box_tiles_match_mpmath_on_each_tile(family, seed):
    # L = 3, R = 2: tiles of five read sites at x = -3..1 and, shifted left, -1..3; each
    # read site is the exact Dirichlet solution on its tile plus two sites each side
    L, R, kappa, t = 3, 2, 1.0, 1.5
    got = _tile_logs(family, [seed], L, kappa, t, R)[0]
    env = sample_environment(family, 1, L + R, seed)
    v, hard = (a[0] for a in env.stack())
    for start, read in ((0, range(0, 5)), (2, range(5, 7))):
        box = slice(start, start + 2 * R + 5)
        ref, active = mpmath_log_field(make_env_1d(v[box], hardcore=hard[box]), kappa, t)
        logs = np.full(len(active), -np.inf)
        logs[active] = ref
        for j in read:
            want = logs[R + j - start]
            assert want == got[j] == -np.inf or abs(got[j] - want) <= 1e-10, (j, got[j], want)
    if family.kind == "hard_core":
        assert np.isneginf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize(
    "family, dim, radius, sites, kappa, t, R",
    [
        (TailFamily.weibull(2.0), 1, 30, np.arange(-12, 13), 1.0, 1.0, 13),
        (TailFamily.frechet(1.0), 1, 20, [-3, 0, 7], 1.0, 2.0, 13),  # dense-routed windows
        (TailFamily.hard_core(0.3), 1, 25, np.arange(-9, 10), 0.5, 1.5, 9),
        (TailFamily.hard_core(0.3), 2, 8, window_coords(2, 3), 1.0, 1.0, 5),
        (TailFamily.weibull(2.0), 2, 6, [[0, 0], [2, -3], [-6, 6]], 0.0, 1.5, 0),
    ],
)
def test_block_reader_keeps_the_window_gather_bits(monkeypatch, family, dim, radius, sites, kappa, t, R):
    # windows as blocks of one site give the one-window-per-site gather's logs bit for bit,
    # whole and split into many buffers
    v, hard = sample_potentials(family, dim, radius, range(40, 52))
    v, hard = (a.reshape((12,) + (2 * radius + 1,) * dim) for a in (v, hard))
    for stack_sites in (None, 7 * (2 * R + 1) ** dim):
        if stack_sites is not None:
            monkeypatch.setattr(solver, "_STACK_SITES", stack_sites)
        want = reference_site_log_moments(v, hard, sites, kappa, t, R)
        np.testing.assert_array_equal(site_log_moments(v, hard, sites, kappa, t, R), want)
    assert np.isfinite(want).any()
    assert np.isneginf(want).any() == (family.kind == "hard_core")


@pytest.mark.parametrize(
    "family, L, t",
    [(TailFamily.weibull(2.0), 45, 2.0), (TailFamily.double_exp(1.0), 60, 1.0), (TailFamily.hard_core(0.2), 45, 2.0),
     (TailFamily.frechet(1.0), 30, 1.0), (TailFamily.weibull(2.0), 3, 1.0)],
)
def test_block_reader_keeps_the_tile_values_per_site(family, L, t):
    # tiles as blocks of 2R + 1 sites, read R inside their boxes, give each site the value of the
    # tile solved on every site and cut afterwards, bit for bit
    R = required_radius(1.0, t, 1e-4, 1)
    seeds = [derive_seed(8, "tile-bits", i) for i in range(30)]
    want = reference_box_tile_logs(*sample_potentials(family, 1, L + R, seeds), L, 1.0, t, R)
    np.testing.assert_array_equal(_tile_logs(family, seeds, L, 1.0, t, R), want)


def test_tiles_read_past_a_deep_site_in_their_margin(monkeypatch):
    # beyond L, the last tile's margin holds a site at v = -800 between two hard cores, about e^-800
    # below the tile's peak.  Only the read sites must clear the e^-708 floor and the dense accuracy
    # check; solved on every site, as the tile reader once did, the tile is refused
    kappa, t, tol, L = 0.1, 1.0, 1e-2, 9
    R = required_radius(kappa, t, tol, 1)
    assert R == 4
    real = solver.sample_potentials

    def sample(family, dim, radius, seeds):
        v, hard = real(family, dim, radius, seeds)
        x = np.arange(-radius, radius + 1)
        hard = hard | np.isin(x, (L + 1, L + 3))
        return np.where(x == L + 2, -800.0, np.where(hard, 0.0, v)), hard

    monkeypatch.setattr(solver, "sample_potentials", sample)
    seeds = [derive_seed(6, "deep-margin", i) for i in range(3)]
    tiles = _tile_logs(TailFamily.weibull(2.0), seeds, L, kappa, t, R)
    _assert_tiles_match_windows(tiles, _window_logs(TailFamily.weibull(2.0), seeds, L, kappa, t, R), tol)
    assert np.isfinite(tiles).all()
    with pytest.raises(SolverError, match=r"below e\^-708"):
        reference_box_tile_logs(*sample(TailFamily.weibull(2.0), 1, L + R, seeds), L, kappa, t, R)


def test_box_log_means_do_not_depend_on_the_stack_size():
    # each replica alone, and all in one stack: the same log m^L, bit for bit.  Each replica has
    # 115 tiles, so every solve keeps the uniformization route
    family, kappa, t, L = TailFamily.weibull(2.0), 1.0, 2.0, 2000
    R = required_radius(kappa, t, 1e-4, 1)
    seeds = [derive_seed(5, "stacks", i) for i in range(12)]
    together = _replica_box_logs(family, seeds, L, kappa, t, R, _log_mean)
    alone = [_replica_box_logs(family, [s], L, kappa, t, R, _log_mean)[0] for s in seeds]
    np.testing.assert_array_equal(together, alone)


def _kernel_stack(family, dim, radius, seeds, kappa, t):
    """(v, active, vmin, c, degree) of a stack of sampled boxes, as _solve_stack hands them to the kernel."""
    v, hard = sample_potentials(family, dim, radius, seeds)
    v, active = (a.reshape((len(seeds),) + (2 * radius + 1,) * dim) for a in (v, ~hard))
    axes = tuple(range(1, dim + 1))
    vmin = np.min(v, axis=axes, where=active, initial=np.inf)
    c = 2.0 * dim * kappa + np.max(v, axis=axes, where=active, initial=-np.inf) - vmin
    return v, active, vmin, c, _poisson_degree(c * t)


@pytest.mark.parametrize(
    "family, dim, radius, n_boxes, kappa, t, margin",
    [
        (TailFamily.weibull(2.0), 1, 12, 40, 1.0, 2.0, 0),
        (TailFamily.weibull(2.0), 1, 12, 40, 1.0, 2.0, 12),
        (TailFamily.double_exp(1.0), 2, 5, 25, 0.5, 1.5, 0),
        (TailFamily.weibull(2.0), 2, 5, 25, 1.0, 1.0, 5),
        (TailFamily.hard_core(0.3), 1, 10, 30, 1.0, 2.0, 4),
        (TailFamily.hard_core(0.2), 2, 4, 20, 1.0, 1.0, 2),
        (TailFamily.weibull(2.0), 1, 9, 1, 1.0, 3.0, 0),
        (TailFamily.hard_core(0.2), 2, 4, 1, 1.0, 1.0, 4),
    ],
)
def test_batch_last_kernel_keeps_the_reference_bits(family, dim, radius, n_boxes, kappa, t, margin):
    stack = _kernel_stack(family, dim, radius, [derive_seed(3, "kernel-bits", i) for i in range(n_boxes)], kappa, t)
    v, active = stack[:2]
    got = _uniformized_sums(v, active, kappa, t, *stack[2:], margin)
    np.testing.assert_array_equal(got, reference_uniformized_sums(v, active, kappa, t, *stack[2:], margin))
    assert got.shape == (n_boxes, (2 * (radius - margin) + 1) ** dim)
    assert (got > 0).any() and (~active).any() == (family.kind == "hard_core")


def test_batch_last_kernel_keeps_its_bits_through_repacks(monkeypatch):
    # frechet(1) boxes reach degrees in the hundreds and thousands, weibull(2) ones stay near 30;
    # shuffled together, the live prefix halves at least three times on its way down to the top box
    kappa, t, margin = 1.0, 1.0, 3
    parts = [_kernel_stack(family, 1, 8, [derive_seed(4, family.kind, i) for i in range(24)], kappa, t)
             for family in (TailFamily.frechet(1.0), TailFamily.weibull(2.0))]
    shuffle = np.random.default_rng(2).permutation(48)
    v, active, vmin, c, degree = (np.concatenate(arrays)[shuffle] for arrays in zip(*parts))
    widths = []
    compact = solver._compact

    def spy(a, n):
        widths.append(n)
        return compact(a, n)

    monkeypatch.setattr(solver, "_compact", spy)
    got = _uniformized_sums(v, active, kappa, t, vmin, c, degree, margin)
    np.testing.assert_array_equal(got, reference_uniformized_sums(v, active, kappa, t, vmin, c, degree, margin))
    repacks = sorted(set(widths), reverse=True)
    assert len(repacks) >= 3 and all(2 * b <= a for a, b in zip([48] + repacks, repacks))
    assert degree.max() > 20 * np.median(degree)


def test_batch_last_kernel_adds_no_memory():
    # a (1200, 51) window stack read at its center; the kernel with the box axis first peaked at 3.17 MiB
    kappa, t = 1.0, 3.0
    stack = _kernel_stack(TailFamily.weibull(2.0), 1, 25, np.arange(1200), kappa, t)
    _uniformized_sums(*stack[:2], kappa, t, *stack[2:], 25)  # the log-factorial table, once
    _, peak = traced_peak(_uniformized_sums, *stack[:2], kappa, t, *stack[2:], 25)
    assert peak <= 3.17 * 2**20


def test_log_factorial_table_grows_by_doubling_and_keeps_one(monkeypatch):
    monkeypatch.setattr(solver, "_log_factorial_table", [np.zeros(0)])
    small = solver._log_factorials(100)
    assert len(small) == 128
    large = solver._log_factorials(3000)
    assert len(large) == 4096
    assert solver._log_factorials(10) is large
    assert len(solver._log_factorial_table) == 1 and solver._log_factorial_table[0] is large
    np.testing.assert_array_equal(large, [log_factorial(k) for k in range(4096)])
    np.testing.assert_array_equal(large[:128], small)
    assert not large.flags.writeable
