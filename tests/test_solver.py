import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from helpers import make_env, make_env_1d, padded_with_hardcore
from pamlab import solver
from pamlab.environments import TailFamily, sample_environment, window_coords
from pamlab.solver import (
    BoxDomain,
    SolverError,
    _box_stack,
    _dense_fields,
    _dense_route,
    _normalized_field,
    _poisson_degree,
    _uniformized_sums,
    empirical_average,
    log_center_moment_windows,
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
    v, active = _box_stack(box)
    vmax, vmin = v[active].max(), v[active].min()
    c = np.array([2.0 * box.dim * kappa + vmax - vmin])
    degree = _poisson_degree(c * t)
    dense, lam0t, _ = _dense_fields(v, active, kappa, t, True)
    summed = _uniformized_sums(v, active, kappa, t, np.array([vmin]), c, degree, True)
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
    v = (env.v_plus - env.v_minus)[active]
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
    with pytest.raises(ValueError):
        required_radius(1.0, 1.0, 2.0)


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
    man, off, used = solve_untruncated(env, (0,), 1.0, 1.0, tol=tol)
    bigger = solve_truncated(env, BoxDomain(env, (0,), used + 4), 1.0, 1.0)
    man2, off2 = bigger.value_at((0,))
    a = math.log(man) + off
    b = math.log(man2) + off2
    assert abs(a - b) < tol


def test_untruncated_reports_radius_and_window_shortfall():
    env = make_env_1d(np.zeros(21))
    with pytest.raises(SolverError) as err:
        solve_untruncated(env, (0,), 1.0, 2.0, tol=1e-8)
    assert "25" in str(err.value)
    env2 = make_env_1d(np.zeros(61))
    man, off, used = solve_untruncated(env2, (0,), 1.0, 2.0, tol=1e-8)
    assert used == 25
    assert man > 0


def test_untruncated_reads_only_its_site():
    # a peak of 2000 at site 47 puts the window's far end near e^-737 of
    # e^(t v_max), below what a double can hold, while site 0 sits near
    # e^-370; the whole-box solve fails, the one-site read does not
    v = np.zeros(99)
    v[49 + 47] = 2000.0
    env = make_env_1d(v)
    with pytest.raises(SolverError):
        solve_truncated(env, BoxDomain(env, (0,), 49), 1.0, 8.0)
    man, off, used = solve_untruncated(env, (0,), 1.0, 8.0)
    assert used == 49 and man > 0
    # a box [-21, 49] drops the far end; paths from 0 that reach -21 and
    # come back to the peak weigh about e^-300 of m(0), so m(0) agrees
    near = solve_truncated(env, BoxDomain(env, (14,), 35), 1.0, 8.0)
    m2, o2 = near.value_at((0,))
    assert abs(math.log(man) + off - (math.log(m2) + o2)) < 1e-10
    assert math.log(man) + off < 16000.0 - 300.0


def test_untruncated_kappa_zero_and_hardcore():
    hard = np.zeros(5, dtype=bool)
    hard[2] = True
    env = make_env_1d([0.3, 0.4, 0.0, -0.2, 0.9], hardcore=hard)
    man, off, used = solve_untruncated(env, (0,), 0.0, 3.0)
    assert man == 0.0 and used == 0
    man, off, used = solve_untruncated(env, (1,), 0.0, 3.0)
    assert np.isclose(man * math.exp(off), math.exp(-0.6), rtol=1e-12)


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
    with pytest.raises(IndexError):
        fld.value_at((3,))


def test_batched_windows_match_per_site_solves():
    # the reference is scipy's expm of BoxDomain.operator_dense, which is
    # built from neighbor pairs and shares no code with the kernel's stencil
    rng = np.random.default_rng(41)
    for dim, side in ((1, 11), (2, 5)):
        windows = rng.normal(0, 1, size=(60,) + (side,) * dim)
        got = log_center_moment_windows(windows, 0.8, 1.4)
        assert not _dense_routed(windows, np.zeros(windows.shape, dtype=bool), 0.8, 1.4).all()
        for i in range(len(windows)):
            box = BoxDomain(make_env(windows[i]), (0,) * dim, side // 2)
            m = scipy.linalg.expm(1.4 * box.operator_dense(0.8)) @ np.ones(box.n_active)
            assert np.isclose(got[i], math.log(m[box.n_active // 2]), atol=1e-10), (dim, i)


def test_split_stack_matches_one_stack(monkeypatch):
    # a stack split into many calls gives the logs of one call, bit for bit
    for dim, radius in ((1, 30), (2, 4)):
        v, hard = _window_stack(TailFamily.hard_core(0.3), range(40), radius=radius, dim=dim)
        whole = log_center_moment_windows(v, 1.0, 1.0, hardcore=hard)
        monkeypatch.setattr(solver, "_STACK_SITES", 3 * v[0].size)
        assert windows_per_call(v[0].size) == 3
        np.testing.assert_array_equal(log_center_moment_windows(v, 1.0, 1.0, hardcore=hard), whole)
        monkeypatch.undo()
        assert np.isinf(whole).any() and np.isfinite(whole).sum() > 20


def _window_stack(family, seeds, radius=5, dim=1):
    side = (2 * radius + 1,) * dim
    envs = [sample_environment(family, dim, radius, seed=s) for s in seeds]
    return np.stack([(e.v_plus - e.v_minus).reshape(side) for e in envs]), np.stack(
        [e.hardcore.reshape(side) for e in envs]
    )


def _dense_routed(v, hard, kappa, t):
    """Per window, whether the kernel's cost rule sends it to dense eigh."""
    act = ~hard
    axes = tuple(range(1, v.ndim))
    v = np.where(act, v, 0.0)
    spread = np.max(v, axis=axes, where=act, initial=-np.inf) - np.min(v, axis=axes, where=act, initial=np.inf)
    degree = _poisson_degree((2.0 * len(axes) * kappa + spread) * t)
    n_rows = int(act.reshape(len(v), -1)[:, v[0].size // 2].sum())
    return _dense_route(v[0].size, degree, n_rows)


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
    # stacks are large enough for the cost rule to pick uniformization;
    # the oracle checks the rows listed in `checked` (all rows otherwise)
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
        got = log_center_moment_windows(v, kappa, t, hardcore=hard)
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
    assert routed["frechet"].all() and routed["frechet_2d"].all()
    v2, hard2 = cases["frechet_2d"][:2]
    assert _dense_fields(v2, ~hard2, 1.0, 2.0, False)[2][0]
    assert routed["deep"].all() and not _dense_fields(deep, ~cases["deep"][1], 0.005, 2.0, False)[2][0]


def test_empirical_average_kappa_zero():
    v = np.array([0.1, -0.5, 2.0, 0.3, -1.0])
    env = make_env_1d(v)
    man, off = empirical_average(env, 2, kappa=0.0, t=2.0)
    expected = math.log(np.mean(np.exp(v * 2.0)))
    assert np.isclose(math.log(man) + off, expected, rtol=1e-12)


def test_empirical_average_batched_matches_loop():
    # the d = 2 environment has hard cores inside the averaged box
    for family, dim, radius, L in ((TailFamily.weibull(2.0), 1, 40, 3), (TailFamily.hard_core(0.3), 2, 19, 2)):
        env = sample_environment(family, dim, radius, seed=99)
        man, off = empirical_average(env, L, kappa=1.0, t=1.0, tol=1e-6)
        coords = window_coords(dim, L)
        hard = env.hardcore[env.flat_index(coords)]
        assert hard.any() == (dim == 2)
        R = required_radius(1.0, 1.0, 1e-6, dim)
        logs = []
        for x in coords[~hard]:
            m, o = solve_truncated(env, BoxDomain(env, x, R), 1.0, 1.0).value_at(x)
            logs.append(math.log(m) + o)
        expected = math.log(np.exp(np.array(logs) - max(logs)).sum() / len(coords)) + max(logs)
        assert np.isclose(math.log(man) + off, expected, atol=1e-10), dim


def test_empirical_average_with_hardcore_sites():
    fam = TailFamily.hard_core(0.4)
    env = sample_environment(fam, 1, 30, seed=5)
    man, off = empirical_average(env, 2, kappa=0.5, t=1.0, tol=1e-4)
    assert man > 0
    assert math.isfinite(off)
    # survival costs mass, so the averaged moment sits below 1
    assert math.log(man) + off < 0.0
    # a box that is one hard-core site leaves no window to solve
    lone = make_env_1d(np.zeros(41), hardcore=np.arange(41) == 20)
    assert empirical_average(lone, 0, kappa=0.5, t=1.0, tol=1e-4) == (0.0, 0.0)


def test_site_log_moments_reads_given_sites_of_each_env():
    # at kappa = 0 a window is its site: t v(x) exactly, -inf on a hard core,
    # for off-center d = 2 sites in the order given
    rng = np.random.default_rng(5)
    grid = rng.normal(0, 1, size=(7, 7))
    hard = np.zeros((7, 7), dtype=bool)
    hard[3 + 2, 3 - 3] = True
    envs = [make_env(grid, hardcore=hard), make_env(-grid)]
    sites = np.array([[0, 0], [2, -3], [-1, 1], [3, 3]])
    got = site_log_moments((e.stack() for e in envs), sites, 0.0, 1.5, 0)
    idx = envs[0].flat_index(sites)
    want = [np.where(e.hardcore[idx], -np.inf, 1.5 * (e.v_plus - e.v_minus)[idx]) for e in envs]
    np.testing.assert_array_equal(got, want)
    assert got[0, 1] == -np.inf and np.isfinite(got[1]).all()
    with pytest.raises(SolverError, match="need 4"):
        site_log_moments([e.stack() for e in envs], sites, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="share one dim and radius"):
        site_log_moments([envs[0].stack(), make_env(grid[1:-1, 1:-1]).stack()], [[0, 0]], 1.0, 1.0, 1)
