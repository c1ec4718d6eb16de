"""End-to-end acceptance battery.

Each numbered test exercises one release criterion at its stated
tolerance and time budget; the terminal summary prints one PASS/FAIL
line per criterion.  Failing assertions carry the measured values so a
red line documents what was actually observed.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from helpers import make_env_1d
from pamlab import regimes
from pamlab.analytics import (
    critical_a,
    cumulant_H,
    cumulant_exponent_G,
    rate_I,
    transition_exponents,
)
from pamlab.cli import main as cli_main
from pamlab.environments import TailFamily, sample_environment, with_branch_cap
from pamlab.feynman_kac import exit_tail_mc, fk_estimate
from pamlab.moments import estimate_H1
from pamlab.particles import population_ensemble
from pamlab.regimes import (
    RegimeConfig,
    ScheduleOverflowError,
    ScheduleRule,
    clt_experiment,
    critical_experiment,
    lln_experiment,
    schedule_L,
)
from pamlab.seeding import derive_seed
from pamlab.solver import BoxDomain, solve_truncated
from pamlab.spectral import verify_sandwich

WEIBULL2 = TailFamily.weibull(2.0)

ALL_FAMILIES = (
    TailFamily.weibull(2.0),
    TailFamily.double_exp(1.0),
    TailFamily.squared_double_exp(),
    TailFamily.frechet(1.0),
    TailFamily.hard_core(0.25),
)

_ELAPSED8 = {}


def test_criterion_01_three_way_oracle():
    # Direct solve, path sampling, and particle counting must agree
    # pairwise within 3 joint standard errors on 20 random instances.
    t0 = time.perf_counter()
    t, kappa = 2.0, 1.0
    for i in range(20):
        env = with_branch_cap(
            sample_environment(WEIBULL2, 1, 4, derive_seed(20260101, "acc1-env", i)), 5.0
        )
        box = BoxDomain(env, (0,), 4)
        field = solve_truncated(env, box, kappa, t)
        man, off = field.value_at((0,))
        m_solver = man * math.exp(off)

        est = fk_estimate(env, (0,), kappa, t, 10**5, derive_seed(20260101, "acc1-fk", i))
        m_fk = math.exp(est.log_value)
        se_fk = m_fk * est.stderr_log

        sample = population_ensemble(
            env, (0,), kappa, t, 10**4, derive_seed(20260101, "acc1-p", i)
        )
        m_part = sample.mean()
        se_part = sample.stderr()

        assert abs(m_solver - m_fk) <= 3.0 * se_fk, (
            f"instance {i}: solver {m_solver:.4f} vs paths {m_fk:.4f} (se {se_fk:.4f})"
        )
        assert abs(m_solver - m_part) <= 3.0 * se_part, (
            f"instance {i}: solver {m_solver:.4f} vs particles {m_part:.4f} (se {se_part:.4f})"
        )
        joint = math.hypot(se_fk, se_part)
        assert abs(m_fk - m_part) <= 3.0 * joint, (
            f"instance {i}: paths {m_fk:.4f} vs particles {m_part:.4f} (joint se {joint:.4f})"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"three-way agreement took {elapsed:.1f} s"


def test_criterion_02_zero_diffusion_and_dirichlet_oracle():
    # kappa = 0 must reproduce e^{v t} sitewise to 1e-12.
    for fam, seed in ((WEIBULL2, 3), (TailFamily.hard_core(0.3), 4)):
        env = sample_environment(fam, 1, 6, seed)
        box = BoxDomain(env, (0,), 6)
        field = solve_truncated(env, box, 0.0, 1.7)
        logs = field.log_values()
        active = box.active_mask()
        vt = box.potential() * 1.7
        rel = np.abs(np.expm1(logs[active] - vt))
        assert rel.max() <= 1e-12
        assert np.all(np.isneginf(logs[~active]))
    env2 = sample_environment(WEIBULL2, 2, 2, 9)
    box2 = BoxDomain(env2, (0, 0), 2)
    field2 = solve_truncated(env2, box2, 0.0, 2.4)
    rel2 = np.abs(np.expm1(field2.log_values() - box2.potential() * 2.4))
    assert rel2.max() <= 1e-12

    # Three-site chains with Dirichlet walls against a dense matrix
    # exponential computed from scratch.
    kappa, t = 0.7, 1.3
    cases = [
        (np.array([0.4, 2.1, -0.6]), np.array([False, False, False])),
        (np.array([1.5, 0.2, 0.9]), np.array([True, False, False])),
        (np.array([-0.3, 1.1, 0.5]), np.array([False, False, True])),
    ]
    for v, hard in cases:
        env = make_env_1d(v, hardcore=hard)
        box = BoxDomain(env, (0,), 1)
        field = solve_truncated(env, box, kappa, t)
        active = np.nonzero(~hard)[0]
        n = len(active)
        A = np.zeros((n, n))
        for a, i in enumerate(active):
            A[a, a] = v[i] - 2.0 * kappa
            for b, j in enumerate(active):
                if abs(int(i) - int(j)) == 1:
                    A[a, b] = kappa
        oracle = scipy.linalg.expm(A * t) @ np.ones(n)
        got = np.exp(field.log_values()[~hard])
        assert np.max(np.abs(got / oracle - 1.0)) <= 1e-10


def test_criterion_03_spectral_sandwich():
    t0 = time.perf_counter()
    times = (0.5, 1.0, 2.0)
    kappas = (0.2, 0.7, 1.3, 2.0)
    checked = 0
    for i in range(100):
        fam = ALL_FAMILIES[i % 5]
        t = times[i % 3]
        kappa = kappas[i % 4]
        if i % 7 == 0:
            dim, radius = 2, 3
        else:
            dim, radius = 1, 5 + (i % 27)
        env = sample_environment(fam, dim, radius, derive_seed(777, "acc3", i))
        box = BoxDomain(env, (0,) * dim, radius)
        rep = verify_sandwich(env, box, kappa, t)
        assert rep.lower_margin > 0.0, f"instance {i}: lower margin {rep.lower_margin:.3e}"
        assert rep.upper_margin > 0.0, f"instance {i}: upper margin {rep.upper_margin:.3e}"
        assert rep.n_active <= 64
        checked += 1
    assert checked == 100
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0, f"sandwich sweep took {elapsed:.1f} s"


def test_criterion_04_exit_bound():
    t0 = time.perf_counter()
    rows = exit_tail_mc(1.0, 10**5, derive_seed(41, "acc4"))
    assert len(rows) == 25
    for row in rows:
        assert row.ok, (
            f"R={row.radius} t={row.t}: upper {row.upper:.3e} exceeds bound {row.bound:.3e}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"exit grid took {elapsed:.1f} s"


def test_criterion_05_annealed_sandwich():
    # The replica estimate of the annealed growth must overlap the
    # [H(t) - 2 d kappa t, H(t)] corridor once widened by its own CI.
    kappa = 1.0
    for ti, t in enumerate((1.0, 2.0, 3.0)):
        est = estimate_H1(WEIBULL2, kappa, t, 2000, derive_seed(52, "acc5", ti))
        upper = cumulant_H(WEIBULL2, t)
        lower = upper - 2.0 * kappa * t
        assert est.ci_lo <= upper + 1e-9, (
            f"t={t}: CI [{est.ci_lo:.4f}, {est.ci_hi:.4f}] sits above H = {upper:.4f}"
        )
        assert est.ci_hi >= lower - 1e-9, (
            f"t={t}: CI [{est.ci_lo:.4f}, {est.ci_hi:.4f}] sits below H - 2 kappa t = {lower:.4f}"
        )


def test_criterion_06_exponent_exactness():
    tbl_w = transition_exponents(WEIBULL2, 1)
    assert abs(tbl_w.gamma1 - 1.0) <= 1e-12
    assert abs(tbl_w.gamma2 - 4.0) <= 1e-12
    tbl_d = transition_exponents(TailFamily.double_exp(1.0), 1)
    assert abs(tbl_d.gamma1 - 1.0) <= 1e-12
    assert abs(tbl_d.gamma2 - 2.0) <= 1e-12
    tbl_f = transition_exponents(TailFamily.frechet(1.0), 1)
    assert abs(tbl_f.gamma1 - 0.04) <= 1e-12
    assert abs(tbl_f.gamma2 - 2**0.96 * 0.04) <= 1e-12

    assert abs(critical_a(WEIBULL2, tbl_w.gamma1) - 1.0) <= 1e-12
    assert abs(critical_a(TailFamily.frechet(1.0), tbl_f.gamma1) - 1.0) <= 1e-12

    # Two published readings of the Weibull gamma_2 disagree; the
    # package uses the per-family derivation 2^{rho/(rho-1)} gamma_1,
    # not the shorthand 2^{1-gamma_1} gamma_1.
    shorthand = 2 ** (1.0 - tbl_w.gamma1) * tbl_w.gamma1
    derived = 2 ** (2.0 / (2.0 - 1.0)) * tbl_w.gamma1
    assert abs(tbl_w.gamma2 - derived) <= 1e-12
    assert abs(shorthand - tbl_w.gamma2) > 1.0


def test_criterion_07_convexity_properties():
    grid = np.linspace(0.25, 5.0, 20)
    for fam in ALL_FAMILIES:
        cache = {}

        def H(u, fam=fam, cache=cache):
            key = round(float(u), 12)
            if key not in cache:
                cache[key] = cumulant_H(fam, float(u))
            return cache[key]

        for s, t in itertools.product(grid, grid):
            slack = 1e-9 * max(1.0, abs(H(s)) + abs(H(t)))
            assert H(s + t) >= H(s) + H(t) - slack, (
                f"{fam.kind}: H({s + t:.2f}) < H({s:.2f}) + H({t:.2f})"
            )
        for theta in np.linspace(0.1, 1.0, 10):
            for t in (0.5, 1.0, 2.0, 4.0):
                g = cumulant_exponent_G(fam, float(theta), t)
                assert g >= -1e-9, f"{fam.kind}: G({theta:.1f}, {t}) = {g:.3e}"

    # rate function = Legendre transform of cosh - 1, checked against a
    # direct numeric maximization of y l - cosh(l) + 1.
    for y in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        res = scipy.optimize.minimize_scalar(
            lambda lam: -(y * lam - math.cosh(lam) + 1.0),
            bounds=(0.0, math.asinh(max(y, 1.0)) + 5.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        found = -res.fun
        assert found <= rate_I(y) + 1e-12
        assert rate_I(y) - found <= 1e-10


def test_criterion_08a_annealed_tracking():
    # gamma = 2 gamma_1 at t = 3: at least 95% of 200 box averages
    # within 5% of the annealed growth.
    t0 = time.perf_counter()
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=2.0),
        t_grid=(3.0,), n_replica=200, seed=8801,
    )
    v = lln_experiment(config)[0]
    _ELAPSED8["a"] = time.perf_counter() - t0
    assert v.L == 2560
    assert v.frac_in_band >= 0.95, (
        f"measured fraction within the 5% band: {v.frac_in_band:.3f} (L={v.L})"
    )


def test_criterion_08b_subannealed_separation():
    # gamma = 0.5 gamma_1: the criterion asks for at least 95% of the
    # box averages below half the annealed value.
    t0 = time.perf_counter()
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=0.5),
        t_grid=(3.0,), n_replica=200, seed=8802,
    )
    v = lln_experiment(config)[0]
    _ELAPSED8["b"] = time.perf_counter() - t0
    assert v.L == 8
    assert v.frac_below_half >= 0.95, (
        f"measured fraction below half the annealed value: {v.frac_below_half:.3f} "
        f"(L={v.L}, ratio quantiles q10={v.ratio_q10:.3f} q50={v.ratio_q50:.3f} "
        f"q90={v.ratio_q90:.3f})"
    )


def test_criterion_08c_gaussian_gates():
    # gamma = 1.5 gamma_2 = 6.  At t = 3 the schedule needs L around
    # 1.6e10 sites, beyond any memory budget, so the gate runs at t = 2
    # where L = 929102; the t = 3 refusal is asserted explicitly.
    t0 = time.perf_counter()
    with pytest.raises(ScheduleOverflowError):
        schedule_L(ScheduleRule(kind="gamma-j", gamma=6.0), 3.0, WEIBULL2, d=1)
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=6.0),
        t_grid=(2.0,), n_replica=2000, seed=8803,
    )
    v = clt_experiment(config)[0]
    _ELAPSED8["c"] = time.perf_counter() - t0
    assert v.L == 929102
    assert abs(v.skew) <= 0.2, f"measured skewness {v.skew:.3f}"
    assert abs(v.exkurt) <= 0.5, f"measured excess kurtosis {v.exkurt:.3f}"
    assert v.ks_p >= 0.01, f"measured KS p-value {v.ks_p:.3f}"
    assert v.classification == "gaussian"


def test_criterion_08d_degenerate_window():
    # gamma strictly between gamma_1 and gamma_2 / 2: the centered
    # statistic collapses, median size well below the 0.1 gate.
    t0 = time.perf_counter()
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=1.5),
        t_grid=(3.0,), n_replica=200, seed=8804,
    )
    v = clt_experiment(config)[0]
    _ELAPSED8["d"] = time.perf_counter() - t0
    assert v.median_abs_statistic <= 0.1, (
        f"measured median statistic {v.median_abs_statistic:.4f} (L={v.L})"
    )
    assert v.classification == "non-gaussian"
    total = sum(_ELAPSED8.values())
    assert total <= 300.0, f"regime battery took {total:.1f} s"


def test_criterion_09a_critical_upper_bound():
    # gamma = 0.5, delta = +0.1: the criterion asks for at least 95% of
    # 500 box averages below the normalizer at a(gamma) + delta.
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=0.5),
        t_grid=(3.0,), n_replica=500, seed=9901,
    )
    v = critical_experiment(config, 0.5, 0.1)[0]
    assert v.frac_below >= 0.95, (
        f"measured fraction below the delta = +0.1 normalizer: {v.frac_below:.3f} "
        f"(L={v.L}, a={v.a_gamma:.4f}, log normalizer {v.log_normalizer:.3f})"
    )


def test_criterion_09b_critical_sharpness():
    # delta = -0.3 flips the bound: fewer than half may sit below it.
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="gamma-j", gamma=0.5),
        t_grid=(3.0,), n_replica=500, seed=9901,
    )
    v = critical_experiment(config, 0.5, -0.3)[0]
    assert v.frac_below < 0.5, (
        f"measured fraction below the delta = -0.3 normalizer: {v.frac_below:.3f}"
    )


def test_criterion_10_thread_determinism(tmp_path, monkeypatch):
    """Outputs do not depend on the worker count.

    The particle engine runs in one process, so its half is a rerun
    check.  The regime half draws its kappa = 0 blocks once in process
    and once on the fork pool (regimes._POOL_MIN_SITES patched to 0),
    which needs two or more CPUs.
    """
    argv = [
        "particles", "family=weibull", "rho=2", "radius=4", "kappa=1",
        "t=1", "n_runs=300", "seed=12",
    ]
    rc1 = cli_main(argv + ["--out", str(tmp_path / "one")])
    rc2 = cli_main(argv + ["--out", str(tmp_path / "two")])
    assert rc1 == 0 and rc2 == 0
    with open(tmp_path / "one" / "particles.csv", "rb") as fh:
        first = fh.read()
    with open(tmp_path / "two" / "particles.csv", "rb") as fh:
        second = fh.read()
    assert first == second

    argv = [
        "regime", "family=weibull", "rho=2", "t_grid=2,3", "mode=lln",
        "rule=gamma-j", "gamma=1.2", "n_replica=150", "seed=77",
    ]
    rc3 = cli_main(argv + ["--out", str(tmp_path / "in_process")])
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the draw pool needs two or more CPUs")
    monkeypatch.setattr(regimes, "_POOL_MIN_SITES", 0)
    rc4 = cli_main(argv + ["--out", str(tmp_path / "pool")])
    assert {rc3, rc4} <= {0, 1}
    with open(tmp_path / "in_process" / "regime.csv", "rb") as fh:
        third = fh.read()
    with open(tmp_path / "pool" / "regime.csv", "rb") as fh:
        fourth = fh.read()
    assert third == fourth
    assert rc3 == rc4
