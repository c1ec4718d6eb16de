import math
from unittest import mock

import numpy as np
import pytest

from helpers import make_env, make_env_1d
from pamlab import spectral
from pamlab.environments import TailFamily, sample_environment
from pamlab.solver import BoxDomain, SolverError, solve_truncated
from pamlab.spectral import _top_ritz, principal_eigen, verify_sandwich


def test_singleton_eigenvalue_is_potential_minus_two_d_kappa():
    env = make_env_1d([0.0, 0.7, 0.0])
    slice_ = principal_eigen(env, BoxDomain(env, (0,), 0), kappa=1.0)
    assert np.isclose(slice_.lambda0, 0.7 - 2.0, atol=1e-12)


def test_path_graph_spectrum_closed_form():
    n = 15
    env = make_env_1d(np.zeros(n))
    slice_ = principal_eigen(env, BoxDomain(env, (0,), (n - 1) // 2), kappa=1.0)
    expected = -2.0 + 2.0 * math.cos(math.pi / (n + 1))
    assert np.isclose(slice_.lambda0, expected, atol=1e-10)


def test_constant_potential_shifts_spectrum():
    n = 11
    env = make_env_1d(np.full(n, 0.7))
    slice_ = principal_eigen(env, BoxDomain(env, (0,), 5), kappa=0.3)
    expected = 0.7 + 0.3 * (-2.0 + 2.0 * math.cos(math.pi / (n + 1)))
    assert np.isclose(slice_.lambda0, expected, atol=1e-10)


def test_principal_vector_nonnegative_unit_and_small_residual():
    families = [
        TailFamily.weibull(2.0),
        TailFamily.double_exp(1.0),
        TailFamily.frechet(1.5),
        TailFamily.hard_core(0.3),
    ]
    for i, fam in enumerate(families):
        for seed in range(4):
            env = sample_environment(fam, 1, 12, seed=100 * i + seed)
            if env.hardcore.all():
                continue
            slice_ = principal_eigen(env, BoxDomain(env, (0,), 12), kappa=1.0)
            assert slice_.psi0.min() >= -1e-10
            assert np.isclose(np.linalg.norm(slice_.psi0), 1.0, atol=1e-10)
            assert slice_.psi0.sum() > 0
            assert slice_.residual <= 1e-9
            # Gershgorin: lambda0 never exceeds the largest potential value
            vmax = (env.v_plus - env.v_minus).max()
            assert slice_.lambda0 <= vmax + 1e-10


def test_power_iteration_path_on_large_box():
    env = sample_environment(TailFamily.weibull(1.5), 1, 2500, seed=12)
    slice_ = principal_eigen(env, BoxDomain(env, (0,), 2500), kappa=1.0)
    assert slice_.method == "lanczos"
    assert slice_.residual <= 1e-10
    vmax = (env.v_plus - env.v_minus).max()
    # trial vector at the peak site gives lambda0 >= vmax - 2 d kappa
    assert vmax - 2.0 - 1e-9 <= slice_.lambda0 <= vmax + 1e-9
    assert slice_.psi0.min() >= -1e-8


def test_large_box_with_near_degenerate_top_pair():
    # lambda0 - lambda1 is about 3.7e-4 here, so a shifted power
    # iteration would need some 6e5 steps to reach a 1e-10 residual
    env = sample_environment(TailFamily.weibull(2.0), 2, 32, seed=57)
    box = BoxDomain(env, (0, 0), 32)
    assert box.n_active > 4000
    slice_ = principal_eigen(env, box, kappa=1.0)
    assert slice_.method == "lanczos"
    vmax = (env.v_plus - env.v_minus).max()
    assert vmax - 4.0 - 1e-9 <= slice_.lambda0 <= vmax + 1e-9
    assert slice_.residual <= 1e-10
    assert slice_.psi0.min() >= 0.0


def test_lambda0_monotone_in_domain():
    env = sample_environment(TailFamily.weibull(2.0), 1, 20, seed=44)
    values = []
    for radius in (3, 6, 12, 20):
        values.append(principal_eigen(env, BoxDomain(env, (0,), radius), 1.0).lambda0)
    assert np.all(np.diff(values) >= -1e-12)


def test_disconnected_active_set_takes_component_maximum():
    v = np.array([0.3, 1.1, -0.2, 0.0, 0.8, 0.2, 0.9])
    hard = np.zeros(7, dtype=bool)
    hard[3] = True
    env = make_env_1d(v, hardcore=hard)
    whole = principal_eigen(env, BoxDomain(env, (0,), 3), kappa=0.7)
    left = principal_eigen(env, BoxDomain(env, (-2,), 1), kappa=0.7)
    right = principal_eigen(env, BoxDomain(env, (2,), 1), kappa=0.7)
    assert np.isclose(whole.lambda0, max(left.lambda0, right.lambda0), atol=1e-12)


def test_empty_active_set_raises():
    env = make_env_1d(np.zeros(3), hardcore=np.ones(3, dtype=bool))
    with pytest.raises(SolverError):
        principal_eigen(env, BoxDomain(env, (0,), 1), kappa=1.0)


def test_spectral_refuses_a_box_of_another_environment():
    a = make_env_1d(np.linspace(0.0, 1.0, 9))
    b = make_env_1d(np.linspace(1.0, 0.0, 9))
    for box in (BoxDomain(b, (0,), 3), (0,)):
        with pytest.raises(ValueError, match="box must be a BoxDomain of env"):
            principal_eigen(a, box, kappa=1.0)
        with pytest.raises(ValueError, match="box must be a BoxDomain of env"):
            verify_sandwich(a, box, 1.0, 1.0)


def test_growth_rate_approaches_lambda0():
    kept = 0
    for seed in range(10):
        env = sample_environment(TailFamily.weibull(1.2), 1, 10, seed=seed)
        box = BoxDomain(env, (0,), 10)
        lam0 = principal_eigen(env, box, kappa=1.0).lambda0
        gap = lam0 - float(np.linalg.eigvalsh(box.operator_dense(1.0))[-2])
        if lam0 < 0.5 or gap < 0.05:
            continue
        kept += 1
        t = 200.0
        fld = solve_truncated(env, box, 1.0, t)
        est = fld.log_total() / t
        assert abs(est / lam0 - 1.0) <= 0.02, seed
    assert kept >= 3


def test_sandwich_margins_nonnegative_across_instances():
    families = [
        TailFamily.weibull(2.0),
        TailFamily.double_exp(1.5),
        TailFamily.squared_double_exp(),
        TailFamily.frechet(1.0),
        TailFamily.hard_core(0.25),
    ]
    checked = 0
    for i, fam in enumerate(families):
        for seed in range(6):
            env = sample_environment(fam, 1, 14, seed=7000 + 31 * i + seed)
            if env.hardcore.all():
                continue
            for t in (0.5, 1.0, 2.0):
                rep = verify_sandwich(env, BoxDomain(env, (0,), 14), 1.0, t)
                assert rep.passed, (fam.kind, seed, t)
                assert rep.lower_margin >= -1e-9
                assert rep.upper_margin >= -1e-9
                checked += 1
    assert checked >= 80


def test_sandwich_in_two_dimensions():
    env = sample_environment(TailFamily.double_exp(1.0), 2, 5, seed=9)
    rep = verify_sandwich(env, BoxDomain(env, (0, 0), 5), 0.8, 1.5)
    assert rep.passed
    assert rep.n_active == 121


def test_sandwich_at_time_zero_reduces_to_counting():
    env = make_env_1d(np.zeros(9))
    rep = verify_sandwich(env, BoxDomain(env, (0,), 4), 1.0, 0.0)
    assert np.isclose(rep.lower_margin, math.log(9), atol=1e-12)
    assert np.isclose(rep.upper_margin, 0.5 * math.log(9), atol=1e-12)


def test_psi0_zero_on_hardcore_sites():
    hard = np.zeros(9, dtype=bool)
    hard[1] = hard[6] = True
    env = make_env_1d(np.linspace(-0.5, 0.5, 9), hardcore=hard)
    slice_ = principal_eigen(env, BoxDomain(env, (0,), 4), kappa=0.5)
    assert np.all(slice_.psi0[hard] == 0.0)


def test_bad_kappa_is_refused_before_any_matrix(monkeypatch):
    def no_matrix(self, kappa):
        raise AssertionError("operator built before the kappa check")

    monkeypatch.setattr(BoxDomain, "operator_dense", no_matrix)
    env = sample_environment(TailFamily.weibull(2.0), 1, 6, seed=1)
    box = BoxDomain(env, (0,), 6)
    for kappa in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"kappa must be finite and >= 0, got {kappa}"):
            principal_eigen(env, box, kappa)


def test_sandwich_refuses_a_bad_t_before_any_matrix(monkeypatch):
    # once a dense eigendecomposition of the whole box ran first
    def no_matrix(self, kappa):
        raise AssertionError("operator built before the t check")

    monkeypatch.setattr(BoxDomain, "operator_dense", no_matrix)
    env = sample_environment(TailFamily.weibull(2.0), 1, 6, seed=1)
    box = BoxDomain(env, (0,), 6)
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match=f"t must be finite and >= 0, got {t}"):
            verify_sandwich(env, box, 1.0, t)


def test_top_ritz_counts_copies_once_and_skips_spurious_values():
    # the top value 2 has two copies, split by rounding; it counts once
    value, bound, s = _top_ritz([2.0, 0.0, 2.0], [1e-20, 1e-20, 0.5])
    assert value == pytest.approx(2.0, abs=1e-15)
    assert bound < 0.5 and s.shape == (3,)
    # 5 is also an eigenvalue of T without its first row and column: spurious
    value, _, _ = _top_ritz([0.0, 5.0], [1e-20, 0.1])
    assert abs(value) < 1e-15


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("radius", [2, 8])
def test_principal_eigen_refuses_a_bad_tol_before_any_matrix(tol, radius):
    # nan once failed on the Lanczos box with numpy's unnamed float-to-integer error, and a dense box took -1
    env = sample_environment(TailFamily.weibull(2.0), 3, radius, 1)
    box = BoxDomain(env, (0, 0, 0), radius)
    with mock.patch.object(BoxDomain, "operator_dense", side_effect=AssertionError("built a matrix")), \
            mock.patch.object(spectral, "_lanczos", side_effect=AssertionError("ran Lanczos")):
        with pytest.raises(ValueError, match=f"tol must be finite and > 0, got {tol}"):
            principal_eigen(env, box, 1.0, tol=tol)
