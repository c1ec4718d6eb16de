"""Tests for tail families, quantiles, and environment sampling."""

import math
import re
from unittest import mock

import numpy as np
import pytest

from pamlab.environments import (
    TailFamily,
    effective_potential,
    quantile_array,
    sample_environment,
    sample_potentials,
    survival_from_potential,
    window_coords,
    with_branch_cap,
)
from pamlab import feynman_kac, particles, solver
from pamlab.feynman_kac import fk_estimate
from pamlab.moments import block_variance, correlation_profile, estimate_H1
from pamlab.particles import population_ensemble
from pamlab.seeding import derive_seed, generator, site_uniforms
from pamlab.solver import BoxDomain, empirical_average, solve_truncated, solve_untruncated

ALL_FAMILIES = [
    TailFamily.weibull(2.0),
    TailFamily.double_exp(1.0),
    TailFamily.squared_double_exp(),
    TailFamily.frechet(1.0),
    TailFamily.hard_core(0.3),
]


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        TailFamily.weibull(1.0)
    with pytest.raises(ValueError):
        TailFamily.weibull(0.5)
    with pytest.raises(ValueError):
        TailFamily.double_exp(0.0)
    with pytest.raises(ValueError):
        TailFamily.frechet(-1.0)
    with pytest.raises(ValueError):
        TailFamily.hard_core(0.0)
    with pytest.raises(ValueError):
        TailFamily.hard_core(1.0)
    with pytest.raises(ValueError):
        TailFamily("nope")
    # valid edge parameters construct fine
    TailFamily.weibull(1.0000001)
    TailFamily.hard_core(0.999)


def _quantile(family, u):
    return float(quantile_array(family, [u])[0])


def test_quantile_pinned_values():
    # solving exp(-e^(x/rho)) = 1-u by hand at u = 1-exp(-1) gives x = 0
    assert np.isclose(_quantile(TailFamily.double_exp(1.0), 1 - np.exp(-1)), 0.0, atol=1e-14)
    # e^(-x^2) = e^(-1) gives x = 1
    assert np.isclose(_quantile(TailFamily.weibull(2.0), 1 - np.exp(-1)), 1.0)
    # hard-core atom sits at the lower quantiles
    assert _quantile(TailFamily.hard_core(0.3), 0.2) == -np.inf
    assert _quantile(TailFamily.hard_core(0.3), 0.31) == 0.0
    # frechet is supported on the negatives, squared double exp on [0, inf)
    assert _quantile(TailFamily.frechet(1.0), 0.5) < 0
    sq = TailFamily.squared_double_exp()
    assert _quantile(sq, 0.5) == 0.0  # below the atom boundary 1 - 1/e
    assert _quantile(sq, 0.9) > 0.0


def test_quantile_out_of_range():
    fam = TailFamily.weibull(2.0)
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile_array(fam, u)


def test_quantile_cdf_roundtrip():
    """mu[v <= q(u)] = u to 1e-12 wherever the law is continuous."""
    u = np.linspace(0.005, 0.995, 199)
    cases = [
        (TailFamily.weibull(2.0), u),
        (TailFamily.weibull(3.5), u),
        (TailFamily.double_exp(0.7), u),
        (TailFamily.double_exp(2.0), u),
        (TailFamily.frechet(1.0), u),
        (TailFamily.frechet(0.5), u),
        # continuous above the atom boundary only
        (TailFamily.squared_double_exp(), u[u > 1 - np.exp(-1) + 0.005]),
    ]
    for fam, grid in cases:
        q = quantile_array(fam, grid)
        cdf = 1.0 - np.array([survival_from_potential(fam, x) for x in q])
        np.testing.assert_allclose(cdf, grid, atol=1e-12, rtol=0)


def test_survival_function_against_samples():
    """Empirical tails of 10^6 draws match exp(-h(x)) within 4 binomial SE."""
    n = 10**6
    rng = generator(123456)
    abscissae = {
        "weibull": [0.2, 0.5, 1.0, 1.5, 2.0],
        "double_exp": [-2.0, -1.0, 0.0, 1.0, 3.0],
        "sq_double_exp": [0.1, 0.5, 0.8, 1.2, 1.5],
        "frechet": [-3.0, -2.0, -1.0, -0.5, -0.25],
        "hard_core": [-0.5, -0.1],
    }
    families = [
        TailFamily.weibull(2.0),
        TailFamily.double_exp(1.5),
        TailFamily.squared_double_exp(),
        TailFamily.frechet(1.0),
        TailFamily.hard_core(0.4),
    ]
    for fam in families:
        u = rng.random(n)
        u = np.clip(u, 1e-15, 1 - 1e-15)
        v = quantile_array(fam, u)
        for x in abscissae[fam.kind]:
            p = survival_from_potential(fam, x)
            phat = np.mean(v > x)
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(phat - p) <= 4 * se + 1e-9, (fam.kind, x, phat, p)


def test_sample_environment_deterministic():
    fam = TailFamily.double_exp(1.0)
    a = sample_environment(fam, 2, 6, 99)
    b = sample_environment(fam, 2, 6, 99)
    assert a.v_plus.tobytes() == b.v_plus.tobytes()
    assert a.v_minus.tobytes() == b.v_minus.tobytes()
    assert a.hardcore.tobytes() == b.hardcore.tobytes()
    c = sample_environment(fam, 2, 6, 100)
    assert a.v_plus.tobytes() != c.v_plus.tobytes()


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=TailFamily.label)
@pytest.mark.parametrize("dim, radius", [(1, 30), (2, 5)])
def test_batched_sampler_matches_one_seed_at_a_time(family, dim, radius):
    # seeds on both sides of 2^63 in one list, and both ends of the range
    seeds = [0, 1, 99, 2**63, derive_seed(3, "env", 4), 2**64 - 1]
    v, hard = sample_potentials(family, dim, radius, seeds)
    assert v.shape == hard.shape == (len(seeds), (2 * radius + 1) ** dim)
    for row, seed in enumerate(seeds):
        env = sample_environment(family, dim, radius, seed)
        assert np.array_equal(v[row], env.v)
        assert np.array_equal(hard[row], env.hardcore)
        # and the definition: the family's quantile of each site's uniform
        q = quantile_array(family, site_uniforms(seed, window_coords(dim, radius)))
        assert np.array_equal(hard[row], np.isneginf(q))
        assert np.array_equal(v[row], np.where(hard[row], 0.0, q))
    assert hard.any() == family.has_hardcore_atom


@pytest.mark.parametrize(
    "dim, radius, name, got",
    [(1, 2.5, "radius", 2.5), (1, -1, "radius", -1), (1, float("nan"), "radius", float("nan")),
     (1.5, 2, "dim", 1.5), (0, 2, "dim", 0), (2, "3", "radius", "3")],
)
def test_sampler_refuses_non_integer_sizes(dim, radius, name, got):
    # radius 2.5 once gave an env of radius 2 and 5 sites holding 6 rate values
    fam = TailFamily.weibull(2.0)
    message = re.escape(f"{name} must be an integer >= {int(name == 'dim')}, got {got!r}")
    with pytest.raises(ValueError, match=message):
        sample_environment(fam, dim, radius, 1)
    with pytest.raises(ValueError, match=message):
        sample_potentials(fam, dim, radius, [1, 2])
    env = sample_environment(fam, 1.0, 3.0, 1)
    assert (env.dim, env.radius, env.n_sites, env.v_plus.size) == (1, 3, 7, 7)


@pytest.mark.parametrize("seed", [1.9, math.nan, math.inf, "7"])
def test_seeds_and_indices_must_be_integers(seed):
    # sample_environment(weibull(2), 1, 3, 1.9) once gave seed 1's arrays and recorded seed = 1
    refusal = re.escape(f"seed must be an integer, got {seed!r}")
    calls = [lambda: derive_seed(seed, "x"), lambda: generator(seed), lambda: site_uniforms(seed, [[0]]),
             lambda: site_uniforms([1, seed], [[0]]), lambda: sample_environment(TailFamily.weibull(2.0), 1, 3, seed)]
    for call in calls:
        with pytest.raises(ValueError, match=refusal):
            call()
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer, got {seed!r}")):
        derive_seed(1, "x", seed)


def test_integral_float_seeds_read_as_their_integers():
    assert derive_seed(1.0, "x", 2.0) == derive_seed(1, "x", 2)
    assert generator(3.0).random() == generator(3).random()
    a, b = (sample_environment(TailFamily.weibull(2.0), 1, 3, s) for s in (7.0, 7))
    assert a.seed == 7 and a.v.tobytes() == b.v.tobytes()


def test_window_extension_shares_sites():
    """Same seed, larger radius: old sites keep their values."""
    fam = TailFamily.weibull(2.0)
    small = sample_environment(fam, 1, 4, 7)
    big = sample_environment(fam, 1, 20, 7)
    coords = small.coords()
    vi = effective_potential(big)[big.flat_index(coords)]
    np.testing.assert_array_equal(vi, effective_potential(small))
    # and in d = 2
    small2 = sample_environment(fam, 2, 3, 11)
    big2 = sample_environment(fam, 2, 5, 11)
    idx = big2.flat_index(small2.coords())
    np.testing.assert_array_equal(big2.v_plus[idx], small2.v_plus)


def test_hardcore_fraction_binomial_ci():
    """Hard-core fraction over 1e5 sites within 3 sqrt(p(1-p)/n) of p."""
    env = sample_environment(TailFamily.hard_core(0.5), 1, 50000, 5)
    n = env.n_sites
    frac = env.hardcore.mean()
    assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)
    assert np.all(effective_potential(env)[~env.hardcore] == 0.0)


def test_sign_support_per_family():
    wenv = sample_environment(TailFamily.weibull(2.0), 1, 200, 3)
    assert np.all(effective_potential(wenv) > 0)
    fenv = sample_environment(TailFamily.frechet(1.0), 1, 200, 3)
    assert np.all(effective_potential(fenv) < 0)
    assert not np.any(fenv.hardcore)


def test_effective_potential_split():
    env = sample_environment(TailFamily.double_exp(1.0), 1, 100, 21)
    v = effective_potential(env)
    assert np.all(env.v_plus >= 0) and np.all(env.v_minus >= 0)
    np.testing.assert_allclose(env.v_plus - env.v_minus, v, atol=0)
    # only one of the two parts is active per site
    assert np.all((env.v_plus == 0) | (env.v_minus == 0))


def test_baseline_death_leaves_potential_unchanged():
    fam = TailFamily.double_exp(1.0)
    bare = sample_environment(fam, 1, 30, 8)
    shifted = sample_environment(fam, 1, 30, 8, baseline_death=0.7)
    np.testing.assert_array_equal(effective_potential(shifted), effective_potential(bare))
    np.testing.assert_allclose(shifted.v_minus, bare.v_minus + 0.7)


@pytest.mark.parametrize("baseline", [0.4, 0.7, 3.0])
def test_baseline_death_keeps_the_sampled_potential_and_the_moments(baseline):
    # the rates once stored v_plus and v_minus, and v = v_plus - v_minus rounded:
    # 51, 42 and 78 of these 101 potentials moved, by up to 4.4e-16
    fam = TailFamily.weibull(2.0)
    v, hard = sample_potentials(fam, 1, 50, [7])
    bare = sample_environment(fam, 1, 50, 7)
    env = sample_environment(fam, 1, 50, 7, baseline_death=baseline)
    stack_v, stack_hard = env.stack()
    assert stack_v.tobytes() == v.tobytes() and stack_hard.tobytes() == hard.tobytes()
    box = BoxDomain(env, (0,), 20)
    want = solve_truncated(bare, BoxDomain(bare, (0,), 20), 1.0, 2.0).log_values()
    assert solve_truncated(env, box, 1.0, 2.0).log_values().tobytes() == want.tobytes()
    assert empirical_average(env, 5, 1.0, 2.0).hex() == empirical_average(bare, 5, 1.0, 2.0).hex()


def test_stack_is_a_view_of_the_stored_potential():
    env = sample_environment(TailFamily.hard_core(0.3), 2, 3, 5, baseline_death=0.4)
    v, hard = env.stack()
    assert np.shares_memory(v, env.v) and np.shares_memory(hard, env.hardcore)
    assert v.shape == hard.shape == (1, 7, 7)


def test_hardcore_flag_not_float_inf():
    env = sample_environment(TailFamily.hard_core(0.5), 1, 100, 13)
    assert np.all(np.isfinite(env.v_minus)) and np.all(np.isfinite(env.v_plus))
    assert env.hardcore.any()
    v = effective_potential(env)
    assert np.all(np.isneginf(v[env.hardcore]))


def test_with_branch_cap():
    env = sample_environment(TailFamily.weibull(2.0), 1, 500, 17)
    capped = with_branch_cap(env, 1.5)
    assert capped.v_plus.max() <= 1.5
    assert env.v_plus.max() > 1.5  # the cap actually bit
    np.testing.assert_array_equal(capped.v_minus, env.v_minus)
    mask = env.v_plus <= 1.5
    np.testing.assert_array_equal(capped.v_plus[mask], env.v_plus[mask])
    np.testing.assert_array_equal(capped.v_plus, np.minimum(env.v_plus, 1.5))


def test_with_branch_cap_over_a_baseline_caps_the_potential():
    env = sample_environment(TailFamily.frechet(1.0), 1, 50, 3, baseline_death=0.7)
    capped = with_branch_cap(env, 0.7)
    np.testing.assert_array_equal(capped.v, env.v)  # frechet v < 0: the cap at the baseline does not bite
    wenv = sample_environment(TailFamily.weibull(2.0), 1, 50, 3, baseline_death=0.4)
    np.testing.assert_array_equal(with_branch_cap(wenv, 1.0).v, np.minimum(wenv.v, 1.0 - 0.4))


def test_with_branch_cap_refuses_a_cap_below_the_baseline():
    env = sample_environment(TailFamily.weibull(2.0), 1, 10, 17, baseline_death=0.7)
    with pytest.raises(ValueError, match=re.escape("branch cap 0.5 lies below the baseline death rate 0.7")):
        with_branch_cap(env, 0.5)


def test_flat_index_matches_coords_order():
    env = sample_environment(TailFamily.weibull(2.0), 2, 3, 1)
    coords = env.coords()
    idx = env.flat_index(coords)
    np.testing.assert_array_equal(idx, np.arange(env.n_sites))
    assert env.flat_index(np.zeros(2, dtype=int)) == env.n_sites // 2
    with pytest.raises(IndexError, match=r"^site \(4, 0\) lies outside the sampled window of radius 3$"):
        env.flat_index(np.array([4, 0]))
    with pytest.raises(IndexError, match=r"^site \(0, -5\) lies outside the sampled window of radius 3$"):
        env.flat_index(np.array([[1, 1], [0, -5], [9, 9]]))


def test_flat_index_refuses_wrong_dimension():
    env = sample_environment(TailFamily.weibull(2.0), 1, 3, 1)
    with pytest.raises(ValueError, match="coords must have 1 coordinates, got 2"):
        env.flat_index([1, 2])
    with pytest.raises(ValueError, match="coords must have 1 coordinates, got 2"):
        env.flat_index(np.zeros((4, 2), dtype=int))


def test_window_coords_shape():
    c = window_coords(3, 2)
    assert c.shape == (125, 3)
    assert c.min() == -2 and c.max() == 2
    # C order: last axis fastest
    np.testing.assert_array_equal(c[0], [-2, -2, -2])
    np.testing.assert_array_equal(c[1], [-2, -2, -1])


def _env():
    return sample_environment(TailFamily.weibull(2.0), 1, 5, 1)


@pytest.mark.parametrize(
    "call, refusal",
    [
        # once read as L = 2, r = [0, 0], "all replicas were killed", a
        # TypeError, a message about radius 15.5 and numpy's concatenate error
        (lambda: empirical_average(_env(), 2.5, 1.0, 1.0), "L must be an integer >= 0, got 2.5"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [1, 5], 1, 1),
         "n_replica must be an integer >= 2, got 1"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [1, 5], 0, 1),
         "n_replica must be an integer >= 2, got 0"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [1, 5], 2.5, 1),
         "n_replica must be an integer >= 2, got 2.5"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [[1, 5]], 60, 1),
         "lags must be an integer >= 0, got [1, 5]"),
        (lambda: correlation_profile(TailFamily.weibull(2.0), 1.0, 1.0, [1, 2.5], 60, 1),
         "lags must be an integer >= 0, got 2.5"),
        (lambda: block_variance(TailFamily.weibull(2.0), 1.0, 1.0, 3, 2.5, 1),
         "n_replica must be an integer >= 2, got 2.5"),
        (lambda: block_variance(TailFamily.weibull(2.0), 1.0, 1.0, 2.5, 60, 1), "L must be an integer >= 0, got 2.5"),
        (lambda: fk_estimate(_env(), (0,), 1.0, 1.0, 2.5, 1), "n_paths must be an integer >= 1, got 2.5"),
        (lambda: population_ensemble(_env(), (0,), 1.0, 1.0, 2.5, 1), "n_runs must be an integer >= 1, got 2.5"),
        (lambda: population_ensemble(_env(), (0,), 1.0, 1.0, 2, 1, cap=0.5), "cap must be an integer >= 1, got 0.5"),
        (lambda: BoxDomain(_env(), (0,), 2.5), "box radius must be an integer >= 0, got 2.5"),
        (lambda: estimate_H1(TailFamily.weibull(2.0), 1.0, 1.0, 60, 1, dim=1.5), "dim must be an integer >= 1, got 1.5"),
    ],
)
def test_counts_and_sizes_must_be_lattice_integers(call, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)):
        call()


def _coordinate_reads():
    """Each entry point that reads a caller's lattice coordinates, as a function of one 1-d coordinate."""
    env = _env()
    field = solve_truncated(env, BoxDomain(env, (0,), 2), 1.0, 0.5)
    return {
        "flat_index": lambda c: env.flat_index([c]),
        "BoxDomain": lambda c: BoxDomain(env, (c,), 1),
        "value_at": lambda c: field.value_at((c,)),
        "solve_untruncated": lambda c: solve_untruncated(env, (c,), 1.0, 0.2),
        "fk_estimate": lambda c: fk_estimate(env, (c,), 1.0, 1.0, 50, 1),
        "population_ensemble": lambda c: population_ensemble(env, (c,), 1.0, 1.0, 5, 1),
    }


@pytest.mark.parametrize("value", [0.7, 1.5, math.nan])
@pytest.mark.parametrize("entry", ["flat_index", "BoxDomain", "value_at", "solve_untruncated", "fk_estimate",
                                   "population_ensemble"])
def test_coordinates_must_be_lattice_integers(entry, value, monkeypatch):
    # each was once truncated toward zero without a word: x = 1.5 read as x = 1
    read = _coordinate_reads()[entry]
    for module, name in ((solver, "_solve_stack"), (feynman_kac, "generator"), (particles, "generator")):
        monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    with pytest.raises(ValueError, match=re.escape(f"must have integer coordinates, got {value!r}")):
        read(value)


@pytest.mark.parametrize(
    "entry, fault",
    [(2**70, "coordinates in the int64 range [-2**63, 2**63 - 1]"),
     (-(2**70), "coordinates in the int64 range [-2**63, 2**63 - 1]"),
     (1e30, "coordinates in the int64 range [-2**63, 2**63 - 1]"),
     (None, "integer coordinates")],
)
def test_coordinate_reader_names_the_entry_the_cast_refuses(entry, fault):
    # an entry numpy cannot cast to int64 is named itself, not the valid coordinate beside it,
    # and a whole number outside int64 is refused for its range, not as a non-integer
    env = sample_environment(TailFamily.weibull(2.0), 2, 3, 1)
    with pytest.raises(ValueError, match=re.escape(f"coords must have {fault}, got {entry!r}")):
        env.flat_index([0, entry])
