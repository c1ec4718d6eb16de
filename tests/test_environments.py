"""Tests for tail families, quantiles, and environment sampling."""

import re

import numpy as np
import pytest

from pamlab.environments import (
    Environment,
    TailFamily,
    effective_potential,
    load_environment,
    quantile_array,
    sample_environment,
    sample_potentials,
    save_environment,
    survival_from_potential,
    tail_quantile,
    window_coords,
    with_branch_cap,
)
from pamlab.seeding import derive_seed, generator, site_uniforms

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


def test_quantile_pinned_values():
    # solving exp(-e^(x/rho)) = 1-u by hand at u = 1-exp(-1) gives x = 0
    assert np.isclose(tail_quantile(TailFamily.double_exp(1.0), 1 - np.exp(-1)), 0.0, atol=1e-14)
    # e^(-x^2) = e^(-1) gives x = 1
    assert np.isclose(tail_quantile(TailFamily.weibull(2.0), 1 - np.exp(-1)), 1.0)
    # hard-core atom sits at the lower quantiles
    assert tail_quantile(TailFamily.hard_core(0.3), 0.2) == -np.inf
    assert tail_quantile(TailFamily.hard_core(0.3), 0.31) == 0.0
    # frechet is supported on the negatives, squared double exp on [0, inf)
    assert tail_quantile(TailFamily.frechet(1.0), 0.5) < 0
    sq = TailFamily.squared_double_exp()
    assert tail_quantile(sq, 0.5) == 0.0  # below the atom boundary 1 - 1/e
    assert tail_quantile(sq, 0.9) > 0.0


def test_quantile_out_of_range():
    fam = TailFamily.weibull(2.0)
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            tail_quantile(fam, u)


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
        assert np.array_equal(v[row], env.v_plus - env.v_minus)
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
    np.testing.assert_allclose(
        effective_potential(shifted), effective_potential(bare), atol=1e-15
    )
    np.testing.assert_allclose(shifted.v_minus, bare.v_minus + 0.7)


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


def test_flat_index_matches_coords_order():
    env = sample_environment(TailFamily.weibull(2.0), 2, 3, 1)
    coords = env.coords()
    idx = env.flat_index(coords)
    np.testing.assert_array_equal(idx, np.arange(env.n_sites))
    assert env.flat_index(np.zeros(2, dtype=int)) == env.n_sites // 2
    with pytest.raises(IndexError):
        env.flat_index(np.array([4, 0]))


def test_window_coords_shape():
    c = window_coords(3, 2)
    assert c.shape == (125, 3)
    assert c.min() == -2 and c.max() == 2
    # C order: last axis fastest
    np.testing.assert_array_equal(c[0], [-2, -2, -2])
    np.testing.assert_array_equal(c[1], [-2, -2, -1])


def test_serialization_roundtrip(tmp_path):
    for fam in (TailFamily.weibull(2.0), TailFamily.hard_core(0.25)):
        env = sample_environment(fam, 1, 40, 77, baseline_death=0.1)
        stem = str(tmp_path / f"env_{fam.kind}")
        save_environment(env, stem)
        back = load_environment(stem)
        assert isinstance(back, Environment)
        assert back.family == env.family
        assert (back.dim, back.radius, back.seed) == (env.dim, env.radius, env.seed)
        assert back.baseline_death == env.baseline_death
        np.testing.assert_array_equal(back.v_plus, env.v_plus)
        np.testing.assert_array_equal(back.v_minus, env.v_minus)
        np.testing.assert_array_equal(back.hardcore, env.hardcore)
