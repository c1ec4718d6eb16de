"""Hand-built environments shared across test modules."""

import numpy as np

from pamlab.environments import Environment, TailFamily, sample_environment, window_coords


def make_env_1d(v, hardcore=None, seed=0, baseline_death=0.0):
    """Environment on a 1-d window with potentials given explicitly.

    v has odd length 2R+1 ordered from -R to R.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size % 2 == 0:
        raise ValueError("v must be 1-d with odd length")
    radius = (v.size - 1) // 2
    if hardcore is None:
        hardcore = np.zeros(v.size, dtype=bool)
    else:
        hardcore = np.asarray(hardcore, dtype=bool).copy()
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    vp[hardcore] = 0.0
    vm[hardcore] = 0.0
    return Environment(
        family=TailFamily.weibull(2.0),
        dim=1,
        radius=radius,
        seed=seed,
        baseline_death=baseline_death,
        v_plus=vp,
        v_minus=vm,
        hardcore=hardcore,
    )


def make_env(v_grid, hardcore=None, seed=0):
    """Environment of arbitrary dimension from a cubic grid of potentials.

    v_grid has shape (2R+1,) * d and is flattened in the window's C order.
    """
    v_grid = np.asarray(v_grid, dtype=np.float64)
    side = v_grid.shape[0]
    if any(s != side for s in v_grid.shape) or side % 2 == 0:
        raise ValueError("v_grid must be a cube with odd side")
    dim = v_grid.ndim
    radius = (side - 1) // 2
    v = v_grid.reshape(-1)
    n = v.size
    assert window_coords(dim, radius).shape == (n, dim)
    if hardcore is None:
        hardcore = np.zeros(n, dtype=bool)
    else:
        hardcore = np.asarray(hardcore, dtype=bool).reshape(-1).copy()
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    vp[hardcore] = 0.0
    vm[hardcore] = 0.0
    return Environment(
        family=TailFamily.weibull(2.0),
        dim=dim,
        radius=radius,
        seed=seed,
        baseline_death=0.0,
        v_plus=vp,
        v_minus=vm,
        hardcore=hardcore,
    )


def padded_with_hardcore(env, pad):
    """Copy of the environment with a hard-core ring of width `pad` added.

    Used to check that Dirichlet padding leaves solutions unchanged.
    """
    big = sample_environment(env.family, env.dim, env.radius + pad, env.seed, env.baseline_death)
    hard = big.hardcore.copy()
    ring = np.abs(big.coords()).max(axis=1) > env.radius
    hard[ring] = True
    vp = big.v_plus.copy()
    vm = big.v_minus.copy()
    vp[ring] = 0.0
    vm[ring] = 0.0
    inner = big.flat_index(env.coords())
    vp[inner] = env.v_plus
    vm[inner] = env.v_minus
    hard[inner] = env.hardcore
    return Environment(
        family=env.family,
        dim=env.dim,
        radius=env.radius + pad,
        seed=env.seed,
        baseline_death=env.baseline_death,
        v_plus=vp,
        v_minus=vm,
        hardcore=hard,
    )
