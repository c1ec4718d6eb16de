"""Hand-built environments and reference loops shared across test modules."""

import json
import math
import os
import sys

import numpy as np

from pamlab.environments import Environment, TailFamily, sample_environment, window_coords
from pamlab.seeding import derive_seed, generator


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


def reference_chunk_log_weights(env, x, kappa, t, n, rng, center, radius):
    """Log path weights for one chunk; killed paths come back as -inf.

    The masked-gather loop over (n, d) coordinates that the flat-index
    path sampler replaced, kept verbatim as its bit-for-bit reference.
    """
    d = env.dim
    rate = 2.0 * d * kappa
    v = env.v_plus - env.v_minus
    hard = env.hardcore
    pos = np.tile(x, (n, 1))
    logw = np.zeros(n)
    t_now = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    if hard[env.flat_index(x)]:
        return np.full(n, -math.inf)
    while True:
        open_ = t_now < t
        if not open_.any():
            break
        dt = rng.exponential(1.0 / rate, size=n)
        dirs = rng.integers(0, 2 * d, size=n)
        act = open_ & alive
        if not act.any():
            break
        dwell = np.minimum(dt[act], t - t_now[act])
        logw[act] += v[env.flat_index(pos[act])] * dwell
        t_now[open_] += dt[open_]
        jump = act & (t_now < t)
        if jump.any():
            axes = (dirs[jump] >> 1).astype(np.int64)
            signs = 1 - 2 * (dirs[jump] & 1)
            moved = pos[jump]
            moved[np.arange(len(axes)), axes] += signs
            pos[jump] = moved
            out = np.abs(moved - center).max(axis=1) > radius
            dead = out.copy()
            inside = ~out
            if inside.any():
                dead[inside] = hard[env.flat_index(moved[inside])]
            idx = np.nonzero(jump)[0][dead]
            alive[idx] = False
            logw[idx] = -math.inf
    return logw


def reference_fk_path_log_weights(env, x, kappa, t, n_paths, seed, box=None):
    """fk_path_log_weights driven by reference_chunk_log_weights: chunks of 8192, same seeds."""
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if box is None:
        center, radius = np.zeros(env.dim, dtype=np.int64), env.radius
    else:
        center, radius = np.asarray(box.center, dtype=np.int64), box.radius
    if kappa == 0.0 or t == 0.0:
        if env.hardcore[env.flat_index(x)]:
            return np.full(n_paths, -math.inf)
        return np.full(n_paths, float((env.v_plus - env.v_minus)[env.flat_index(x)]) * t)
    out = np.empty(n_paths)
    for ci, done in enumerate(range(0, n_paths, 8192)):
        n = min(8192, n_paths - done)
        rng = generator(derive_seed(seed, "fk", ci))
        out[done : done + n] = reference_chunk_log_weights(env, x, kappa, t, n, rng, center, radius)
    return out


def record_fixture(path, values):
    """Write values() to the fixture at path; exit nonzero, naming it, if it exists.

    A fixture is recorded once: re-recording it from the code under test
    would make the test that reads it vacuous.
    """
    if os.path.exists(path):
        sys.exit(f"{path} exists; remove it first to record it again")
    with open(path, "w") as fh:
        json.dump(values(), fh, indent=1, sort_keys=True)
        fh.write("\n")
