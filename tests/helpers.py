"""Hand-built environments and reference loops shared across test modules."""

import json
import math
import os
import sys
import tracemalloc

import numpy as np

from pamlab import solver
from pamlab.environments import Environment, TailFamily, sample_environment, window_coords
from pamlab.seeding import derive_seed, generator
from pamlab.solver import BoxDomain


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


def reference_bootstrap(logs, seed, powers, stat):
    """(value, ci_lo, ci_hi) of moments._replica_bootstrap from its replica logs, in one draw.

    The formula as it was before the resamples were drawn in blocks: all
    1000 rows of n_replica indices in one integers call and one gather,
    kept as the blocked draw's bit-for-bit reference.
    """
    n = len(logs)
    peak = float(np.max(logs))
    ws = [np.exp(p * (logs - peak)) for p in powers]
    idx = generator(derive_seed(seed, "bootstrap", 0)).integers(0, n, size=(1000, n))
    with np.errstate(divide="ignore"):
        boot = stat(peak, *(w[idx].mean(axis=1) for w in ws))
    lo, hi = np.percentile(boot, [0.5, 99.5])
    return float(stat(peak, *(w.mean() for w in ws))), float(lo), float(hi)


def reference_fk_moments(logw):
    """(log value, stderr_log) of fk_estimate from its path log weights, on copies.

    The formula as it was before it worked in the weights' own buffer:
    the peak over finite weights, then w.mean() and w.std(ddof=1) of a
    fresh exp(logw - peak).
    """
    n = len(logw)
    if np.isinf(logw).all():
        return -math.inf, 0.0
    peak = float(logw[~np.isinf(logw)].max())
    w = np.exp(logw - peak)
    mean = float(w.mean())
    stderr = float(w.std(ddof=1)) / (mean * math.sqrt(n)) if n > 1 else math.inf
    return peak + math.log(mean), stderr


def reference_site_log_moments(v, hard, sites, kappa, t, R):
    """site_log_moments as it was before windows became blocks of one site of the shared block reader.

    Its gather, kept as the block reader's bit-for-bit reference: a
    window's flat offsets from its center, buffers of equal size, and
    one _solve_stack call per buffer but its hard-core centered windows,
    reading the center (margin R) and charged as a full buffer.  sites
    must be integer coordinates within R of the frame's faces.
    """
    frame = v.shape[1:]
    d = len(frame)
    sites = np.reshape(sites, (len(sites), -1 if len(sites) else d)).astype(np.int64)
    radius, n_frame = frame[0] // 2, math.prod(frame)
    centers = np.ravel_multi_index(tuple((sites + radius).T), frame)
    offsets = np.ravel_multi_index(tuple((window_coords(d, R) + radius).T), frame) - n_frame // 2
    side = (2 * R + 1,) * d
    n_win = math.prod(side)
    total = len(v) * len(centers)
    per_call = solver.windows_per_call(n_win)
    parts = solver._equal_parts(total, per_call)
    size = max(hi - lo for lo, hi in parts)
    flat_v, flat_hard, out = np.empty((size, n_win)), np.empty((size, n_win), dtype=bool), np.full(total, -np.inf)
    for lo, hi in parts:
        n = hi - lo
        row, j = np.divmod(np.arange(lo, hi), len(centers))
        at = (row * n_frame + centers[j])[:, None] + offsets
        v.take(at, out=flat_v[:n], mode="clip")
        hard.take(at, out=flat_hard[:n], mode="clip")
        win_v, active = flat_v[:n].reshape((n,) + side), ~flat_hard[:n].reshape((n,) + side)
        rows = np.flatnonzero(~flat_hard[:n, n_win // 2])
        if rows.size:
            vals, off, _, _ = solver._solve_stack(win_v[rows], active[rows], kappa, t, R, per_call)
            out[lo + rows] = np.log(vals[:, 0]) + off
    return out.reshape(len(v), len(sites))


def reference_box_tile_logs(v, hard, L, kappa, t, R):
    """The site logs of the tile reader as it was before it shared the block reader with the windows.

    v and hard are a (n, 2(L + R) + 1) stack of 1-d replicas.  Each tile
    is solved on every site (margin 0) and its w read sites are cut out
    afterwards; the (replica, tile) list is cut into equal parts of at
    most windows_per_call tiles, each solve charged as a full part.
    Returns (n, 2L + 1) logs, in the strided layout that reader returned.
    """
    n_read = 2 * L + 1
    w = min(n_read, 2 * R + 1)
    starts = np.minimum(np.arange(0, n_read, w), n_read - w)
    tile_of = np.arange(n_read) // w
    width, n_tiles = w + 2 * R, len(starts)
    logs = np.full((len(v) * n_tiles, w), -np.inf)
    per_call = solver.windows_per_call(width)
    for lo, hi in solver._equal_parts(len(logs), per_call):
        row, k = np.divmod(np.arange(lo, hi), n_tiles)
        at = (row * v.shape[1] + starts[k])[:, None] + np.arange(width)
        live = ~hard.take(at)
        rows = np.flatnonzero(live[:, R : R + w].any(axis=1))
        if rows.size:
            vals, off, _, _ = solver._solve_stack(v.take(at[rows]), live[rows], kappa, t, 0, per_call)
            with np.errstate(divide="ignore"):
                logs[lo + rows] = np.log(vals[:, R : R + w]) + off[:, None]
    return logs.reshape(len(v), n_tiles, w)[:, tile_of, np.arange(n_read) - starts[tile_of]]


def reference_population_ensemble(env, x, kappa, t, n_runs, seed, cap=10**7):
    """(counts, truncated, n_branch, n_death, n_boundary_kill) of population_ensemble.

    The sweep as it was before it reused one buffer: counts * rate and
    its cumsum fresh every sweep, and every per-run array filtered at
    once when runs end.  Kept as the buffered sweep's bit-for-bit
    reference; it does not check its arguments.
    """
    box = BoxDomain(env, (0,) * env.dim, env.radius)
    start = box.grid_index(x)
    _, ok, steps = box.killing_grid()
    site_at = np.pad(np.arange(env.n_sites).reshape((env.side,) * env.dim), 1, constant_values=-1).ravel()
    grid_at = np.flatnonzero(site_at >= 0)
    final, branch, death = (np.zeros(n_runs, dtype=np.int64) for _ in range(3))
    kill = np.full(n_runs, int(not ok[start]))
    trunc = np.zeros(n_runs, dtype=bool)
    live = np.arange(n_runs if ok[start] else 0)
    jump = len(steps) * kappa
    rate = jump + env.v_plus + env.v_minus
    rng = generator(derive_seed(seed, "particles"))
    counts = np.zeros((live.size, env.n_sites))
    counts[:, site_at[start]] = 1.0
    pop = np.ones(live.size, dtype=np.int64)
    clock = np.zeros(live.size)
    while live.size:
        cum = np.cumsum(counts * rate, axis=1)
        total = cum[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            clock += rng.exponential(size=live.size) / total
        ended = ~(clock < t) | (pop > cap)
        if ended.any():
            final[live[ended]] = pop[ended]
            trunc[live[ended]] = pop[ended] > cap
            keep = ~ended
            live, counts, pop, clock, cum, total = (a[keep] for a in (live, counts, pop, clock, cum, total))
        rows = np.arange(live.size)
        u = (1.0 - rng.random(live.size)) * total
        site = (cum < u[:, None]).sum(axis=1)
        c = rng.random(live.size) * rate[site]
        jumped = c < jump
        born = ~jumped & (c < jump + env.v_plus[site])
        counts[rows, site] += np.where(born, 1.0, -1.0)
        movers = np.flatnonzero(jumped)
        target = grid_at[site[movers]] + steps[rng.integers(0, len(steps), size=movers.size)]
        moved = ok[target]
        counts[movers[moved], site_at[target[moved]]] += 1.0
        killed = movers[~moved]
        died = ~(jumped | born)
        branch[live[born]] += 1
        death[live[died]] += 1
        kill[live[killed]] += 1
        pop += born
        pop -= died
        pop[killed] -= 1
    return final, trunc, branch, death, kill


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
