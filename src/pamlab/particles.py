"""Branching random walks with annihilation in a fixed environment.

One particle starts at x.  Each particle independently jumps to a
uniform neighbor at rate 2 d kappa, splits in two at rate v_plus at its
site, and dies at rate v_minus.  Stepping onto a hard-core site or out
of the window removes the particle.  The population count at time t has
mean m(x, t), the same quantity the direct solver computes, which makes
the two routes mutually checkable.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_seed, generator


def kill_adjacency(env):
    """Neighbor table (n_sites, 2d): target flat index, or -1 if the move kills.

    Direction j encodes axis j >> 1 and sign +1 for even j, -1 for odd.
    """
    coords = env.coords()
    n = len(coords)
    d = env.dim
    table = np.full((n, 2 * d), -1, dtype=np.int64)
    for j in range(2 * d):
        axis = j >> 1
        sign = 1 - 2 * (j & 1)
        shifted = coords.copy()
        shifted[:, axis] += sign
        inside = np.abs(shifted[:, axis]) <= env.radius
        idx = env.flat_index(shifted[inside])
        dead = env.hardcore[idx]
        vals = np.where(dead, -1, idx)
        table[np.nonzero(inside)[0], j] = vals
    return table


@dataclass(frozen=True)
class ParticleRun:
    """One trajectory: population after each event, plus event accounting."""

    times: np.ndarray = field(repr=False)
    populations: np.ndarray = field(repr=False)
    n_branch: int
    n_death: int
    n_boundary_kill: int
    final_population: int
    truncated: bool
    t: float

    def accounting_consistent(self):
        return self.final_population == 1 + self.n_branch - self.n_death - self.n_boundary_kill


def _run_once(env, start_idx, kappa, t, rng, cap, table, record):
    d = env.dim
    jump_rate = 2.0 * d * kappa
    vp = env.v_plus
    vm = env.v_minus
    sites = [start_idx]
    t_now = 0.0
    n_branch = n_death = n_kill = 0
    truncated = False
    times = [0.0]
    pops = [1]
    while sites:
        arr = np.asarray(sites, dtype=np.int64)
        rates = jump_rate + vp[arr] + vm[arr]
        total = float(rates.sum())
        if total == 0.0:
            break
        t_now += rng.exponential(1.0 / total)
        if t_now >= t:
            break
        cum = np.cumsum(rates)
        u = rng.random() * total
        i = int(np.searchsorted(cum, u, side="right"))
        i = min(i, len(sites) - 1)
        w = u - (cum[i - 1] if i > 0 else 0.0)
        site = sites[i]
        if w < jump_rate:
            direction = int(rng.integers(0, 2 * d))
            target = table[site, direction]
            if target < 0:
                sites[i] = sites[-1]
                sites.pop()
                n_kill += 1
            else:
                sites[i] = int(target)
        elif w < jump_rate + vp[site]:
            sites.append(site)
            n_branch += 1
        else:
            sites[i] = sites[-1]
            sites.pop()
            n_death += 1
        if record:
            times.append(t_now)
            pops.append(len(sites))
        if len(sites) > cap:
            truncated = True
            break
    return ParticleRun(
        times=np.asarray(times),
        populations=np.asarray(pops, dtype=np.int64),
        n_branch=n_branch,
        n_death=n_death,
        n_boundary_kill=n_kill,
        final_population=len(sites),
        truncated=truncated,
        t=float(t),
    )


def gillespie_run(env, x, kappa, t, seed, cap=10**7):
    """Simulate one population trajectory started from a single particle."""
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if t < 0 or kappa < 0:
        raise ValueError("t and kappa must be >= 0")
    start = env.flat_index(x)
    if env.hardcore[start]:
        # the particle starts on a hard core and is killed at once
        return ParticleRun(
            times=np.array([0.0]),
            populations=np.array([0], dtype=np.int64),
            n_branch=0,
            n_death=0,
            n_boundary_kill=1,
            final_population=0,
            truncated=False,
            t=float(t),
        )
    table = kill_adjacency(env)
    rng = generator(derive_seed(seed, "particles", 0))
    return _run_once(env, start, kappa, t, rng, cap, table, record=True)


@dataclass(frozen=True)
class PopulationSample:
    """Population counts at one time over independent runs.

    Per run it also keeps the event accounting: branchings, deaths and
    kills on stepping off the window or onto a hard core (a run that
    starts on a hard core counts one kill).
    """

    counts: np.ndarray = field(repr=False)
    truncated: np.ndarray = field(repr=False)
    n_branch: np.ndarray = field(repr=False)
    n_death: np.ndarray = field(repr=False)
    n_boundary_kill: np.ndarray = field(repr=False)
    t: float
    kappa: float

    @property
    def n_runs(self):
        return len(self.counts)

    def accounting_consistent(self):
        """Per run: final count = 1 + branchings - deaths - kills."""
        return self.counts == 1 + self.n_branch - self.n_death - self.n_boundary_kill

    def mean(self):
        return float(self.counts.mean())

    def stderr(self):
        if self.n_runs < 2:
            return math.inf
        return float(self.counts.std(ddof=1)) / math.sqrt(self.n_runs)


def simulate_population(env, x, kappa, t, n_runs, seed, cap=10**7):
    """Population counts zeta(t) over n_runs independent trajectories.

    Run r draws from its own stream derive_seed(seed, "particles", r),
    so the sample does not depend on the order the runs are made in.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if t < 0 or kappa < 0:
        raise ValueError("t and kappa must be >= 0")
    start = env.flat_index(x)
    counts, branch, death, kill = (np.zeros(n_runs, dtype=np.int64) for _ in range(4))
    trunc = np.zeros(n_runs, dtype=bool)
    if env.hardcore[start]:
        kill[:] = 1  # every run starts on a hard core and is killed at once
    else:
        table = kill_adjacency(env)
        for r in range(n_runs):
            rng = generator(derive_seed(seed, "particles", r))
            run = _run_once(env, start, kappa, t, rng, cap, table, record=False)
            counts[r] = run.final_population
            trunc[r] = run.truncated
            branch[r], death[r], kill[r] = run.n_branch, run.n_death, run.n_boundary_kill
            if not run.accounting_consistent():
                raise RuntimeError("event accounting out of balance")
    return PopulationSample(counts, trunc, branch, death, kill, float(t), float(kappa))


def population_ensemble(env, x, kappa, t, n_runs, seed, cap=10**7):
    """Final populations of n_runs independent runs advanced in lockstep.

    Same law as simulate_population: per replica the waiting time is
    exponential in the total rate and the event channel is picked in
    proportion to its rate.  All replicas advance one event per sweep
    with the draws batched, so the cost per event stays flat as the
    ensemble grows; use this for large run counts.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if t < 0 or kappa < 0:
        raise ValueError("t and kappa must be >= 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    start = env.flat_index(x)
    counts_out, branch, death, kill = (np.zeros(n_runs, dtype=np.int64) for _ in range(4))
    trunc = np.zeros(n_runs, dtype=bool)
    if env.hardcore[start]:
        kill[:] = 1  # every run starts on a hard core and is killed at once
        return PopulationSample(counts_out, trunc, branch, death, kill, float(t), float(kappa))
    table = kill_adjacency(env)
    d = env.dim
    width = 2 * d + 2
    chan = np.empty((env.n_sites, width))
    chan[:, : 2 * d] = kappa
    chan[:, 2 * d] = env.v_plus
    chan[:, 2 * d + 1] = env.v_minus
    rng = generator(derive_seed(seed, "ensemble", 0))
    counts = np.zeros((n_runs, env.n_sites), dtype=np.int64)
    counts[:, start] = 1
    clock = np.zeros(n_runs)
    active = np.arange(n_runs)
    while active.size:
        sub = counts[active]
        w2 = (sub[:, :, None] * chan[None, :, :]).reshape(active.size, -1)
        totals = w2.sum(axis=1)
        live = totals > 0.0
        if not live.all():
            frozen = active[~live]
            counts_out[frozen] = sub[~live].sum(axis=1)
            active = active[live]
            if active.size == 0:
                break
            sub = sub[live]
            w2 = w2[live]
            totals = totals[live]
        dt = rng.exponential(scale=1.0 / totals)
        advanced = clock[active] + dt
        done = advanced >= t
        if done.any():
            finished = active[done]
            counts_out[finished] = sub[done].sum(axis=1)
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            sub = sub[keep]
            w2 = w2[keep]
            totals = totals[keep]
            advanced = advanced[keep]
        clock[active] = advanced
        cum = np.cumsum(w2, axis=1)
        u = rng.random(active.size) * totals
        idx = (cum < u[:, None]).sum(axis=1)
        np.minimum(idx, w2.shape[1] - 1, out=idx)
        site = idx // width
        ch = idx % width
        is_branch = ch == 2 * d
        is_death = ch == 2 * d + 1
        is_jump = ~(is_branch | is_death)
        rb = active[is_branch]
        counts[rb, site[is_branch]] += 1
        branch[rb] += 1
        rd = active[is_death]
        counts[rd, site[is_death]] -= 1
        death[rd] += 1
        rj = active[is_jump]
        sj = site[is_jump]
        counts[rj, sj] -= 1
        target = table[sj, ch[is_jump]]
        good = target >= 0
        counts[rj[good], target[good]] += 1
        kill[rj[~good]] += 1
        pop = counts[active].sum(axis=1)
        stop = (pop == 0) | (pop > cap)
        if stop.any():
            halted = active[stop]
            counts_out[halted] = pop[stop]
            trunc[halted] = pop[stop] > cap
            active = active[~stop]
    sample = PopulationSample(counts_out, trunc, branch, death, kill, float(t), float(kappa))
    if not np.all(sample.accounting_consistent() | trunc):
        raise RuntimeError("event accounting out of balance")
    return sample
