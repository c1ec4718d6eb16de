"""Branching random walks with annihilation in a fixed environment.

One particle starts at x.  Each particle independently jumps to a
uniform neighbor at rate 2 d kappa, splits in two at rate v_plus at its
site, and dies at rate v_minus.  Stepping onto a hard-core site or out
of the window (off the live mask of its BoxDomain.killing_grid) removes
the particle.  The population count at time t has mean m(x, t), the same
quantity the direct solver computes, which makes the two routes
mutually checkable.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import _lattice_int, derive_seed, generator
from .solver import BoxDomain, _check_walk


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


def population_ensemble(env, x, kappa, t, n_runs, seed, cap=10**7):
    """Final populations of n_runs independent runs advanced in lockstep.

    A replica's state is its particle count per window site; it starts
    at BoxDomain.grid_index(x) as Feynman-Kac paths do.  Each sweep
    makes one event in every live replica: the waiting time is
    exponential in the total rate counts @ r, where
    r = 2 d kappa + v_plus + v_minus per site; the site is drawn in
    proportion to counts * r; the channel (jump, branching or death) in
    proportion to that site's rates, and a jump adds a uniform one of the
    killing grid's steps to the site's grid index.  This is the exact
    Gillespie law.
    All replicas draw from the stream derive_seed(seed, "particles").

    A run stops at time t, at extinction, or once its population exceeds
    cap (it is then flagged truncated).

    Memory is two (live runs x window sites) float arrays: the counts,
    and one buffer that every sweep refills in place with counts * r and
    then its cumsum.  On a sweep where runs end, each is replaced by its
    kept rows, one after the other, so at most one stale copy is alive.
    """
    _check_walk(kappa, t)
    n_runs = _lattice_int("n_runs", n_runs, 1)
    cap = _lattice_int("cap", cap, 1)
    box = BoxDomain(env, (0,) * env.dim, env.radius)
    start = box.grid_index(x)
    _, ok, steps = box.killing_grid()
    # counts stay on the S^d window sites (the padded grid would widen every sweep to (S+2)^d columns)
    site_at = np.pad(np.arange(env.n_sites).reshape((env.side,) * env.dim), 1, constant_values=-1).ravel()
    grid_at = np.flatnonzero(site_at >= 0)
    final, branch, death = (np.zeros(n_runs, dtype=np.int64) for _ in range(3))
    kill = np.full(n_runs, int(not ok[start]))  # a run that starts on a hard core is killed at once
    trunc = np.zeros(n_runs, dtype=bool)
    live = np.arange(n_runs if ok[start] else 0)  # the replicas still running
    jump = len(steps) * kappa
    v_plus = env.v_plus  # each rate property builds a new array, so read it once
    rate = jump + v_plus + env.v_minus
    rng = generator(derive_seed(seed, "particles"))
    counts = np.zeros((live.size, env.n_sites))
    counts[:, site_at[start]] = 1.0
    cum = np.empty_like(counts)  # counts * rate and then its cumsum, refilled every sweep
    pop = np.ones(live.size, dtype=np.int64)
    clock = np.zeros(live.size)
    while live.size:
        np.multiply(counts, rate, out=cum)
        np.cumsum(cum, axis=1, out=cum)
        total = cum[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            clock += rng.exponential(size=live.size) / total
        # A run ends past t, over cap, or with no event left to happen
        # (extinct or all rates 0: a total rate of 0 makes the clock inf or nan).
        ended = ~(clock < t) | (pop > cap)
        if ended.any():
            keep = ~ended
            # the large arrays first and one at a time, so one stale copy is alive at once;
            # the filtered cum is the buffer from now on
            counts = counts[keep]
            cum = cum[keep]
            total = cum[:, -1]
            final[live[ended]] = pop[ended]
            trunc[live[ended]] = pop[ended] > cap
            live, pop, clock = live[keep], pop[keep], clock[keep]
        rows = np.arange(live.size)
        # u lies in (0, total], so the first site with cum >= u holds a particle
        u = (1.0 - rng.random(live.size)) * total
        site = (cum < u[:, None]).sum(axis=1)
        c = rng.random(live.size) * rate[site]
        jumped = c < jump
        born = ~jumped & (c < jump + v_plus[site])
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
    sample = PopulationSample(final, trunc, branch, death, kill, float(t), float(kappa))
    if not np.all(sample.accounting_consistent() | trunc):
        raise RuntimeError("event accounting out of balance")
    return sample
