"""Monte Carlo moments along killed random walk paths.

The walk jumps at rate 2 d kappa to a uniform unit neighbor and is
killed on leaving the box or touching a hard-core site; each surviving
path carries weight exp(integral of v along the path).  Averaging those
weights reproduces the lattice moment solved by the direct PDE route,
which is exactly what the agreement tests check.

Stream contract: paths run in chunks of _CHUNK = 8192, chunk ci with its
own generator(derive_seed(seed, "fk", ci)).  Each step draws n holding
times (standard exponentials scaled by 1 / rate) and then n directions
integers(0, 2 d), one of each for every path of the chunk whether it is
alive or not, until every clock has passed t or no live path has time
left.  So the numbers a path reads do not depend on the box: runs with
the same seed and different boxes follow the same trajectories, and a
larger box can only save paths.

Each path's state is one flat index, starting at BoxDomain.grid_index(x),
into the killing box's BoxDomain.killing_grid: the box padded by one
layer, holding v on live box sites and 0 elsewhere plus a mask of live
sites; no box means the whole window.  Direction k adds steps[k]; a path
that lands off the mask (a hard core, or the padding just outside the
box) is killed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytics import rate_I
from .seeding import _lattice_int, derive_seed, generator
from .solver import BoxDomain, _box_of, _check_walk

_CHUNK = 8192


@dataclass(frozen=True)
class FKEstimate:
    log_value: float
    stderr_log: float
    n_paths: int
    n_killed: int
    t: float
    kappa: float

    @property
    def all_killed(self):
        return self.n_killed == self.n_paths


def _chunk_log_weights(pot, ok, steps, start, rate, t, n, rng):
    """Log weights of n paths from grid index start; killed paths come back as -inf.

    Every step is a full-width operation on all n paths.  A closed path
    dwells 0 and a dead one sits on pot = 0 without moving, so both add
    +0.0 to their log weight, which leaves it unchanged bit for bit.
    """
    scale = 1.0 / rate
    pos = np.full(n, start, dtype=np.int64)
    alive = np.full(n, ok[start])
    logw = np.zeros(n)
    t_now = np.zeros(n)
    live = np.empty(n, dtype=bool)
    while True:
        np.less(t_now, t, out=live)
        live &= alive
        if not live.any():
            break
        dt = rng.standard_exponential(n)
        dt *= scale
        dirs = rng.integers(0, len(steps), size=n)
        dwell = np.subtract(t, t_now)
        np.minimum(dwell, dt, out=dwell)
        np.maximum(dwell, 0.0, out=dwell)
        dwell *= pot[pos]
        logw += dwell
        t_now += dt
        np.less(t_now, t, out=live)
        live &= alive
        move = steps[dirs]
        move *= live
        pos += move
        alive &= ok[pos]
    logw[~alive] = -math.inf
    return logw


def fk_path_log_weights(env, x, kappa, t, n_paths, seed, box=None):
    """Per-path log weights, -inf for killed paths, in a fixed path order.

    The random stream consumed per path does not depend on the box (see
    the module docstring), so runs with the same seed and different
    boxes follow identical walk trajectories.  box is a BoxDomain of env,
    or None for the whole window.  Raises ValueError unless n_paths is an
    integer >= 1, t and kappa are finite and >= 0, box belongs to env,
    and x is a site of the box (BoxDomain.grid_index).
    """
    n_paths = _lattice_int("n_paths", n_paths, 1)
    _check_walk(kappa, t)
    box = BoxDomain(env, (0,) * env.dim, env.radius) if box is None else _box_of(env, box)
    start = box.grid_index(x)
    pot, ok, steps = box.killing_grid()
    if kappa == 0.0 or t == 0.0:
        return np.full(n_paths, pot[start] * t if ok[start] else -math.inf)
    out = np.empty(n_paths)
    for ci, done in enumerate(range(0, n_paths, _CHUNK)):
        n = min(_CHUNK, n_paths - done)
        rng = generator(derive_seed(seed, "fk", ci))
        out[done : done + n] = _chunk_log_weights(pot, ok, steps, start, 2.0 * env.dim * kappa, t, n, rng)
    return out


def fk_estimate(env, x, kappa, t, n_paths, seed, box=None):
    """Monte Carlo estimate of m(x, t) from killed weighted paths.

    Averaging uses a max shift so huge weights never overflow; the
    standard error is reported on the log scale (delta method).  If
    every path is killed the log value is -inf with a zero error bar.
    The weights are shifted, exponentiated and centered in the one array
    of path log weights, so the statistics hold 8 bytes per path; the
    mean and the ddof = 1 standard deviation are taken in numpy's own
    order (sum / n, then the sum of squared deviations / (n - 1), then
    sqrt), so they keep the bits of w.mean() and w.std(ddof=1).
    """
    w = fk_path_log_weights(env, x, kappa, t, n_paths, seed, box=box)
    n_killed = int(np.isinf(w).sum())
    if n_killed == n_paths:
        return FKEstimate(-math.inf, 0.0, n_paths, n_killed, float(t), float(kappa))
    peak = float(w.max())  # killed paths are -inf
    w -= peak
    np.exp(w, out=w)
    mean = float(w.sum() / n_paths)
    if n_paths > 1:
        w -= mean
        w *= w
        sd = math.sqrt(float(w.sum() / (n_paths - 1)))
        stderr = sd / (mean * math.sqrt(n_paths))
    else:
        stderr = math.inf
    return FKEstimate(peak + math.log(mean), stderr, n_paths, n_killed, float(t), float(kappa))


def wilson_interval(k, n, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExitTailRow:
    radius: int
    t: float
    p_hat: float
    upper: float
    bound: float

    @property
    def ok(self):
        return self.upper <= self.bound


def exit_tail_mc(kappa, n_paths, seed, radii=(1, 2, 3, 4, 5), times=(0.5, 1.0, 2.0, 3.0, 4.0)):
    """Exceedance of the walk range versus the Chernoff exit bound.

    Simulates the 1-d rate-2*kappa walk and compares the Wilson upper
    confidence limit of P(max |X_s| >= R) against
    min(1, 4 exp(-2 kappa t I(R / (2 kappa t)))) on the radius/time grid.
    kappa and every t must be finite and > 0, and every radius an
    integer >= 1.
    """
    for name, value in (("kappa", kappa), *(("t", t) for t in times)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    n_paths = _lattice_int("n_paths", n_paths, 1)
    radii = [_lattice_int("radius", R, 1) for R in radii]
    rows = []
    for ti, t in enumerate(times):
        rng = generator(derive_seed(seed, "exit", ti))
        rate = 2.0 * kappa * t
        counts = rng.poisson(rate, size=n_paths)
        kmax = int(counts.max(initial=0))
        runmax = np.zeros(n_paths)
        if kmax > 0:
            steps = rng.integers(0, 2, size=(n_paths, kmax)) * 2 - 1
            mask = np.arange(kmax)[None, :] < counts[:, None]
            walk = np.cumsum(np.where(mask, steps, 0), axis=1)
            runmax = np.abs(walk).max(axis=1)
        for R in radii:
            k = int((runmax >= R).sum())
            _, hi = wilson_interval(k, n_paths)
            y = R / (2.0 * kappa * t)
            bound = min(1.0, 4.0 * math.exp(-2.0 * kappa * t * float(rate_I(y))))
            rows.append(ExitTailRow(R, float(t), k / n_paths, hi, bound))
    return rows
