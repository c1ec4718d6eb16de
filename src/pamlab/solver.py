"""Lattice moment solver for du/dt = kappa*Delta*u + v*u with Dirichlet kill.

The discrete Laplacian is Delta f(x) = sum over unit neighbors e of
f(x+e) - 2d f(x); sites outside the active set (outside the box, or hard
core) carry the value 0.  Solutions grow like e^{max(v) t}, so fields are
stored as a mantissa array plus one shared additive log offset.

Every kappa > 0 solve goes through one kernel, _solve_stack, on a stack
of d-dimensional boxes given as a (B, S, ..., S) array of potentials
plus its hard-core mask, reading the sites at least `margin` inside
every face: a single box is a stack of one with margin 0.  One reader,
_block_logs, builds stacks for it.  It reads blocks of w^d sites, each
solved on itself plus R sites beyond each face, so a read site's value
meets the bound of its own window of radius R.  site_log_moments reads
given sites as blocks of one site (windows); the regime box averages
read a 1-d box [-L, L] as tiles of 2R + 1 sites, so the cost per site
is about 2 solves rather than 2R + 1.  Each box is summed by
uniformization, or by a batched dense eigendecomposition where one
fitted cost rule (_dense_route) says that is cheaper.

What is built on the reader returns log m, -inf where the walk is
killed; R comes from required_radius, which refuses a kappa or t that
is not finite and >= 0 before any site is hashed.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._special import log_factorial, logsumexp
from .analytics import rate_I
from .environments import sample_potentials, window_coords
from .seeding import _lattice_int, _lattice_sites

# Per-site |error in log m| that a dense solve must keep; see _dense_fields.
_SITE_LOG_TOL = 1e-8
# Poisson tail over head at which a uniformization sum stops.
_POISSON_TAIL = 1e-13
# Measured cost coefficients of the two routes; see _dense_route.
_EIGH_SMALL = 200
_STEP_PER_SITE = 20
_STEP_FIXED = 3e4
# Matrix entries per batched eigh call, which bounds the dense route's memory.
_DENSE_ENTRIES = 2**22
# Sites per stack of boxes that _block_logs solves, which bounds the uniformization work arrays.
_STACK_SITES = 2**17
# Largest truncation radius that required_radius returns.
_MAX_RADIUS = 10**6
# Largest uniformization rate c t that _solve_stack accepts; its Poisson degree is about as large.
_MAX_DEGREE = 2**22


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoxDomain:
    """A box inside a sampled window, minus hard-core sites.

    The box is cut from env.stack() once: v holds its (S, ..., S)
    potentials, 0 on hard cores, and live is False on hard cores.
    """

    env: object
    center: tuple
    radius: int
    v: np.ndarray = field(init=False, repr=False, compare=False)
    live: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = tuple(_lattice_sites("box center", np.ravel(self.center), self.env.dim)[0].tolist())
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _lattice_int("box radius", self.radius, 0))
        if max(abs(c) for c in center) + self.radius > self.env.radius:
            raise ValueError(f"box of radius {self.radius} at {center} overruns the window of radius {self.env.radius}")
        lo = self.env.radius - self.radius
        cut = (0,) + tuple(slice(lo + c, lo + c + self.side) for c in center)
        v, hard = (a[cut] for a in self.env.stack())
        object.__setattr__(self, "v", np.where(hard, 0.0, v))
        object.__setattr__(self, "live", ~hard)

    @property
    def dim(self):
        return self.env.dim

    @property
    def side(self):
        return 2 * self.radius + 1

    @property
    def n_box(self):
        return self.side**self.dim

    def box_coords(self):
        """All box sites, C-ordered, (n_box, dim)."""
        return window_coords(self.dim, self.radius) + np.asarray(self.center, dtype=np.int64)

    def active_mask(self):
        """Boolean over box sites; False on hard cores."""
        return self.live.ravel()

    @property
    def n_active(self):
        return int(self.live.sum())

    def potential(self):
        """Finite v on active sites, in active order."""
        return self.v[self.live]

    def killing_grid(self):
        """(pot, ok, steps) on the box padded by one layer, flat in C order.

        pot is v on live box sites and 0 elsewhere; ok is True on live
        box sites.  steps[k] is the flat offset of direction k: the
        stride of axis k >> 1, negated for odd k.
        """
        strides = (self.side + 2) ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        steps = np.stack([strides, -strides], axis=1).ravel()
        return np.pad(self.v, 1).ravel(), np.pad(self.live, 1).ravel(), steps

    def grid_index(self, x):
        """Flat index of the site x in the killing_grid arrays; refuses x outside the box."""
        x = _lattice_sites("x", np.ravel(x), self.dim)[0]
        if np.abs(x - self.center).max() > self.radius:
            raise ValueError(f"x = {tuple(x.tolist())} lies outside the box of radius {self.radius} at {self.center}")
        return int(np.ravel_multi_index(tuple(x - self.center + self.radius + 1), (self.side + 2,) * self.dim))

    def operator_dense(self, kappa):
        """kappa*Delta + v as a dense symmetric matrix on the active set."""
        keep = self.active_mask()
        i, j = _grid_pairs(self.live.shape)
        both = keep[i] & keep[j]
        rank = np.cumsum(keep) - 1
        i, j = rank[i[both]], rank[j[both]]
        A = np.diag(self.potential() - 2.0 * self.dim * kappa)
        A[i, j] = kappa
        A[j, i] = kappa
        return A


@dataclass(frozen=True)
class MomentField:
    """Values on a box as mantissa * e^log_offset, zero on inactive sites.

    After construction the largest mantissa is exactly 1 (or the field is
    identically zero), so mantissas never overflow no matter how large
    v*t gets.  method names the route that produced it: "dense-eig",
    "uniformization", or "closed-form" (kappa = 0, t = 0, empty box);
    degree is the Poisson degree K of a uniformization sum, and 0 for
    the other routes.
    """

    domain: BoxDomain
    t: float
    kappa: float
    mantissa: np.ndarray = field(repr=False)
    log_offset: float = 0.0
    method: str = "closed-form"
    degree: int = 0

    def log_values(self):
        """Per-box-site log m; -inf where the solution vanishes."""
        with np.errstate(divide="ignore"):
            return np.log(self.mantissa) + self.log_offset

    def value_at(self, coord):
        """(mantissa, log_offset) at one lattice coordinate."""
        dom = self.domain
        x = _lattice_sites("coord", np.ravel(coord), dom.dim)[0]
        if np.abs(x - dom.center).max() > dom.radius:
            raise IndexError(f"coord = {tuple(x.tolist())} lies outside the box of radius {dom.radius} at {dom.center}")
        idx = np.ravel_multi_index(tuple(x - dom.center + dom.radius), (dom.side,) * dom.dim)
        return float(self.mantissa[idx]), self.log_offset

    def log_total(self):
        """log sum over the box."""
        s = float(self.mantissa.sum())
        return -math.inf if s == 0.0 else math.log(s) + self.log_offset


def _normalized_field(domain, t, kappa, active_values, extra_offset, method, degree=0):
    """Embed active-set values into the box and renormalize the scale."""
    m = np.asarray(active_values, dtype=np.float64)
    peak = m.max() if len(m) else 0.0
    off = extra_offset
    if peak > 0.0:
        m = m / peak
        off = off + math.log(peak)
    full = np.zeros(domain.n_box)
    full[domain.active_mask()] = m
    return MomentField(domain, float(t), float(kappa), full, float(off), method, degree)


def _box_of(env, box):
    """box itself, refused unless it is a BoxDomain cut from env."""
    if not isinstance(box, BoxDomain) or box.env is not env:
        raise ValueError("box must be a BoxDomain of env")
    return box


def _check_walk(kappa, t):
    """Refuses, naming the value, a t or kappa that is not finite and >= 0."""
    for name, value in (("t", t), ("kappa", kappa)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def solve_truncated(env, box, kappa, t):
    """Truncated moment field on a box with Dirichlet zero outside.

    kappa > 0 runs the box through _solve_stack alone, with margin 0 and
    charged as one box; the route follows the estimated cost and cannot
    be chosen.
    Raises ValueError unless box is a BoxDomain of env.
    """
    _check_walk(kappa, t)
    domain = _box_of(env, box)
    n = domain.n_active
    if n == 0 or t == 0.0:
        return _normalized_field(domain, t, kappa, np.ones(n), 0.0, "closed-form")
    if kappa == 0.0:
        v = domain.potential()
        peak = float(v.max())
        return _normalized_field(domain, t, kappa, np.exp((v - peak) * t), peak * t, "closed-form")
    vals, off, degree, dense = _solve_stack(domain.v[None], domain.live[None], kappa, t, 0, 1)
    method = "dense-eig" if dense[0] else "uniformization"
    return _normalized_field(domain, t, kappa, vals[0][domain.active_mask()], off[0], method, int(degree[0]))


def required_radius(kappa, t, tol, d=1):
    """Smallest safe truncation radius for the untruncated moment.

    Charges the exit-probability bound 4 e^(-2 kappa t I(R/(2 kappa t)))
    against tol^2 (so the walk-confinement error is tol-squared small,
    leaving headroom for the e^(2 d kappa t) mass factor), and never goes
    below (kappa t)^(3/2).  The bound is increasing in R, so R is found
    by bisection.  A radius over _MAX_RADIUS raises SolverError; a kappa
    or t that is not finite and >= 0, or a tol outside (0, 1), raises
    ValueError, as does a d that is not an integer >= 1, even where
    kappa t = 0 needs no radius.
    """
    _check_walk(kappa, t)
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol:g}")
    d = _lattice_int("d", d, 1)
    kt = float(kappa) * float(t)
    if kt == 0.0:
        return 0
    target = -2.0 * math.log(tol)

    def short(R):  # the bound is increasing in R
        return 2.0 * kt * rate_I(R / (2.0 * kt)) - 2.0 * d * kt < target

    if not short(_MAX_RADIUS):
        lo, hi = 1, _MAX_RADIUS  # the smallest R that is not short lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if short(mid) else (lo, mid)
        R = max(math.ceil(kt**1.5), hi)
        if R <= _MAX_RADIUS:
            return R
    raise SolverError(f"truncation radius exceeds 1e6 for kappa t = {kt:g}, d = {d}, tol = {tol:g}")


def solve_untruncated(env, x, kappa, t, tol=1e-8):
    """(log m(x, t), radius_used) on the full lattice; log m is -inf on a hard core.

    Picks the radius from required_radius and reads x through
    site_log_moments, whose window around x reads only x, so sites
    elsewhere in the window may lie far below it.  For kappa = 0 the
    window is the one site x and the answer t v(x) is exact.
    """
    R = required_radius(kappa, t, tol, env.dim)
    return float(site_log_moments(*env.stack(), [x], kappa, t, R)[0, 0]), R


def windows_per_call(n_sites):
    """How many boxes of n_sites sites one batched solve takes; see _STACK_SITES."""
    return max(1, _STACK_SITES // n_sites)


@lru_cache(maxsize=None)
def _log_factorials(size):
    """Read-only table of log k! for k < size; callers ask for powers of two."""
    table = np.fromiter(map(log_factorial, range(size)), float, size)
    table.setflags(write=False)
    return table


def _poisson_degree(lam):
    """Per entry, the smallest K with Pr(N > K) <= _POISSON_TAIL Pr(N <= K), N ~ Poisson(lam).

    The predicate is monotone in K, so an integer bisection between
    floor(lam) and lam + 8 sqrt(lam) + 40 finds it; an upper end that
    fails the predicate raises.  The tail Pr(N > K) is
    p (1 + r_1 + r_1 r_2 + ...) with p = Pr(N = K + 1) and ratios
    r_i = lam / (K + 1 + i) that fall in i, so it lies between p and
    p / (1 - r_1).  Only entries whose predicate those bounds leave
    open sum the series, until its terms are below e^-40 of p.
    """
    lam = np.asarray(lam, dtype=np.float64)
    lo = np.floor(lam)
    hi = np.ceil(lam + 8.0 * np.sqrt(lam) + 40.0)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)

    def small_tail(k):
        j = k + 1.0
        log_fact = _log_factorials(1 << int(j.max(initial=0.0)).bit_length())
        p = np.exp(j * log_lam - lam - log_fact[j.astype(np.int64)])
        r = lam / (j + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = p / (1.0 - r)
        falls = r < 1.0
        good = falls & (upper <= _POISSON_TAIL * (1.0 - upper))
        open_ = falls & ~good & (p <= _POISSON_TAIL * (1.0 - p))
        if open_.any():
            n_terms = math.ceil(40.0 / -math.log(r[open_].max()))
            ratios = lam[open_, None] / (j[open_, None] + np.arange(1.0, n_terms + 1.0))
            tail = p[open_] * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1))
            good[open_] = tail <= _POISSON_TAIL * (1.0 - tail)
        return good

    if not np.all(small_tail(hi)):
        raise SolverError(f"no Poisson degree found below {hi.max():.0f}")
    while np.any(lo < hi):
        mid = np.floor(0.5 * (lo + hi))
        good = small_tail(mid)
        hi = np.where(good, mid, hi)
        lo = np.where(good, lo, mid + 1.0)
    return hi.astype(np.int64)


def _uniformized_sums(v, active, kappa, t, vmin, c, degree, margin):
    """sum_{k <= K_b} Pois(k; c_b t) P_b^k 1 for each box b, at the sites margin or more inside it.

    P_b = I + (A_b - v_max,b)/c_b is nonnegative and substochastic, with
    diagonal (v - v_min)/c_b and kappa/c_b between lattice neighbors,
    applied as a stencil over the d axes of a zero-padded array; both
    vanish on hard cores, so those sites stay at 0.  Only the sites read
    are accumulated.  Rows run in order of decreasing degree, so the
    boxes still in the loop at step k are a prefix of the stack.  The
    weights come from their logarithms, so e^{-ct} cannot underflow.
    Returns shape (B, (S - 2 margin)^d).
    """
    B, shape = v.shape[0], v.shape[1:]
    d = len(shape)
    per_row = (B,) + (1,) * d
    order = np.argsort(-degree, kind="stable")
    v, active, vmin, c, degree = v[order], active[order], vmin[order], c[order], degree[order]
    scale = np.where(c > 0.0, c, 1.0).reshape(per_row)
    diag = np.where(active, (v - vmin.reshape(per_row)) / scale, 0.0)
    link = np.where(active, kappa / scale, 0.0)
    lam = c * t
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    log_fact = _log_factorials(1 << int(degree.max(initial=0)).bit_length())
    inner, read = _inner(shape, 0, 1), _inner(shape, margin, 1)
    shifts = [inner[: k + 1] + (s,) + inner[k + 2 :] for k in range(d) for s in (slice(None, -2), slice(2, None))]
    u = np.zeros((B,) + tuple(s + 2 for s in shape))
    u[inner] = active
    nxt = np.zeros_like(u)
    tmp = np.empty(v.shape)
    acc = np.exp(-lam).reshape(per_row) * u[read]
    n_left = B - np.searchsorted(degree[::-1], np.arange(int(degree.max(initial=0)) + 1), side="left")
    for k in range(1, len(n_left)):
        n = n_left[k]
        cur, new = u[:n], nxt[:n]
        out = new[inner]
        np.add(cur[shifts[0]], cur[shifts[1]], out=out)
        for s in shifts[2:]:
            out += cur[s]
        out *= link[:n]
        np.multiply(diag[:n], cur[inner], out=tmp[:n])
        out += tmp[:n]
        u, nxt = nxt, u
        weight = np.exp(k * log_lam[:n] - lam[:n] - log_fact[k])
        acc[:n] += weight.reshape((n,) + (1,) * d) * u[:n][read]
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(B, math.prod(acc.shape[1:]))


def _inner(shape, margin, pad=0):
    """Index of the sites at least margin inside every face of a stack of boxes of `shape`, each padded by pad."""
    return (slice(None),) + tuple(slice(pad + margin, pad + s - margin) for s in shape)


def _grid_pairs(shape):
    """Flat index pairs (i, j) of lattice neighbors in a C-ordered grid."""
    grid = np.arange(math.prod(shape)).reshape(shape)
    ends = [np.moveaxis(grid, k, 0) for k in range(len(shape))]
    return np.concatenate([g[:-1].ravel() for g in ends]), np.concatenate([g[1:].ravel() for g in ends])


def _dense_fields(v, active, kappa, t, margin):
    """(values, log offsets, accurate) for boxes solved by batched eigh.

    Hard cores are decoupled from their neighbors and given the lowest
    active diagonal entry, so they never set the top eigenvalue and the
    start vector, zero on them, keeps them out.  Only the sites margin or
    more inside each box are read.  A dense answer errs by about n eps
    times its box's peak, so `accurate` is False where an active site
    read lies too far below the peak for a relative error of
    _SITE_LOG_TOL.  Values have shape (B, (S - 2 margin)^d).
    """
    B, shape, n = len(v), v.shape[1:], v[0].size
    v, active = v.reshape(B, n), active.reshape(B, n)
    diag = v - 2.0 * len(shape) * kappa
    floor = np.min(diag, axis=1, where=active, initial=np.inf)
    A = np.zeros((B, n, n))
    A.reshape(B, n * n)[:, :: n + 1] = np.where(active, diag, floor[:, None])
    i, j = _grid_pairs(shape)
    link = kappa * (active[:, i] & active[:, j])
    A[:, i, j] = link
    A[:, j, i] = link
    w, Q = np.linalg.eigh(A)
    lam0 = w[:, -1]
    weights = np.einsum("bik,bi->bk", Q, active) * np.exp((w - lam0[:, None]) * t)
    field = np.einsum("bik,bk->bi", Q, weights)
    cut = field.max(axis=1, keepdims=True) * n * np.finfo(float).eps / _SITE_LOG_TOL
    field, active = (a.reshape((B,) + shape)[_inner(shape, margin)].reshape(B, -1) for a in (field, active))
    accurate = np.all((field >= cut) | ~active, axis=1)
    return np.where(active, field, 0.0), lam0 * t, accurate


def _dense_route(n, degree, n_rows):
    """True where batched eigh is cheaper than uniformization for a box of n sites.

    In one unit, eigh costs about n^2 (n + _EIGH_SMALL) per box, the
    n^2 term being its overhead on small matrices.  Uniformization costs
    K_b (_STEP_PER_SITE n + _STEP_FIXED / n_rows) per box: each of its
    K_b steps does work per site plus a fixed amount that the n_rows
    boxes of the stack share.  The constants were fitted to timings of
    both routes.
    """
    return n * n * (n + _EIGH_SMALL) <= degree * (_STEP_PER_SITE * n + _STEP_FIXED / n_rows)


def _solve_stack(v, active, kappa, t, margin, n_rows):
    """m(., t) on each box of a (B, S, ..., S) stack with Dirichlet zero outside.

    v holds finite potentials on the active sites and is ignored on the
    rest.  Box b is e^{t v_max} sum_k Pois(k; c_b t) P_b^k 1 with
    c_b = 2 d kappa + max v - min v over its active sites, truncated at
    its own degree K_b (_poisson_degree).  P_b^k 1 does not increase in
    k, so the truncation errs by at most _POISSON_TAIL relative to each
    site's own value, and the sum has no cancellation.  Boxes where
    _dense_route holds, charged as in a stack of n_rows boxes, go to
    batched eigh instead; a dense answer that fails its accuracy check is
    summed by uniformization.  Callers pass an n_rows that does not
    depend on how many boxes share the call, so neither does a box's
    route, nor its bits.  A box with c_b t above _MAX_DEGREE (a heavy
    negative tail puts a site at v of -4.6e7 among 67 frechet(0.5) sites)
    raises SolverError naming c_b t and its min and max v, before any
    degree is sought.

    Reads the sites at least margin inside every face of each box, and
    only those must lie above e^-708 of e^{t v_max} and pass the dense
    accuracy check.  Returns (values, log offsets, degrees, dense):
    m = values * e^offset, of shape (B, (S - 2 margin)^d); the degree is
    0 where dense answered.
    """
    B, n, axes = len(v), math.prod(v.shape[1:]), tuple(range(1, v.ndim))
    read = active[_inner(v.shape[1:], margin)].reshape(B, -1)
    v = np.where(active, v, 0.0)
    vmax = np.max(v, axis=axes, where=active, initial=-np.inf)
    vmin = np.min(v, axis=axes, where=active, initial=np.inf)
    c = 2.0 * len(axes) * kappa + vmax - vmin
    lam = c * t
    if lam.max(initial=0.0) > _MAX_DEGREE:
        b = int(np.argmax(lam))
        raise SolverError(
            f"uniformization rate c t = {lam[b]:.4g} exceeds {_MAX_DEGREE}: a box's v runs from "
            f"min v = {vmin[b]:.4g} to max v = {vmax[b]:.4g} at kappa = {kappa:g}, t = {t:g}"
        )
    degree = _poisson_degree(lam)
    vals = np.empty(read.shape)
    off = t * vmax
    dense = np.zeros(B, dtype=bool)
    rows = np.nonzero(_dense_route(n, degree, n_rows))[0]
    step = max(1, _DENSE_ENTRIES // (n * n))
    for s in range(0, len(rows), step):
        part = rows[s : s + step]
        field, lam0t, accurate = _dense_fields(v[part], active[part], kappa, t, margin)
        part = part[accurate]
        vals[part], off[part], dense[part] = field[accurate], lam0t[accurate], True
    rest = np.nonzero(~dense)[0]
    vals[rest] = _uniformized_sums(v[rest], active[rest], kappa, t, vmin[rest], c[rest], degree[rest], margin)
    low = np.min(vals, where=read, initial=np.inf)
    if low < np.finfo(float).tiny:
        raise SolverError(f"a site lies below e^-708 of e^(t v_max): value {low:.3e}")
    return vals, off, np.where(dense, 0, degree), dense


def _equal_parts(total, most):
    """(lo, hi) of ceil(total / most) consecutive parts of range(total), sizes differing by at most one."""
    k = max(1, -(-total // most))
    return [(i * total // k, (i + 1) * total // k) for i in range(k)]


def _block_logs(v, hard, corners, w, R, kappa, t):
    """(n, n_blocks, w^d) log m(x, t) on blocks of w^d sites of each of n environments; -inf on hard cores.

    v and hard are one (n, S, ..., S) stack; a row of corners holds the
    frame coordinates (0 to S - 1) of a block's lowest site.  A block's
    Dirichlet box adds R sites beyond each face and must lie in the
    frame, so each read site meets the bound of its window of radius R,
    and Dirichlet monotonicity puts it between that window's value and m.
    The (environment, block) boxes, environment-major, are cut into
    ceil(total / windows_per_call) parts of sizes equal to within one,
    each gathered by one take and, but for boxes whose read sites are all
    hard cores, one _solve_stack call, charged as a full part.
    """
    frame = v.shape[1:]
    side = (w + 2 * R,) * len(frame)
    n_box, n_frame = math.prod(side), math.prod(frame)
    firsts = np.ravel_multi_index(tuple(np.asarray(corners).T - R), frame)
    offsets = np.ravel_multi_index(tuple(np.indices(side).reshape(len(side), -1)), frame)
    out = np.full((len(v) * len(firsts), w ** len(side)), -np.inf)
    per_call = windows_per_call(n_box)
    parts = _equal_parts(len(out), per_call)
    size = max(hi - lo for lo, hi in parts)
    flat_v, flat_hard = np.empty((size, n_box)), np.empty((size, n_box), dtype=bool)
    for lo, hi in parts:
        n = hi - lo
        row, j = np.divmod(np.arange(lo, hi), len(firsts))
        at = (row * n_frame + firsts[j])[:, None] + offsets
        v.take(at, out=flat_v[:n], mode="clip")
        hard.take(at, out=flat_hard[:n], mode="clip")
        box_v, live = flat_v[:n].reshape((n,) + side), ~flat_hard[:n].reshape((n,) + side)
        bad = box_v[live & ~np.isfinite(box_v)]
        if bad.size:
            raise SolverError(f"blocks need finite potentials on active sites, got {bad[0]:g}")
        rows = np.flatnonzero(live[_inner(side, R)].reshape(n, out.shape[1]).any(axis=1))
        if rows.size:
            vals, off, _, _ = _solve_stack(box_v[rows], live[rows], kappa, t, R, per_call)
            with np.errstate(divide="ignore"):
                out[lo + rows] = np.log(vals) + off[:, None]
    return out.reshape(len(v), len(firsts), out.shape[1])


def site_log_moments(v, hard, sites, kappa, t, R):
    """(n, n_sites) array of log m(x, t) at fixed lattice sites of each of n environments.

    v and hard, the potentials and hard-core masks, are one (n, S, ..., S)
    stack on the window [-radius, radius]^d: env.stack(), or a stack of
    sample_potentials.  sites holds integer coordinates, one row per
    site (a 1-d array is taken as 1-d sites).  Each value comes from the
    site's Dirichlet window of radius R, hard cores masked, and is -inf
    where the site is a hard core: _block_logs with blocks of one site.
    At kappa = 0, R = 0 and a window is its site, whose value is t v(x)
    exactly.
    """
    frame = v.shape[1:]
    sites = _lattice_sites("sites", np.reshape(sites, (len(sites), -1 if len(sites) else len(frame))), len(frame))
    if any(s != frame[0] or s % 2 == 0 for s in frame):
        raise ValueError(f"environments must be cubes of odd side, got shape {frame}")
    if hard.shape != v.shape:
        raise ValueError(f"hardcore mask must have the shape of the potentials {v.shape}, got {hard.shape}")
    radius = frame[0] // 2
    reach = int(np.abs(sites).max(initial=0)) + R
    if reach > radius:
        raise SolverError(f"window radius {radius} too small: need {reach} for windows of radius {R}")
    return _block_logs(v, hard, sites + radius, 1, R, kappa, t)[..., 0]


def _replica_logs(family, seeds, radius, corners, w, kappa, t, R, reduce):
    """reduce(_block_logs(...)) on stacks of the replicas of `seeds`, concatenated.

    The replicas are sampled on [-radius, radius]^d, d = corners.shape[1],
    in stacks of sizes equal to within one: as many as one batched solve
    takes with all their boxes, and no more sites, or else one replica.
    So memory does not grow with len(seeds).
    """
    n_blocks, dim = np.shape(corners)
    shape = (2 * radius + 1,) * dim
    per_stack = max(1, min(windows_per_call((w + 2 * R) ** dim) // n_blocks, windows_per_call(math.prod(shape))))
    logs = []
    for lo, hi in _equal_parts(len(seeds), per_stack):
        v, hard = sample_potentials(family, dim, radius, seeds[lo:hi])
        logs.append(reduce(_block_logs(v.reshape((-1,) + shape), hard.reshape((-1,) + shape), corners, w, R, kappa, t)))
    return np.concatenate(logs)


def _replica_site_logs(family, seeds, radius, sites, kappa, t, R):
    """(n, n_sites) log m(x, t) at integer `sites` of the replicas of `seeds`, sampled on [-radius, radius]^d."""
    return _replica_logs(family, seeds, radius, np.reshape(sites, (len(sites), -1)) + radius, 1, kappa, t, R,
                         lambda logs: logs[..., 0])


def _replica_box_logs(family, seeds, L, kappa, t, R, reduce):
    """reduce(logs) per stack of the 1-d replicas of `seeds`, concatenated; logs holds log m(x, t), |x| <= L.

    The replicas are sampled on [-L - R, L + R].  The read range [-L, L]
    is cut into tiles of w = min(2L + 1, 2R + 1) sites, the last shifted
    left to end at L; site j from the left is read from tile j // w.
    reduce gets the stack's (n, 2L + 1) logs in site order and C-ordered,
    so a replica's value does not depend on the size of its stack; the
    regime box averages pass _log_mean.
    """
    n_read = 2 * L + 1
    w = min(n_read, 2 * R + 1)
    starts = np.minimum(np.arange(0, n_read, w), n_read - w)
    tile_of = np.arange(n_read) // w
    at = tile_of * w + np.arange(n_read) - starts[tile_of]
    return _replica_logs(family, seeds, L + R, (starts + R)[:, None], w, kappa, t, R,
                         lambda logs: reduce(logs.reshape(len(logs), -1).take(at, axis=1)))


def _log_mean(logs):
    """log mean of e^logs over the last axis, summed in log space; log m^L from a box's site logs."""
    return logsumexp(logs, axis=-1) - math.log(logs.shape[-1])


def empirical_average(env, L, kappa, t, tol=1e-8):
    """log m^L, m^L = |Λ_L|^-1 Σ_{|x| <= L} m(x, t); -inf if every site is killed.

    Hard-core sites contribute zero.  Every site of the box is read by
    site_log_moments, with windows of radius required_radius.
    """
    L = _lattice_int("L", L, 0)
    R = required_radius(kappa, t, tol, env.dim)
    return float(_log_mean(site_log_moments(*env.stack(), window_coords(env.dim, L), kappa, t, R))[0])
