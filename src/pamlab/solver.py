"""Lattice moment solver for du/dt = kappa*Delta*u + v*u with Dirichlet kill.

The discrete Laplacian is Delta f(x) = sum over unit neighbors e of
f(x+e) - 2d f(x); sites outside the active set (outside the box, or hard
core) carry the value 0.  Solutions grow like e^{max(v) t}, so fields are
stored as a mantissa array plus one shared additive log offset.

Every kappa > 0 solve goes through one kernel, _solve_stack, on a stack
of d-dimensional boxes given as a (B, S, ..., S) array of potentials
plus its hard-core mask: a single box is a stack of one that reads every
site, and site_log_moments, the one reader of site moments at given
sites, cuts windows from stacks of environments' potentials into
stacks of at most _STACK_SITES sites that read their centers.  Each
box is summed by uniformization, or by a batched dense
eigendecomposition where one fitted cost rule (_dense_route) says that
is cheaper.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.special import gammaln, logsumexp, pdtr, pdtrc

from .analytics import rate_I
from .environments import window_coords

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
# Sites per stack of windows, which bounds the uniformization work arrays.
_STACK_SITES = 2**17


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoxDomain:
    """A centered box inside a sampled window, minus hard-core sites."""

    env: object
    center: tuple
    radius: int

    def __post_init__(self):
        center = tuple(int(c) for c in np.atleast_1d(np.asarray(self.center)))
        object.__setattr__(self, "center", center)
        if len(center) != self.env.dim:
            raise ValueError("center dimension does not match the environment")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if max(abs(c) for c in center) + self.radius > self.env.radius:
            raise ValueError("box does not fit inside the sampled window")

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
        """All box sites, C-ordered; cached on first use."""
        cached = self.__dict__.get("_box_coords")
        if cached is None:
            cached = window_coords(self.dim, self.radius) + np.asarray(self.center, dtype=np.int64)
            self.__dict__["_box_coords"] = cached
        return cached

    def env_indices(self):
        cached = self.__dict__.get("_env_indices")
        if cached is None:
            cached = self.env.flat_index(self.box_coords())
            self.__dict__["_env_indices"] = cached
        return cached

    def active_mask(self):
        """Boolean over box sites; False on hard cores."""
        cached = self.__dict__.get("_active_mask")
        if cached is None:
            cached = ~self.env.hardcore[self.env_indices()]
            self.__dict__["_active_mask"] = cached
        return cached

    @property
    def n_active(self):
        return int(self.active_mask().sum())

    def potential(self):
        """Finite v on active sites, in active order."""
        idx = self.env_indices()[self.active_mask()]
        return self.env.v_plus[idx] - self.env.v_minus[idx]

    def _neighbor_pairs(self):
        """Index pairs (i, j), i < j in active order, of lattice neighbors."""
        cached = self.__dict__.get("_pairs")
        if cached is None:
            i, j = _grid_pairs((self.side,) * self.dim)
            keep = self.active_mask()
            both = keep[i] & keep[j]
            rank = np.cumsum(keep) - 1
            cached = (rank[i[both]], rank[j[both]])
            self.__dict__["_pairs"] = cached
        return cached

    def operator_dense(self, kappa):
        """kappa*Delta + v as a dense symmetric matrix on the active set."""
        return self.operator_sparse(kappa).toarray()

    def operator_sparse(self, kappa):
        n = self.n_active
        i, j = self._neighbor_pairs()
        diag = self.potential() - 2.0 * self.dim * kappa
        rows = np.concatenate([np.arange(n), i, j])
        cols = np.concatenate([np.arange(n), j, i])
        vals = np.concatenate([diag, np.full(len(i), kappa), np.full(len(j), kappa)])
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


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
        coord = np.asarray(coord, dtype=np.int64).reshape(-1)
        delta = coord - np.asarray(self.domain.center)
        if np.any(np.abs(delta) > self.domain.radius):
            raise IndexError("coordinate outside the box")
        idx = np.ravel_multi_index(tuple(delta + self.domain.radius), (self.domain.side,) * self.domain.dim)
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


def _box_stack(domain):
    """(potentials, active mask) of a box as a (1, S, ..., S) stack, zero on hard cores."""
    shape = (1,) + (domain.side,) * domain.dim
    active = domain.active_mask()
    v = np.zeros(domain.n_box)
    v[active] = domain.potential()
    return v.reshape(shape), active.reshape(shape)


def solve_truncated(env, box, kappa, t):
    """Truncated moment field on a box with Dirichlet zero outside.

    kappa > 0 runs the box through _solve_stack as a stack of one that
    reads every site; the route follows the estimated cost and cannot
    be chosen.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    domain = box if isinstance(box, BoxDomain) else BoxDomain(env, box, 0)
    n = domain.n_active
    if n == 0 or t == 0.0:
        return _normalized_field(domain, t, kappa, np.ones(n), 0.0, "closed-form")
    if kappa == 0.0:
        v = domain.potential()
        peak = float(v.max())
        return _normalized_field(domain, t, kappa, np.exp((v - peak) * t), peak * t, "closed-form")
    v, active = _box_stack(domain)
    vals, off, degree, dense = _solve_stack(v, active, kappa, t, every_site=True)
    method = "dense-eig" if dense[0] else "uniformization"
    return _normalized_field(domain, t, kappa, vals[0][domain.active_mask()], off[0], method, int(degree[0]))


def required_radius(kappa, t, tol, d=1):
    """Smallest safe truncation radius for the untruncated moment.

    Charges the exit-probability bound 4 e^(-2 kappa t I(R/(2 kappa t)))
    against tol^2 (so the walk-confinement error is tol-squared small,
    leaving headroom for the e^(2 d kappa t) mass factor), and never goes
    below (kappa t)^(3/2).
    """
    kt = float(kappa) * float(t)
    if kt <= 0.0:
        return 0
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    target = -2.0 * math.log(tol)
    R = 1
    while 2.0 * kt * rate_I(R / (2.0 * kt)) - 2.0 * d * kt < target:
        R += 1
        if R > 10**6:
            raise SolverError("truncation radius exceeds 1e6")
    return max(math.ceil(kt**1.5), R)


def solve_untruncated(env, x, kappa, t, tol=1e-8):
    """(mantissa, log_offset, radius_used) of m(x, t) on the full lattice.

    Picks the radius from required_radius and reads x through
    site_log_moments, whose window around x reads only x, so sites
    elsewhere in the window may lie far below it.  For kappa = 0 the
    window is the one site x and the answer e^{v(x) t} is exact.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    R = required_radius(kappa, t, tol, env.dim)
    log_m = float(site_log_moments([env.stack()], x[None, :], kappa, t, R)[0, 0])
    if log_m == -math.inf:
        return 0.0, 0.0, R
    return 1.0, log_m, R


def windows_per_call(n_sites):
    """How many windows of n_sites sites one batched solve takes; see _STACK_SITES."""
    return max(1, _STACK_SITES // n_sites)


def _poisson_degree(lam):
    """Per entry, the smallest K with Pr(N > K) <= _POISSON_TAIL Pr(N <= K), N ~ Poisson(lam).

    The predicate is monotone in K, so an integer bisection between
    floor(lam) and lam + 8 sqrt(lam) + 40 finds it; an upper end that
    fails the predicate raises.
    """
    lo = np.floor(lam)
    hi = np.ceil(lam + 8.0 * np.sqrt(lam) + 40.0)

    def small_tail(k):
        return pdtrc(k, lam) <= _POISSON_TAIL * pdtr(k, lam)

    if not np.all(small_tail(hi)):
        raise SolverError(f"no Poisson degree found below {hi.max():.0f}")
    while np.any(lo < hi):
        mid = np.floor(0.5 * (lo + hi))
        good = small_tail(mid)
        hi = np.where(good, mid, hi)
        lo = np.where(good, lo, mid + 1.0)
    return hi.astype(np.int64)


def _uniformized_sums(v, active, kappa, t, vmin, c, degree, every_site):
    """sum_{k <= K_b} Pois(k; c_b t) P_b^k 1 for each box b, at its center or every site.

    P_b = I + (A_b - v_max,b)/c_b is nonnegative and substochastic, with
    diagonal (v - v_min)/c_b and kappa/c_b between lattice neighbors,
    applied as a stencil over the d axes of a zero-padded array; both
    vanish on hard cores, so those sites stay at 0.  Only the sites read
    are accumulated.  Rows run in order of decreasing degree, so the
    boxes still in the loop at step k are a prefix of the stack.  The
    weights come from their logarithms, so e^{-ct} cannot underflow.
    Returns shape (B, 1), or (B, S^d) if every_site.
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
    inner = (slice(None),) + (slice(1, -1),) * d
    shifts = [inner[: k + 1] + (s,) + inner[k + 2 :] for k in range(d) for s in (slice(None, -2), slice(2, None))]
    read = inner if every_site else (slice(None),) + tuple(slice(1 + s // 2, 2 + s // 2) for s in shape)
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
        weight = np.exp(k * log_lam[:n] - lam[:n] - gammaln(k + 1.0))
        acc[:n] += weight.reshape((n,) + (1,) * d) * u[:n][read]
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(B, math.prod(acc.shape[1:]))


def _grid_pairs(shape):
    """Flat index pairs (i, j) of lattice neighbors in a C-ordered grid."""
    grid = np.arange(math.prod(shape)).reshape(shape)
    ends = [np.moveaxis(grid, k, 0) for k in range(len(shape))]
    return np.concatenate([g[:-1].ravel() for g in ends]), np.concatenate([g[1:].ravel() for g in ends])


def _dense_fields(v, active, kappa, t, every_site):
    """(values, log offsets, accurate) for boxes solved by batched eigh.

    Hard cores are decoupled from their neighbors and given the lowest
    active diagonal entry, so they never set the top eigenvalue and the
    start vector, zero on them, keeps them out.  A dense answer errs by
    about n eps times its box's peak, so `accurate` is False where an
    active site read lies too far below the peak for a relative error of
    _SITE_LOG_TOL.  Values have shape (B, 1), or (B, S^d) if every_site.
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
    if not every_site:
        field, active = field[:, [n // 2]], active[:, [n // 2]]
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


def _solve_stack(v, active, kappa, t, every_site):
    """m(., t) on each box of a (B, S, ..., S) stack with Dirichlet zero outside.

    v holds finite potentials on the active sites and is ignored on the
    rest.  Box b is e^{t v_max} sum_k Pois(k; c_b t) P_b^k 1 with
    c_b = 2 d kappa + max v - min v over its active sites, truncated at
    its own degree K_b (_poisson_degree).  P_b^k 1 does not increase in
    k, so the truncation errs by at most _POISSON_TAIL relative to each
    site's own value, and the sum has no cancellation.  Boxes where
    _dense_route holds go to batched eigh instead; a dense answer that
    fails its accuracy check is summed by uniformization.

    Reads the center of each box, or every site if every_site.  Returns
    (values, log offsets, degrees, dense): m = values * e^offset, of
    shape (B, 1) or (B, S^d); the degree is 0 where dense answered.
    """
    B, n, axes = len(v), math.prod(v.shape[1:]), tuple(range(1, v.ndim))
    v = np.where(active, v, 0.0)
    vmax = np.max(v, axis=axes, where=active, initial=-np.inf)
    vmin = np.min(v, axis=axes, where=active, initial=np.inf)
    c = 2.0 * len(axes) * kappa + vmax - vmin
    degree = _poisson_degree(c * t)
    vals = np.empty((B, n if every_site else 1))
    off = t * vmax
    dense = np.zeros(B, dtype=bool)
    rows = np.nonzero(_dense_route(n, degree, max(B, 1)))[0]
    step = max(1, _DENSE_ENTRIES // (n * n))
    for s in range(0, len(rows), step):
        part = rows[s : s + step]
        field, lam0t, accurate = _dense_fields(v[part], active[part], kappa, t, every_site)
        part = part[accurate]
        vals[part], off[part], dense[part] = field[accurate], lam0t[accurate], True
    rest = np.nonzero(~dense)[0]
    vals[rest] = _uniformized_sums(v[rest], active[rest], kappa, t, vmin[rest], c[rest], degree[rest], every_site)
    low = np.min(vals, where=active.reshape(B, n)[:, slice(None) if every_site else [n // 2]], initial=np.inf)
    if low < np.finfo(float).tiny:
        raise SolverError(f"a site lies below e^-708 of e^(t v_max): value {low:.3e}")
    return vals, off, np.where(dense, 0, degree), dense


def log_center_moment_windows(v_windows, kappa, t, hardcore=None):
    """log m(center, t) for a stack of Dirichlet windows in any dimension.

    v_windows has shape (B, S, ..., S) with S odd, and d = v_windows.ndim
    - 1; hardcore, if given, is a boolean mask of the same shape whose
    sites are killed (their potentials are ignored).  A window whose
    center is a hard core gives -inf.  The windows are solved by
    _solve_stack in stacks of windows_per_call.  Returns shape (B,) of
    log values.
    """
    v = np.asarray(v_windows, dtype=np.float64)
    if v.ndim < 2 or any(s != v.shape[1] or s % 2 == 0 for s in v.shape[1:]):
        raise ValueError("windows must be cubes of odd side, stacked along axis 0")
    active = np.ones(v.shape, dtype=bool) if hardcore is None else ~np.asarray(hardcore, dtype=bool)
    if active.shape != v.shape:
        raise ValueError("hardcore mask must have the shape of the potentials")
    if not np.all(np.isfinite(v[active])):
        raise SolverError("windows need finite potentials on active sites")
    out = np.full(len(v), -np.inf)
    rows = np.nonzero(active[(slice(None),) + tuple(s // 2 for s in v.shape[1:])])[0]
    step = windows_per_call(v[0].size)
    for s in range(0, len(rows), step):
        part = rows[s : s + step]
        vals, off, _, _ = _solve_stack(v[part], active[part], kappa, t, every_site=False)
        out[part] = np.log(vals[:, 0]) + off
    return out


def site_log_moments(stacks, sites, kappa, t, R):
    """(n_env, n_sites) array of log m(x, t) at fixed lattice sites of each environment.

    stacks yields (v, hardcore) pairs of shape (n, S, ..., S): the
    potentials and hard-core masks of n environments on one window
    [-radius, radius]^d, S = 2 radius + 1, shared by every pair; rows
    follow one another as environments.  sites holds integer
    coordinates, one row per site (a 1-d array is taken as 1-d sites).
    Each value comes from the site's Dirichlet window of radius R, hard
    cores masked, and is -inf where the site is a hard core.  The
    (env, site) windows, in env-major order, are gathered into one stack
    that log_center_moment_windows solves each time windows_per_call of
    them are in; stacks is consumed lazily, so at most one pair and one
    stack of windows are held.  At kappa = 0, R = 0 and a window is its
    site, whose value is t v(x) exactly.
    """
    sites = np.asarray(sites, dtype=np.int64)
    sites = sites.reshape(len(sites), -1)
    d = sites.shape[1]
    side = (2 * R + 1,) * d
    step = windows_per_call(math.prod(side))
    stack_v = np.empty((step,) + side)
    stack_hard = np.empty((step,) + side, dtype=bool)
    flat_v, flat_hard = stack_v.reshape(step, -1), stack_hard.reshape(step, -1)
    logs, filled, frame = [], 0, None

    def solve(n):
        logs.append(log_center_moment_windows(stack_v[:n], kappa, t, hardcore=stack_hard[:n]))

    for v, hard in stacks:
        if frame is None:
            frame = v.shape[1:]
            if len(frame) != d:
                raise ValueError("sites must have one coordinate per environment dimension")
            if any(s != frame[0] or s % 2 == 0 for s in frame):
                raise ValueError("environments must be cubes of odd side")
            radius, n_frame = frame[0] // 2, math.prod(frame)
            reach = int(np.abs(sites).max(initial=0)) + R
            if reach > radius:
                raise SolverError(f"window radius {radius} too small: need {reach} for windows of radius {R}")
            centers = np.ravel_multi_index(tuple((sites + radius).T), frame)
            # flat offsets of a window's sites from its center, which is the frame's middle site
            offsets = np.ravel_multi_index(tuple((window_coords(d, R) + radius).T), frame) - n_frame // 2
        elif v.shape[1:] != frame:
            raise ValueError("environments must share one dim and radius")
        if hard.shape != v.shape:
            raise ValueError("hardcore mask must have the shape of the potentials")
        flat_env_v, flat_env_hard = v.reshape(-1), hard.reshape(-1)
        total, done = len(v) * len(centers), 0
        while done < total:
            n = min(total - done, step - filled)
            row, j = np.divmod(np.arange(done, done + n), len(centers))
            at = (row * n_frame + centers[j])[:, None] + offsets
            flat_env_v.take(at, out=flat_v[filled : filled + n], mode="clip")
            flat_env_hard.take(at, out=flat_hard[filled : filled + n], mode="clip")
            done, filled = done + n, filled + n
            if filled == step:
                solve(step)
                filled = 0
    if filled:
        solve(filled)
    return np.concatenate(logs or [np.empty(0)]).reshape(-1, len(sites))


def empirical_average(env, L, kappa, t, tol=1e-8):
    """Box average m^L = |Λ_L|^-1 Σ_{|x| <= L} m(x, t) as (mantissa, log_offset).

    Hard-core sites contribute zero.  Every site of the box is read by
    site_log_moments, with windows of radius required_radius.
    """
    L = int(L)
    if L < 0:
        raise ValueError("L must be >= 0")
    R = required_radius(kappa, t, tol, env.dim)
    total = float(logsumexp(site_log_moments([env.stack()], window_coords(env.dim, L), kappa, t, R)))
    if total == -math.inf:
        return 0.0, 0.0
    return 1.0, total - math.log((2 * L + 1) ** env.dim)
