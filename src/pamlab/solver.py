"""Lattice moment solver for du/dt = kappa*Delta*u + v*u with Dirichlet kill.

The discrete Laplacian is Delta f(x) = sum over unit neighbors e of
f(x+e) - 2d f(x); sites outside the active set (outside the box, or hard
core) carry the value 0.  Solutions grow like e^{max(v) t}, so fields are
stored as a mantissa array plus one shared additive log offset.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.special import gammaln, logsumexp, pdtr, pdtrc

from .analytics import rate_I
from .environments import effective_potential, window_coords

# Measured exchange rate between the costs of the two routes; see _dense_is_cheaper.
_DENSE_COST = 1.3e5
# Per-site |error in log m| that a dense solve must keep; see solve_truncated.
_SITE_LOG_TOL = 1e-8
# Poisson tail over head at which a window's uniformization sum stops.
_POISSON_TAIL = 1e-13
# A window goes to dense eigh when its Poisson degree exceeds _DENSE_FIT m^2.
_DENSE_FIT = 0.3
# Matrix entries per batched eigh call, which bounds the dense route's memory.
_DENSE_ENTRIES = 2**22


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
            S = self.side
            lo = np.asarray(self.center) - self.radius
            rel = self.box_coords()[self.active_mask()] - lo
            powers = S ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
            flat = rel @ powers
            lookup = np.full(S**self.dim, -1, dtype=np.int64)
            lookup[flat] = np.arange(len(flat))
            ii, jj = [], []
            for k in range(self.dim):
                ok = rel[:, k] + 1 < S
                shifted = flat[ok] + powers[k]
                j = lookup[shifted]
                hit = j >= 0
                ii.append(np.nonzero(ok)[0][hit])
                jj.append(j[hit])
            cached = (np.concatenate(ii), np.concatenate(jj))
            self.__dict__["_pairs"] = cached
        return cached

    def operator_dense(self, kappa):
        """kappa*Delta + v as a dense symmetric matrix on the active set."""
        n = self.n_active
        A = np.zeros((n, n))
        np.fill_diagonal(A, self.potential() - 2.0 * self.dim * kappa)
        i, j = self._neighbor_pairs()
        A[i, j] = kappa
        A[j, i] = kappa
        return A

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
    "krylov-expm", or "closed-form" (kappa = 0, t = 0, empty box).
    """

    domain: BoxDomain
    t: float
    kappa: float
    mantissa: np.ndarray = field(repr=False)
    log_offset: float = 0.0
    method: str = "closed-form"

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
        rel = delta + self.domain.radius
        S = self.domain.side
        idx = 0
        for k in range(self.domain.dim):
            idx = idx * S + int(rel[k])
        return float(self.mantissa[idx]), self.log_offset

    def log_total(self):
        """log sum over the box."""
        s = float(self.mantissa.sum())
        return -math.inf if s == 0.0 else math.log(s) + self.log_offset


def _normalized_field(domain, t, kappa, active_values, extra_offset, method):
    """Embed active-set values into the box and renormalize the scale."""
    m = np.asarray(active_values, dtype=np.float64)
    lo = m.min() if len(m) else 0.0
    if lo < 0.0:
        if lo < -1e-10 * m.max():
            raise SolverError(f"solver produced negative mass {lo:.3e}")
        m = np.maximum(m, 0.0)
    peak = m.max() if len(m) else 0.0
    off = extra_offset
    if peak > 0.0:
        m = m / peak
        off = off + math.log(peak)
    full = np.zeros(domain.n_box)
    full[domain.active_mask()] = m
    return MomentField(
        domain=domain, t=float(t), kappa=float(kappa), mantissa=full, log_offset=float(off), method=method
    )


def _solve_dense_eig(domain, kappa, t):
    A = domain.operator_dense(kappa)
    w, Q = np.linalg.eigh(A)
    lam0 = w[-1]
    weights = Q.sum(axis=0) * np.exp((w - lam0) * t)
    m = Q @ weights
    return m, lam0 * t


def _solve_krylov(domain, kappa, t):
    A = domain.operator_sparse(kappa)
    c = float(domain.potential().max())
    B = (A - c * scipy.sparse.identity(domain.n_active, format="csr")) * t
    m = scipy.sparse.linalg.expm_multiply(B, np.ones(domain.n_active))
    return m, c * t


def _dense_is_cheaper(domain, kappa, t):
    """True when a dense eigh beats expm_multiply on this box.

    Dense cost grows like n^3 in the number n of active sites; the
    Krylov action takes a number of steps proportional to 1 + t ||A||,
    and ||A|| is bounded by the spread of v plus 4 d kappa.  _DENSE_COST
    is the measured exchange rate between the two.
    """
    v = domain.potential()
    spread = float(v.max() - v.min()) + 4.0 * domain.dim * kappa
    return domain.n_active**3 <= _DENSE_COST * (1.0 + t * spread)


def solve_truncated(env, box, kappa, t):
    """Truncated moment field on a box with Dirichlet zero outside.

    The route follows the estimated cost and cannot be chosen: a dense
    symmetric eigendecomposition where _dense_is_cheaper holds, the
    sparse Krylov action of the matrix exponential otherwise.  A dense
    answer errs by about n eps times its peak at every site, so when its
    smallest value is too far below the peak for a relative error of
    _SITE_LOG_TOL there, the box is solved again by Krylov.
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
    if _dense_is_cheaper(domain, kappa, t):
        m, off = _solve_dense_eig(domain, kappa, t)
        if m.min() >= m.max() * n * np.finfo(float).eps / _SITE_LOG_TOL:
            return _normalized_field(domain, t, kappa, m, off, "dense-eig")
    m, off = _solve_krylov(domain, kappa, t)
    return _normalized_field(domain, t, kappa, m, off, "krylov-expm")


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

    Picks the radius from required_radius and solves the truncated
    problem on the box around x; for kappa = 0 the answer e^{v(x) t} is
    exact with radius 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if kappa == 0.0 or t == 0.0:
        idx = env.flat_index(x)
        if env.hardcore[idx]:
            return 0.0, 0.0, 0
        v = float(env.v_plus[idx] - env.v_minus[idx])
        return 1.0, v * t, 0
    R = required_radius(kappa, t, tol, env.dim)
    if int(np.abs(x).max()) + R > env.radius:
        raise SolverError(
            f"window radius {env.radius} too small: need radius {R} around {tuple(int(c) for c in x)}"
        )
    box = BoxDomain(env, tuple(int(c) for c in x), R)
    fld = solve_truncated(env, box, kappa, t)
    man, off = fld.value_at(x)
    return man, off, R


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


def _uniformized_centers(v, active, kappa, t, vmin, c, degree):
    """sum_{k <= K_b} Pois(k; c_b t) (P_b^k 1)(center) for each window b.

    P_b = I + (A_b - v_max,b)/c_b is nonnegative and substochastic, with
    diagonal (v - v_min)/c_b and off-diagonal kappa/c_b on the 3-point
    stencil; both vanish on hard cores, so those sites stay at 0.  Rows
    run in order of decreasing degree, so the windows still in the loop
    at step k are a prefix of the stack.  The weights come from their
    logarithms, so e^{-ct} cannot underflow.
    """
    B, m = v.shape
    order = np.argsort(-degree, kind="stable")
    v, active, vmin, c, degree = v[order], active[order], vmin[order], c[order], degree[order]
    scale = np.where(c > 0.0, c, 1.0)[:, None]
    diag = np.where(active, (v - vmin[:, None]) / scale, 0.0)
    link = np.where(active, kappa / scale, 0.0)
    lam = c * t
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    u = np.zeros((B, m + 2))
    u[:, 1:-1] = active
    nxt = np.zeros_like(u)
    tmp = np.empty((B, m))
    center = 1 + m // 2
    acc = np.exp(-lam) * u[:, center]
    n_left = B - np.searchsorted(degree[::-1], np.arange(int(degree.max(initial=0)) + 1), side="left")
    for k in range(1, len(n_left)):
        n = n_left[k]
        cur, new = u[:n], nxt[:n]
        np.add(cur[:, :-2], cur[:, 2:], out=new[:, 1:-1])
        new[:, 1:-1] *= link[:n]
        np.multiply(diag[:n], cur[:, 1:-1], out=tmp[:n])
        new[:, 1:-1] += tmp[:n]
        u, nxt = nxt, u
        acc[:n] += np.exp(k * log_lam[:n] - lam[:n] - gammaln(k + 1.0)) * u[:n, center]
    out = np.empty(B)
    out[order] = acc
    return out


def _dense_centers(v, active, kappa, t):
    """(log m(center), accurate) for windows solved by batched eigh.

    Hard cores are decoupled from their neighbors and given the lowest
    active diagonal entry, so they never set the top eigenvalue and the
    start vector, zero on them, keeps them out.  A dense answer errs by
    about m eps times its row peak, so `accurate` is False where the
    center lies too far below the peak for a relative error of
    _SITE_LOG_TOL.
    """
    B, m = v.shape
    idx = np.arange(m)
    diag = v - 2.0 * kappa
    floor = np.min(diag, axis=1, where=active, initial=np.inf)
    A = np.zeros((B, m, m))
    A[:, idx, idx] = np.where(active, diag, floor[:, None])
    link = kappa * (active[:, :-1] & active[:, 1:])
    A[:, idx[:-1], idx[1:]] = link
    A[:, idx[1:], idx[:-1]] = link
    w, Q = np.linalg.eigh(A)
    lam0 = w[:, -1]
    weights = np.einsum("bik,bi->bk", Q, active) * np.exp((w - lam0[:, None]) * t)
    field = np.einsum("bik,bk->bi", Q, weights)
    mc = field[:, m // 2]
    accurate = mc >= field.max(axis=1) * m * np.finfo(float).eps / _SITE_LOG_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(mc) + lam0 * t, accurate


def log_center_moment_windows_1d(v_windows, kappa, t, hardcore=None):
    """log m(center, t) for a stack of 1-d Dirichlet windows, by uniformization.

    v_windows has shape (B, m); hardcore, if given, is a boolean mask of
    the same shape whose sites are killed (their potentials are
    ignored).  A window whose center is a hard core gives -inf.  Each
    window b is solved as e^{t v_max} sum_k Pois(k; c_b t) P_b^k 1 with
    c_b = 2 kappa + max v - min v over its active sites, truncated at
    its own degree K_b (_poisson_degree).  P_b^k 1 does not increase in
    k, so the truncation errs by at most _POISSON_TAIL relative to the
    center's own value, and the sum has no cancellation.

    The loop costs K_b m per window and a batched eigh m^3, so windows
    with K_b > _DENSE_FIT m^2 go dense (wide-spread frechet windows
    reach c t ~ 1e5); a dense center too far below its row peak is
    solved again by uniformization.  Returns shape (B,) of log values.
    """
    v = np.asarray(v_windows, dtype=np.float64)
    B, m = v.shape
    active = np.ones((B, m), dtype=bool) if hardcore is None else ~np.asarray(hardcore, dtype=bool)
    if active.shape != v.shape:
        raise ValueError("hardcore mask must have the shape of the potentials")
    if not np.all(np.isfinite(v[active])):
        raise SolverError("batched 1-d path needs finite potentials on active sites")
    out = np.full(B, -np.inf)
    rows = np.nonzero(active[:, m // 2])[0]
    v, active = np.where(active, v, 0.0)[rows], active[rows]
    vmax = np.max(v, axis=1, where=active, initial=-np.inf)
    vmin = np.min(v, axis=1, where=active, initial=np.inf)
    c = 2.0 * kappa + vmax - vmin
    degree = _poisson_degree(c * t)
    dense = np.nonzero(degree > _DENSE_FIT * m * m)[0]
    redo = np.ones(len(rows), dtype=bool)
    step = max(1, _DENSE_ENTRIES // (m * m))
    for s in range(0, len(dense), step):
        part = dense[s : s + step]
        logs, accurate = _dense_centers(v[part], active[part], kappa, t)
        out[rows[part[accurate]]] = logs[accurate]
        redo[part[accurate]] = False
    redo = np.nonzero(redo)[0]
    sums = _uniformized_centers(v[redo], active[redo], kappa, t, vmin[redo], c[redo], degree[redo])
    if np.any(sums < np.finfo(float).tiny):
        raise SolverError(f"window center below e^-708 of e^(t v_max): sum {sums.min():.3e}")
    out[rows[redo]] = np.log(sums) + t * vmax[redo]
    return out


def empirical_average(env, L, kappa, t, tol=1e-8):
    """Box average m^L = |Λ_L|^-1 Σ_{|x| <= L} m(x, t) as (mantissa, log_offset).

    Hard-core sites contribute zero.  For kappa > 0 in one dimension the
    per-site windows of radius required_radius slide over the sample
    and go into one log_center_moment_windows_1d call, hard cores
    masked; in higher dimensions sites are solved one by one.
    """
    L = int(L)
    if L < 0:
        raise ValueError("L must be >= 0")
    n_box = (2 * L + 1) ** env.dim
    if kappa == 0.0 or t == 0.0:
        idx = env.flat_index(window_coords(env.dim, L))
        v = effective_potential(env)[idx]
        finite = np.isfinite(v)
        if not finite.any():
            return 0.0, 0.0
        return 1.0, float(logsumexp(v[finite] * t)) - math.log(n_box)
    R = required_radius(kappa, t, tol, env.dim)
    if L + R > env.radius:
        raise SolverError(f"window radius {env.radius} too small: need {L + R}")
    if env.dim == 1:
        span = slice(env.radius - L - R, env.radius + L + R + 1)
        windows = np.lib.stride_tricks.sliding_window_view
        v = (env.v_plus - env.v_minus)[span]
        hard = env.hardcore[span]
        logs = log_center_moment_windows_1d(windows(v, 2 * R + 1), kappa, t, hardcore=windows(hard, 2 * R + 1))
    else:
        logs = []
        for coord in window_coords(env.dim, L):
            if env.hardcore[env.flat_index(coord)]:
                continue
            man, off, _ = solve_untruncated(env, coord, kappa, t, tol=tol)
            if man > 0:
                logs.append(math.log(man) + off)
    total = float(logsumexp(logs)) if len(logs) else -math.inf
    if total == -math.inf:
        return 0.0, 0.0
    return 1.0, total - math.log(n_box)
