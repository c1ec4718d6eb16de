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
from scipy.special import logsumexp

from .analytics import rate_I
from .environments import effective_potential, window_coords

# Measured exchange rate between the costs of the two routes; see _dense_is_cheaper.
_DENSE_COST = 1.3e5
# Per-site |error in log m| that a dense solve must keep; see solve_truncated.
_SITE_LOG_TOL = 1e-8


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
        if lo < -1e-10 * max(m.max(), 1e-300):
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


def log_center_moment_windows_1d(v_windows, kappa, t):
    """log m(center, t) for a stack of 1-d Dirichlet windows.

    v_windows has shape (B, m) of finite potentials; each row is solved
    with the tridiagonal operator kappa*Delta + v via a batched
    symmetric eigendecomposition, in chunks of at most 2**24 matrix
    entries.  Returns shape (B,) of log values.
    """
    v_windows = np.asarray(v_windows, dtype=np.float64)
    B, m = v_windows.shape
    if not np.all(np.isfinite(v_windows)):
        raise SolverError("batched 1-d path needs finite potentials")
    chunk = max(1, 2**24 // (m * m))
    if B > chunk:
        return np.concatenate(
            [log_center_moment_windows_1d(v_windows[s : s + chunk], kappa, t) for s in range(0, B, chunk)]
        )
    A = np.zeros((B, m, m))
    idx = np.arange(m)
    A[:, idx, idx] = v_windows - 2.0 * kappa
    A[:, idx[:-1], idx[1:]] = kappa
    A[:, idx[1:], idx[:-1]] = kappa
    w, Q = np.linalg.eigh(A)
    lam0 = w[:, -1]
    weights = Q.sum(axis=1) * np.exp((w - lam0[:, None]) * t)
    mc = np.einsum("bk,bk->b", Q[:, m // 2, :], weights)
    mc = np.maximum(mc, 1e-300)
    return np.log(mc) + lam0 * t


def empirical_average(env, L, kappa, t, tol=1e-8):
    """Box average m^L = |Λ_L|^-1 Σ_{|x| <= L} m(x, t) as (mantissa, log_offset).

    Hard-core sites contribute zero.  For kappa > 0 in one dimension
    without hard cores the per-site solves collapse into one batched
    sliding-window eigendecomposition; otherwise sites are solved one by
    one.
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
    if env.dim == 1 and not env.hardcore.any():
        v = effective_potential(env)
        lo = env.flat_index(np.array([-L - R]))
        hi = env.flat_index(np.array([L + R]))
        windows = np.lib.stride_tricks.sliding_window_view(v[lo : hi + 1], 2 * R + 1)
        logs = log_center_moment_windows_1d(windows, kappa, t)
        return 1.0, float(logsumexp(logs)) - math.log(n_box)
    logs = []
    for coord in window_coords(env.dim, L):
        if env.hardcore[env.flat_index(coord)]:
            continue
        man, off, _ = solve_untruncated(env, coord, kappa, t, tol=tol)
        if man > 0:
            logs.append(math.log(man) + off)
    if not logs:
        return 0.0, 0.0
    return 1.0, float(logsumexp(logs)) - math.log(n_box)


def padded_with_hardcore(env, pad):
    """Copy of the environment with a hard-core ring of width `pad` added.

    Used to check that Dirichlet padding leaves solutions unchanged.
    """
    from .environments import Environment, sample_environment

    big = sample_environment(env.family, env.dim, env.radius + pad, env.seed, env.baseline_death)
    hard = big.hardcore.copy()
    coords = big.coords()
    ring = np.abs(coords).max(axis=1) > env.radius
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
