"""Reference values computed without the package's numerical routes.

Every check in the benchmark compares a job's output against one of
these.  None of them calls the package's quadrature, eigen-solvers,
Krylov path, path sampler or particle engines; they only read sampled
environments through the public sampling API.

- `log_H`: log E exp(t v(0)) by closed form or scipy's QUADPACK.
- `log_expm_ones`: log of exp(t (kappa Delta + v)) 1 on a Dirichlet
  box, by a Chebyshev expansion with Bessel coefficients (scipy's
  `ive`), run in sub-steps that renormalize each row.
- `box_operator`: the active-site adjacency and potential of a box,
  built from the environment arrays alone.
- `top_eigenvalue`: the principal Dirichlet eigenvalue by LAPACK's
  subset driver (small boxes) or ARPACK (large boxes).
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

_CHEB_Z = 20.0  # largest Bessel argument per sub-step
_CHEB_TAIL = 1e-18  # stop once a coefficient falls below this


def log_H(kind, t, rho=None, p=None):
    """log E exp(t v(0)) for one of the five tail families."""
    t = float(t)
    if kind == "hard_core":
        return math.log1p(-p)
    if t == 0.0:
        return 0.0
    if kind == "double_exp":
        # v = rho log E, so E e^{t v} = E[E^{rho t}] = Gamma(1 + rho t)
        return math.lgamma(1.0 + rho * t)
    if kind == "weibull":
        # v = E^{1/rho}; integrand e^{t s^{1/rho} - s} peaks where
        # (t/rho) s^{1/rho - 1} = 1
        def g(s):
            return t * s ** (1.0 / rho) - s

        peak = (t / rho) ** (rho / (rho - 1.0))
        return _log_quad(g, 0.0, math.inf, [peak])
    if kind == "frechet":
        # v = -E^{-1/rho}; integrand e^{-t s^{-1/rho} - s}
        def g(s):
            return -t * s ** (-1.0 / rho) - s if s > 0 else -math.inf

        peak = (t / rho) ** (rho / (rho + 1.0))
        return _log_quad(g, 0.0, math.inf, [peak])
    if kind == "sq_double_exp":
        # v = sqrt(log E) on E >= 1, else 0
        def g(s):
            return t * math.sqrt(math.log(s)) - s

        grid = np.linspace(1.0, 60.0 + 4.0 * t * t, 20001)
        peak = float(grid[np.argmax([g(s) for s in grid])])
        tail = _log_quad(g, 1.0, math.inf, [peak])
        return float(np.logaddexp(tail, math.log(-math.expm1(-1.0))))
    raise ValueError(f"unknown family {kind!r}")


def _log_quad(g, a, b, points):
    """log of the integral of exp(g) over [a, b], scaled by the peak."""
    peak = max(points, key=g)
    gmax = g(peak)

    def f(s):
        return math.exp(g(s) - gmax)

    parts = [a] + sorted(p for p in points if a < p < b)
    total = 0.0
    for lo, hi in zip(parts, parts[1:]):
        total += scipy.integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    total += scipy.integrate.quad(f, parts[-1], b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    return gmax + math.log(total)


def box_operator(v_grid, hard_grid):
    """(adjacency, potential, flat index of active sites) of a box.

    v_grid and hard_grid are d-dimensional arrays over the box in C
    order.  The adjacency joins active lattice neighbours; every site
    outside the box or on a hard core is absorbing.
    """
    shape = v_grid.shape
    active = ~np.asarray(hard_grid, dtype=bool)
    index = np.full(shape, -1, dtype=np.int64)
    index[active] = np.arange(int(active.sum()))
    rows, cols = [], []
    for axis in range(len(shape)):
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = index[tuple(lo)].ravel()
        b = index[tuple(hi)].ravel()
        keep = (a >= 0) & (b >= 0)
        rows.append(a[keep])
        cols.append(b[keep])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    n = int(active.sum())
    adj = scipy.sparse.csr_matrix(
        (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))), shape=(n, n)
    )
    return adj, np.asarray(v_grid, dtype=np.float64)[active], np.flatnonzero(active.ravel())


def path_adjacency(m):
    """Adjacency of the 1-d chain of m sites."""
    off = np.ones(m - 1)
    return scipy.sparse.diags([off, off], [-1, 1], shape=(m, m), format="csr")


def log_expm_ones(adj, v, kappa, t, dim):
    """log (exp(t A) 1) row by row, A = kappa adj + diag(v - 2 dim kappa).

    v has shape (B, n): B independent potentials sharing one adjacency.
    Sites where the computed value is not positive come back as -inf.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    B, n = v.shape
    if t == 0.0 or n == 0:
        return np.zeros((B, n))
    diag = v - 2.0 * dim * kappa
    deg = np.asarray(adj.sum(axis=1)).ravel() * kappa
    lo = (diag - deg).min(axis=1)
    hi = (diag + deg).max(axis=1)
    alpha = 0.5 * (hi + lo)
    beta = np.maximum(0.5 * (hi - lo), 1e-12)
    steps = max(1, math.ceil(t * float(beta.max()) / _CHEB_Z))
    h = t / steps
    z = h * beta
    k_max = int(z.max()) + 1
    while scipy.special.ive(k_max, float(z.max())) > _CHEB_TAIL:
        k_max += 1
    coef = scipy.special.ive(np.arange(k_max + 1)[:, None], z[None, :])  # (K+1, B)
    coef[1:] *= 2.0
    adj_t = adj.T.tocsr()
    shift = alpha[:, None]
    scale = beta[:, None]

    def apply(u):
        return (kappa * (adj_t @ u.T).T + (diag - shift) * u) / scale

    x = np.ones((B, n))
    log_off = np.zeros(B)
    for _ in range(steps):
        t0 = x
        t1 = apply(x)
        acc = coef[0][:, None] * t0 + coef[1][:, None] * t1
        for k in range(2, k_max + 1):
            t0, t1 = t1, 2.0 * apply(t1) - t0
            acc += coef[k][:, None] * t1
        peak = acc.max(axis=1)
        x = acc / peak[:, None]
        log_off += h * (alpha + beta) + np.log(peak)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)
    return out + log_off[:, None]


def top_eigenvalue(adj, v, kappa, dim):
    """Largest eigenvalue of kappa adj + diag(v - 2 dim kappa)."""
    n = adj.shape[0]
    A = kappa * adj + scipy.sparse.diags(np.asarray(v, dtype=np.float64) - 2.0 * dim * kappa)
    if n <= 4000:
        w = scipy.linalg.eigh(A.toarray(), eigvals_only=True, subset_by_index=[n - 1, n - 1], driver="evr")
        return float(w[0])
    w = scipy.sparse.linalg.eigsh(A.tocsc(), k=1, which="LA", tol=1e-13, return_eigenvectors=False)
    return float(w[0])
