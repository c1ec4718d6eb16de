"""Principal Dirichlet eigenpairs and eigenvalue sandwich checks.

The operator is kappa*Delta + v on the active set of a box with zero
boundary conditions.  Its top eigenvalue lambda0 pins the growth of the
truncated moment field: e^{t lambda0} <= sum over the box of m, and no
single site exceeds sqrt(|U|) e^{t lambda0}.

Above DENSE_LIMIT active sites the top of the spectrum comes from
Lanczos without reorthogonalisation, restarted only when it converges
slowly.  The spurious Ritz values that loss of orthogonality brings are
filtered out by the test of Cullum & Willoughby, Lanczos Algorithms for
Large Symmetric Eigenvalue Computations (1985): a simple eigenvalue of
the Lanczos matrix T that is also one of T with its first row and
column deleted is spurious, and copies of a converged eigenvalue count
once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import BoxDomain, SolverError, _box_of, solve_truncated

# Here the spectrum is the output, so the route follows size alone.
DENSE_LIMIT = 4000
# Lanczos: steps before the first look at T, steps in the first cycle
# and in the longest (diagonalising T costs its size cubed), the most
# steps in all, and the relative distance within which two Ritz values
# are one.
_FIRST_CHECK = 20
_CYCLE = 500
_LONGEST_CYCLE = 4000
_MAX_STEPS = 20000
_SAME = 1e-12


@dataclass(frozen=True)
class SpectrumSlice:
    """Top of the spectrum on one box.

    eigenvalues is descending and holds min(n_top, n_active) entries;
    psi0 is the unit principal vector embedded in box order (zeros on
    inactive sites) and normalized so its sum is positive.  method is
    "dense-eig" or "lanczos".
    """

    domain: BoxDomain
    kappa: float
    eigenvalues: np.ndarray = field(repr=False)
    psi0: np.ndarray = field(repr=False)
    method: str = "dense-eig"
    residual: float = 0.0

    @property
    def lambda0(self):
        return float(self.eigenvalues[0])

    @property
    def n_active(self):
        return self.domain.n_active


def principal_eigen(env, box, kappa, n_top=2, tol=1e-10):
    """Top n_top eigenvalues and the principal vector on a box.

    Dense symmetric eigendecomposition up to DENSE_LIMIT active sites;
    above that Lanczos (_lanczos) from the fixed start vector
    n^-1/2 (1, ..., 1), so reruns agree bit for bit.  Lanczos sees only
    eigenvectors that overlap the start vector: the principal one always
    does, but on a box whose potential is symmetric the eigenvalues past
    the first skip the modes that are odd under the symmetry.  Raises
    SolverError if Lanczos does not converge or its principal residual
    exceeds tol, and ValueError if n_top < 1 or unless box is a
    BoxDomain of env.
    """
    if n_top < 1:
        raise ValueError(f"n_top must be >= 1, got {n_top}")
    domain = _box_of(env, box)
    n = domain.n_active
    if n == 0:
        raise SolverError("empty active set has no spectrum")
    if n <= DENSE_LIMIT:
        A = domain.operator_dense(kappa)
        w, Q = np.linalg.eigh(A)
        order = np.argsort(w)[::-1][:n_top]
        eigs = np.array(w[order], dtype=np.float64)
        psi = Q[:, order[0]]
        res = float(np.linalg.norm(A @ psi - eigs[0] * psi))
        method = "dense-eig"
    else:
        # Ritz bounds at tol/100 leave room for the rounding in the summed vector
        eigs, psi, res = _lanczos(domain, kappa, n_top, 1e-2 * tol)
        if res > tol:
            raise SolverError(f"Lanczos residual {res:.3e} exceeds tol {tol:.1e}")
        method = "lanczos"
    if psi.sum() < 0:
        psi = -psi
    full = np.zeros(domain.n_box)
    full[domain.active_mask()] = psi
    return SpectrumSlice(
        domain=domain,
        kappa=float(kappa),
        eigenvalues=eigs,
        psi0=full,
        method=method,
        residual=res,
    )


def _top_ritz(alphas, betas, k):
    """(values, bounds, vectors) of the top k good Ritz values of the Lanczos matrix T.

    Ritz values within _SAME of each other (relative to the spectrum's
    scale) are copies of one; a copy-free value that T without its first
    row and column shares is spurious and skipped.  bounds are
    beta_m |s_m|, each value's best residual bound over its copies, and
    the columns of vectors are the eigenvectors s of T that give them.
    """
    m = len(alphas)
    T = np.diag(alphas)
    T[range(1, m), range(m - 1)] = betas[:-1]
    T[range(m - 1), range(1, m)] = betas[:-1]
    mu, S = np.linalg.eigh(T)
    nu = np.linalg.eigvalsh(T[1:, 1:])
    same = _SAME * max(abs(mu[0]), abs(mu[-1]))
    bounds = abs(betas[-1] * S[-1])
    values, best = [], []
    i = m - 1
    while i >= 0 and len(values) < k:
        j = i
        while j > 0 and mu[i] - mu[j - 1] <= same:
            j -= 1
        if i > j or not np.any(abs(nu - mu[i]) <= same):
            values.append(mu[i])
            best.append(j + int(np.argmin(bounds[j : i + 1])))
        i = j - 1
    return np.array(values), bounds[best], S[:, best]


def _lanczos(domain, kappa, k, target):
    """(top k eigenvalues, unit principal vector, its residual) on the active set.

    Lanczos from q_1 = n^-1/2 (1, ..., 1), with the operator applied as
    the stencil of BoxDomain.killing_grid, in cycles of at most _CYCLE
    steps, doubling up to _LONGEST_CYCLE.  In each cycle T is
    diagonalised first at step _FIRST_CHECK, then where the slowest
    wanted bound, extrapolated at its rate since the last look, meets
    target (no sooner than 10 steps on, no later than twice the steps so
    far).  A cycle ends when k good Ritz values (_top_ritz) have bounds
    <= target; the Ritz vectors are then summed in a second pass that
    regenerates the q_i, so memory stays a few vectors.  A cycle that
    ends short of that restarts from the sum of its Ritz vectors, which
    keeps the cost of diagonalising T bounded.  Raises SolverError at an
    invariant subspace short of k values, or after _MAX_STEPS steps.
    """
    pot, ok, steps = domain.killing_grid()
    diag = np.where(ok, pot - 2.0 * domain.dim * kappa, 0.0)
    link = np.where(ok, kappa, 0.0)
    strides = steps[::2]
    neighbors = np.empty_like(diag)

    def apply(x):
        neighbors.fill(0.0)
        for s in strides:
            neighbors[s:] += x[:-s]
            neighbors[:-s] += x[s:]
        np.multiply(neighbors, link, out=neighbors)
        return neighbors + diag * x

    def cycle(q0, limit):
        alphas, betas = [], []
        q_prev, q, beta = np.zeros_like(q0), q0, 0.0
        check, last = _FIRST_CHECK, None
        while True:
            w = apply(q)
            alpha = float(q @ w)
            w -= alpha * q
            w -= beta * q_prev
            beta = math.sqrt(float(w @ w))
            alphas.append(alpha)
            betas.append(beta)
            m = len(alphas)
            if m == check or beta == 0.0 or m == limit:
                values, bounds, S = _top_ritz(alphas, betas, k)
                worst = bounds.max() if len(values) == k else math.inf
                if worst <= target or beta == 0.0 or m == limit:
                    return alphas, betas, values, worst, S
                ahead = 2 * m
                if last is not None and math.isfinite(worst) and worst < last[1]:
                    rate = math.log(worst / last[1]) / (m - last[0])
                    ahead = m + math.ceil(math.log(target / worst) / rate)
                last = (m, worst)
                check = min(max(ahead, m + 10), 2 * m, limit)
            q_prev, q = q, w / beta

    def ritz_vectors(q0, alphas, betas, S):
        Y = S[0][:, None] * q0
        q_prev, q = np.zeros_like(q0), q0
        for i in range(1, len(S)):
            w = apply(q)
            w -= alphas[i - 1] * q
            w -= betas[i - 2] * q_prev if i > 1 else 0.0
            q_prev, q = q, w / betas[i - 1]
            Y += S[i][:, None] * q
        return Y

    q0 = np.where(ok, domain.n_active**-0.5, 0.0)
    spent, limit = 0, _CYCLE
    while True:
        alphas, betas, values, worst, S = cycle(q0, min(limit, _MAX_STEPS - spent))
        spent, limit = spent + len(alphas), min(2 * limit, _LONGEST_CYCLE)
        Y = ritz_vectors(q0, alphas, betas, S)
        if worst <= target:
            break
        if betas[-1] == 0.0 or spent == _MAX_STEPS:
            raise SolverError(f"Lanczos found {len(values)} of {k} eigenvalues in {spent} steps")
        q0 = Y.sum(axis=0)
        q0 /= math.sqrt(float(q0 @ q0))
    y = Y[0] / math.sqrt(float(Y[0] @ Y[0]))
    r = apply(y) - values[0] * y
    return values, y[ok], math.sqrt(float(r @ r))


@dataclass(frozen=True)
class SandwichReport:
    """Margins of the two-sided eigenvalue bound on one box.

    lower_margin = log sum m - t lambda0, upper_margin =
    0.5 log |U| + t lambda0 - max log m.  Both should be nonnegative;
    violations are reported here, never raised.
    """

    lambda0: float
    t: float
    n_active: int
    lower_margin: float
    upper_margin: float

    @property
    def passed(self):
        slack = -1e-9
        return self.lower_margin >= slack and self.upper_margin >= slack


def verify_sandwich(env, box, kappa, t):
    """Check e^{t lambda0} <= sum m and max m <= sqrt(|U|) e^{t lambda0}."""
    slice_ = principal_eigen(env, box, kappa, n_top=1)
    fld = solve_truncated(env, box, kappa, t)
    lam0 = slice_.lambda0
    logs = fld.log_values()[box.active_mask()]
    log_sum = fld.log_total()
    lower = log_sum - t * lam0
    upper = 0.5 * math.log(box.n_active) + t * lam0 - float(logs.max())
    return SandwichReport(
        lambda0=lam0,
        t=float(t),
        n_active=box.n_active,
        lower_margin=float(lower),
        upper_margin=float(upper),
    )
