"""The principal Dirichlet eigenpair and eigenvalue sandwich checks.

The operator is kappa*Delta + v on the active set of a box with zero
boundary conditions.  Its top eigenvalue lambda0 pins the growth of the
truncated moment field: e^{t lambda0} <= sum over the box of m, and no
single site exceeds sqrt(|U|) e^{t lambda0}.

Only the principal pair (lambda0, psi0) is computed.  Above DENSE_LIMIT
active sites it comes from Lanczos without reorthogonalisation,
restarted only when it converges slowly.  The spurious Ritz values that
loss of orthogonality brings are filtered out by the test of Cullum &
Willoughby, Lanczos Algorithms for Large Symmetric Eigenvalue
Computations (1985): a simple eigenvalue of the Lanczos matrix T that
is also one of T with its first row and column deleted is spurious, and
copies of a converged eigenvalue count once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import SolverError, _box_of, _check_walk, solve_truncated

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
    """Principal eigenpair on one box.

    psi0 is the unit principal vector embedded in box order (zeros on
    inactive sites) and normalized so its sum is positive.  method is
    "dense-eig" or "lanczos".
    """

    lambda0: float
    psi0: np.ndarray = field(repr=False)
    method: str
    residual: float


def principal_eigen(env, box, kappa, tol=1e-10):
    """Principal eigenvalue lambda0 and unit vector psi0 on a box.

    Dense symmetric eigendecomposition up to DENSE_LIMIT active sites;
    above that Lanczos (_lanczos) from the fixed start vector
    n^-1/2 (1, ..., 1), so reruns agree bit for bit.  Raises SolverError
    if Lanczos does not converge or its residual exceeds tol, and
    ValueError unless kappa is finite and >= 0, tol is finite and > 0,
    and box is a BoxDomain of env.
    """
    _check_walk(kappa, 0.0)  # kappa alone: the spectrum has no t
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    domain = _box_of(env, box)
    n = domain.n_active
    if n == 0:
        raise SolverError("empty active set has no spectrum")
    if n <= DENSE_LIMIT:
        A = domain.operator_dense(kappa)
        w, Q = np.linalg.eigh(A)
        top = np.argsort(w)[-1]
        lam, psi = float(w[top]), Q[:, top]
        res = float(np.linalg.norm(A @ psi - lam * psi))
        method = "dense-eig"
    else:
        # Ritz bounds at tol/100 leave room for the rounding in the summed vector
        lam, psi, res = _lanczos(domain, kappa, 1e-2 * tol)
        if res > tol:
            raise SolverError(f"Lanczos residual {res:.3e} exceeds tol {tol:.1e}")
        method = "lanczos"
    if psi.sum() < 0:
        psi = -psi
    full = np.zeros(domain.n_box)
    full[domain.active_mask()] = psi
    return SpectrumSlice(lambda0=lam, psi0=full, method=method, residual=res)


def _top_ritz(alphas, betas):
    """(value, bound, s) of the top good Ritz value of the Lanczos matrix T.

    Ritz values within _SAME of each other (relative to the spectrum's
    scale) are copies of one; a copy-free value that T without its first
    row and column shares is spurious and skipped.  bound is
    beta_m |s_m|, the value's best residual bound over its copies, and s
    is the eigenvector of T that gives it; (nan, inf, None) when T has
    no good value.
    """
    m = len(alphas)
    T = np.diag(alphas)
    T[range(1, m), range(m - 1)] = betas[:-1]
    T[range(m - 1), range(1, m)] = betas[:-1]
    mu, S = np.linalg.eigh(T)
    nu = np.linalg.eigvalsh(T[1:, 1:])
    same = _SAME * max(abs(mu[0]), abs(mu[-1]))
    bounds = abs(betas[-1] * S[-1])
    i = m - 1
    while i >= 0:
        j = i
        while j > 0 and mu[i] - mu[j - 1] <= same:
            j -= 1
        if i > j or not np.any(abs(nu - mu[i]) <= same):
            best = j + int(np.argmin(bounds[j : i + 1]))
            return mu[i], bounds[best], S[:, best]
        i = j - 1
    return math.nan, math.inf, None


def _lanczos(domain, kappa, target):
    """(lambda0, unit principal vector, its residual) on the active set.

    Lanczos from q_1 = n^-1/2 (1, ..., 1), with the operator applied as
    the stencil of BoxDomain.killing_grid, in cycles of at most _CYCLE
    steps, doubling up to _LONGEST_CYCLE.  In each cycle T is
    diagonalised first at step _FIRST_CHECK, then where the bound of
    the top good Ritz value (_top_ritz), extrapolated at its rate since
    the last look, meets target (no sooner than 10 steps on, no later
    than twice the steps so far).  A cycle ends when that bound is
    <= target; its Ritz vector is then summed in a second pass that
    regenerates the q_i, so memory stays a few vectors.  A cycle that
    ends short of that restarts from its Ritz vector, which keeps the
    cost of diagonalising T bounded.  Raises SolverError at an
    invariant subspace or a T with no good value short of target, or
    after _MAX_STEPS steps.
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
                value, bound, s = _top_ritz(alphas, betas)
                if bound <= target or beta == 0.0 or m == limit:
                    return alphas, betas, value, bound, s
                ahead = 2 * m
                if last is not None and math.isfinite(bound) and bound < last[1]:
                    rate = math.log(bound / last[1]) / (m - last[0])
                    ahead = m + math.ceil(math.log(target / bound) / rate)
                last = (m, bound)
                check = min(max(ahead, m + 10), 2 * m, limit)
            q_prev, q = q, w / beta

    def ritz_vector(q0, alphas, betas, s):
        y = s[0] * q0
        q_prev, q = np.zeros_like(q0), q0
        for i in range(1, len(s)):
            w = apply(q)
            w -= alphas[i - 1] * q
            w -= betas[i - 2] * q_prev if i > 1 else 0.0
            q_prev, q = q, w / betas[i - 1]
            y += s[i] * q
        return y

    q0 = np.where(ok, domain.n_active**-0.5, 0.0)
    spent, limit = 0, _CYCLE
    while True:
        alphas, betas, value, bound, s = cycle(q0, min(limit, _MAX_STEPS - spent))
        spent, limit = spent + len(alphas), min(2 * limit, _LONGEST_CYCLE)
        if bound > target and (s is None or betas[-1] == 0.0 or spent == _MAX_STEPS):
            raise SolverError(f"Lanczos reached no Ritz bound <= {target:.1e} in {spent} steps")
        q0 = ritz_vector(q0, alphas, betas, s)
        q0 /= math.sqrt(float(q0 @ q0))
        if bound <= target:
            break
    r = apply(q0) - value * q0
    return float(value), q0[ok], math.sqrt(float(r @ r))


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
    _check_walk(kappa, t)  # t too, before the eigenpair that does not read it
    slice_ = principal_eigen(env, box, kappa)
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
