"""Principal Dirichlet eigenpairs and eigenvalue sandwich checks.

The operator is kappa*Delta + v on the active set of a box with zero
boundary conditions.  Its top eigenvalue lambda0 pins the growth of the
truncated moment field: e^{t lambda0} <= sum over the box of m, and no
single site exceeds sqrt(|U|) e^{t lambda0}.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .solver import BoxDomain, SolverError, _box_of, solve_truncated

# Here the spectrum is the output, so the route follows size alone.
DENSE_LIMIT = 4000


@dataclass(frozen=True)
class SpectrumSlice:
    """Top of the spectrum on one box.

    eigenvalues is descending; psi0 is the unit principal vector embedded
    in box order (zeros on inactive sites) and normalized so its sum is
    positive.
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
    """Top eigenvalues and principal vector on a box.

    Dense symmetric eigendecomposition up to DENSE_LIMIT active sites;
    above that Lanczos (ARPACK eigsh) from the fixed start vector
    n^-1/2 (1, ..., 1), so reruns agree bit for bit.  Raises SolverError
    if the principal residual exceeds tol, and ValueError unless box is
    a BoxDomain of env.
    """
    domain = _box_of(env, box)
    n = domain.n_active
    if n == 0:
        raise SolverError("empty active set has no spectrum")
    k = max(1, n_top)
    if n <= DENSE_LIMIT:
        A = domain.operator_dense(kappa)
        w, Q = np.linalg.eigh(A)
        method = "dense-eig"
    else:
        A = domain.operator_sparse(kappa)
        w, Q = scipy.sparse.linalg.eigsh(A, k=k, which="LA", v0=np.full(n, n**-0.5))
        method = "eigsh"
    order = np.argsort(w)[::-1][:k]
    eigs = np.array(w[order], dtype=np.float64)
    psi = Q[:, order[0]]
    res = float(np.linalg.norm(A @ psi - eigs[0] * psi))
    if method == "eigsh" and res > tol:
        raise SolverError(f"eigsh residual {res:.3e} exceeds tol {tol:.1e}")
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
