"""Across-environment moment statistics and dependence diagnostics.

Everything here averages over independent environment replicas: the
annealed growth estimate, the intermittency gap at tilt theta, spatial
correlation profiles, and a block partition scheme used to bound how
much of a box sits near block boundaries.  Every site moment m(x, t) is
read by one reader, solver.site_log_moments, from replicas sampled a
stack at a time: one environments.sample_potentials call hashes the
windows of as many replicas as one batched solve takes.  At kappa = 0
the windows are single sites and the reader returns t v(x) exactly, so
no statistic keeps a kappa = 0 branch of its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

# sample_environment is not called here; it stays in this namespace, where
# tests patch it to show that refusals come before any sampling
from .environments import sample_environment, sample_potentials  # noqa: F401
from .seeding import derive_seed, generator
from .solver import required_radius, site_log_moments, windows_per_call

_BOOTSTRAP = 1000
_CI = 99.0


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class H1Estimate:
    """log of the replica-averaged moment, with a percentile bootstrap CI."""

    value: float
    ci_lo: float
    ci_hi: float
    n_replica: int
    t: float
    kappa: float


@dataclass(frozen=True)
class FThetaEstimate:
    """Intermittency gap (log E m^(1+theta) - (1+theta) log E m)/theta."""

    value: float
    ci_lo: float
    ci_hi: float
    theta: float
    n_replica: int
    t: float
    kappa: float


def _env_seeds(seed, n_replica):
    return [derive_seed(seed, "env", i) for i in range(n_replica)]


def _replica_site_logs(family, seeds, radius, sites, kappa, t, R):
    """site_log_moments at `sites` of the replicas of `seeds`, sampled on [-radius, radius]^d.

    Replicas are sampled a stack at a time: as many as one batched solve
    of their windows of radius R takes, and no more sites than such a
    stack, so at most one stack of replicas and one of windows are held.
    """
    sites = np.asarray(sites, dtype=np.int64)
    sites = sites.reshape(len(sites), -1)
    dim = sites.shape[1]
    shape = (2 * radius + 1,) * dim
    per_stack = min(windows_per_call((2 * R + 1) ** dim) // len(sites), windows_per_call(math.prod(shape)))
    per_stack = max(1, per_stack)

    def stacks():
        for s in range(0, len(seeds), per_stack):
            v, hardcore = sample_potentials(family, dim, radius, seeds[s : s + per_stack])
            yield v.reshape((-1,) + shape), hardcore.reshape((-1,) + shape)

    return site_log_moments(stacks(), sites, kappa, t, R)


def _replica_log_moments(family, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """log m(0, t) for independent environment replicas; -inf if killed."""
    R = required_radius(kappa, t, tol, dim)
    return _replica_site_logs(family, _env_seeds(seed, n_replica), R, np.zeros((1, dim)), kappa, t, R)[:, 0]


def _log_mean(logs):
    return float(logsumexp(logs)) - math.log(len(logs))


def _bootstrap_indices(n, seed):
    rng = generator(derive_seed(seed, "bootstrap", 0))
    return rng.integers(0, n, size=(_BOOTSTRAP, n))


def estimate_H1(family, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """Annealed growth estimate log <m(0, t)> over environment replicas.

    The confidence interval is a 99 percent percentile bootstrap taken in
    log space, so it stays meaningful when a few replicas dominate the
    mean.  A replica set in which every replica was killed is refused.
    """
    if n_replica < 50:
        raise ValueError("need at least 50 replicas")
    logs = _replica_log_moments(family, kappa, t, n_replica, seed, dim=dim, tol=tol)
    peak = float(np.max(logs))
    if not math.isfinite(peak):
        raise ValueError("all replicas were killed")
    value = _log_mean(logs)
    w = np.exp(logs - peak)
    idx = _bootstrap_indices(n_replica, seed)
    means = w[idx].mean(axis=1)
    with np.errstate(divide="ignore"):
        boot = np.log(means) + peak
    half = (100.0 - _CI) / 2.0
    lo, hi = np.percentile(boot, [half, 100.0 - half])
    return H1Estimate(value, float(lo), float(hi), n_replica, float(t), float(kappa))


def estimate_F_theta(family, theta, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """Intermittency gap estimate from one common set of replicas.

    Both empirical means share the same replicas, and each bootstrap
    resample recomputes the pair jointly, so the strong positive
    coupling between them tightens the interval instead of widening it.
    """
    if not math.isfinite(theta) or theta <= -1 or theta == 0:
        raise ValueError("theta must be > -1 and nonzero")
    if n_replica < 50:
        raise ValueError("need at least 50 replicas")
    logs = _replica_log_moments(family, kappa, t, n_replica, seed, dim=dim, tol=tol)
    peak = float(np.max(logs))
    if not math.isfinite(peak):
        raise ValueError("all replicas were killed")
    w = np.exp(logs - peak)
    wq = np.exp((1.0 + theta) * (logs - peak))

    def gap(mean_w, mean_wq):
        log_m1 = np.log(mean_w) + peak
        log_mq = np.log(mean_wq) + (1.0 + theta) * peak
        return (log_mq - (1.0 + theta) * log_m1) / theta

    value = float(gap(w.mean(), wq.mean()))
    idx = _bootstrap_indices(n_replica, seed)
    with np.errstate(divide="ignore"):
        boot = gap(w[idx].mean(axis=1), wq[idx].mean(axis=1))
    half = (100.0 - _CI) / 2.0
    lo, hi = np.percentile(boot, [half, 100.0 - half])
    return FThetaEstimate(value, float(lo), float(hi), float(theta), n_replica, float(t), float(kappa))


@dataclass(frozen=True)
class CorrelationProfile:
    lags: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    n_replica: int
    dependence_radius: int


def correlation_profile(family, kappa, t, lags, n_replica, seed, tol=1e-4):
    """Replica correlation of m(0, t) with m(y, t) at the given 1-d lags.

    m(x, t) only reads the environment within the truncation radius of
    x, so lags beyond twice that radius compare functions of disjoint
    site sets and the true correlation is exactly zero.
    """
    lags = np.asarray(lags, dtype=np.int64)
    if np.any(lags < 0):
        raise ValueError("lags must be >= 0")
    R = required_radius(kappa, t, tol, 1)
    span = int(lags.max(initial=0)) + R
    vals = _replica_site_logs(family, _env_seeds(seed, n_replica), span, np.concatenate([[0], lags]), kappa, t, R)
    finite = vals[np.isfinite(vals)]
    if not finite.size:
        raise ValueError("all replicas were killed")
    peak = finite.max()
    m = np.exp(vals - peak)
    base = m[:, 0]
    rs = np.empty(len(lags))
    for j in range(len(lags)):
        other = m[:, j + 1]
        sa = base.std()
        sb = other.std()
        if sa == 0.0 or sb == 0.0:
            rs[j] = 0.0
        else:
            rs[j] = float(np.corrcoef(base, other)[0, 1])
    return CorrelationProfile(lags=lags, r=rs, n_replica=n_replica, dependence_radius=R)


@dataclass(frozen=True)
class PartitionPlan:
    """Partition of the 1-d index range [-L, L] into q contiguous blocks.

    The first qbar blocks have length Lp + 1 and the rest length Lp, so
    the lengths add up to 2L + 1 exactly.
    """

    L: int
    Lp: int
    q: int
    qbar: int
    sizes: tuple
    starts: tuple


def build_partitions(L, Lp):
    L = int(L)
    Lp = int(Lp)
    if L < 0 or Lp < 1:
        raise PartitionError("need L >= 0 and Lp >= 1")
    n = 2 * L + 1
    q = -(-n // (Lp + 1))
    qbar = n - q * Lp
    if qbar < 0:
        raise PartitionError(f"no block count fits: 2L+1 = {n} < q*Lp = {q * Lp}")
    sizes = tuple([Lp + 1] * qbar + [Lp] * (q - qbar))
    starts = tuple(-L + int(s) for s in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
    return PartitionPlan(L=L, Lp=Lp, q=q, qbar=qbar, sizes=sizes, starts=starts)


def strip_fraction(plan, r, dim=1):
    """Fraction of the box outside the shrunken main blocks.

    Every block keeps a centered core of side Lp - 2r (empty if r is too
    large); the rest of the box is the boundary strip.
    """
    core = max(0, plan.Lp - 2 * r)
    n = 2 * plan.L + 1
    return 1.0 - (plan.q**dim * core**dim) / (n**dim)


def strip_fraction_bound(Lp, r, dim=1):
    """Upper bound ((Lp+1)^d - (Lp-2r)^d) / Lp^d for the strip fraction."""
    core = max(0, Lp - 2 * r)
    return ((Lp + 1) ** dim - core**dim) / (Lp**dim)


@dataclass(frozen=True)
class BlockVarianceReport:
    var_direct: float
    var_reconstructed: float
    ratio: float
    dependence_radius: int
    n_replica: int


def block_variance(family, kappa, t, L, n_replica, seed, tol=1e-4):
    """Variance of the box sum versus its covariance reconstruction.

    The direct route takes the across-replica variance of sum over
    |x| <= L of m(x, t).  The reconstruction averages the lag covariance
    c(y) over positions (symmetrized in the sign of y), keeps only lags
    within twice the truncation radius where dependence can live, and
    sums c(y) times the number of site pairs at lag y.  The ratio of the
    two sits near 1 whenever L dominates the dependence radius.  Fewer
    than two replicas and hard cores are refused before any replica is
    sampled.
    """
    if n_replica < 2:
        raise ValueError(f"block variance needs n_replica >= 2, got {n_replica}")
    if family.has_hardcore_atom:
        raise ValueError("block variance path expects no hard cores")
    R = required_radius(kappa, t, tol, 1)
    n_sites = 2 * L + 1
    logs = _replica_site_logs(family, _env_seeds(seed, n_replica), L + R, np.arange(-L, L + 1), kappa, t, R)
    peak = float(logs.max())
    m = np.exp(logs - peak)
    totals = m.sum(axis=1)
    var_direct = float(totals.var(ddof=1))
    centered = m - m.mean(axis=0, keepdims=True)
    max_lag = min(2 * R, n_sites - 1)
    var_recon = 0.0
    for y in range(0, max_lag + 1):
        prod = centered[:, : n_sites - y] * centered[:, y:]
        c_y = float(prod.sum()) / ((n_replica - 1) * (n_sites - y))
        weight = n_sites - y
        var_recon += (1.0 if y == 0 else 2.0) * c_y * weight
    ratio = var_direct / var_recon if var_recon > 0 else math.nan
    return BlockVarianceReport(
        var_direct=var_direct,
        var_reconstructed=var_recon,
        ratio=ratio,
        dependence_radius=R,
        n_replica=n_replica,
    )
