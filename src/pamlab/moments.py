"""Across-environment moment statistics and dependence diagnostics.

Everything here averages over independent environment replicas: the
annealed growth estimate, the intermittency gap at tilt theta, spatial
correlation profiles, and the variance of a box sum with its
lag-covariance reconstruction.  Every site moment m(x, t) comes from
solver._replica_site_logs, which samples replicas in stacks as the
regime box averages do, and reads each site through its own window of
radius R, a block of one site for the solver's block reader.  So
m(x, t) and m(y, t) are independent once |x - y| > 2R, the exact
dependence radius that correlation_profile and block_variance rely on;
the shared tiles of the regime box averages would blur it.  At kappa =
0 the windows are single sites and the reader returns t v(x) exactly,
so no statistic keeps a kappa = 0 branch of its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import _check_theta
from .seeding import _lattice_int, derive_seed, generator
from .solver import _STACK_SITES, _log_mean, _replica_site_logs, required_radius

_BOOTSTRAP = 1000
_CI = 99.0


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


def _replica_log_moments(family, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """log m(0, t) for independent environment replicas; -inf if killed."""
    R = required_radius(kappa, t, tol, dim)
    return _replica_site_logs(family, _env_seeds(seed, n_replica), R, np.zeros((1, dim), int), kappa, t, R)[:, 0]


def _replica_bootstrap(family, kappa, t, n_replica, seed, dim, tol, powers, stat):
    """Replica log moments, stat over all replicas and its bootstrap CI.

    stat(peak, *means) takes, for each p in powers, the replica mean of
    (m / m_peak)^p, with peak = log m_peak so no power overflows.  Every
    bootstrap resample recomputes all the means jointly, and the interval
    is its 99 percent percentile range, taken in the scale stat returns.
    The resamples are drawn and gathered in blocks of rows holding at
    most _STACK_SITES indices (one row once n_replica is larger), so
    memory is one weight array per power plus one block, not 1000 rows
    of n_replica.  The blocks continue one generator stream and each
    row's mean is the same sum, so they give the bits of one
    (1000, n_replica) draw.  A replica count that is not an integer
    >= 50, a dim that is not an integer >= 1, and a set in which every
    replica was killed are refused.
    """
    n_replica = _lattice_int("n_replica", n_replica, 50)
    dim = _lattice_int("dim", dim, 1)
    logs = _replica_log_moments(family, kappa, t, n_replica, seed, dim=dim, tol=tol)
    peak = float(np.max(logs))
    if not math.isfinite(peak):
        raise ValueError("all replicas were killed")
    ws = [np.exp(p * (logs - peak)) for p in powers]
    rng = generator(derive_seed(seed, "bootstrap", 0))
    means = np.empty((len(ws), _BOOTSTRAP))
    rows = max(1, _STACK_SITES // n_replica)
    for r in range(0, _BOOTSTRAP, rows):
        idx = rng.integers(0, n_replica, size=(min(rows, _BOOTSTRAP - r), n_replica))
        for w, mean in zip(ws, means):
            mean[r : r + len(idx)] = w[idx].mean(axis=1)
    with np.errstate(divide="ignore"):
        boot = stat(peak, *means)
    half = (100.0 - _CI) / 2.0
    lo, hi = np.percentile(boot, [half, 100.0 - half])
    return logs, float(stat(peak, *(w.mean() for w in ws))), float(lo), float(hi)


def estimate_H1(family, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """Annealed growth estimate log <m(0, t)> over environment replicas.

    The confidence interval is a 99 percent percentile bootstrap taken in
    log space, so it stays meaningful when a few replicas dominate the
    mean.  A replica set in which every replica was killed is refused.
    """
    logs, _, lo, hi = _replica_bootstrap(
        family, kappa, t, n_replica, seed, dim, tol, (1.0,), lambda peak, mean_w: np.log(mean_w) + peak
    )
    return H1Estimate(float(_log_mean(logs)), lo, hi, n_replica, float(t), float(kappa))


def estimate_F_theta(family, theta, kappa, t, n_replica, seed, dim=1, tol=1e-6):
    """Intermittency gap estimate from one common set of replicas.

    Both empirical means share the same replicas, and each bootstrap
    resample recomputes the pair jointly, so the strong positive
    coupling between them tightens the interval instead of widening it.
    """
    theta = _check_theta(theta)

    def gap(peak, mean_w, mean_wq):
        log_m1 = np.log(mean_w) + peak
        log_mq = np.log(mean_wq) + (1.0 + theta) * peak
        return (log_mq - (1.0 + theta) * log_m1) / theta

    _, value, lo, hi = _replica_bootstrap(family, kappa, t, n_replica, seed, dim, tol, (1.0, 1.0 + theta), gap)
    return FThetaEstimate(value, lo, hi, float(theta), n_replica, float(t), float(kappa))


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
    site sets and the true correlation is exactly zero.  Each lag must
    be an integer >= 0, and n_replica an integer >= 2.
    """
    lags = np.array([_lattice_int("lags", lag, 0) for lag in lags], dtype=np.int64)
    n_replica = _lattice_int("n_replica", n_replica, 2)
    R = required_radius(kappa, t, tol, 1)
    span = int(lags.max(initial=0)) + R
    vals = _replica_site_logs(family, _env_seeds(seed, n_replica), span, np.concatenate([[0], lags]), kappa, t, R)
    finite = vals[np.isfinite(vals)]
    if not finite.size:
        raise ValueError("all replicas were killed")
    peak = finite.max()
    m = np.exp(vals - peak)
    base = m[:, 0]
    rs = np.zeros(len(lags))  # a constant side has correlation 0
    if base.std() != 0.0:
        for j in range(len(lags)):
            if m[:, j + 1].std() != 0.0:
                rs[j] = np.corrcoef(base, m[:, j + 1])[0, 1]
    return CorrelationProfile(lags=lags, r=rs, n_replica=n_replica, dependence_radius=R)


@dataclass(frozen=True)
class BlockVarianceReport:
    """Variances in units of e^log_scale: var_direct * e^log_scale is the variance of the box sum."""

    var_direct: float
    var_reconstructed: float
    ratio: float
    dependence_radius: int
    n_replica: int
    log_scale: float


def block_variance(family, kappa, t, L, n_replica, seed, tol=1e-4):
    """Variance of the box sum versus its covariance reconstruction.

    The direct route takes the across-replica variance of sum over
    |x| <= L of m(x, t).  The reconstruction averages the lag covariance
    c(y) over positions (symmetrized in the sign of y), keeps only lags
    within twice the truncation radius where dependence can live, and
    sums c(y) times the number of site pairs at lag y.  The ratio of the
    two sits near 1 whenever L dominates the dependence radius.  Both
    variances are in units of e^log_scale, log_scale = 2 log m_peak with
    m_peak the largest m(x, t) over the replicas, so no m overflows.
    A replica count that is not an integer >= 2, an L that is not an
    integer >= 0, and hard cores are refused before any replica is
    sampled.
    """
    n_replica = _lattice_int("n_replica", n_replica, 2)
    L = _lattice_int("L", L, 0)
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
        log_scale=2.0 * peak,
    )
