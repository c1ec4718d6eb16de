"""Regime experiments: law of large numbers, CLT, and critical bounds.

A box average m^L over (2L+1)^d sites is compared against annealed
references while L is scheduled against a growth scale J(t).  Small
gamma = d log L / J(t) leaves the average dominated by rare peaks;
large gamma washes them out and restores law-of-large-numbers and then
Gaussian behavior.  All verdicts carry the exponents gamma_1, gamma_2
so each run can be placed on the phase diagram.

The CLT gates compute their statistics here rather than through
scipy.stats: biased sample skewness and excess kurtosis, and a KS
p-value from the exact Kolmogorov distribution (Durbin's matrix, as
evaluated by Marsaglia, Tsang & Wang 2003) below n D^2 = 2.2, with
2 smirnov(n, D) above it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtr, smirnov

from .analytics import (
    critical_a,
    cumulant_H,
    cumulant_exponent_G,
    growth_J,
    intermittency_shape_f1,
    transition_exponents,
)
from .environments import exp_quantile_array
from .moments import _replica_site_logs, estimate_F_theta
from .seeding import derive_seed, generator
from .solver import required_radius

_DRAW_CHUNK = 1 << 20


def _moment_shape(x):
    """Biased sample skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3.

    Both are nan when m2 is at rounding level of the mean, where the
    data are constant up to rounding.
    """
    mean = x.mean()
    dev = x - mean
    dev2 = dev * dev
    m2 = dev2.mean()
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return math.nan, math.nan
    return float((dev2 * dev).mean() / m2**1.5), float((dev2 * dev2).mean() / m2**2 - 3.0)


def _kolmogorov_sf(n, d):
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n.

    Below n d^2 = 2.2 (and d < 0.5) this is the exact distribution from
    Durbin's matrix as evaluated by Marsaglia, Tsang & Wang (2003): with
    k = floor(n d) + 1, h = k - n d and m = 2k - 1, P(D_n < d) is
    n!/n^n (H^n)_kk for an m x m matrix H, raised to the n-th power by
    squaring with its scale kept as a power of two.  Above, twice the
    exact one-sided tail 2 smirnov(n, d): exact for d >= 0.5, where the
    two one-sided events are disjoint, and otherwise short only by the
    chance of crossing both bounds, about e^(-6 n d^2) < 2e-6 of the
    value.
    """
    nd = n * d
    if d >= 0.5 or nd * d >= 2.2:
        return min(1.0, 2.0 * float(smirnov(n, d)))
    if nd <= 0.5:
        return 1.0
    k = int(nd) + 1
    h = k - nd
    m = 2 * k - 1
    inv_fact = np.concatenate([[1.0], np.cumprod(1.0 / np.arange(1.0, m + 1))])
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    h_pow = h ** np.arange(1.0, m + 1)
    H[:, 0] -= h_pow * inv_fact[1:]
    H[-1, :] -= h_pow[::-1] * inv_fact[1:][::-1]
    H[-1, 0] += max(0.0, 2.0 * h - 1.0) ** m * inv_fact[m]
    # H^n = power * 2^power_exp by squaring; H itself stands for H * 2^sq_exp
    power, power_exp, sq_exp = np.eye(m), 0, 0
    e = n
    while e:
        if e & 1:
            power = power @ H
            shift = math.frexp(power.max())[1]
            power, power_exp = np.ldexp(power, -shift), power_exp + sq_exp + shift
        e >>= 1
        if e:
            H = H @ H
            shift = math.frexp(H.max())[1]
            H, sq_exp = np.ldexp(H, -shift), 2 * sq_exp + shift
    log_cdf = math.log(power[k - 1, k - 1]) + power_exp * math.log(2.0) + math.lgamma(n + 1) - n * math.log(n)
    return 1.0 - math.exp(log_cdf)


def _ks_normal_pvalue(z):
    """Two-sided KS p-value of the sample z against the standard normal."""
    n = len(z)
    cdf = ndtr(np.sort(z))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return _kolmogorov_sf(n, float(max(d_plus, d_minus)))


class ScheduleOverflowError(RuntimeError):
    """Requested box is too large to simulate; carries the required L."""

    def __init__(self, message, required_log_L):
        super().__init__(message)
        self.required_log_L = required_log_L


@dataclass(frozen=True)
class RegimeThresholds:
    band: float = 0.05
    fraction: float = 0.95
    skew_max: float = 0.2
    exkurt_max: float = 0.5
    ks_p_min: float = 0.01
    degenerate_median: float = 0.1


@dataclass(frozen=True)
class ScheduleRule:
    """Box-size schedule: explicit table, gamma * J(t), or estimated F table.

    kind "explicit": table maps t to L directly.
    kind "gamma-j": d log L = gamma * J(t) with the family's growth scale.
    kind "f-hat": d log L = table value at t (an externally estimated
    growth scale), for families whose J carries unknown constants.
    """

    kind: str
    gamma: float | None = None
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("explicit", "gamma-j", "f-hat"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "gamma-j":
            if self.gamma is None or self.gamma < 0:
                raise ValueError("gamma-j rule needs gamma >= 0")
        if self.kind in ("explicit", "f-hat") and not self.table:
            raise ValueError(f"{self.kind} rule needs a (t, value) table")

    def lookup(self, t):
        for key, value in self.table:
            if math.isclose(key, t, rel_tol=1e-12, abs_tol=1e-12):
                return value
        raise ValueError(f"schedule table has no entry for t = {t}")


@dataclass(frozen=True)
class RegimeConfig:
    family: object
    rule: ScheduleRule
    t_grid: tuple
    kappa: float = 0.0
    d: int = 1
    n_replica: int = 200
    seed: int = 0
    thresholds: RegimeThresholds = RegimeThresholds()
    max_log_L: float = math.log(2_000_000)
    tol: float = 1e-4

    def __post_init__(self):
        if self.n_replica < 100:
            raise ValueError("need at least 100 replicas")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if not self.t_grid:
            raise ValueError("empty t grid")


def schedule_L(rule, t, family=None, d=1, max_log_L=math.log(2_000_000)):
    """Integer box size L for time t, plus the gamma-equivalent d log L / J.

    Raises ScheduleOverflowError rather than building a box beyond the
    memory budget; the error carries the required log L.
    """
    if rule.kind == "explicit":
        L = int(rule.lookup(t))
        if L < 1:
            raise ValueError("explicit schedule must give L >= 1")
        log_L = math.log(L)
    elif rule.kind == "gamma-j":
        if rule.gamma == 0.0:
            L = 1
            log_L = 0.0
        else:
            log_L = rule.gamma * growth_J(family, d, t) / d
    else:
        log_L = float(rule.lookup(t)) / d
    if log_L > max_log_L:
        raise ScheduleOverflowError(
            f"schedule needs log L = {log_L:.3f} (L ~ e^{log_L:.1f}), "
            f"over the budget log L <= {max_log_L:.3f}",
            required_log_L=log_L,
        )
    if rule.kind != "explicit" and not (rule.kind == "gamma-j" and rule.gamma == 0.0):
        L = max(1, math.ceil(math.exp(log_L) - 1e-9))
    try:
        gamma_eq = d * math.log(L) / growth_J(family, d, t) if L > 1 else 0.0
    except (ValueError, TypeError):
        gamma_eq = math.nan
    return L, gamma_eq


def annealed_reference(family, t):
    """Exact kappa = 0 single-site reference (mean, sd) of m(0, t)."""
    H1 = cumulant_H(family, t)
    H2 = cumulant_H(family, 2.0 * t)
    mu = math.exp(H1)
    var = math.exp(H2) - math.exp(2.0 * H1)
    return mu, math.sqrt(max(var, 0.0))


def _family_draw(family, t):
    def draw(rng, n):
        s = rng.exponential(size=n)
        return exp_quantile_array(family, s)

    return draw


def _block_log_means_exact(config, t, L, label, draw_fn):
    """log m^L per replica at kappa = 0 from direct i.i.d. potential draws.

    Sampling standard exponentials and mapping through the exp-quantile
    transform is equal in law to the per-site uniform route the
    environment sampler uses, and much faster at large L.
    """
    n_sites = (2 * L + 1) ** config.d
    draw = draw_fn if draw_fn is not None else _family_draw(config.family, t)
    out = np.empty(config.n_replica)
    with np.errstate(over="raise"):
        for i in range(config.n_replica):
            rng = generator(derive_seed(config.seed, label, i))
            total = 0.0
            left = n_sites
            while left > 0:
                n = min(_DRAW_CHUNK, left)
                v = np.asarray(draw(rng, n), dtype=np.float64)
                total += float(np.exp(t * v).sum())
                left -= n
            out[i] = math.log(total / n_sites) if total > 0 else -math.inf
    return out


def _block_log_means_solver(config, t, L, label):
    """log m^L per replica for kappa > 0: every replica's box sites in one site_log_moments call."""
    if config.d != 1:
        raise ValueError("kappa > 0 regime runs support d = 1 only")
    if t > 3.0:
        raise ValueError("kappa > 0 regime runs are limited to t <= 3")
    if L > 2000:
        raise ValueError("kappa > 0 regime runs are limited to L <= 2000")
    R = required_radius(config.kappa, t, config.tol, 1)
    seeds = [derive_seed(config.seed, label, i) for i in range(config.n_replica)]
    logs = _replica_site_logs(config.family, seeds, L + R, np.arange(-L, L + 1), config.kappa, t, R)
    return logsumexp(logs, axis=1) - math.log(2 * L + 1)


def _block_log_means(config, t, L, label, draw_fn=None):
    if config.kappa == 0.0:
        return _block_log_means_exact(config, t, L, label, draw_fn)
    if draw_fn is not None:
        raise ValueError("draw_fn injection requires kappa = 0")
    return _block_log_means_solver(config, t, L, label)


@dataclass(frozen=True)
class RegimeVerdict:
    kind: str
    t: float
    L: int
    gamma: float
    gamma1: float
    gamma2: float
    n_replica: int
    ref_log_mu: float
    ref_sys_halfwidth: float
    ratio_mean: float
    ratio_sd: float
    ratio_q10: float
    ratio_q50: float
    ratio_q90: float
    frac_in_band: float
    frac_raw_in_band: float
    frac_below_half: float
    skew: float
    exkurt: float
    ks_p: float
    median_abs_statistic: float
    max_abs_statistic: float
    classification: str


def _exponents(config):
    table = transition_exponents(config.family, config.d)
    return table.gamma1, table.gamma2


def _ratio_stats(logs, log_mu):
    ratio = np.exp(logs - log_mu)
    q10, q50, q90 = np.quantile(ratio, [0.1, 0.5, 0.9])
    return ratio, float(ratio.mean()), float(ratio.std(ddof=1)), float(q10), float(q50), float(q90)


def lln_experiment(config, draw_fn=None, reference=None):
    """Fraction of replicas whose box average tracks the annealed value.

    The in-band count compares exponents, |log m^L / log <m> - 1| <=
    band, which is the reading that stays meaningful while m^L itself
    still carries heavy sampling tails; the raw-ratio count is reported
    alongside.  Classified annealed when the in-band fraction clears the
    configured threshold, non-annealed when most mass sits below half
    the annealed value.
    """
    g1, g2 = _exponents(config)
    thr = config.thresholds
    verdicts = []
    for ti, t in enumerate(config.t_grid):
        L, gamma_eq = schedule_L(
            config.rule, t, config.family, config.d, config.max_log_L
        )
        logs = _block_log_means(config, t, L, f"lln-{ti}", draw_fn=draw_fn)
        if reference is not None:
            log_mu = math.log(reference[0])
            sys_half = 0.0
        elif config.kappa == 0.0:
            log_mu = cumulant_H(config.family, t)
            sys_half = 0.0
        else:
            H = cumulant_H(config.family, t)
            sys_half = config.d * config.kappa * t
            log_mu = H - sys_half
        ratio, rmean, rsd, q10, q50, q90 = _ratio_stats(logs, log_mu)
        if abs(log_mu) > 1e-12:
            frac_in_band = float(np.mean(np.abs(logs / log_mu - 1.0) <= thr.band))
        else:
            frac_in_band = float(np.mean(np.abs(logs) <= thr.band))
        frac_raw = float(np.mean(np.abs(ratio - 1.0) <= thr.band))
        frac_half = float(np.mean(ratio < 0.5))
        if frac_in_band >= thr.fraction:
            cls = "annealed"
        elif frac_half >= thr.fraction:
            cls = "non-annealed"
        else:
            cls = "inconclusive"
        verdicts.append(
            RegimeVerdict(
                kind="lln",
                t=float(t),
                L=L,
                gamma=gamma_eq,
                gamma1=g1,
                gamma2=g2,
                n_replica=config.n_replica,
                ref_log_mu=log_mu,
                ref_sys_halfwidth=sys_half,
                ratio_mean=rmean,
                ratio_sd=rsd,
                ratio_q10=q10,
                ratio_q50=q50,
                ratio_q90=q90,
                frac_in_band=frac_in_band,
                frac_raw_in_band=frac_raw,
                frac_below_half=frac_half,
                skew=math.nan,
                exkurt=math.nan,
                ks_p=math.nan,
                median_abs_statistic=math.nan,
                max_abs_statistic=math.nan,
                classification=cls,
            )
        )
    return verdicts


def clt_experiment(config, draw_fn=None, reference=None):
    """Normality gates on the standardized block average.

    The gate statistic is (m^L - mu) (2L+1)^{d/2} / sigma with the exact
    single-site kappa = 0 references; skewness, excess kurtosis, and a
    KS test against a fitted normal decide "gaussian".  The degeneracy
    probe drops the (2L+1)^{d/2} factor: when even the unscaled
    deviation (m^L - mu)/sigma has median size below the threshold the
    fluctuations have collapsed and the verdict is "non-gaussian".
    """
    g1, g2 = _exponents(config)
    thr = config.thresholds
    verdicts = []
    for ti, t in enumerate(config.t_grid):
        L, gamma_eq = schedule_L(
            config.rule, t, config.family, config.d, config.max_log_L
        )
        logs = _block_log_means(config, t, L, f"clt-{ti}", draw_fn=draw_fn)
        if reference is not None:
            mu, sigma = reference
        elif config.kappa == 0.0:
            mu, sigma = annealed_reference(config.family, t)
        else:
            raise ValueError("clt_experiment needs kappa = 0 or an explicit reference")
        m = np.exp(logs)
        n_sites = (2 * L + 1) ** config.d
        diff = m - mu
        if sigma > 0.0:
            single = diff / sigma
        else:
            negligible = np.abs(diff) <= 1e-12 * abs(mu)
            single = np.where(negligible, 0.0, np.sign(diff) * np.inf)
        stat = single * math.sqrt(n_sites)
        med = float(np.median(np.abs(single)))
        mx = float(np.max(np.abs(single)))
        sd = float(stat.std(ddof=1))
        if sd > 0.0 and np.all(np.isfinite(stat)):
            skew, exkurt = _moment_shape(stat)
            ks_p = _ks_normal_pvalue((stat - stat.mean()) / sd)
        else:
            skew = math.nan
            exkurt = math.nan
            ks_p = 0.0
        gates = (
            abs(skew) <= thr.skew_max
            and abs(exkurt) <= thr.exkurt_max
            and ks_p >= thr.ks_p_min
        )
        if gates:
            cls = "gaussian"
        elif med <= thr.degenerate_median:
            cls = "non-gaussian"
        else:
            cls = "inconclusive"
        log_mu = math.log(mu)
        ratio, rmean, rsd, q10, q50, q90 = _ratio_stats(logs, log_mu)
        verdicts.append(
            RegimeVerdict(
                kind="clt",
                t=float(t),
                L=L,
                gamma=gamma_eq,
                gamma1=g1,
                gamma2=g2,
                n_replica=config.n_replica,
                ref_log_mu=log_mu,
                ref_sys_halfwidth=0.0,
                ratio_mean=rmean,
                ratio_sd=rsd,
                ratio_q10=q10,
                ratio_q50=q50,
                ratio_q90=q90,
                frac_in_band=float(np.mean(np.abs(ratio - 1.0) <= thr.band)),
                frac_raw_in_band=float(np.mean(np.abs(ratio - 1.0) <= thr.band)),
                frac_below_half=float(np.mean(ratio < 0.5)),
                skew=skew,
                exkurt=exkurt,
                ks_p=ks_p,
                median_abs_statistic=med,
                max_abs_statistic=mx,
                classification=cls,
            )
        )
    return verdicts


def verdict_consistent(verdict, thresholds=RegimeThresholds()):
    """Recompute the classification from the recorded statistics."""
    thr = thresholds
    if verdict.kind == "lln":
        if verdict.frac_in_band >= thr.fraction:
            return verdict.classification == "annealed"
        if verdict.frac_below_half >= thr.fraction:
            return verdict.classification == "non-annealed"
        return verdict.classification == "inconclusive"
    gates = (
        abs(verdict.skew) <= thr.skew_max
        and abs(verdict.exkurt) <= thr.exkurt_max
        and verdict.ks_p >= thr.ks_p_min
    )
    if gates:
        return verdict.classification == "gaussian"
    if verdict.median_abs_statistic <= thr.degenerate_median:
        return verdict.classification == "non-gaussian"
    return verdict.classification == "inconclusive"


@dataclass(frozen=True)
class CriticalVerdict:
    t: float
    L: int
    gamma: float
    delta: float
    a_gamma: float
    gamma1: float
    gamma2: float
    n_replica: int
    log_normalizer: float
    frac_below: float
    passed: bool


def _critical_scale(family, d, t, kappa, theta, n_replica, seed):
    """Growth scale for the critical schedule and normalizer.

    Weibull, double-exponential and almost-bounded families use the
    analytic J; the Frechet J carries an unknown multiplicative
    constant, so it is calibrated from the intermittency gap via
    J(t) = F_theta(t) / f1(theta).
    """
    if family.kind != "frechet":
        return growth_J(family, d, t)
    f1 = intermittency_shape_f1(family, theta, d)
    if kappa == 0.0:
        return cumulant_exponent_G(family, theta, t) / f1
    est = estimate_F_theta(family, theta, kappa, t, n_replica, seed)
    return est.value / f1


def critical_experiment(config, gamma, delta, theta=0.5):
    """Fraction of replicas below the near-critical normalizer.

    Schedules d log L = gamma J(t) with 0 < gamma < gamma_1 and counts
    replicas with m^L below the family's normalizer at a(gamma) + delta.
    Positive delta probes the upper critical bound; a negative delta
    flips the check into a sharpness probe below the critical curve.
    """
    g1, g2 = _exponents(config)
    if not 0.0 < gamma < g1:
        raise ValueError(f"gamma must lie in (0, {g1:g}) strictly")
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    thr = config.thresholds
    a = critical_a(config.family, gamma, config.d)
    kind = config.family.kind
    verdicts = []
    for ti, t in enumerate(config.t_grid):
        scale = _critical_scale(
            config.family, config.d, t, config.kappa, theta,
            config.n_replica, derive_seed(config.seed, "critical-scale", ti),
        )
        log_L = gamma * scale / config.d
        if log_L > config.max_log_L:
            raise ScheduleOverflowError(
                f"critical schedule needs log L = {log_L:.3f}", required_log_L=log_L
            )
        L = max(1, math.ceil(math.exp(log_L) - 1e-9))
        logs = _block_log_means(config, t, L, f"critical-{ti}")
        if kind == "weibull":
            log_norm = (a + delta) * cumulant_H(config.family, t)
        elif kind in ("double_exp", "sq_double_exp"):
            if a + delta <= 0.0:
                raise ValueError("delta pushes the normalizer index below zero")
            log_norm = cumulant_H(config.family, (a + delta) * t) / (a + delta)
        elif kind == "frechet":
            log_norm = -(a - delta) * scale
        else:
            raise ValueError(f"no critical normalizer for family {kind!r}")
        frac = float(np.mean(logs < log_norm))
        verdicts.append(
            CriticalVerdict(
                t=float(t),
                L=L,
                gamma=float(gamma),
                delta=float(delta),
                a_gamma=a,
                gamma1=g1,
                gamma2=g2,
                n_replica=config.n_replica,
                log_normalizer=float(log_norm),
                frac_below=frac,
                passed=frac >= thr.fraction,
            )
        )
    return verdicts
