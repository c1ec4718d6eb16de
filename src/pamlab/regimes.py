"""Regime experiments: law of large numbers, CLT, and critical bounds.

A box average m^L over (2L+1)^d sites is compared against annealed
references while L is scheduled against a growth scale J(t).  Small
gamma = d log L / J(t) leaves the average dominated by rare peaks;
large gamma washes them out and restores law-of-large-numbers and then
Gaussian behavior.  All verdicts carry the exponents gamma_1, gamma_2
so each run can be placed on the phase diagram.

The CLT gates compute their statistics here rather than through
scipy.stats: biased sample skewness and excess kurtosis, and a KS
p-value against the normal CDF of math.erfc, from the exact Kolmogorov
distribution (Durbin's matrix, as evaluated by Marsaglia, Tsang & Wang
2003) below n D^2 = 2.2, and above it twice the exact one-sided tail of
Birnbaum & Tingey (1951).
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._special import smirnov
from .analytics import (
    _cumulant_pair,
    critical_a,
    cumulant_H,
    cumulant_exponent_G,
    growth_J,
    intermittency_shape_f1,
    transition_exponents,
)
from .environments import _lattice_int, exp_quantile_array
from .moments import estimate_F_theta
from .seeding import derive_seed, generator
from .solver import _check_walk, _log_mean, _replica_box_logs, required_radius

_DRAW_CHUNK = 1 << 20
# Below this many kappa = 0 block sites, n_replica (2L+1)^d, the draws stay
# in the calling process.  On two cores a fork pool took about 12 ms to
# start (28 ms on its first use, which imports multiprocessing) and the
# draws about 8 ns per site, so the two broke even near 3e6 sites.
_POOL_MIN_SITES = 4_000_000
_POOL_CHUNKS = 4  # replica chunks per pool worker


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
    """Two-sided KS p-value of the sample z against the normal CDF 0.5 erfc(-x / sqrt 2)."""
    n = len(z)
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in np.sort(z).tolist()])
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

    def __post_init__(self):
        for name, ok, bound in (
            ("band", self.band > 0, "> 0"),
            ("fraction", 0 < self.fraction <= 1, "in (0, 1]"),
            ("skew_max", self.skew_max > 0, "> 0"),
            ("exkurt_max", self.exkurt_max > 0, "> 0"),
            ("ks_p_min", 0 <= self.ks_p_min <= 1, "in [0, 1]"),
            ("degenerate_median", self.degenerate_median >= 0, ">= 0"),
        ):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"threshold {name} must be finite and {bound}, got {value:g}")


@dataclass(frozen=True)
class ScheduleRule:
    """Box-size schedule: explicit table, gamma * J(t), or estimated F table.

    kind "explicit": table maps t to L directly (integers >= 1).
    kind "gamma-j": d log L = gamma * J(t) with the family's growth scale.
    kind "f-hat": d log L = table value at t (an externally estimated
    growth scale), for families whose J carries unknown constants.
    A table that names one t twice (as lookup compares them) is refused.
    """

    kind: str
    gamma: float | None = None
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("explicit", "gamma-j", "f-hat"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "gamma-j":
            if self.gamma is None or not 0 <= self.gamma < math.inf:
                raise ValueError(f"gamma-j rule needs a finite gamma >= 0, got {self.gamma}")
        if self.kind in ("explicit", "f-hat") and not self.table:
            raise ValueError(f"{self.kind} rule needs a (t, value) table")
        times = [key for key, _ in self.table]
        for i, key in enumerate(times):
            if any(_same_t(key, earlier) for earlier in times[:i]):
                raise ValueError(f"schedule table names t = {key:g} twice")
        if self.kind == "explicit":
            for _, L in self.table:
                if not (L >= 1 and float(L).is_integer()):
                    raise ValueError(f"explicit schedule needs integer L >= 1, got L = {L:g}")

    def lookup(self, t):
        for key, value in self.table:
            if _same_t(key, t):
                return value
        raise ValueError(f"schedule table has no entry for t = {t}")


def _same_t(a, b):
    """Whether two schedule times name one t."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


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
        _lattice_int("n_replica", self.n_replica, 100)
        _lattice_int("d", self.d, 1)
        if not self.t_grid:
            raise ValueError("empty t grid")
        for t in self.t_grid:
            _check_walk(self.kappa, t)
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must be in (0, 1), got {self.tol:g}")


def _box_size(log_L, max_log_L):
    """L = ceil(e^log_L), refusing a box over the budget log L <= max_log_L."""
    if log_L > max_log_L:
        raise ScheduleOverflowError(
            f"schedule needs log L = {log_L:.3f} (L ~ e^{log_L:.1f}), "
            f"over the budget log L <= {max_log_L:.3f}",
            required_log_L=log_L,
        )
    return max(1, math.ceil(math.exp(log_L) - 1e-9))


def schedule_L(rule, t, family, d=1, max_log_L=RegimeConfig.max_log_L):
    """Integer box size L for time t, plus the gamma-equivalent d log L / J.

    Raises ScheduleOverflowError rather than building a box beyond the
    memory budget; the error carries the required log L.
    """
    if rule.kind == "explicit":
        L = int(rule.lookup(t))
        _box_size(math.log(L), max_log_L)  # only the budget refusal; L stays as given
    elif rule.kind == "gamma-j":
        L = _box_size(rule.gamma * growth_J(family, d, t) / d if rule.gamma else 0.0, max_log_L)
    else:
        L = _box_size(float(rule.lookup(t)) / d, max_log_L)
    try:
        gamma_eq = d * math.log(L) / growth_J(family, d, t) if L > 1 else 0.0
    except ValueError:
        gamma_eq = math.nan
    return L, gamma_eq


def annealed_reference(family, t):
    """Exact kappa = 0 single-site reference (mean, sd) of m(0, t).

    Refuses, with ValueError, a t at which H(2t) - 2 H(t) lies within the
    quadrature error of H, since e^H(2t) - e^2H(t) is then noise, and a
    t at which e^H(2t) overflows a double.
    """
    H1, H2 = _cumulant_pair(family, t, f"annealed reference at t = {t:g}")
    try:
        mu, var = math.exp(H1), math.exp(H2) - math.exp(2.0 * H1)
    except OverflowError:
        raise ValueError(f"annealed reference at t = {t:g} overflows: e^H(2t) with H(2t) = {H2:.6g}") from None
    return mu, math.sqrt(var)


def _draw_sites(family, rng, v):
    """Fill v in place with i.i.d. potentials of family drawn from rng.

    Standard exponentials through the exp-quantile transform are equal in
    law to the environment sampler's per-site uniforms, and much faster at
    large L.  The kappa = 0 block draws all come from here, so a test can
    patch this one function; fork carries the patch into pool workers.
    """
    exp_quantile_array(family, rng.standard_exponential(out=v))


def _draw_log_means(config, t, L, label, lo, hi):
    """log m^L of replicas lo, ..., hi - 1 at kappa = 0, from direct i.i.d. draws.

    Replica i draws from its own stream derive_seed(seed, label, i) in
    _DRAW_CHUNK pieces, so its value does not depend on lo and hi.  Each
    piece is drawn, transformed and exponentiated in two buffers reused
    for the whole range.
    """
    n_sites = (2 * L + 1) ** config.d
    tv = np.empty(min(_DRAW_CHUNK, n_sites))
    etv = np.empty_like(tv)
    out = np.empty(hi - lo)
    with np.errstate(over="raise"):
        for i in range(lo, hi):
            rng = generator(derive_seed(config.seed, label, i))
            total = 0.0
            left = n_sites
            while left > 0:
                n = min(_DRAW_CHUNK, left)
                v = tv[:n]
                _draw_sites(config.family, rng, v)
                v *= t
                try:
                    total += float(np.exp(v, out=etv[:n]).sum())
                except FloatingPointError:
                    raise ValueError(f"e^(t v) overflows at t = {t:g}: t v reaches {float(v.max()):.6g}") from None
                left -= n
            out[i - lo] = math.log(total / n_sites) if total > 0 else -math.inf
    return out


def _block_log_means_exact(config, t, L, label):
    """log m^L per replica at kappa = 0 from direct i.i.d. potential draws.

    A draw whose e^(t v) overflows a double raises ValueError.

    From _POOL_MIN_SITES draws on, when the process may use two or more
    CPUs and can fork, the replicas run in contiguous chunks on a fork
    pool of one worker per CPU (at most n_replica), _POOL_CHUNKS chunks
    per worker; a chunk receives plain arguments and returns its log
    means.  Every replica keeps its own stream, so the result has the same
    bits on any number of workers, and a refusal is the one the calling
    process would raise.  A refusal cancels the chunks not yet started.
    """
    n = config.n_replica
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, n)
    if workers < 2 or n * (2 * L + 1) ** config.d < _POOL_MIN_SITES:
        return _draw_log_means(config, t, L, label, 0, n)
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return _draw_log_means(config, t, L, label, 0, n)
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    edges = np.linspace(0, n, min(n, _POOL_CHUNKS * workers) + 1).astype(int)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        chunks = [pool.submit(_draw_log_means, config, t, L, label, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        wait(chunks, return_when=FIRST_EXCEPTION)
        for chunk in chunks:
            # after a refusal: stop the chunks not yet started.  Every chunk
            # before a started one has started, so the first refusal in
            # replica order, the in-process one, is the one raised below.
            chunk.cancel()
        return np.concatenate([chunk.result() for chunk in chunks])
    finally:
        pool.shutdown(cancel_futures=True)


def _check_solver_dim(config):
    """Refuses, naming the value, a kappa > 0 run past d = 1."""
    if config.kappa != 0.0 and config.d != 1:
        raise ValueError(f"kappa > 0 regime runs support d = 1 only, got d = {config.d}")


def _block_log_means(config, t, L, label):
    """log m^L per replica: direct draws at kappa = 0, else shared tiles read in stacks of replicas."""
    if config.kappa == 0.0:
        return _block_log_means_exact(config, t, L, label)
    R = required_radius(config.kappa, t, config.tol, 1)
    seeds = [derive_seed(config.seed, label, i) for i in range(config.n_replica)]
    return _replica_box_logs(config.family, seeds, L, config.kappa, t, R, _log_mean)


@dataclass(frozen=True)
class RegimeVerdict:
    """An lln or clt verdict on the box average m^L at one t.

    The ratio fields describe m^L / exp(ref_log_mu) over the replicas;
    frac_raw_in_band counts |ratio - 1| <= band and frac_below_half
    counts ratio < 1/2.  frac_in_band is the statistic the lln verdict
    reads, |log m^L / ref_log_mu - 1| <= band (|log m^L| <= band when
    ref_log_mu is 0); for clt it is the raw ratio band and equals
    frac_raw_in_band.  The regime CLI's frac_in_band column is this field.

    NaN fields: for lln, skew, exkurt, ks_p, median_abs_statistic and
    max_abs_statistic.  For clt, skew and exkurt when the standardized
    statistic has no spread or is not finite (ks_p is then 0).  For
    both, gamma when L > 1 and the growth scale J(t) is undefined.
    ref_sys_halfwidth is d kappa t for lln and 0 for clt.
    """

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


def _classify(verdict, thresholds):
    """The one rule from a verdict's statistics to its label.

    lln: annealed when the in-band fraction clears `fraction`, else
    non-annealed when the below-half fraction does.  clt: gaussian when
    skewness, excess kurtosis and the KS p-value pass their gates, else
    non-gaussian when the median |(m^L - mu) / sigma| is degenerate.
    Anything else is inconclusive.  A CriticalVerdict passes when its
    below-normalizer fraction clears `fraction`.
    """
    thr = thresholds
    if isinstance(verdict, CriticalVerdict):
        return verdict.frac_below >= thr.fraction
    if verdict.kind == "lln":
        if verdict.frac_in_band >= thr.fraction:
            return "annealed"
        if verdict.frac_below_half >= thr.fraction:
            return "non-annealed"
    else:
        shape_ok = abs(verdict.skew) <= thr.skew_max and abs(verdict.exkurt) <= thr.exkurt_max
        if shape_ok and verdict.ks_p >= thr.ks_p_min:
            return "gaussian"
        if verdict.median_abs_statistic <= thr.degenerate_median:
            return "non-gaussian"
    return "inconclusive"


def _regime_verdicts(config, kind, own_stats):
    """One verdict per t of the grid, shared by the lln and clt experiments.

    own_stats(t, L, logs) returns the reference log mu and the fields only
    that kind fills; the ratio statistics against exp(log mu) and the
    classification are common.
    """
    exps = transition_exponents(config.family, config.d)
    band = config.thresholds.band
    # every t's box is scheduled, or refused, before the first block draw
    _check_solver_dim(config)
    schedule = [schedule_L(config.rule, t, config.family, config.d, config.max_log_L) for t in config.t_grid]
    verdicts = []
    for ti, (t, (L, gamma_eq)) in enumerate(zip(config.t_grid, schedule)):
        logs = _block_log_means(config, t, L, f"{kind}-{ti}")
        log_mu, own = own_stats(t, L, logs)
        ratio = np.exp(logs - log_mu)
        q10, q50, q90 = np.quantile(ratio, [0.1, 0.5, 0.9])
        frac_raw = float(np.mean(np.abs(ratio - 1.0) <= band))
        fields = {
            "ref_sys_halfwidth": 0.0, "frac_in_band": frac_raw, "skew": math.nan, "exkurt": math.nan,
            "ks_p": math.nan, "median_abs_statistic": math.nan, "max_abs_statistic": math.nan, **own,
        }
        verdict = RegimeVerdict(
            kind=kind, t=float(t), L=L, gamma=gamma_eq, gamma1=exps.gamma1, gamma2=exps.gamma2,
            n_replica=config.n_replica, ref_log_mu=log_mu, ratio_mean=float(ratio.mean()),
            ratio_sd=float(ratio.std(ddof=1)), ratio_q10=float(q10), ratio_q50=float(q50),
            ratio_q90=float(q90), frac_raw_in_band=frac_raw,
            frac_below_half=float(np.mean(ratio < 0.5)), classification="", **fields,
        )
        verdicts.append(replace(verdict, classification=_classify(verdict, config.thresholds)))
    return verdicts


def lln_experiment(config):
    """Fraction of replicas whose box average tracks the annealed value.

    The reference is H(t) - d kappa t.  The in-band count compares
    exponents, |log m^L / log <m> - 1| <= band, which is the reading
    that stays meaningful while m^L itself still carries heavy sampling
    tails; the raw-ratio count is reported alongside.
    """
    band = config.thresholds.band

    def own_stats(t, L, logs):
        sys_half = config.d * config.kappa * t
        log_mu = cumulant_H(config.family, t) - sys_half
        dev = logs / log_mu - 1.0 if abs(log_mu) > 1e-12 else logs
        return log_mu, {"ref_sys_halfwidth": sys_half, "frac_in_band": float(np.mean(np.abs(dev) <= band))}

    return _regime_verdicts(config, "lln", own_stats)


def clt_experiment(config, reference=None):
    """Normality gates on the standardized block average.

    The gate statistic is (m^L - mu) (2L+1)^{d/2} / sigma with the exact
    single-site kappa = 0 references, or `reference` = (mu, sigma) when
    given; skewness, excess kurtosis, and a KS test against a fitted
    normal decide "gaussian".  The degeneracy probe drops the
    (2L+1)^{d/2} factor: when even the unscaled deviation
    (m^L - mu)/sigma has median size below the threshold the
    fluctuations have collapsed and the verdict is "non-gaussian".
    """
    if config.kappa != 0.0 and reference is None:
        raise ValueError(f"clt_experiment needs kappa = 0 or an explicit reference, got kappa = {config.kappa:g}")
    # every reference is computed, or refused, before the first draw
    refs = {t: reference if reference is not None else annealed_reference(config.family, t) for t in config.t_grid}

    def own_stats(t, L, logs):
        mu, sigma = refs[t]
        diff = np.exp(logs) - mu
        if sigma > 0.0:
            single = diff / sigma
        else:
            negligible = np.abs(diff) <= 1e-12 * abs(mu)
            single = np.where(negligible, 0.0, np.sign(diff) * np.inf)
        stat = single * math.sqrt((2 * L + 1) ** config.d)
        sd = float(stat.std(ddof=1))
        if sd > 0.0 and np.all(np.isfinite(stat)):
            skew, exkurt = _moment_shape(stat)
            ks_p = _ks_normal_pvalue((stat - stat.mean()) / sd)
        else:
            skew, exkurt, ks_p = math.nan, math.nan, 0.0
        return math.log(mu), {
            "skew": skew, "exkurt": exkurt, "ks_p": ks_p,
            "median_abs_statistic": float(np.median(np.abs(single))),
            "max_abs_statistic": float(np.max(np.abs(single))),
        }

    return _regime_verdicts(config, "clt", own_stats)


def verdict_consistent(verdict, thresholds=RegimeThresholds()):
    """Whether the recorded classification follows from the recorded statistics."""
    return verdict.classification == _classify(verdict, thresholds)


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
    exps = transition_exponents(config.family, config.d)
    if not 0.0 < gamma < exps.gamma1:
        raise ValueError(f"gamma must lie in (0, {exps.gamma1:g}) strictly, got {gamma:g}")
    if delta == 0.0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and nonzero, got {delta:g}")
    a = critical_a(config.family, gamma, config.d)
    kind = config.family.kind
    if kind in ("double_exp", "sq_double_exp") and a + delta <= 0.0:
        raise ValueError(f"delta = {delta:g} pushes the normalizer index a(gamma) + delta below zero (a = {a:g})")
    # every t's box is sized, or refused, before the first block draw
    _check_solver_dim(config)
    scales = [_critical_scale(config.family, config.d, t, config.kappa, theta, config.n_replica,
                              derive_seed(config.seed, "critical-scale", ti)) for ti, t in enumerate(config.t_grid)]
    sizes = [_box_size(gamma * scale / config.d, config.max_log_L) for scale in scales]
    verdicts = []
    for ti, (t, scale, L) in enumerate(zip(config.t_grid, scales, sizes)):
        logs = _block_log_means(config, t, L, f"critical-{ti}")
        if kind == "weibull":
            log_norm = (a + delta) * cumulant_H(config.family, t)
        elif kind in ("double_exp", "sq_double_exp"):
            log_norm = cumulant_H(config.family, (a + delta) * t) / (a + delta)
        else:  # frechet; critical_a refuses the hard-core family
            log_norm = -(a - delta) * scale
        verdict = CriticalVerdict(
            t=float(t), L=L, gamma=float(gamma), delta=float(delta), a_gamma=a,
            gamma1=exps.gamma1, gamma2=exps.gamma2, n_replica=config.n_replica, log_normalizer=float(log_norm),
            frac_below=float(np.mean(logs < log_norm)), passed=False,
        )
        verdicts.append(replace(verdict, passed=_classify(verdict, config.thresholds)))
    return verdicts
