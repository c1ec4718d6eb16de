"""The few special functions the package needs, in numpy and the standard library.

Each gives scipy.special's bits where its value reaches an output at
full precision, or is exact:

- logsumexp follows scipy's algorithm for real input step for step;
- log_factorial is the Cephes lgam (Moshier), scipy's gammaln(k + 1);
- smirnov is the exact one-sided Kolmogorov-Smirnov tail of Birnbaum &
  Tingey (1951), summed at 50 digits and rounded once.

The KS gate's normal CDF reaches its p-value only through the KS
distance, so regimes takes it from math.erfc.
"""

import math
from decimal import Decimal, localcontext

import numpy as np


def logsumexp(a, axis=None):
    """log sum exp(a) over axis (all axes if None), shifted by the peak.

    Every entry equal to the peak a_max is taken out of the sum; with m
    of them and s the sum of the rest of exp(a - a_max), the result is
    log1p(s / m) + log m + a_max.  Where that is not finite (a peak of
    +-inf, or nan) it is log sum exp(a) taken directly.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        return np.float64(-np.inf)
    a_max = a.max(axis=axes, keepdims=True)
    at_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[at_max] = 0.0
        m = at_max.sum(axis=axes, keepdims=True, dtype=np.float64)
        s = e.sum(axis=axes, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axes, keepdims=True)))
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


# Cephes lgam: Stirling correction coefficients in 1/x^2, and log sqrt(2 pi).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _polevl(x, coefs):
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def log_factorial(k):
    """log k! for an integer k >= 0: Cephes lgam(k + 1).

    Below 13 that is the log of the exact product; from 13 on, Stirling's
    series with lgam's correction terms.
    """
    x = float(k + 1)
    if x < 13.0:
        return math.log(math.factorial(k))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def smirnov(n, d):
    """P(D_n^+ >= d) for the one-sided one-sample KS statistic of n points.

    The exact sum of Birnbaum & Tingey (1951),
    d sum_{j <= n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),
    whose terms are all positive, taken in 50-digit decimals with the
    binomials built by their ratio recurrence, then rounded to a float.
    """
    n = int(n)
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        dd = Decimal(d)
        top = int(n - n * dd)
        total, binom = Decimal(0), Decimal(1)
        for j in range(top + 1):
            x = Decimal(j) / n
            total += binom * (1 - dd - x) ** (n - j) * (dd + x) ** (j - 1)
            binom = binom * (n - j) / (j + 1)
        return float(dd * total)
