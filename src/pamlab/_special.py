"""The few special functions the package needs, in numpy and the standard library.

Each one gives the same floating-point result as the scipy.special
function of the same name wherever its value reaches an output:

- logsumexp follows scipy's algorithm for real input step for step;
- log_factorial is the Cephes lgam (Moshier) at integer arguments;
- ndtr is 0.5 erfc(-x / sqrt 2) with the Cephes erfc, as scipy has it;
- smirnov is the exact one-sided Kolmogorov-Smirnov tail of Birnbaum &
  Tingey (1951), summed at 50 digits and rounded once.
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


# Cephes erfc: rational approximations on [1, 8) (P/Q) and [8, inf) (R/S),
# and erf on [0, 1] (T/U); the leading 1 of Q, S and U is written out.
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _erfc(a):
    if math.isnan(a):
        return a
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
    y = z * p / q
    if a < 0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0 else 0.0
    return y


def ndtr(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt 2), elementwise, as a float array."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([0.5 * _erfc(-xi * _SQRT1_2) for xi in x.ravel().tolist()]).reshape(x.shape)


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
