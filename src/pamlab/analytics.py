"""Closed-form and quadrature analytics for the annealed moment scales.

The central object is the cumulant generating function
H(t) = log E[exp(t v(0))].  Writing the expectation through the quantile
function and substituting u = 1 - e^(-s) gives

    E[exp(t v)] = int_0^1 exp(t q(u)) du = int_0^inf exp(t qtilde(s) - s) ds,

with qtilde the quantile in exponential scale.  The substitution absorbs
the u -> 1 tail that dominates heavy-tailed families.  A second
substitution s = e^z removes the remaining endpoint trouble at s -> 0
(the log-integrand becomes smooth and unimodal in z, decaying at least
linearly on the left flank and double-exponentially on the right), so an
adaptive Gauss-Legendre scheme with log-domain accumulation reaches
absolute log-accuracy around 1e-10.  The almost-bounded family, whose
log-integrand has a sqrt(z) cusp at its floor z = 0, is integrated in
y = sqrt(z) instead.

Everything downstream (cumulant exponents, transition exponents, growth
scales, critical curves, the random-walk exit rate) lives here as pure
functions of a TailFamily.  The bracketed roots (the integrand's peak,
its window cuts, the frechet alpha scale) come from _brentq, Brent's
method (Brent 1973, ch. 4) written out step for step as scipy's brentq
runs it, so the roots are the same to the last bit without loading
scipy.optimize.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._special import logsumexp
from .environments import TailFamily, _lattice_int

_LOG_WINDOW = 60.0  # integrand kept down to exp(-60) relative to its peak
_PANEL_TOL = 1e-10
_MAX_PANELS = 20000
_MAX_DEPTH = 48
_ROOT_RTOL = 1e-13  # relative tolerance of the bracketed root finders
_LOG_ERROR_LIMIT = 1e-9  # largest log-error of H that the quadrature accepts
_GL_X, _GL_W = leggauss(16)  # the Gauss-Legendre rule of every quadrature panel


class QuadratureError(RuntimeError):
    """Adaptive quadrature ran out of panel budget.

    Carries the achieved log-error bound in `achieved`.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class RootBracketError(RuntimeError):
    """A root finder failed to bracket a sign change.

    Carries the last bracket tried in `bracket`.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, step for step as scipy's brentq.

    Each step is inverse quadratic interpolation or a secant step when
    it is short enough, else bisection; xblk keeps the opposite end of
    the bracket.  Converges when half the bracket is below
    (xtol + rtol |x|) / 2.  A same-sign bracket raises ValueError, a NaN
    value of f ValueError, and no convergence in maxiter steps
    RuntimeError.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def rate_I(y):
    """Large-deviation rate y*asinh(y) - sqrt(1+y^2) + 1 for walk exits.

    Equals sup over lam of [lam*y - (cosh(lam) - 1)], the Legendre
    transform of the jump cumulant; increasing on y >= 0 with I(0) = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0):
        raise ValueError("rate_I is defined for y >= 0")
    out = y * np.arcsinh(y) - np.hypot(1.0, y) + 1.0
    return float(out) if out.ndim == 0 else out


def _log_integrand_z(family, t):
    """G(z) = t*qtilde(e^z) - e^z + z after the substitution s = e^z (sq_double_exp: in y = sqrt(z))."""
    k = family.kind
    if k == "weibull":
        rho = family.rho
        return lambda z: t * np.exp(z / rho) - np.exp(z) + z
    if k == "double_exp":
        slope = t * family.rho + 1.0
        return lambda z: slope * z - np.exp(z)
    if k == "sq_double_exp":
        # in y = sqrt(z) >= 0, which smooths the sqrt(z) cusp at z = 0;
        # the flat piece below z = 0 is handled in closed form
        return lambda y: t * y - np.exp(y * y) + y * y + np.log(2.0 * y)
    if k == "frechet":
        rho = family.rho
        return lambda z: -t * np.exp(-z / rho) - np.exp(z) + z
    raise ValueError(f"no integral representation for family {k!r}")


def _peak(family, t):
    """Argmax z of the log-integrand G, where G'(z) = t s qtilde'(s) - s + 1 vanishes.

    The +1 is the Jacobian of s = e^z.  double_exp has the closed form
    s = rho t + 1; for the others G' is positive as z -> 0+ (at z = 0
    for weibull and frechet) and negative for large z, so halving and
    doubling walks bracket the root for _brentq.
    """
    k = family.kind
    if k == "double_exp":
        return math.log1p(family.rho * t)
    if k == "weibull":
        rho = family.rho

        def slope(z):
            return t / rho * math.exp(z / rho) - math.expm1(z)

    elif k == "frechet":
        rho = family.rho

        def slope(z):
            return t / rho * math.exp(-z / rho) - math.expm1(z)

    else:
        # sq_double_exp, in y = sqrt(z) > 0 (see _log_integrand_z)
        def slope(y):
            return t + 1.0 / y - 2.0 * y * math.expm1(y * y)

    lo = hi = 1.0
    while slope(lo) <= 0.0:
        lo *= 0.5
    while slope(hi) >= 0.0:
        hi *= 2.0
    return _brentq(slope, lo, hi, xtol=1e-300, rtol=_ROOT_RTOL)


def _window_cut(G, zpeak, Gpeak, direction):
    """The z on one side of the peak where G = Gpeak - _LOG_WINDOW.

    A doubling walk only brackets the cut (G falls at least linearly on
    the left and like -e^z on the right); _brentq then places it, so the
    cut never overshoots into a region where G is far below the window.
    """
    def excess(z):
        return G(z) - (Gpeak - _LOG_WINDOW)

    step = 1.0
    while excess(zpeak + direction * step) > 0.0:
        step *= 2.0
        if step > 1e6:
            raise QuadratureError("no truncation point found")
    inner = zpeak + direction * 0.5 * step if step > 1.0 else zpeak
    return _brentq(excess, *sorted((inner, zpeak + direction * step)), xtol=1e-12, rtol=_ROOT_RTOL)


def _lower_cut(G, zpeak, Gpeak, floor):
    """Left end of the integration range.

    With floor = -inf the cut is _window_cut's.  The almost-bounded
    family has a hard floor at z = 0 (its closed-form piece lives
    below); when the whole flank above the floor stays inside the
    window, the floor itself is the cut.
    """
    if math.isfinite(floor):
        if zpeak <= floor:
            return floor
        lo = floor + 0.5 * (zpeak - floor)
        while G(lo) > Gpeak - _LOG_WINDOW:
            gap = lo - floor
            if gap < 1e-12 * max(1.0, abs(zpeak)):
                return floor
            lo = floor + 0.5 * gap
        return lo
    return _window_cut(G, zpeak, Gpeak, -1.0)


def _panel_log(g, a, b):
    """log of int_a^b e^g via 16-point Gauss-Legendre, evaluated stably."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(logsumexp(g(mid + half * _GL_X) + np.log(half * _GL_W)))


def _adaptive_log_integral(g, a, b):
    """Adaptive bisection with 16-point panels, accumulated in log space.

    A panel is accepted when its one-panel estimate agrees with the sum
    of its two halves to _PANEL_TOL in log value.  The total log error is
    a convex combination of per-panel log errors (each panel contributes
    proportionally to its mass), so the worst accepted panel bounds it.
    A split panel pushes each half with its log value, so no panel is
    evaluated twice.
    """
    stack = [(a, b, 0, _panel_log(g, a, b))]
    leaf_logs = []
    worst = 0.0
    while stack:
        if len(leaf_logs) + len(stack) > _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted", achieved=worst
            )
        pa, pb, depth, whole = stack.pop()
        mid = 0.5 * (pa + pb)
        if not pa < mid < pb:
            # too narrow to split: its halves would be a point and itself
            leaf_logs.append(whole)
            continue
        left, right = _panel_log(g, pa, mid), _panel_log(g, mid, pb)
        halves = np.logaddexp(left, right)
        if whole == -np.inf and halves == -np.inf:
            err = 0.0
        elif not (np.isfinite(whole) and np.isfinite(halves)):
            err = np.inf
        else:
            err = abs(whole - halves)
        if err <= _PANEL_TOL or depth >= _MAX_DEPTH:
            leaf_logs.append(halves)
            worst = max(worst, 0.0 if err == np.inf else err)
        else:
            stack.append((pa, mid, depth + 1, left))
            stack.append((mid, pb, depth + 1, right))
    total = float(logsumexp(leaf_logs))
    if worst > _LOG_ERROR_LIMIT:
        raise QuadratureError(
            f"quadrature stalled at log-error {worst:.3e}", achieved=worst
        )
    return total, worst


@lru_cache(maxsize=4096)
def _cumulant_smooth(family, t):
    G = _log_integrand_z(family, t)
    floor = 0.0 if family.kind == "sq_double_exp" else -math.inf
    zpeak = _peak(family, t)
    Gpeak = float(G(zpeak))
    lo = _lower_cut(G, zpeak, Gpeak, floor)
    hi = _window_cut(G, zpeak, Gpeak, 1.0)
    where = f"H({t:g}) for {family.label()}"
    try:
        total = _adaptive_log_integral(G, lo, hi)[0] if lo < hi else math.nan
    except QuadratureError as err:
        raise QuadratureError(f"{where}: {err} at G_peak = {Gpeak:.6g}", achieved=err.achieved) from None
    if not math.isfinite(total):
        # at a peak this high, Gpeak - _LOG_WINDOW rounds to Gpeak and both cuts land on the peak
        raise QuadratureError(f"{where}: no finite integral over [{lo!r}, {hi!r}] at G_peak = {Gpeak:.6g}")
    if family.kind == "sq_double_exp":
        # atom at 0 plus the flat quantile below s = 1: int_0^1 e^{-s} ds
        total = float(np.logaddexp(total, math.log(-math.expm1(-1.0))))
    return total


def cumulant_H(family, t):
    """H(t) = log E[exp(t v(0))] for t >= 0.

    Hard core is exact (the surviving mass is 1-p at every t, including
    t = 0); continuous families go through the adaptive quadrature.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"cumulant_H needs a finite t >= 0, got {t}")
    if family.kind == "hard_core":
        return math.log1p(-family.p)
    if t == 0.0:
        return 0.0
    return _cumulant_smooth(family, t)


def _check_theta(theta):
    """theta as a float, refused, naming it, unless finite, > -1 and nonzero."""
    theta = float(theta)
    if not (math.isfinite(theta) and theta > -1.0 and theta != 0.0):
        raise ValueError(f"theta must be > -1 and nonzero, and finite, got {theta:g}")
    return theta


def cumulant_exponent_G(family, theta, t):
    """G_theta(t) = (H((1+theta)t) - (1+theta)H(t)) / theta.

    Defined for theta in (-1, 0) and (0, inf); nonnegative for
    0 < theta <= 1 by Jensen.
    """
    theta = _check_theta(theta)
    return (cumulant_H(family, (1.0 + theta) * t) - (1.0 + theta) * cumulant_H(family, t)) / theta


def _cumulant_pair(family, s, where):
    """(H(s), H(2s)), refused unless the gap G_1(s) = H(2s) - 2 H(s) is resolved.

    Each quadrature H is off by up to _LOG_ERROR_LIMIT, so G_1 is known
    only to 3 times that; a gap no larger is rounding noise, and `where`
    names the caller in the ValueError.  H(0) = 0 and the hard-core H
    are exact, so they pass.
    """
    h1, h2 = cumulant_H(family, s), cumulant_H(family, 2.0 * s)
    gap = h2 - 2.0 * h1
    if s > 0.0 and family.kind != "hard_core" and not gap > 3.0 * _LOG_ERROR_LIMIT:
        raise ValueError(
            f"{where}: G_1(s) = H(2s) - 2 H(s) = {gap:.3g} at s = {s:.6g} is not above"
            f" {3.0 * _LOG_ERROR_LIMIT:g}, 3 times the quadrature's log-error limit"
        )
    return h1, h2


@dataclass(frozen=True)
class ExponentTable:
    """Transition exponents of a family.

    Box exponents are measured against the time scale J(t) of growth_J.
    empirical_only marks families whose exponents are not backed by a
    closed-form J, so experiments must calibrate the scale from data.
    """

    family: TailFamily
    dim: int
    gamma1: float
    gamma2: float
    empirical_only: bool = False
    nu: float | None = None


def transition_exponents(family, d=1):
    """gamma1 and gamma2 (and nu for frechet) for a family in dimension d."""
    d = _lattice_int("d", d, 1)
    k = family.kind
    if k == "weibull":
        rho = family.rho
        g1 = 1.0 / (rho - 1.0)
        # doubling derivation: F_theta(2t)/F_theta(t) -> 2^(rho/(rho-1));
        # a circulating summary-table shorthand 2^(1-gamma1)*gamma1
        # disagrees for every rho and is not used (see tests).
        g2 = 2.0 ** (rho / (rho - 1.0)) * g1
        return ExponentTable(family, d, g1, g2)
    if k == "double_exp":
        rho = family.rho
        return ExponentTable(family, d, rho, 2.0 * rho)
    if k == "sq_double_exp":
        # regular-variation index 1 for this example, hence gamma1 = 1
        return ExponentTable(family, d, 1.0, 2.0)
    if k == "frechet":
        nu = 1.0 / (d + 2 + 2.0 * family.rho)
        g1 = nu * nu
        g2 = 2.0 ** (1.0 - nu * nu) * g1
        return ExponentTable(family, d, g1, g2, nu=nu)
    # hard core: only the shape of the scale is known
    g1 = 2.0 / (d + 2.0)
    g2 = 2.0 ** (1.0 - g1) * g1
    return ExponentTable(family, d, g1, g2, empirical_only=True)


def frechet_alpha(family, d, t):
    """Scale alpha_t solving k(t a^-d) a^2 = t a^-d by Brent's method.

    k(s) = H(2s) - 2 H(s) = G_1(s) is the doubling gap of the numerically
    computed H.  The left side over the right is increasing in a for
    d = 1, so an expanding bracket around a = 1 closes; failure to
    bracket raises RootBracketError.  A G_1(s) within the quadrature
    error of H raises ValueError (see _cumulant_pair); that is where
    small t ends.
    """
    if family.kind != "frechet":
        raise ValueError("alpha-scale is defined for the frechet family")
    t = float(t)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"frechet alpha needs a finite t > 0, got {t:g}")

    def phi(a):
        s = t * a ** (-float(d))
        h1, h2 = _cumulant_pair(family, s, f"frechet alpha at t = {t:g}")
        return (h2 - 2.0 * h1) * a * a - s

    lo = hi = 1.0
    for _ in range(200):
        if phi(lo) < 0.0:
            break
        lo *= 0.5
    else:
        raise RootBracketError("no lower bracket for alpha", bracket=(lo, hi))
    for _ in range(200):
        if phi(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RootBracketError("no upper bracket for alpha", bracket=(lo, hi))
    return _brentq(phi, lo, hi, xtol=1e-300, rtol=_ROOT_RTOL)


def growth_J(family, d, t):
    """Evaluate the growth scale J(t) for a family in dimension d.

    For the two families whose constant (chi, c2) has no closed form the
    value is the shape only; regime experiments calibrate the constant
    empirically.
    """
    t = float(t)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"growth_J needs a finite t > 0, got {t}")
    d = _lattice_int("d", d, 1)
    k = family.kind
    if k == "weibull":
        return cumulant_H(family, t)
    if k == "double_exp":
        return t
    if k == "sq_double_exp":
        if t <= math.e:
            raise ValueError(f"almost-bounded growth scale needs t > e, got {t:g}")
        return t / (2.0 * math.sqrt(math.log(t)))
    if k == "frechet":
        alpha = frechet_alpha(family, d, t)
        return t / (alpha * alpha)
    # hard core
    return t ** (d / (d + 2.0))


def critical_a(family, gamma, d=1):
    """Critical normalizer exponent a(gamma) on 0 < gamma <= gamma1.

    Weibull and frechet reach a(gamma1) = 1; the double-exponential
    form peaks at a(gamma1) = rho instead, which is why no unit value is
    asserted for it.  The hard-core family has no critical curve here.
    """
    if family.kind == "hard_core":
        raise ValueError("no critical function for the hard-core family")
    gamma = float(gamma)
    table = transition_exponents(family, d)
    if not 0.0 < gamma <= table.gamma1:
        raise ValueError(
            f"gamma must lie in (0, {table.gamma1:g}] for {family.label()}"
        )
    k = family.kind
    if k == "weibull":
        rho = family.rho
        return (rho / (rho - 1.0)) * ((rho - 1.0) * gamma) ** (1.0 / rho) - gamma
    if k == "double_exp":
        rho = family.rho
        return gamma * math.exp((gamma - rho) / rho)
    if k == "sq_double_exp":
        # almost-bounded class with index 1
        return gamma * math.exp(gamma - 1.0)
    nu2 = table.nu * table.nu
    return (1.0 - nu2) * (gamma / nu2) ** (-nu2 / (1.0 - nu2)) + gamma


def intermittency_shape_f1(family, theta, d=1):
    """Limit shape f1(theta) with F_theta(t) ~ f1(theta) J(t).

    Increasing in theta with f1(theta) -> gamma1 as theta -> 0; used to
    calibrate the unknown multiplicative constant in J from measured
    F_theta values.
    """
    theta = _check_theta(theta)
    d = _lattice_int("d", d, 1)
    k = family.kind
    u = 1.0 + theta
    if k == "weibull":
        rp = family.rho / (family.rho - 1.0)
        return (u**rp - u) / theta
    if k == "double_exp":
        return family.rho * u * math.log(u) / theta
    if k == "sq_double_exp":
        return u * math.log(u) / theta
    if k == "frechet":
        nu = 1.0 / (d + 2 + 2.0 * family.rho)
        return (u - u ** (1.0 - nu * nu)) / theta
    raise ValueError("no intermittency shape for the hard-core family")
