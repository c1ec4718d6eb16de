"""Random-environment sampling on lattice windows.

A site x carries a pair w(x) = (v_minus(x), v_plus(x)) of annihilation and
branching rates; an environment stores the effective potential v = v_plus -
v_minus, drawn i.i.d. from one of five tail families, and derives the rates.
Hard-core obstacles (v = -inf) are flagged rather than stored as infinities.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seeding import _lattice_int, _lattice_sites, site_uniforms

FAMILIES = ("weibull", "double_exp", "sq_double_exp", "frechet", "hard_core")


@dataclass(frozen=True)
class TailFamily:
    """Marginal law of the effective potential v(0).

    kind      tail on the upper end mu[v > x]           sampler (E ~ Exp(1))
    ----      ------------------------------            --------------------
    weibull        exp(-x^rho), rho > 1, x > 0          v = E^(1/rho)
    double_exp     exp(-e^(x/rho)), rho > 0, x real     v = rho log E
    sq_double_exp  exp(-e^(x^2)), x >= 0, atom at 0     v = sqrt(log E), E >= 1
    frechet        esssup 0: mu[v > -x] = exp(-x^-rho)  v = -E^(-1/rho)
    hard_core      atom -inf w.p. p, else 0             threshold on u
    """

    kind: str
    rho: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.p is not None and self.kind != "hard_core":
            raise ValueError("p only applies to the hard_core family")
        if self.kind == "weibull":
            if self.rho is None or not self.rho > 1:
                got = "" if self.rho is None else f", got {self.rho:g}"
                raise ValueError(f"weibull family needs rho > 1{got}")
        elif self.kind in ("double_exp", "frechet"):
            if self.rho is None or not self.rho > 0:
                raise ValueError(f"{self.kind} family needs rho > 0")
        elif self.rho is not None:
            raise ValueError(f"{self.kind} takes no rho")
        elif self.kind == "hard_core" and (self.p is None or not 0 < self.p < 1):
            raise ValueError("hard_core family needs p in (0, 1)")

    @classmethod
    def weibull(cls, rho):
        return cls("weibull", rho=float(rho))

    @classmethod
    def double_exp(cls, rho):
        return cls("double_exp", rho=float(rho))

    @classmethod
    def squared_double_exp(cls):
        return cls("sq_double_exp")

    @classmethod
    def frechet(cls, rho):
        return cls("frechet", rho=float(rho))

    @classmethod
    def hard_core(cls, p):
        return cls("hard_core", p=float(p))

    @property
    def has_hardcore_atom(self):
        return self.kind == "hard_core"

    def params(self):
        out = {}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.p is not None:
            out["p"] = self.p
        return out

    def label(self):
        inner = ",".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{self.kind}({inner})" if inner else self.kind


def exp_quantile_array(family, s):
    """Potential values from standard exponential draws s > 0, written over s.

    If s is Exp(1) distributed the result has the family's law, since
    s = -log(1 - u) maps uniform quantiles to exponential ones.  s is a
    float64 array that the caller owns; it is transformed in place and
    returned.
    """
    k = family.kind
    if k == "weibull":
        s **= 1.0 / family.rho
    elif k == "double_exp":
        np.log(s, out=s)
        s *= family.rho
    elif k == "sq_double_exp":
        # s < 1 is the atom at 0: sqrt(log(max(s, 1))) = sqrt(log 1) = 0
        np.maximum(s, 1.0, out=s)
        np.log(s, out=s)
        np.sqrt(s, out=s)
    elif k == "frechet":
        s **= -1.0 / family.rho
        np.negative(s, out=s)
    else:
        # hard core: atom of mass p at -inf on the lower quantiles, as
        # log(1 - 1) = -inf on the atom and log(1 - 0) = 0 off it
        np.less_equal(s, -math.log1p(-family.p), out=s)
        np.subtract(1.0, s, out=s)
        with np.errstate(divide="ignore"):
            np.log(s, out=s)
    return s


def quantile_array(family, u):
    """Vectorized quantile q(u) of the effective potential, u in (0,1).

    mu[v <= q(u)] = u for the continuous families; the hard-core atom at
    -inf occupies the lower quantiles u <= p.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie in the open interval (0,1)")
    # asarray: at a 0-d u, -log1p(-u) is a numpy scalar, which cannot be written in place
    return exp_quantile_array(family, np.asarray(-np.log1p(-u)))


def window_coords(dim, radius):
    """All sites of the centered box [-radius, radius]^dim, C-ordered, (n, dim)."""
    axes = [np.arange(-radius, radius + 1)] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, dim).astype(np.int64)


@dataclass(frozen=True)
class Environment:
    """An i.i.d. environment sampled on the window [-radius, radius]^dim.

    v is the sampled effective potential, flat over `window_coords(dim,
    radius)` order: finite, and 0 on the obstacles that `hardcore` flags.
    The rates v_plus = max(v, 0) + baseline_death and v_minus =
    max(-v, 0) + baseline_death derive from it, a new array per read.
    """

    family: TailFamily
    dim: int
    radius: int
    seed: int
    baseline_death: float
    v: np.ndarray = field(repr=False)
    hardcore: np.ndarray = field(repr=False)

    @property
    def v_plus(self):
        return np.maximum(self.v, 0.0) + self.baseline_death

    @property
    def v_minus(self):
        return np.maximum(-self.v, 0.0) + self.baseline_death

    @property
    def side(self):
        return 2 * self.radius + 1

    @property
    def n_sites(self):
        return self.side**self.dim

    def coords(self):
        return window_coords(self.dim, self.radius)

    def stack(self):
        """(v, hardcore) as a stack of one (1, side, ..., side) window: views, not copies."""
        shape = (1,) + (self.side,) * self.dim
        return self.v.reshape(shape), self.hardcore.reshape(shape)

    def flat_index(self, coords):
        """Flat array index of sites inside the window: an int for one site, else one per row of coords."""
        sites = _lattice_sites("coords", coords, self.dim)
        outside = np.flatnonzero(np.abs(sites).max(axis=1) > self.radius)
        if outside.size:
            site = tuple(sites[outside[0]].tolist())
            raise IndexError(f"site {site} lies outside the sampled window of radius {self.radius}")
        idx = np.ravel_multi_index(tuple((sites + self.radius).T), (self.side,) * self.dim)
        return int(idx[0]) if np.ndim(coords) < 2 else idx


def sample_potentials(family, dim, radius, seeds):
    """Effective potentials of one window per seed, hashed in one pass.

    seeds is a sequence of integers.  Returns (v, hardcore), both of
    shape (len(seeds), (2 radius + 1)^dim) in `window_coords(dim, radius)`
    order: v is finite, and 0 on the hard-core sites that `hardcore`
    flags.  Row i depends only on seeds[i]: it is the environment that
    sample_environment draws from that seed.
    """
    dim = _lattice_int("dim", dim, 1)
    radius = _lattice_int("radius", radius, 0)
    v = quantile_array(family, site_uniforms(list(seeds), window_coords(dim, radius)))
    hardcore = np.isneginf(v)
    return np.where(hardcore, 0.0, v), hardcore


def sample_environment(family, dim, radius, seed, baseline_death=0.0):
    """Draw an i.i.d. environment window; sample_potentials for one seed.

    Site values depend only on (seed, site coordinates), so enlarging the
    radius with the same seed extends the environment without resampling
    the old sites.  `baseline_death` adds a constant to both rates; the
    stored potential is the sampled one whatever its value.
    """
    if not baseline_death >= 0:
        raise ValueError(f"baseline_death must be >= 0, got {baseline_death}")
    if baseline_death == math.inf:
        raise ValueError("baseline_death must be finite, got inf")
    v, hardcore = sample_potentials(family, dim, radius, [seed])
    return Environment(
        family=family,
        dim=int(dim),
        radius=int(radius),
        seed=int(seed),
        baseline_death=float(baseline_death),
        v=v[0],
        hardcore=hardcore[0],
    )


def effective_potential(env):
    """Per-site v with -inf on hard-core sites."""
    return np.where(env.hardcore, -np.inf, env.v)


def with_branch_cap(env, cap):
    """Copy with v capped at cap - baseline_death, so v_plus is clipped at cap; refuses a cap below baseline_death."""
    if not cap >= env.baseline_death:
        raise ValueError(f"branch cap {cap:g} lies below the baseline death rate {env.baseline_death:g}")
    return replace(env, v=np.minimum(env.v, float(cap) - env.baseline_death))


def survival_from_potential(family, x):
    """mu[v > x] in closed form; used for cross-checks against samples."""
    k = family.kind
    if k == "weibull":
        return math.exp(-(x**family.rho)) if x > 0 else 1.0
    if k == "double_exp":
        return math.exp(-math.exp(x / family.rho))
    if k == "sq_double_exp":
        return math.exp(-math.exp(x * x)) if x >= 0 else 1.0
    if k == "frechet":
        if x >= 0:
            return 0.0
        return math.exp(-((-x) ** (-family.rho)))
    # hard core
    if x >= 0:
        return 0.0
    return 1.0 - family.p
