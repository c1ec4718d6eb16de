"""Random-environment sampling on lattice windows.

A site x carries a pair w(x) = (v_minus(x), v_plus(x)) of annihilation and
branching rates drawn i.i.d. from one of five tail families through the
effective potential v = v_plus - v_minus.  Sites with v = -inf are hard-core
obstacles; they are flagged rather than stored as floating infinities in the
rate arrays.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import site_uniforms

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
    """Potential values from standard exponential draws s > 0.

    If s is Exp(1) distributed the result has the family's law, since
    s = -log(1 - u) maps uniform quantiles to exponential ones.
    """
    s = np.asarray(s, dtype=np.float64)
    k = family.kind
    if k == "weibull":
        return s ** (1.0 / family.rho)
    if k == "double_exp":
        return family.rho * np.log(s)
    if k == "sq_double_exp":
        return np.where(s >= 1.0, np.sqrt(np.log(np.maximum(s, 1.0))), 0.0)
    if k == "frechet":
        return -(s ** (-1.0 / family.rho))
    # hard core: atom of mass p at -inf on the lower quantiles
    return np.where(s <= -math.log1p(-family.p), -np.inf, 0.0)


def quantile_array(family, u):
    """Vectorized quantile q(u) of the effective potential, u in (0,1).

    mu[v <= q(u)] = u for the continuous families; the hard-core atom at
    -inf occupies the lower quantiles u <= p.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie in the open interval (0,1)")
    return exp_quantile_array(family, -np.log1p(-u))


def tail_quantile(family, u):
    """Scalar quantile of v(0); may return -inf for the hard-core family."""
    return float(quantile_array(family, np.array([u]))[0])


def window_coords(dim, radius):
    """All sites of the centered box [-radius, radius]^dim, C-ordered, (n, dim)."""
    axes = [np.arange(-radius, radius + 1)] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, dim).astype(np.int64)


@dataclass(frozen=True)
class Environment:
    """An i.i.d. environment sampled on the window [-radius, radius]^dim.

    Rate arrays are flat over `window_coords(dim, radius)` order and hold
    finite nonnegative numbers only; obstacles live in the `hardcore` flag.
    """

    family: TailFamily
    dim: int
    radius: int
    seed: int
    baseline_death: float
    v_plus: np.ndarray = field(repr=False)
    v_minus: np.ndarray = field(repr=False)
    hardcore: np.ndarray = field(repr=False)

    @property
    def side(self):
        return 2 * self.radius + 1

    @property
    def n_sites(self):
        return self.side**self.dim

    def coords(self):
        return window_coords(self.dim, self.radius)

    def stack(self):
        """(v_plus - v_minus, hardcore) as a stack of one (1, side, ..., side) window."""
        shape = (1,) + (self.side,) * self.dim
        return (self.v_plus - self.v_minus).reshape(shape), self.hardcore.reshape(shape)

    def flat_index(self, coords):
        """Flat array index of integer coordinates inside the window."""
        coords = np.asarray(coords, dtype=np.int64)
        single = coords.ndim == 1
        if single:
            coords = coords[None, :]
        if np.any(np.abs(coords) > self.radius):
            raise IndexError("coordinates outside the sampled window")
        idx = np.zeros(len(coords), dtype=np.int64)
        for k in range(self.dim):
            idx = idx * self.side + (coords[:, k] + self.radius)
        return int(idx[0]) if single else idx


def _lattice_int(name, value, low):
    """value as an int, refusing anything that is not an integer >= low."""
    try:
        ok = value == int(value) >= low
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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
    the old sites.  `baseline_death` adds a constant to both rates, which
    leaves the effective potential unchanged.
    """
    if baseline_death < 0:
        raise ValueError("baseline_death must be >= 0")
    v, hardcore = sample_potentials(family, dim, radius, [seed])
    return Environment(
        family=family,
        dim=int(dim),
        radius=int(radius),
        seed=int(seed),
        baseline_death=float(baseline_death),
        v_plus=np.maximum(v[0], 0.0) + baseline_death,
        v_minus=np.maximum(-v[0], 0.0) + baseline_death,
        hardcore=hardcore[0],
    )


def effective_potential(env):
    """Per-site v = v_plus - v_minus with -inf on hard-core sites."""
    v = env.v_plus - env.v_minus
    return np.where(env.hardcore, -np.inf, v)


def with_branch_cap(env, cap):
    """Copy of the environment with branching rates clipped at `cap`."""
    return Environment(
        family=env.family,
        dim=env.dim,
        radius=env.radius,
        seed=env.seed,
        baseline_death=env.baseline_death,
        v_plus=np.minimum(env.v_plus, float(cap)),
        v_minus=env.v_minus.copy(),
        hardcore=env.hardcore.copy(),
    )


def save_environment(env, stem):
    """Write `<stem>.csv` (columnar sites) and `<stem>.json` (header)."""
    stem = str(stem)
    coords = env.coords()
    with open(stem + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k}" for k in range(env.dim)] + ["v_minus", "v_plus", "hardcore"])
        for i in range(env.n_sites):
            row = [str(int(c)) for c in coords[i]]
            row += [format(env.v_minus[i], ".17g"), format(env.v_plus[i], ".17g")]
            row.append("1" if env.hardcore[i] else "0")
            writer.writerow(row)
    header = {
        "family": {"kind": env.family.kind, **env.family.params()},
        "dim": env.dim,
        "radius": env.radius,
        "seed": env.seed,
        "baseline_death": env.baseline_death,
        "n_sites": int(env.n_sites),
    }
    with open(stem + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_environment(stem):
    """Inverse of `save_environment`; reconstructs the arrays bit-exactly."""
    stem = str(stem)
    with open(stem + ".json") as fh:
        header = json.load(fh)
    fam = header["family"]
    family = TailFamily(fam["kind"], rho=fam.get("rho"), p=fam.get("p"))
    dim, radius = header["dim"], header["radius"]
    n = (2 * radius + 1) ** dim
    v_minus = np.empty(n)
    v_plus = np.empty(n)
    hardcore = np.empty(n, dtype=bool)
    expected = window_coords(dim, radius)
    with open(stem + ".csv", newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        if head != [f"x{k}" for k in range(dim)] + ["v_minus", "v_plus", "hardcore"]:
            raise ValueError(f"unexpected environment CSV columns: {head}")
        count = 0
        for i, row in enumerate(reader):
            if i >= n:
                raise ValueError("environment CSV has more rows than the header declares")
            if [int(c) for c in row[:dim]] != list(expected[i]):
                raise ValueError(f"environment CSV row {i} out of order")
            v_minus[i] = float(row[dim])
            v_plus[i] = float(row[dim + 1])
            hardcore[i] = row[dim + 2] == "1"
            count += 1
    if count != n:
        raise ValueError("environment CSV is missing rows")
    return Environment(
        family=family,
        dim=dim,
        radius=radius,
        seed=header["seed"],
        baseline_death=header["baseline_death"],
        v_plus=v_plus,
        v_minus=v_minus,
        hardcore=hardcore,
    )


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
