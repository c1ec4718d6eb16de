"""The numpy/standard-library special functions and Lanczos against scipy.

The package loads no scipy; these tests use it as the oracle.  logsumexp
and log_factorial must give scipy's bits, smirnov the correctly rounded
exact Birnbaum-Tingey sum, the KS gate's math.erfc normal CDF scipy's
ndtr to 2.3e-16, and the Lanczos eigenvalue eigsh's to 1e-13.
"""

import ast
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from pamlab._special import log_factorial, logsumexp, smirnov
from pamlab.environments import TailFamily, sample_environment
from pamlab.solver import _POISSON_TAIL, BoxDomain, _grid_pairs, _poisson_degree
import pamlab.regimes
import pamlab.spectral
from pamlab.spectral import principal_eigen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [3.0, -np.inf, np.inf, [1.0, 2.0], [-np.inf, -np.inf], [-np.inf, 0.5], [2.0, 2.0, 2.0]]
    for trial in range(600):
        n = int(rng.integers(1, 40))
        a = rng.normal(scale=[1e-3, 1.0, 30.0, 700.0][trial % 4], size=n)
        if trial % 3 == 0:
            a[rng.integers(0, n, size=max(1, n // 3))] = a.max()  # ties at the peak
        if trial % 5 == 0:
            a[rng.integers(0, n)] = -np.inf
        if trial % 7 == 0:
            a[:] = -np.inf
        cases.append(a)
        rows = np.stack([a, rng.normal(size=n), np.full(n, -np.inf), np.full(n, 1.5)])
        assert same_bits(logsumexp(rows, axis=1), scipy.special.logsumexp(rows, axis=1))
        assert same_bits(logsumexp(rows), scipy.special.logsumexp(rows))
    for a in cases:
        got, want = logsumexp(a), scipy.special.logsumexp(a)
        assert type(got) is type(want) and same_bits(got, want), a


def test_log_factorial_is_scipy_gammaln():
    k = np.arange(200_001)
    want = scipy.special.gammaln(k + 1.0)
    got = np.array([log_factorial(int(i)) for i in k])
    assert same_bits(got, want)


def test_ks_gate_normal_cdf_is_within_2_3e_16_of_scipy_ndtr(monkeypatch):
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [rng.normal(scale=s, size=20_000) for s in (0.5, 1.0, 3.0, 10.0, 40.0)]
        + [np.linspace(-45.0, 45.0, 20_001), [0.0, -0.0, 1.0, -1.0, -38.5, 38.5, -40.0, np.inf, -np.inf]]
    )
    assert np.count_nonzero(np.abs(x) > 38.0) > 1000
    phi = np.array([0.5 * math.erfc(-xi / math.sqrt(2.0)) for xi in x.tolist()])
    assert np.abs(phi - scipy.special.ndtr(x)).max() <= 2.3e-16

    def ks_distance(cdf):
        n = len(cdf)
        return max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max())

    # the gate reads that same phi: its KS distance over the grid has the same bits
    seen = []
    monkeypatch.setattr(pamlab.regimes, "_kolmogorov_sf", lambda n, d: seen.append(d) or 1.0)
    pamlab.regimes._ks_normal_pvalue(x)
    assert seen == [ks_distance(np.sort(phi))]
    assert abs(seen[0] - ks_distance(scipy.special.ndtr(np.sort(x)))) <= 2.3e-16


def test_every_public_port_has_a_caller_in_the_package():
    package = os.path.join(ROOT, "src", "pamlab")
    with open(os.path.join(package, "_special.py")) as fh:
        public = {
            node.name for node in ast.parse(fh.read()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
    imported = set()
    for name in os.listdir(package):
        if name.endswith(".py") and name != "_special.py":
            with open(os.path.join(package, name)) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.ImportFrom) and node.module in ("_special", "pamlab._special"):
                        imported.update(alias.name for alias in node.names)
    assert "logsumexp" in public
    assert public <= imported, f"ports with no caller: {sorted(public - imported)}"


def _degree_by_scipy(lam):
    lo, hi = np.floor(lam), np.ceil(lam + 8.0 * np.sqrt(lam) + 40.0)

    def small_tail(k):
        return scipy.special.pdtrc(k, lam) <= _POISSON_TAIL * scipy.special.pdtr(k, lam)

    assert np.all(small_tail(hi))
    while np.any(lo < hi):
        mid = np.floor(0.5 * (lo + hi))
        good = small_tail(mid)
        hi, lo = np.where(good, mid, hi), np.where(good, lo, mid + 1.0)
    return hi.astype(np.int64)


def test_poisson_degree_matches_pdtr_bisection_on_a_sweep():
    lam = np.concatenate([[0.0], np.geomspace(1e-9, 3000.0, 40_001)])
    assert np.array_equal(_poisson_degree(lam), _degree_by_scipy(lam))


def test_poisson_degree_on_the_bench7_boxes():
    # the 180 boxes of BENCH_7.json: kappa = 1, whole windows of
    # sample_environment(family, d, radius, 1000 + radius)
    with open(os.path.join(ROOT, "BENCH_7.json")) as fh:
        table = json.load(fh)["routes_boxes"]
    families = {
        "weibull": TailFamily.weibull(2.0),
        "double_exp": TailFamily.double_exp(1.0),
        "sq_double_exp": TailFamily.squared_double_exp(),
        "frechet": TailFamily.frechet(1.0),
        "hard_core": TailFamily.hard_core(0.2),
    }
    col = {name: i for i, name in enumerate(table["columns"])}
    lam, recorded = [], []
    for row in table["rows"]:
        d, n_sites = row[col["d"]], row[col["n_sites"]]
        radius = (round(n_sites ** (1.0 / d)) - 1) // 2
        env = sample_environment(families[row[col["family"]]], d, radius, 1000 + radius)
        v = BoxDomain(env, (0,) * d, radius).potential()
        lam.append((2.0 * d + v.max() - v.min()) * row[col["t"]])
        recorded.append(row[col["K"]])
    lam = np.array(lam)
    got = _poisson_degree(lam)
    assert np.array_equal(got, _degree_by_scipy(lam))
    assert np.array_equal(got, recorded)


def _birnbaum_tingey(n, d):
    d = Fraction(d)
    total = Fraction(0)
    for j in range(math.floor(n * (1 - d)) + 1):
        x = Fraction(j, n)
        total += math.comb(n, j) * (1 - d - x) ** (n - j) * (d + x) ** (j - 1)
    return float(d * total)


def test_smirnov_is_the_exact_one_sided_tail():
    # the two inputs the regime fixture's KS gates reach give scipy's bits
    for d in (0.24498979688520578, 0.22490142126174728):
        assert smirnov(100, d) == scipy.special.smirnov(100, d)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 401))
        d = float(rng.uniform(min(0.5, math.sqrt(2.2 / n)), 1.0))
        assert smirnov(n, d) == _birnbaum_tingey(n, d), (n, d)
    assert smirnov(50, 0.0) == 1.0 and smirnov(50, 1.0) == 0.0


def _csr_operator(box, kappa):
    keep = box.active_mask()
    i, j = _grid_pairs(box.live.shape)
    both = keep[i] & keep[j]
    rank = np.cumsum(keep) - 1
    i, j = rank[i[both]], rank[j[both]]
    n = box.n_active
    diag = box.potential() - 2.0 * box.dim * kappa
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([diag, np.full(2 * len(i), kappa)])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("dim, radius, seed", [(3, 8, 1), (2, 32, 57), (2, 40, 1)])
def test_lanczos_matches_eigsh(dim, radius, seed):
    env = sample_environment(TailFamily.weibull(2.0), dim, radius, seed=seed)
    box = BoxDomain(env, (0,) * dim, radius)
    A = _csr_operator(box, 1.0)
    n = box.n_active
    want = scipy.sparse.linalg.eigsh(A, k=1, which="LA", v0=np.full(n, n**-0.5), return_eigenvectors=False)
    got = principal_eigen(env, box, 1.0)
    assert got.method == "lanczos"
    assert abs(got.lambda0 - want[0]) <= 1e-13
    psi = got.psi0[box.active_mask()]
    assert np.linalg.norm(A @ psi - got.lambda0 * psi) <= 1e-10


def test_restarted_lanczos_matches_eigsh(monkeypatch):
    # every box above converges within its first cycle; cycles of 30
    # steps (doubling) force restarts on the near-degenerate seed-57 box
    monkeypatch.setattr(pamlab.spectral, "_CYCLE", 30)
    sizes = []
    top_ritz = pamlab.spectral._top_ritz

    def spy(alphas, betas):
        sizes.append(len(alphas))
        return top_ritz(alphas, betas)

    monkeypatch.setattr(pamlab.spectral, "_top_ritz", spy)
    env = sample_environment(TailFamily.weibull(2.0), 2, 32, seed=57)
    box = BoxDomain(env, (0, 0), 32)
    A = _csr_operator(box, 1.0)
    n = box.n_active
    want = scipy.sparse.linalg.eigsh(A, k=1, which="LA", v0=np.full(n, n**-0.5), return_eigenvectors=False)
    got = principal_eigen(env, box, 1.0)
    # each cycle first looks at T after _FIRST_CHECK steps
    assert sizes.count(pamlab.spectral._FIRST_CHECK) > 1
    assert abs(got.lambda0 - want[0]) <= 1e-13
    assert got.residual <= 1e-10
