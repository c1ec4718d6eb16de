"""Replica statistics against a frozen fixture, and the batched sampler's cost.

tests/data/replica_fixture.json holds the float.hex values of replica
statistics recorded when every replica was still sampled and solved on
its own.  Sampling a stack of replicas at once must leave each of them
bit for bit as it was; the regime box averages now share stacks across
replicas, and equality here also shows that no window changed route.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

import pamlab.environments
from pamlab import solver
from pamlab.environments import TailFamily
from pamlab.moments import (
    _replica_log_moments,
    block_variance,
    correlation_profile,
    estimate_F_theta,
    estimate_H1,
)
from pamlab.regimes import RegimeConfig, ScheduleRule, lln_experiment

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "replica_fixture.json")
WEIBULL2 = TailFamily.weibull(2.0)
HARD02 = TailFamily.hard_core(0.2)
_RATIO_FIELDS = (
    "ref_log_mu", "ratio_mean", "ratio_sd", "ratio_q10", "ratio_q50", "ratio_q90",
    "frac_in_band", "frac_raw_in_band", "frac_below_half",
)


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def replica_values():
    """Every fixture entry, as lists of float.hex strings."""
    out = {}
    for name, fam, kappa in (("weibull_k1", WEIBULL2, 1.0), ("weibull_k0", WEIBULL2, 0.0), ("hard_k1", HARD02, 1.0)):
        h1 = estimate_H1(fam, kappa, 1.0, 60, 31)
        ft = estimate_F_theta(fam, 0.5, kappa, 1.0, 60, 32)
        out[f"h1_{name}"] = _hex([h1.value, h1.ci_lo, h1.ci_hi])
        out[f"ftheta_{name}"] = _hex([ft.value, ft.ci_lo, ft.ci_hi])
    out["replica_logs_d2_weibull"] = _hex(_replica_log_moments(WEIBULL2, 1.0, 1.0, 12, 33, dim=2))
    out["replica_logs_d2_hard"] = _hex(_replica_log_moments(HARD02, 1.0, 1.0, 12, 34, dim=2))
    out["correlation_r"] = _hex(correlation_profile(WEIBULL2, 1.0, 1.0, [1, 5, 40], 60, 35).r)
    rep = block_variance(WEIBULL2, 1.0, 1.0, 20, 40, 36)
    out["block_variance"] = _hex([rep.var_direct, rep.var_reconstructed, rep.ratio])
    config = RegimeConfig(
        family=WEIBULL2, rule=ScheduleRule(kind="explicit", table=((1.0, 20),)), t_grid=(1.0,),
        kappa=1.0, n_replica=100, seed=37,
    )
    verdict = lln_experiment(config)[0]
    out["lln_k1_L20"] = _hex([getattr(verdict, f) for f in _RATIO_FIELDS])
    return out


def test_replica_statistics_match_fixture():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = replica_values()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_h1_hashes_sites_once_per_stack(monkeypatch):
    # every replica of a stack is hashed in one site_uniforms call
    calls = []
    hash_sites = pamlab.environments.site_uniforms

    def counted(seed, coords):
        calls.append(np.size(seed))
        return hash_sites(seed, coords)

    monkeypatch.setattr(pamlab.environments, "site_uniforms", counted)
    kappa, t, n_replica = 1.0, 1.0, 1200
    estimate_H1(WEIBULL2, kappa, t, n_replica, 5)
    R = solver.required_radius(kappa, t, 1e-6, 1)
    replicas_per_stack = solver.windows_per_call(2 * R + 1)
    assert len(calls) <= math.ceil(n_replica / replicas_per_stack)
    assert sum(calls) == n_replica


@pytest.mark.parametrize(
    "statistic, args, match",
    [
        (block_variance, (HARD02, 1.0, 1.0, 10, 60, 1), "expects no hard cores"),
        (block_variance, (WEIBULL2, 0.0, 1.0, 3, 1, 1), "n_replica >= 2, got 1"),
        (estimate_H1, (WEIBULL2, 0.0, 1.0, 10, 1), "at least 50 replicas"),
        (estimate_F_theta, (WEIBULL2, math.nan, 0.0, 1.0, 60, 1), "theta must be"),
    ],
)
def test_refusals_come_before_any_site_is_hashed(monkeypatch, statistic, args, match):
    def no_hashing(*args, **kwargs):
        raise AssertionError("hashed a site")

    monkeypatch.setattr(pamlab.environments, "site_uniforms", no_hashing)
    with pytest.raises(ValueError, match=match):
        statistic(*args)


if __name__ == "__main__":
    # Records the fixture.  It was recorded once, before replicas were
    # sampled in stacks; re-recording it would make the test vacuous.
    if "--record" not in sys.argv:
        sys.exit("usage: python tests/test_replicas.py --record")
    with open(FIXTURE, "w") as fh:
        json.dump(replica_values(), fh, indent=1, sort_keys=True)
        fh.write("\n")
