"""The benchmark's workloads: job lists, job runners and oracle checks.

A job is a plain dict of inputs, generated from the workload seed by
`build_jobs`.  `run_job` hands those inputs to the package's public API
and returns the output; `check_job` compares that output with a
reference from `oracle`, which shares no numerical route with the
package.  Runners import only the package, so a pass can time them in a
process that has not yet imported the oracle's scipy modules.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random

import numpy as np

import pamlab
import pamlab.cli

WORKLOADS = ("annealed-blocks", "window-replicas", "single-box")
SIZES = ("full", "tiny")

WEIBULL2 = {"kind": "weibull", "rho": 2.0}


def _family(spec):
    return pamlab.TailFamily(spec["kind"], rho=spec.get("rho"), p=spec.get("p"))


# ---------------------------------------------------------------- job lists


def build_jobs(workload, seed, size="full"):
    """Job list for one workload; the same (workload, seed, size) gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}/{int(seed)}")
    tiny = size == "tiny"
    builder = {
        "annealed-blocks": _annealed_blocks,
        "window-replicas": _window_replicas,
        "single-box": _single_box,
    }[workload]
    jobs = builder(lambda: rng.randrange(1, 2**31), tiny)
    for i, job in enumerate(jobs):
        job["id"] = f"{i:02d}-{job['kind']}"
    return jobs


def _annealed_blocks(draw, tiny):
    # kappa = 0: block draws at box sizes scheduled from H(t), plus the
    # exponent table whose growth scales need root finding on H.
    t_lln = (6.0,) if tiny else (7.0, 8.0, 9.0)
    t_crit = (6.0,) if tiny else (8.0, 9.0)
    n = 100 if tiny else 200
    families = [
        WEIBULL2,
        {"kind": "double_exp", "rho": 1.0},
        {"kind": "sq_double_exp"},
        {"kind": "frechet", "rho": 1.0},
        {"kind": "hard_core", "p": 0.25},
    ]
    return [
        {"kind": "exponents", "families": families, "t_grid": [3.0] if tiny else [3.0, 4.0], "d": 1},
        {"kind": "regime", "mode": "lln", "family": WEIBULL2, "rule": {"kind": "gamma-j", "gamma": 0.5},
         "t_grid": list(t_lln), "kappa": 0.0, "n_replica": n, "seed": draw()},
        {"kind": "regime", "mode": "clt", "family": {"kind": "double_exp", "rho": 1.0},
         "rule": {"kind": "gamma-j", "gamma": 2.5}, "t_grid": [2.0] if tiny else [4.0],
         "kappa": 0.0, "n_replica": n, "seed": draw()},
        {"kind": "regime", "mode": "critical", "family": WEIBULL2, "gamma": 0.5, "delta": 0.1,
         "rule": {"kind": "gamma-j", "gamma": 0.5}, "t_grid": list(t_crit), "kappa": 0.0,
         "n_replica": n, "seed": draw()},
    ]


def _window_replicas(draw, tiny):
    # kappa > 0, d = 1: thousands of small window solves, each on a
    # freshly sampled environment.
    n = 60 if tiny else 1200
    jobs = []
    for t in (1.0, 2.0, 3.0):
        jobs.append({"kind": "h1", "family": WEIBULL2, "kappa": 1.0, "t": t, "n_replica": n, "seed": draw()})
    for t in (1.0, 2.0, 3.0):
        jobs.append({"kind": "ftheta", "family": WEIBULL2, "theta": 0.5, "kappa": 1.0, "t": t,
                     "n_replica": n, "seed": draw()})
    jobs.append({"kind": "corr", "family": WEIBULL2, "kappa": 1.0, "t": 1.0, "lags": [1, 5, 40],
                 "n_replica": 100 if tiny else 600, "seed": draw()})
    jobs.append({"kind": "regime", "mode": "lln", "family": WEIBULL2,
                 "rule": {"kind": "explicit", "table": [[1.0, 5 if tiny else 60]]}, "t_grid": [1.0],
                 "kappa": 1.0, "n_replica": 100, "seed": draw()})
    # the hard-core atom sends every replica through solve_untruncated
    jobs.append({"kind": "h1", "family": {"kind": "hard_core", "p": 0.2}, "kappa": 1.0, "t": 2.0,
                 "n_replica": 50 if tiny else 200, "seed": draw()})
    return jobs


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv)}


def _single_box(draw, tiny):
    # One large solve per job, on both sides of the dense/Krylov switch
    # at 4000 active sites, plus the path and particle estimators.
    #
    # The spectral box above 4000 sites is 3-d: its eigenvectors spread
    # over the box, so the power iteration's step count barely depends
    # on the seed (on a 2-d box of 65^2 sites at kappa = 1 it took from
    # 0.14 s to a stall after 5e5 steps).  The particle jobs use the
    # README's environment (seed 11): a run's event count grows like
    # e^(lambda0 t), and lambda0 of a freshly sampled 11-site window
    # moved their cost by 2x between workload seeds.
    w = ["family=weibull", "rho=2.0"]
    if tiny:
        radii = [("1", 20), ("1", 60), ("2", 4), ("2", 6)]
        hard_r, spec_small, spec_big, n_paths, n_runs, n_ens = 4, 2, 2, 20000, 100, 1000
    else:
        radii = [("1", 500), ("1", 2500), ("2", 20), ("2", 40)]
        hard_r, spec_small, spec_big, n_paths, n_runs, n_ens = 20, 20, 8, 1_000_000, 2000, 40000
    jobs = []
    for dim, r in radii:
        jobs.append(_cli("solve", *w, f"dim={dim}", f"radius={r}", f"box_radius={r}",
                         f"seed={draw()}", "kappa=1.0", "t=2.0"))
    jobs.append(_cli("solve", "family=hard_core", "p=0.2", "dim=2", f"radius={hard_r}",
                     f"box_radius={hard_r}", f"seed={draw()}", "kappa=1.0", "t=2.0"))
    jobs.append(_cli("solve", *w, "dim=1", "radius=50", "box_radius=50", f"seed={draw()}",
                     "kappa=0.0", "t=2.0"))
    jobs.append(_cli("spectral-check", "family=frechet", "rho=1.0", "dim=1", "radius=6",
                     f"n_instances={spec_small}", "kappa=1.0", "t=2.0", f"seed={draw()}"))
    jobs.append(_cli("spectral-check", *w, "dim=3", f"radius={spec_big}", "n_instances=1",
                     "kappa=1.0", "t=2.0", f"seed={draw()}"))
    jobs.append(_cli("fk", "family=double_exp", "rho=1.0", "dim=1", "radius=10", f"seed={draw()}",
                     "kappa=1.0", "t=1.5", "x=0", f"n_paths={n_paths}"))
    jobs.append(_cli("particles", *w, "dim=1", "radius=5", "seed=11", "kappa=0.5", "t=2.0",
                     f"n_runs={n_runs}"))
    jobs.append({"kind": "ensemble", "family": WEIBULL2, "dim": 1, "radius": 5,
                 "env_seed": pamlab.derive_seed(11, "env"), "kappa": 0.5, "t": 2.0,
                 "n_runs": n_ens, "seed": draw()})
    return jobs


# ---------------------------------------------------------------- runners


def run_job(job, out_dir):
    """Execute one job through the public API; returns its output."""
    return _RUNNERS[job["kind"]](job, out_dir)


def _run_exponents(job, out_dir):
    out = {}
    d = job["d"]
    for spec in job["families"]:
        fam = _family(spec)
        table = pamlab.transition_exponents(fam, d)
        row = {
            "gamma1": table.gamma1,
            "gamma2": table.gamma2,
            "H": [pamlab.cumulant_H(fam, t) for t in job["t_grid"]],
            "J": [pamlab.growth_J(fam, d, t) for t in job["t_grid"]],
        }
        if fam.kind != "hard_core":
            row["a_half"] = pamlab.critical_a(fam, 0.5 * table.gamma1, d)
            row["a_top"] = pamlab.critical_a(fam, table.gamma1, d)
        out[fam.label()] = row
    return out


def _run_regime(job, out_dir):
    rule = job["rule"]
    if rule["kind"] == "gamma-j":
        schedule = pamlab.ScheduleRule(kind="gamma-j", gamma=rule["gamma"])
    else:
        schedule = pamlab.ScheduleRule(kind="explicit", table=tuple(tuple(r) for r in rule["table"]))
    config = pamlab.RegimeConfig(
        family=_family(job["family"]), rule=schedule, t_grid=tuple(job["t_grid"]),
        kappa=job["kappa"], n_replica=job["n_replica"], seed=job["seed"],
    )
    if job["mode"] == "lln":
        verdicts = pamlab.lln_experiment(config)
    elif job["mode"] == "clt":
        verdicts = pamlab.clt_experiment(config)
    else:
        verdicts = pamlab.critical_experiment(config, job["gamma"], job["delta"])
    return [dataclasses.asdict(v) for v in verdicts]


def _run_h1(job, out_dir):
    est = pamlab.estimate_H1(_family(job["family"]), job["kappa"], job["t"], job["n_replica"], job["seed"])
    return dataclasses.asdict(est)


def _run_ftheta(job, out_dir):
    est = pamlab.estimate_F_theta(
        _family(job["family"]), job["theta"], job["kappa"], job["t"], job["n_replica"], job["seed"]
    )
    return dataclasses.asdict(est)


def _run_corr(job, out_dir):
    prof = pamlab.correlation_profile(
        _family(job["family"]), job["kappa"], job["t"], job["lags"], job["n_replica"], job["seed"]
    )
    return {"r": prof.r.tolist(), "dependence_radius": prof.dependence_radius}


def _run_cli(job, out_dir):
    out = os.path.join(out_dir, job["id"])
    with contextlib.redirect_stdout(io.StringIO()):
        code = pamlab.cli.main(job["argv"] + ["--out", out])
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name)) as fh:
            files[name] = fh.read()
    summary = json.loads(files.pop("summary.json", "{}"))
    summary.pop("timings", None)  # wall-clock, the one part that varies between runs
    return {"code": code, "files": files, "summary": summary}


def _run_ensemble(job, out_dir):
    env = pamlab.sample_environment(_family(job["family"]), job["dim"], job["radius"], job["env_seed"])
    sample = pamlab.population_ensemble(
        env, (0,) * job["dim"], job["kappa"], job["t"], job["n_runs"], job["seed"]
    )
    return {"mean": sample.mean(), "stderr": sample.stderr(), "n_runs": sample.n_runs,
            "truncated": int(sample.truncated.sum())}


_RUNNERS = {
    "exponents": _run_exponents,
    "regime": _run_regime,
    "h1": _run_h1,
    "ftheta": _run_ftheta,
    "corr": _run_corr,
    "cli": _run_cli,
    "ensemble": _run_ensemble,
}


# ---------------------------------------------------------------- checks
#
# Each check returns None when the output agrees with the oracle and a
# message otherwise.  Statistical checks use 5 standard errors, so a
# correct program fails one with probability below 1e-6.

Z_MAX = 5.0


def check_job(job, output):
    """None if the job's output passes its oracle check, else the reason."""
    return _CHECKS[job["kind"]](job, output)


def _oracle():
    import oracle  # deferred: a timed pass must not pay for the oracle's imports

    return oracle


def _log_H(spec, t):
    return _oracle().log_H(spec["kind"], t, rho=spec.get("rho"), p=spec.get("p"))


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


# Transition exponents of the families in the exponent job, from the
# closed forms in the source paper (d = 1).
_NU2_FRECHET1 = (1.0 / 5.0) ** 2
_EXPONENTS = {
    "weibull": lambda s: (1.0 / (s["rho"] - 1.0), 2.0 ** (s["rho"] / (s["rho"] - 1.0)) / (s["rho"] - 1.0)),
    "double_exp": lambda s: (s["rho"], 2.0 * s["rho"]),
    "sq_double_exp": lambda s: (1.0, 2.0),
    "frechet": lambda s: (_NU2_FRECHET1, 2.0 ** (1.0 - _NU2_FRECHET1) * _NU2_FRECHET1),
    "hard_core": lambda s: (2.0 / 3.0, 2.0 ** (1.0 / 3.0) * 2.0 / 3.0),
}
_A_TOP = {"weibull": lambda s: 1.0, "frechet": lambda s: 1.0, "sq_double_exp": lambda s: 1.0,
          "double_exp": lambda s: s["rho"]}


def _check_exponents(job, out):
    if job["d"] != 1:
        return "exponent oracle covers d = 1 only"
    for spec in job["families"]:
        kind = spec["kind"]
        row = out[_family(spec).label()]
        if kind == "frechet" and spec["rho"] != 1.0:
            return "exponent oracle covers frechet(rho=1) only"
        g1, g2 = _EXPONENTS[kind](spec)
        if not (_close(row["gamma1"], g1, 1e-12) and _close(row["gamma2"], g2, 1e-12)):
            return f"{kind}: exponents ({row['gamma1']}, {row['gamma2']}) != ({g1}, {g2})"
        for t, H, J in zip(job["t_grid"], row["H"], row["J"]):
            ref = _log_H(spec, t)
            if not _close(H, ref, 1e-8):
                return f"{kind}: H({t}) = {H!r}, oracle {ref!r}"
            if kind == "weibull":
                ok = _close(J, ref, 1e-8)
            elif kind == "double_exp":
                ok = _close(J, t, 1e-12)
            elif kind == "sq_double_exp":
                ok = _close(J, t / (2.0 * math.sqrt(math.log(t))), 1e-12)
            elif kind == "hard_core":
                ok = _close(J, t ** (1.0 / 3.0), 1e-12)
            else:
                # J = t / alpha^2 where alpha solves k(t/alpha) alpha^2 = t/alpha,
                # k(s) = H(2s) - 2 H(s)
                alpha = math.sqrt(t / J)
                s = t / alpha
                resid = (_log_H(spec, 2.0 * s) - 2.0 * _log_H(spec, s)) * alpha * alpha - s
                ok = abs(resid) <= 1e-7 * s
            if not ok:
                return f"{kind}: J({t}) = {J!r} fails its oracle"
        if kind != "hard_core":
            if not _close(row["a_top"], _A_TOP[kind](spec), 1e-9):
                return f"{kind}: a(gamma1) = {row['a_top']!r}"
            if not (0.0 < row["a_half"] and math.isfinite(row["a_half"])):
                return f"{kind}: a(gamma1/2) = {row['a_half']!r}"
    return None


def _oracle_L(job, t):
    """Box size the schedule must give, from the oracle growth scale."""
    rule = job["rule"]
    if rule["kind"] == "explicit":
        return int(dict((float(a), b) for a, b in rule["table"])[t])
    kind = job["family"]["kind"]
    J = _log_H(job["family"], t) if kind == "weibull" else t if kind == "double_exp" else None
    if J is None:
        raise ValueError(f"no schedule oracle for {kind}")
    return max(1, math.ceil(math.exp(rule["gamma"] * J) - 1e-9))


def _check_regime(job, verdicts):
    if len(verdicts) != len(job["t_grid"]):
        return f"{len(verdicts)} verdicts for {len(job['t_grid'])} times"
    for t, v in zip(job["t_grid"], verdicts):
        if abs(v["L"] - _oracle_L(job, t)) > 1:
            return f"t={t}: L = {v['L']}, oracle schedule {_oracle_L(job, t)}"
        if v["n_replica"] != job["n_replica"]:
            return f"t={t}: {v['n_replica']} replicas"
        if job["mode"] == "critical":
            ref = (v["a_gamma"] + job["delta"]) * _log_H(job["family"], t)
            if not _close(v["log_normalizer"], ref, 1e-8):
                return f"t={t}: normalizer {v['log_normalizer']!r}, oracle {ref!r}"
            if not 0.0 <= v["frac_below"] <= 1.0 or v["passed"] != (v["frac_below"] >= 0.95):
                return f"t={t}: inconsistent critical verdict"
        else:
            verdict = pamlab.regimes.RegimeVerdict(**v)
            if not pamlab.verdict_consistent(verdict):
                return f"t={t}: classification {v['classification']!r} contradicts its statistics"
            if job["mode"] == "lln":
                # annealed reference H(t) - d kappa t
                ref = _log_H(job["family"], t) - job["kappa"] * t
                if not _close(v["ref_log_mu"], ref, 1e-8):
                    return f"t={t}: reference log mean {v['ref_log_mu']!r}, oracle {ref!r}"
    return None


def _replica_logs(job, centers):
    """Oracle log m(y, t) per replica at each site y in `centers`.

    Replica i reads the environment sampled from derive_seed(seed,
    "env", i); its values at a site depend only on (seed, site), so the
    oracle uses a window three sites wider than the estimator needs and
    differs from it only by the truncation error the estimator allows.
    """
    oracle = _oracle()
    fam = _family(job["family"])
    kappa, t = job["kappa"], job["t"]
    R = pamlab.required_radius(kappa, t, job.get("tol", 1e-6), 1) + 3
    span = max(abs(c) for c in centers) + R
    n = job["n_replica"]
    rows = np.empty((n * len(centers), 2 * R + 1))
    hard = np.zeros_like(rows, dtype=bool)
    for i in range(n):
        env = pamlab.sample_environment(fam, 1, span, pamlab.derive_seed(job["seed"], "env", i))
        v = np.where(env.hardcore, 0.0, env.v_plus - env.v_minus)
        for j, c in enumerate(centers):
            rows[i * len(centers) + j] = v[c + span - R : c + span + R + 1]
            hard[i * len(centers) + j] = env.hardcore[c + span - R : c + span + R + 1]
    if not hard.any():
        logs = oracle.log_expm_ones(oracle.path_adjacency(2 * R + 1), rows, kappa, t, 1)[:, R]
    else:
        logs = np.full(len(rows), -math.inf)
        for k in range(len(rows)):
            if hard[k, R]:
                continue
            adj, vv, idx = oracle.box_operator(rows[k], hard[k])
            field = oracle.log_expm_ones(adj, vv, kappa, t, 1)[0]
            logs[k] = field[np.searchsorted(idx, R)]
    return logs.reshape(n, len(centers))


def _log_mean(logs):
    peak = float(np.max(logs))
    return peak + math.log(float(np.mean(np.exp(logs - peak))))


def _check_h1(job, est):
    H = _log_H(job["family"], job["t"])
    lower = H - 2.0 * job["kappa"] * job["t"]
    if est["ci_lo"] > H + 1e-9 or est["ci_hi"] < lower - 1e-9:
        return f"CI [{est['ci_lo']:.4f}, {est['ci_hi']:.4f}] misses [H - 2 kappa t, H] = [{lower:.4f}, {H:.4f}]"
    ref = _log_mean(_replica_logs(job, [0])[:, 0])
    if abs(est["value"] - ref) > 1e-6:
        return f"value {est['value']!r}, oracle {ref!r}"
    return None


def _check_ftheta(job, est):
    logs = _replica_logs(job, [0])[:, 0]
    q = 1.0 + job["theta"]
    ref = (_log_mean(q * logs) - q * _log_mean(logs)) / job["theta"]
    if abs(est["value"] - ref) > 1e-5:
        return f"value {est['value']!r}, oracle {ref!r}"
    if est["ci_hi"] < -1e-9:
        return f"gap CI [{est['ci_lo']:.4f}, {est['ci_hi']:.4f}] lies below 0 (Jensen)"
    return None


def _check_corr(job, out):
    lags = job["lags"]
    logs = _replica_logs(dict(job, tol=1e-4), [0] + lags)
    m = np.exp(logs - logs.max())
    R = out["dependence_radius"]
    bound = Z_MAX / math.sqrt(job["n_replica"])
    for j, lag in enumerate(lags):
        ref = float(np.corrcoef(m[:, 0], m[:, j + 1])[0, 1])
        if abs(out["r"][j] - ref) > 1e-5:
            return f"lag {lag}: r = {out['r'][j]!r}, oracle {ref!r}"
        if lag > 2 * R and abs(out["r"][j]) > bound:
            return f"lag {lag} > 2R = {2 * R}: |r| = {abs(out['r'][j]):.4f} exceeds {bound:.4f}"
    return None


def _parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return {k: [r[k] for r in rows] for k in (rows[0].keys() if rows else [])}


def _cli_env(values, seed):
    fam = pamlab.TailFamily(values["family"], rho=_opt_float(values, "rho"), p=_opt_float(values, "p"))
    return pamlab.sample_environment(fam, int(values.get("dim", 1)), int(values["radius"]), seed)


def _opt_float(values, key):
    return float(values[key]) if key in values else None


def _window_field(env, kappa, t):
    """Oracle (log m over the window in C order, adjacency, potential, active index)."""
    oracle = _oracle()
    shape = (env.side,) * env.dim
    v = np.where(env.hardcore, 0.0, env.v_plus - env.v_minus).reshape(shape)
    adj, vv, idx = oracle.box_operator(v, env.hardcore.reshape(shape))
    logs = np.full(env.n_sites, -math.inf)
    logs[idx] = oracle.log_expm_ones(adj, vv, kappa, t, env.dim)[0]
    return logs, adj, vv, idx


def _origin_moment(env, kappa, t):
    """Oracle m(0, t) with the whole window as the Dirichlet box."""
    return math.exp(_window_field(env, kappa, t)[0][env.flat_index(np.zeros(env.dim, dtype=np.int64))])


def _z_check(label, value, stderr, ref):
    if not stderr > 0.0:
        return f"{label}: no error bar (stderr {stderr!r})"
    z = (value - ref) / stderr
    return None if abs(z) <= Z_MAX else f"{label}: {value:.6g} vs oracle {ref:.6g}, z = {z:.2f}"


def _check_cli(job, out):
    argv = job["argv"]
    command = argv[0]
    values = dict(tok.split("=", 1) for tok in argv[1:])
    if out["code"] != 0:
        return f"exit code {out['code']}"
    summary = out["summary"]
    if summary.get("checks_passed") is not True:
        return "summary.json reports checks_passed false"
    seed = int(values.get("seed", 0))
    kappa, t = float(values["kappa"]), float(values["t"])
    if command == "solve":
        env = _cli_env(values, seed)
        if int(values["box_radius"]) != env.radius:
            return "solve oracle covers whole-window boxes only"
        got = np.array([float(x) for x in _parse_csv(out["files"]["solution.csv"])["log_m"]])
        if kappa == 0.0:
            # the identity m(x, t) = e^{v(x) t}, at every site
            ref = np.where(env.hardcore, -math.inf, (env.v_plus - env.v_minus) * t)
        else:
            ref = _window_field(env, kappa, t)[0]
        dead = np.isneginf(ref)
        if not np.array_equal(np.isneginf(got), dead):
            return "solution is -inf on a different set of sites than the hard cores"
        # kappa > 0: compare wherever m is within e^14 of its peak, where
        # the oracle's error relative to the peak stays below 1e-9
        live = ~dead if kappa == 0.0 else ref > ref[~dead].max() - 14.0
        err = float(np.abs(got[live] - ref[live]).max())
        return None if err <= 1e-6 else f"per-site |log m - oracle| reaches {err:.3e}"
    if command == "spectral-check":
        oracle = _oracle()
        cols = _parse_csv(out["files"]["spectral.csv"])
        for i in range(int(values["n_instances"])):
            env = _cli_env(values, pamlab.derive_seed(seed, "spectral", i))
            logs, adj, vv, idx = _window_field(env, kappa, t)
            lam = oracle.top_eigenvalue(adj, vv, kappa, env.dim)
            got = float(cols["lambda0"][i])
            if abs(got - lam) > 1e-8 * max(1.0, abs(lam)):
                return f"instance {i}: lambda0 {got!r}, oracle {lam!r}"
            live = logs[idx]
            peak = float(live.max())
            lower = peak + math.log(float(np.exp(live - peak).sum())) - t * lam
            upper = 0.5 * math.log(len(idx)) + t * lam - peak
            for name, ref in (("lower_margin", lower), ("upper_margin", upper)):
                if ref < -1e-9:
                    return f"instance {i}: oracle {name} {ref:.3e} < 0"
                if abs(float(cols[name][i]) - ref) > 1e-6:
                    return f"instance {i}: {name} {cols[name][i]}, oracle {ref!r}"
        return None
    ref = _origin_moment(_cli_env(values, pamlab.derive_seed(seed, "env")), kappa, t)
    if command == "fk":
        row = _parse_csv(out["files"]["fk.csv"])
        m = math.exp(float(row["log_value"][0]))
        return _z_check("paths", m, m * float(row["stderr_log"][0]), ref)
    if command == "particles":
        cols = _parse_csv(out["files"]["particles.csv"])
        if any(c != "1" and tr != "1" for c, tr in zip(cols["consistent"], cols["truncated"])):
            return "a run's event accounting is out of balance"
        res = summary["results"]
        return _z_check("particles", res["mean_population"], res["stderr"], ref)
    return f"no oracle for command {command!r}"


def _check_ensemble(job, out):
    env = pamlab.sample_environment(_family(job["family"]), job["dim"], job["radius"], job["env_seed"])
    return _z_check("ensemble", out["mean"], out["stderr"], _origin_moment(env, job["kappa"], job["t"]))


_CHECKS = {
    "exponents": _check_exponents,
    "regime": _check_regime,
    "h1": _check_h1,
    "ftheta": _check_ftheta,
    "corr": _check_corr,
    "cli": _check_cli,
    "ensemble": _check_ensemble,
}
