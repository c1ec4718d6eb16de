"""Command line front end.

Every subcommand takes flat KEY=VALUE arguments, writes CSV tables plus
a summary.json into --out, and exits 0 only when all of its checks
passed.  A run uses no worker pool and draws its randomness from the
seed key alone; float cells are printed with %.17g, so a repeated run
is byte identical.  Wall-clock timings are confined to summary.json.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytics import critical_a, cumulant_H, cumulant_exponent_G, growth_J, transition_exponents
from .environments import TailFamily, effective_potential, sample_environment
from .feynman_kac import fk_estimate
from .moments import estimate_F_theta, estimate_H1
from .particles import population_ensemble
from .regimes import (
    RegimeConfig,
    RegimeThresholds,
    ScheduleOverflowError,
    ScheduleRule,
    clt_experiment,
    critical_experiment,
    lln_experiment,
    verdict_consistent,
)
from .seeding import derive_seed
from .solver import BoxDomain, solve_truncated
from .spectral import verify_sandwich


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every problem found."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: dict
    family: object = None

    def __getitem__(self, key):
        return self.values[key]


_FAMILY_KEYS = {
    "family": ("str", True, None),
    "rho": ("float", False, None),
    "p": ("float", False, None),
}

SCHEMAS = {
    "sample-env": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "radius": ("int", True, None),
        "seed": ("int", False, 0),
        "baseline_death": ("float", False, 0.0),
    },
    "solve": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "radius": ("int", True, None),
        "box_radius": ("int", True, None),
        "seed": ("int", False, 0),
        "kappa": ("float", True, None),
        "t": ("float", True, None),
    },
    "fk": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "radius": ("int", True, None),
        "seed": ("int", False, 0),
        "kappa": ("float", True, None),
        "t": ("float", True, None),
        "n_paths": ("int", False, 10000),
        "x": ("ints", False, None),
    },
    "particles": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "radius": ("int", True, None),
        "seed": ("int", False, 0),
        "kappa": ("float", True, None),
        "t": ("float", True, None),
        "n_runs": ("int", False, 1000),
        "cap": ("int", False, 10**7),
    },
    "spectral-check": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "radius": ("int", True, None),
        "seed": ("int", False, 0),
        "kappa": ("float", True, None),
        "t": ("float", True, None),
        "n_instances": ("int", False, 20),
    },
    "exponents": {
        **_FAMILY_KEYS,
        "d": ("int", False, 1),
        "t_grid": ("floats", False, ()),
        "gamma": ("float", False, None),
    },
    "exponents-mc": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        "kappa": ("float", True, None),
        "t": ("float", True, None),
        "n_replica": ("int", False, 1000),
        "seed": ("int", False, 0),
        "theta": ("float", False, None),
        "tol": ("float", False, 1e-6),
    },
    "regime": {
        **_FAMILY_KEYS,
        "d": ("int", False, 1),
        "kappa": ("float", False, 0.0),
        "t_grid": ("floats", True, None),
        "mode": ("str", False, "lln"),
        "rule": ("str", False, "gamma-j"),
        "gamma": ("float", False, None),
        "L_table": ("str", False, None),
        "f_table": ("str", False, None),
        "n_replica": ("int", False, 200),
        "seed": ("int", False, 0),
        "band": ("float", False, 0.05),
        "fraction": ("float", False, 0.95),
        "skew_max": ("float", False, 0.2),
        "exkurt_max": ("float", False, 0.5),
        "ks_p_min": ("float", False, 0.01),
        "delta": ("float", False, None),
        "theta": ("float", False, 0.5),
        "max_log_L": ("float", False, math.log(2_000_000)),
        "tol": ("float", False, 1e-4),
    },
}

_RANGE_CHECKS = [
    ("radius", lambda v: v >= 0, "radius must be >= 0"),
    ("box_radius", lambda v: v >= 0, "box_radius must be >= 0"),
    ("dim", lambda v: v >= 1, "dim must be >= 1"),
    ("d", lambda v: v >= 1, "d must be >= 1"),
    ("kappa", lambda v: v >= 0.0, "kappa must be >= 0"),
    ("t", lambda v: v >= 0.0, "t must be >= 0"),
    ("n_paths", lambda v: v >= 1, "n_paths must be >= 1"),
    ("n_runs", lambda v: v >= 1, "n_runs must be >= 1"),
    ("n_instances", lambda v: v >= 1, "n_instances must be >= 1"),
    ("n_replica", lambda v: v >= 1, "n_replica must be >= 1"),
    ("cap", lambda v: v >= 1, "cap must be >= 1"),
    ("tol", lambda v: v > 0.0, "tol must be > 0"),
    ("band", lambda v: v > 0.0, "band must be > 0"),
    ("fraction", lambda v: 0.0 < v <= 1.0, "fraction must be in (0, 1]"),
]


def _parse_scalar(kind, raw):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "floats":
        return tuple(float(tok) for tok in raw.split(",") if tok != "")
    if kind == "ints":
        return tuple(int(tok) for tok in raw.split(",") if tok != "")
    return raw


def _build_family(values, errors):
    if values.get("family") is None:
        return None
    try:
        return TailFamily(values["family"], rho=values.get("rho"), p=values.get("p"))
    except ValueError as err:
        errors.append(str(err))
        return None


def build_config(command, pairs):
    """Parse KEY=VALUE tokens against the command schema.

    Every problem is collected before raising, so one failed run reports
    the full list instead of the first offence.
    """
    schema = SCHEMAS[command]
    raw = {}
    errors = []
    for tok in pairs:
        if "=" not in tok:
            errors.append(f"expected KEY=VALUE, got {tok!r}")
            continue
        key, val = tok.split("=", 1)
        if key in raw:
            errors.append(f"duplicate key {key!r}")
            continue
        raw[key] = val
    for key in raw:
        if key not in schema:
            errors.append(f"unknown key {key!r}")
    values = {}
    for key, (kind, required, default) in schema.items():
        if key in raw:
            try:
                values[key] = _parse_scalar(kind, raw[key])
            except ValueError:
                errors.append(f"{key} expects a {kind} value, got {raw[key]!r}")
        elif required:
            errors.append(f"missing required key {key!r}")
        else:
            values[key] = default
    for key, ok, message in _RANGE_CHECKS:
        if key in values and values[key] is not None and not ok(values[key]):
            errors.append(message)
    family = _build_family(values, errors) if "family" in schema else None
    if command == "solve" and None not in (values.get("box_radius"), values.get("radius")):
        if values["box_radius"] > values["radius"]:
            errors.append("box_radius must not exceed radius")
    if command == "fk" and values.get("x") is not None:
        if len(values["x"]) != values.get("dim", 1):
            errors.append("x must have one coordinate per dimension")
    if command == "exponents-mc":
        _check_exponents_mc(values, errors)
    if command == "regime":
        _check_regime(values, errors)
    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(command=command, values=values, family=family)


def _check_exponents_mc(values, errors):
    n = values.get("n_replica")
    if n is not None and n < 50:
        errors.append("exponents-mc needs n_replica >= 50")
    theta = values.get("theta")
    if theta is not None and not (theta > -1.0 and theta != 0.0):
        errors.append("theta must be > -1 and nonzero")


def _check_regime(values, errors):
    mode = values.get("mode")
    if mode not in ("lln", "clt", "critical"):
        errors.append(f"mode must be lln, clt, or critical, got {mode!r}")
    rule = values.get("rule")
    if rule not in ("gamma-j", "explicit", "f-hat"):
        errors.append(f"rule must be gamma-j, explicit, or f-hat, got {rule!r}")
    if rule == "gamma-j" and values.get("gamma") is None:
        errors.append("gamma-j rule needs gamma")
    if rule == "explicit" and not values.get("L_table"):
        errors.append("explicit rule needs L_table, e.g. L_table=1:10,2:40")
    if rule == "f-hat" and not values.get("f_table"):
        errors.append("f-hat rule needs f_table, e.g. f_table=1:2.5,2:4.8")
    if mode == "critical":
        if values.get("gamma") is None:
            errors.append("critical mode needs gamma")
        if values.get("delta") is None:
            errors.append("critical mode needs delta")
    if mode == "clt" and values.get("kappa") not in (None, 0.0):
        errors.append("clt mode needs kappa = 0")
    n = values.get("n_replica")
    if n is not None and n < 100:
        errors.append("regime runs need n_replica >= 100")


def _parse_table(raw, errors, key):
    out = []
    for item in raw.split(","):
        if ":" not in item:
            errors.append(f"{key} entries look like t:value, got {item!r}")
            continue
        a, b = item.split(":", 1)
        try:
            out.append((float(a), float(b)))
        except ValueError:
            errors.append(f"{key} entries look like t:value, got {item!r}")
    return tuple(out)


def _fmt_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _coord_columns(dim):
    return [f"x{j}" for j in range(dim)]


def cmd_sample_env(cfg):
    env = sample_environment(
        cfg.family, cfg["dim"], cfg["radius"], cfg["seed"], cfg["baseline_death"]
    )
    coords = env.coords()
    pot = effective_potential(env)
    cols = _coord_columns(env.dim) + ["v_plus", "v_minus", "hardcore", "potential"]
    rows = []
    for i in range(env.n_sites):
        row = {f"x{j}": coords[i, j] for j in range(env.dim)}
        row["v_plus"] = float(env.v_plus[i])
        row["v_minus"] = float(env.v_minus[i])
        row["hardcore"] = bool(env.hardcore[i])
        row["potential"] = float(pot[i])
        rows.append(row)
    extra = {
        "n_sites": env.n_sites,
        "n_hardcore": int(env.hardcore.sum()),
        "max_potential": float(pot[np.isfinite(pot)].max()) if np.isfinite(pot).any() else None,
    }
    return [("environment.csv", cols, rows)], True, extra


def cmd_solve(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], cfg["seed"])
    box = BoxDomain(env, (0,) * env.dim, cfg["box_radius"])
    field = solve_truncated(env, box, cfg["kappa"], cfg["t"])
    logs = field.log_values()
    active = box.active_mask()
    coords = box.box_coords()
    cols = _coord_columns(env.dim) + ["active", "log_m"]
    rows = []
    for i in range(box.n_box):
        row = {f"x{j}": coords[i, j] for j in range(env.dim)}
        row["active"] = bool(active[i])
        row["log_m"] = float(logs[i])
        rows.append(row)
    extra = {"log_total": float(field.log_total()), "n_active": int(box.n_active), "method": field.method}
    extra["degree"] = field.degree
    return [("solution.csv", cols, rows)], True, extra


def cmd_fk(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "env"))
    x = cfg["x"] if cfg["x"] is not None else (0,) * env.dim
    est = fk_estimate(env, x, cfg["kappa"], cfg["t"], cfg["n_paths"], derive_seed(cfg["seed"], "paths"))
    cols = ["t", "kappa", "n_paths", "n_killed", "log_value", "stderr_log"]
    rows = [
        {
            "t": cfg["t"],
            "kappa": cfg["kappa"],
            "n_paths": est.n_paths,
            "n_killed": est.n_killed,
            "log_value": est.log_value,
            "stderr_log": est.stderr_log,
        }
    ]
    extra = {"all_killed": est.all_killed, "n_killed": est.n_killed, "kill_fraction": est.n_killed / est.n_paths}
    return [("fk.csv", cols, rows)], True, extra


def cmd_particles(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "env"))
    sample = population_ensemble(
        env, (0,) * env.dim, cfg["kappa"], cfg["t"], cfg["n_runs"], derive_seed(cfg["seed"], "run"), cfg["cap"]
    )
    consistent = sample.accounting_consistent()
    cols = ["replica", "final_population", "n_branch", "n_death", "n_boundary_kill", "truncated", "consistent"]
    rows = [
        {
            "replica": r,
            "final_population": sample.counts[r],
            "n_branch": sample.n_branch[r],
            "n_death": sample.n_death[r],
            "n_boundary_kill": sample.n_boundary_kill[r],
            "truncated": bool(sample.truncated[r]),
            "consistent": bool(consistent[r]),
        }
        for r in range(sample.n_runs)
    ]
    ok = bool(np.all(consistent | sample.truncated))
    extra = {
        "mean_population": sample.mean(),
        "stderr": sample.stderr() if sample.n_runs > 1 else 0.0,
    }
    return [("particles.csv", cols, rows)], ok, extra


def cmd_spectral_check(cfg):
    cols = ["instance", "n_active", "lambda0", "t", "lower_margin", "upper_margin", "ok"]
    rows = []
    ok = True
    for i in range(cfg["n_instances"]):
        env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "spectral", i))
        box = BoxDomain(env, (0,) * env.dim, cfg["radius"])
        rep = verify_sandwich(env, box, cfg["kappa"], cfg["t"])
        ok = ok and rep.passed
        rows.append(
            {
                "instance": i,
                "n_active": rep.n_active,
                "lambda0": rep.lambda0,
                "t": rep.t,
                "lower_margin": rep.lower_margin,
                "upper_margin": rep.upper_margin,
                "ok": rep.passed,
            }
        )
    return [("spectral.csv", cols, rows)], ok, {"n_instances": cfg["n_instances"]}


def cmd_exponents(cfg):
    table = transition_exponents(cfg.family, cfg["d"])
    exp_cols = ["family", "d", "gamma1", "gamma2", "empirical_only", "nu"]
    exp_rows = [
        {
            "family": cfg.family.label(),
            "d": cfg["d"],
            "gamma1": table.gamma1,
            "gamma2": table.gamma2,
            "empirical_only": table.empirical_only,
            "nu": table.nu if table.nu is not None else math.nan,
        }
    ]
    growth_cols = ["t", "H", "J"]
    growth_rows = [
        {"t": t, "H": cumulant_H(cfg.family, t), "J": growth_J(cfg.family, cfg["d"], t)}
        for t in cfg["t_grid"]
    ]
    tables = [("exponents.csv", exp_cols, exp_rows), ("growth.csv", growth_cols, growth_rows)]
    if cfg["gamma"] is not None:
        a = critical_a(cfg.family, cfg["gamma"], cfg["d"])
        tables.append(
            ("critical_curve.csv", ["gamma", "a"], [{"gamma": cfg["gamma"], "a": a}])
        )
    return tables, True, {"gamma1": table.gamma1, "gamma2": table.gamma2}


def cmd_exponents_mc(cfg):
    rows = []
    ok = True
    est = estimate_H1(
        cfg.family, cfg["kappa"], cfg["t"], cfg["n_replica"],
        derive_seed(cfg["seed"], "h1"), dim=cfg["dim"], tol=cfg["tol"],
    )
    exact = cumulant_H(cfg.family, cfg["t"]) if cfg["kappa"] == 0.0 else math.nan
    in_ci = bool(est.ci_lo - 1e-9 <= exact <= est.ci_hi + 1e-9) if math.isfinite(exact) else True
    ok = ok and in_ci
    rows.append(
        {
            "stat": "H1", "theta": math.nan, "t": cfg["t"], "kappa": cfg["kappa"],
            "n_replica": cfg["n_replica"], "value": est.value,
            "ci_lo": est.ci_lo, "ci_hi": est.ci_hi, "exact": exact, "in_ci": in_ci,
        }
    )
    if cfg["theta"] is not None:
        fest = estimate_F_theta(
            cfg.family, cfg["theta"], cfg["kappa"], cfg["t"], cfg["n_replica"],
            derive_seed(cfg["seed"], "ftheta"), dim=cfg["dim"], tol=cfg["tol"],
        )
        fexact = (
            cumulant_exponent_G(cfg.family, cfg["theta"], cfg["t"])
            if cfg["kappa"] == 0.0
            else math.nan
        )
        fin = bool(fest.ci_lo - 1e-9 <= fexact <= fest.ci_hi + 1e-9) if math.isfinite(fexact) else True
        ok = ok and fin
        rows.append(
            {
                "stat": "F_theta", "theta": cfg["theta"], "t": cfg["t"], "kappa": cfg["kappa"],
                "n_replica": cfg["n_replica"], "value": fest.value,
                "ci_lo": fest.ci_lo, "ci_hi": fest.ci_hi, "exact": fexact, "in_ci": fin,
            }
        )
    cols = ["stat", "theta", "t", "kappa", "n_replica", "value", "ci_lo", "ci_hi", "exact", "in_ci"]
    return [("moments_mc.csv", cols, rows)], ok, {}


def cmd_regime(cfg):
    errors = []
    if cfg["rule"] == "gamma-j":
        rule = ScheduleRule(kind="gamma-j", gamma=cfg["gamma"])
    elif cfg["rule"] == "explicit":
        rule = ScheduleRule(kind="explicit", table=_parse_table(cfg["L_table"], errors, "L_table"))
    else:
        rule = ScheduleRule(kind="f-hat", table=_parse_table(cfg["f_table"], errors, "f_table"))
    if errors:
        raise ConfigError("; ".join(errors))
    thresholds = RegimeThresholds(
        band=cfg["band"], fraction=cfg["fraction"], skew_max=cfg["skew_max"],
        exkurt_max=cfg["exkurt_max"], ks_p_min=cfg["ks_p_min"],
    )
    config = RegimeConfig(
        family=cfg.family, rule=rule, t_grid=tuple(cfg["t_grid"]), kappa=cfg["kappa"],
        d=cfg["d"], n_replica=cfg["n_replica"], seed=cfg["seed"],
        thresholds=thresholds, max_log_L=cfg["max_log_L"], tol=cfg["tol"],
    )
    label = cfg.family.label()
    if cfg["mode"] == "critical":
        verdicts = critical_experiment(config, cfg["gamma"], cfg["delta"], cfg["theta"])
        cols = ["family", "kappa", "d", "t", "L", "gamma", "delta", "a_gamma",
                "log_normalizer", "frac_below", "passed"]
        rows = [
            {
                "family": label, "kappa": cfg["kappa"], "d": cfg["d"], "t": v.t,
                "L": v.L, "gamma": v.gamma, "delta": v.delta, "a_gamma": v.a_gamma,
                "log_normalizer": v.log_normalizer, "frac_below": v.frac_below,
                "passed": v.passed,
            }
            for v in verdicts
        ]
        ok = all(v.passed for v in verdicts)
        return [("critical.csv", cols, rows)], ok, {"a_gamma": verdicts[0].a_gamma}
    run = lln_experiment if cfg["mode"] == "lln" else clt_experiment
    verdicts = run(config)
    cols = ["family", "kappa", "d", "t", "L", "gamma", "gamma1", "gamma2",
            "frac_in_band", "skew", "kurt", "ks_p", "verdict"]
    rows = [
        {
            "family": label, "kappa": cfg["kappa"], "d": cfg["d"], "t": v.t, "L": v.L,
            "gamma": v.gamma, "gamma1": v.gamma1, "gamma2": v.gamma2,
            "frac_in_band": v.frac_in_band, "skew": v.skew, "kurt": v.exkurt,
            "ks_p": v.ks_p, "verdict": v.classification,
        }
        for v in verdicts
    ]
    ok = all(verdict_consistent(v, thresholds) for v in verdicts)
    return [("regime.csv", cols, rows)], ok, {
        "classifications": [v.classification for v in verdicts]
    }


COMMANDS = {
    "sample-env": cmd_sample_env,
    "solve": cmd_solve,
    "fk": cmd_fk,
    "particles": cmd_particles,
    "spectral-check": cmd_spectral_check,
    "exponents": cmd_exponents,
    "exponents-mc": cmd_exponents_mc,
    "regime": cmd_regime,
}


def _json_safe(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pamlab",
        description="Moment statistics for branching walks in random potentials.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("pairs", nargs="*", metavar="KEY=VALUE")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    try:
        cfg = build_config(args.command, args.pairs)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        tables, passed, extra = COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ScheduleOverflowError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for name, columns, rows in tables:
        path = os.path.join(args.out, name)
        write_csv(path, columns, rows)
        outputs.append(name)
        print(f"wrote {path} ({len(rows)} rows)")
    elapsed = time.perf_counter() - t_start
    summary = {
        "version": __version__,
        "command": args.command,
        "config": {k: _json_safe(v) for k, v in cfg.values.items()},
        "outputs": outputs,
        "checks_passed": bool(passed),
        "results": extra,
        "timings": {"total_s": elapsed},
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("checks passed" if passed else "checks FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
