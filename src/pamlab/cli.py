"""Command line front end.

Every subcommand takes flat KEY=VALUE arguments, writes CSV tables plus
a summary.json into --out, and exits 0 when all of its checks passed and
1 when one failed.  The key schema here reports every key problem at
once; the values are the library's to check, and it refuses them one at
a time, naming the value (any ValueError it raises).  Either exits 2
with "config error: ..." and writes no file, and so does a float that
is not finite; a regime box overflow, a SolverError, a QuadratureError
or a RootBracketError exits 2 the same way with "refused: ...".  A run
draws its randomness from the seed key alone; the kappa = 0 regime draws
of a large box run on a fork pool of one worker per CPU, and give the
same bits on any number of workers.  Float cells are printed with
%.17g, so a repeated run is byte identical.  Wall-clock timings are
confined to summary.json, whose timings also record the package
start-up (import_s), the process's peak resident memory (peak_rss_mb)
and that of its largest finished child process, a pool worker
(peak_rss_children_mb).

Each cmd_* returns (tables, passed, extra).  tables maps a CSV file name
to a column table: a dict from column name to that column's cells, in
the order of the CSV header.  A column is a list, tuple or 1-d array; a
scalar stands for a column repeating it, so a table of scalars is one
row.  main turns each table into rows once and hands them to write_csv.
"""

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, _import_start
from .analytics import (
    QuadratureError,
    RootBracketError,
    critical_a,
    cumulant_H,
    cumulant_exponent_G,
    growth_J,
    transition_exponents,
)
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
from .solver import BoxDomain, SolverError, solve_truncated
from .spectral import verify_sandwich

# package start-up: from the first line of pamlab/__init__.py to here
_IMPORT_S = time.perf_counter() - _import_start


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
# the sampled window of a run, and the walk solved or simulated on it
_WINDOW_KEYS = {
    **_FAMILY_KEYS,
    "dim": ("int", False, 1),
    "radius": ("int", True, None),
    "seed": ("int", False, 0),
}
_WALK_KEYS = {
    "kappa": ("float", True, None),
    "t": ("float", True, None),
}

# A regime run reads the common keys, its rule's one key and its mode's keys: the
# gates its verdicts read (_regime_verdicts, _classify; degenerate_median keeps its
# library default) and the arguments of critical_experiment, whose rule is gamma-j.
_GATE_KEYS = ("band", "fraction", "skew_max", "exkurt_max", "ks_p_min")
_REGIME_COMMON = ("family", "rho", "p", "d", "kappa", "t_grid", "mode", "rule", "n_replica", "seed", "max_log_L", "tol")
_RULE_KEY = {"gamma-j": "gamma", "explicit": "L_table", "f-hat": "f_table"}
_REGIME_MODES = {
    "lln": (("band", "fraction"), _RULE_KEY),
    "clt": (("band", "skew_max", "exkurt_max", "ks_p_min"), _RULE_KEY),
    "critical": (("delta", "theta", "fraction"), {"gamma-j": "gamma"}),
}

SCHEMAS = {
    "sample-env": {**_WINDOW_KEYS, "baseline_death": ("float", False, 0.0)},
    "solve": {**_WINDOW_KEYS, "box_radius": ("int", True, None), **_WALK_KEYS},
    "fk": {**_WINDOW_KEYS, **_WALK_KEYS, "n_paths": ("int", False, 10000), "x": ("ints", False, None)},
    "particles": {**_WINDOW_KEYS, **_WALK_KEYS, "n_runs": ("int", False, 1000), "cap": ("int", False, 10**7)},
    "spectral-check": {**_WINDOW_KEYS, **_WALK_KEYS, "n_instances": ("int", False, 20)},
    "exponents": {
        **_FAMILY_KEYS,
        "d": ("int", False, 1),
        "t_grid": ("floats", False, ()),
        "gamma": ("float", False, None),
    },
    "exponents-mc": {
        **_FAMILY_KEYS,
        "dim": ("int", False, 1),
        **_WALK_KEYS,
        "n_replica": ("int", False, 1000),
        "seed": ("int", False, 0),
        "theta": ("float", False, None),
        "tol": ("float", False, 1e-6),
    },
    # every key that some regime run reads; _regime_read picks those that this run reads
    "regime": {
        **_FAMILY_KEYS,
        "d": ("int", False, 1),
        "kappa": ("float", False, RegimeConfig.kappa),
        "t_grid": ("floats", True, None),
        "mode": ("str", False, "lln"),
        "rule": ("str", False, "gamma-j"),
        "gamma": ("float", True, None),
        "L_table": ("table", True, None),
        "f_table": ("table", True, None),
        "n_replica": ("int", False, RegimeConfig.n_replica),
        "seed": ("int", False, 0),
        **{key: ("float", False, getattr(RegimeThresholds, key)) for key in _GATE_KEYS},
        "delta": ("float", True, None),
        "theta": ("float", False, 0.5),
        "max_log_L": ("float", False, RegimeConfig.max_log_L),
        "tol": ("float", False, RegimeConfig.tol),
    },
}


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")  # build_config reports the key and its raw value
    return value


def _parse_scalar(kind, raw):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(raw)
    if kind == "floats":
        return tuple(_finite(tok) for tok in raw.split(",") if tok != "")
    if kind == "ints":
        return tuple(int(tok) for tok in raw.split(",") if tok != "")
    if kind == "table":
        _table_entries(raw)  # checked here, kept as written for summary.json
    return raw


def _table_entries(raw):
    """((t, value), ...) of a schedule table written t:value,t:value."""
    entries = [tok.split(":") for tok in raw.split(",") if tok != ""]
    return tuple((_finite(t), _finite(value)) for t, value in entries)


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

    Every key problem (syntax, an unknown, duplicate, missing, unread or
    unparsable key, the family, the regime mode and rule) is collected
    before raising, so one failed run reports the full list.  Value
    ranges are left to the library, which refuses a bad value when the
    command runs, one at a time, naming it.
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
    if command == "regime":
        schema = _regime_read(raw, schema, errors)
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
    family = _build_family(values, errors) if "family" in schema else None
    if values.get("n_instances", 1) < 1:  # a loop count of this CLI, which no library call sees
        errors.append(f"n_instances must be >= 1, got {values['n_instances']}")
    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(command=command, values=values, family=family)


def _regime_read(raw, schema, errors):
    """The schema keys that the run's mode and rule read; any other schema key is refused.

    The refusal names the rule when a rule of the mode reads the key,
    else the mode.  After a bad mode or rule it is unknown which keys
    are read: the common keys and the keys given are parsed.
    """
    mode, rule = (raw.get(key, schema[key][2]) for key in ("mode", "rule"))
    own, rules = _REGIME_MODES.get(mode, ((), {}))
    if mode not in _REGIME_MODES:
        errors.append(f"mode must be lln, clt, or critical, got {mode!r}")
    elif rule not in rules:
        errors.append(f"rule must be {' or '.join(rules)} in mode={mode}, got {rule!r}")
    else:
        read = (*_REGIME_COMMON, rules[rule], *own)
        for key in raw:
            if key in schema and key not in read:
                errors.append(f"{f'rule={rule}' if key in rules.values() else f'mode={mode}'} does not read {key!r}")
        return {key: schema[key] for key in read}
    return {key: schema[key] for key in (*_REGIME_COMMON, *raw) if key in schema}


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, columns, rows):
    """Write the header `columns` and `rows`, each a sequence of cells in column order."""
    lines = [",".join(columns)] + [",".join(map(_fmt_cell, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _table_rows(table):
    """(columns, rows) of a column table; a scalar cell fills its whole column."""
    seqs = (list, tuple, np.ndarray)
    n = max((len(col) for col in table.values() if isinstance(col, seqs)), default=1)
    cols = [col if isinstance(col, seqs) else [col] * n for col in table.values()]
    return list(table), list(zip(*cols, strict=True))


def _coord_columns(coords):
    return {f"x{j}": coords[:, j] for j in range(coords.shape[1])}


def _fields(objs, *names, **renamed):
    """One column per attribute of objs: names as they are, then column=attribute pairs."""
    cols = {name: [getattr(o, name) for o in objs] for name in names}
    return cols | {col: [getattr(o, attr) for o in objs] for col, attr in renamed.items()}


def cmd_sample_env(cfg):
    env = sample_environment(
        cfg.family, cfg["dim"], cfg["radius"], cfg["seed"], cfg["baseline_death"]
    )
    pot = effective_potential(env)
    table = {
        **_coord_columns(env.coords()),
        "v_plus": env.v_plus, "v_minus": env.v_minus, "hardcore": env.hardcore, "potential": pot,
    }
    extra = {
        "n_sites": env.n_sites,
        "n_hardcore": int(env.hardcore.sum()),
        "max_potential": float(pot[np.isfinite(pot)].max()) if np.isfinite(pot).any() else None,
    }
    return {"environment.csv": table}, True, extra


def cmd_solve(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], cfg["seed"])
    box = BoxDomain(env, (0,) * env.dim, cfg["box_radius"])
    field = solve_truncated(env, box, cfg["kappa"], cfg["t"])
    table = {**_coord_columns(box.box_coords()), "active": box.active_mask(), "log_m": field.log_values()}
    extra = {
        "log_total": float(field.log_total()), "n_active": int(box.n_active),
        "method": field.method, "degree": field.degree,
    }
    return {"solution.csv": table}, True, extra


def cmd_fk(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "env"))
    x = cfg["x"] if cfg["x"] is not None else (0,) * env.dim
    est = fk_estimate(env, x, cfg["kappa"], cfg["t"], cfg["n_paths"], derive_seed(cfg["seed"], "paths"))
    table = {"t": cfg["t"], "kappa": cfg["kappa"]} | _fields([est], "n_paths", "n_killed", "log_value", "stderr_log")
    extra = {"all_killed": est.all_killed, "n_killed": est.n_killed, "kill_fraction": est.n_killed / est.n_paths}
    return {"fk.csv": table}, True, extra


def cmd_particles(cfg):
    env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "env"))
    sample = population_ensemble(
        env, (0,) * env.dim, cfg["kappa"], cfg["t"], cfg["n_runs"], derive_seed(cfg["seed"], "run"), cfg["cap"]
    )
    consistent = sample.accounting_consistent()
    table = {
        "replica": np.arange(sample.n_runs), "final_population": sample.counts,
        "n_branch": sample.n_branch, "n_death": sample.n_death, "n_boundary_kill": sample.n_boundary_kill,
        "truncated": sample.truncated, "consistent": consistent,
    }
    ok = bool(np.all(consistent | sample.truncated))
    extra = {
        "mean_population": sample.mean(),
        "stderr": sample.stderr() if sample.n_runs > 1 else 0.0,
    }
    return {"particles.csv": table}, ok, extra


def cmd_spectral_check(cfg):
    reports = []
    for i in range(cfg["n_instances"]):
        env = sample_environment(cfg.family, cfg["dim"], cfg["radius"], derive_seed(cfg["seed"], "spectral", i))
        box = BoxDomain(env, (0,) * env.dim, cfg["radius"])
        reports.append(verify_sandwich(env, box, cfg["kappa"], cfg["t"]))
    table = {"instance": np.arange(len(reports))} | _fields(
        reports, "n_active", "lambda0", "t", "lower_margin", "upper_margin", ok="passed"
    )
    return {"spectral.csv": table}, all(r.passed for r in reports), {"n_instances": cfg["n_instances"]}


def cmd_exponents(cfg):
    exps = transition_exponents(cfg.family, cfg["d"])
    exponents = {
        "family": cfg.family.label(), "d": cfg["d"], "gamma1": exps.gamma1, "gamma2": exps.gamma2,
        "empirical_only": exps.empirical_only, "nu": exps.nu if exps.nu is not None else math.nan,
    }
    growth = [(cumulant_H(cfg.family, t), growth_J(cfg.family, cfg["d"], t)) for t in cfg["t_grid"]]
    tables = {
        "exponents.csv": exponents,
        "growth.csv": {"t": cfg["t_grid"], "H": [h for h, _ in growth], "J": [j for _, j in growth]},
    }
    if cfg["gamma"] is not None:
        tables["critical_curve.csv"] = {"gamma": cfg["gamma"], "a": critical_a(cfg.family, cfg["gamma"], cfg["d"])}
    return tables, True, {"gamma1": exps.gamma1, "gamma2": exps.gamma2}


def cmd_exponents_mc(cfg):
    family, kappa, t, theta = cfg.family, cfg["kappa"], cfg["t"], cfg["theta"]
    n, kw = cfg["n_replica"], {"dim": cfg["dim"], "tol": cfg["tol"]}
    if theta is not None:  # F_theta first, so a bad theta is refused before any replica is sampled
        f_theta = estimate_F_theta(family, theta, kappa, t, n, derive_seed(cfg["seed"], "ftheta"), **kw)
    stats, thetas = ["H1"], [math.nan]
    ests = [estimate_H1(family, kappa, t, n, derive_seed(cfg["seed"], "h1"), **kw)]
    exact = [cumulant_H(family, t) if kappa == 0.0 else math.nan]
    if theta is not None:
        stats.append("F_theta")
        thetas.append(theta)
        ests.append(f_theta)
        exact.append(cumulant_exponent_G(family, theta, t) if kappa == 0.0 else math.nan)
    in_ci = [not math.isfinite(x) or est.ci_lo - 1e-9 <= x <= est.ci_hi + 1e-9 for est, x in zip(ests, exact)]
    table = {"stat": stats, "theta": thetas, "t": t, "kappa": kappa, "n_replica": n}
    table |= _fields(ests, "value", "ci_lo", "ci_hi") | {"exact": exact, "in_ci": in_ci}
    return {"moments_mc.csv": table}, all(in_ci), {}


def cmd_regime(cfg):
    table = cfg.values.get("L_table", cfg.values.get("f_table", ""))
    rule = ScheduleRule(kind=cfg["rule"], gamma=cfg.values.get("gamma"), table=_table_entries(table))
    thresholds = RegimeThresholds(**{key: cfg[key] for key in _GATE_KEYS if key in cfg.values})
    config = RegimeConfig(
        family=cfg.family, rule=rule, t_grid=tuple(cfg["t_grid"]), kappa=cfg["kappa"],
        d=cfg["d"], n_replica=cfg["n_replica"], seed=cfg["seed"],
        thresholds=thresholds, max_log_L=cfg["max_log_L"], tol=cfg["tol"],
    )
    table = {"family": cfg.family.label(), "kappa": cfg["kappa"], "d": cfg["d"]}
    if cfg["mode"] == "critical":
        verdicts = critical_experiment(config, cfg["gamma"], cfg["delta"], cfg["theta"])
        table |= _fields(verdicts, "t", "L", "gamma", "delta", "a_gamma", "log_normalizer", "frac_below", "passed")
        ok = all(v.passed for v in verdicts)
        return {"critical.csv": table}, ok, {"a_gamma": verdicts[0].a_gamma}
    run = lln_experiment if cfg["mode"] == "lln" else clt_experiment
    verdicts = run(config)
    table |= _fields(
        verdicts, "t", "L", "gamma", "gamma1", "gamma2", "frac_in_band", "skew",
        kurt="exkurt", ks_p="ks_p", verdict="classification",
    )
    ok = all(verdict_consistent(v, thresholds) for v in verdicts)
    return {"regime.csv": table}, ok, {"classifications": [v.classification for v in verdicts]}


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
        tables, passed, extra = COMMANDS[args.command](cfg)
    except (ScheduleOverflowError, SolverError, QuadratureError, RootBracketError) as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # a ConfigError, or a configuration the library refuses
        print(f"config error: {err}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    for name, table in tables.items():
        path = os.path.join(args.out, name)
        columns, rows = _table_rows(table)
        write_csv(path, columns, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    elapsed = time.perf_counter() - t_start
    summary = {
        "version": __version__,
        "command": args.command,
        "config": cfg.values,
        "outputs": list(tables),
        "checks_passed": bool(passed),
        "results": extra,
        "timings": {
            "total_s": elapsed,
            "import_s": _IMPORT_S,
            # Linux reports KiB; the children are the kappa = 0 draw pool's workers
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("checks passed" if passed else "checks FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
