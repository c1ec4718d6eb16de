"""Spans around the package's public functions, and the per-layer metrics.

`Tracer.install` wraps every public function of every `pamlab` module,
and rebinds each name wherever a module imported it (for example
`pamlab.cli.solve_truncated` as well as `pamlab.solver.solve_truncated`).
Module globals resolve at call time, so calls between modules and within
a module are both caught.  Each span records its name, start, end and
parent; spans stay in memory until `metrics` reads them.  Self time is a
span's duration minus the time its child spans cover.
"""

import functools
import importlib
import inspect
import time

LAYERS = (
    "seeding", "environments", "analytics", "solver", "spectral",
    "feynman_kac", "particles", "moments", "regimes", "cli",
)

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same
# names; LAYER_MAP.json says which end-to-end metric each should move.
METRICS = (
    ("seeding.derive_seed.calls", "count", "lower"),
    ("seeding.site_uniforms.sites", "count", "lower"),
    ("seeding.site_uniforms.ns_per_site", "ns/site", "lower"),
    ("environments.sample_environment.calls", "count", "lower"),
    ("environments.sample_environment.sites", "count", "lower"),
    ("environments.sample_environment.self_s", "s", "lower"),
    ("environments.exp_quantile_array.values", "count", "lower"),
    ("environments.exp_quantile_array.ns_per_value", "ns/value", "lower"),
    ("analytics.cumulant_H.calls", "count", "lower"),
    ("analytics.cumulant_H.distinct_args", "count", "lower"),
    ("analytics.cumulant_H.self_s", "s", "lower"),
    ("analytics.frechet_alpha.calls", "count", "lower"),
    ("analytics.frechet_alpha.self_s", "s", "lower"),
    ("analytics.growth_J.busy_s", "s", "lower"),
    ("solver.log_center_moment_windows_1d.windows", "count", "lower"),
    ("solver.log_center_moment_windows_1d.busy_s", "s", "lower"),
    ("solver.log_center_moment_windows_1d.us_per_window", "us/window", "lower"),
    ("solver.empirical_average.calls", "count", "lower"),
    ("solver.empirical_average.self_s", "s", "lower"),
    ("solver.solve_untruncated.calls", "count", "lower"),
    ("solver.solve_untruncated.busy_s", "s", "lower"),
    ("solver.solve_truncated.calls", "count", "lower"),
    ("solver.solve_truncated.active_sites", "count", "lower"),
    ("solver.solve_truncated.busy_s", "s", "lower"),
    ("solver.solve_truncated.busy_s_le4000", "s", "lower"),
    ("solver.solve_truncated.busy_s_gt4000", "s", "lower"),
    ("spectral.principal_eigen.busy_s", "s", "lower"),
    ("spectral.verify_sandwich.self_s", "s", "lower"),
    ("feynman_kac.fk_estimate.paths", "count", "lower"),
    ("feynman_kac.fk_estimate.paths_per_s", "1/s", "higher"),
    ("feynman_kac.fk_estimate.kill_fraction", "ratio", "lower"),
    ("particles.gillespie_run.runs", "count", "lower"),
    ("particles.gillespie_run.events", "count", "lower"),
    ("particles.gillespie_run.events_per_s", "1/s", "higher"),
    ("particles.gillespie_run.truncated", "count", "lower"),
    ("particles.population_ensemble.runs", "count", "lower"),
    ("particles.population_ensemble.runs_per_s", "1/s", "higher"),
    ("moments.estimate_H1.busy_s", "s", "lower"),
    ("moments.estimate_F_theta.busy_s", "s", "lower"),
    ("moments.correlation_profile.busy_s", "s", "lower"),
    ("moments.replicas", "count", "lower"),
    ("regimes.lln_experiment.busy_s", "s", "lower"),
    ("regimes.clt_experiment.busy_s", "s", "lower"),
    ("regimes.critical_experiment.busy_s", "s", "lower"),
    ("regimes.block_sites", "count", "lower"),
    ("regimes.ns_per_block_site", "ns/site", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows_written", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _regime_sites(args, kwargs, verdicts):
    config = args[0] if args else kwargs["config"]
    return sum(v.n_replica * (2 * v.L + 1) ** config.d for v in verdicts)


# What each wrapper counts, from the call's arguments and result.
_COUNTS = {
    "seeding.site_uniforms": lambda a, k, r: {"sites": r.size},
    "environments.sample_environment": lambda a, k, r: {"sites": r.n_sites},
    "environments.exp_quantile_array": lambda a, k, r: {"values": r.size},
    "solver.log_center_moment_windows_1d": lambda a, k, r: {"windows": r.size},
    "solver.solve_truncated": lambda a, k, r: {"active_sites": r.domain.n_active},
    "feynman_kac.fk_estimate": lambda a, k, r: {"paths": r.n_paths, "killed": r.n_killed},
    "particles.gillespie_run": lambda a, k, r: {
        "events": r.n_branch + r.n_death + r.n_boundary_kill, "truncated": int(r.truncated)},
    "particles.population_ensemble": lambda a, k, r: {"runs": r.n_runs},
    "moments.estimate_H1": lambda a, k, r: {"replicas": r.n_replica},
    "moments.estimate_F_theta": lambda a, k, r: {"replicas": r.n_replica},
    "moments.correlation_profile": lambda a, k, r: {"replicas": r.n_replica},
    "regimes.lln_experiment": lambda a, k, r: {"block_sites": _regime_sites(a, k, r)},
    "regimes.clt_experiment": lambda a, k, r: {"block_sites": _regime_sites(a, k, r)},
    "regimes.critical_experiment": lambda a, k, r: {"block_sites": _regime_sites(a, k, r)},
    "cli.write_csv": lambda a, k, r: {"rows": len(a[2] if len(a) > 2 else k["rows"])},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, counts]
        self._stack = []
        self._restore = []
        self.cumulant_args = set()

    def install(self):
        package = importlib.import_module("pamlab")
        modules = [importlib.import_module(f"pamlab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        count = _COUNTS.get(name)
        cumulant = name == "analytics.cumulant_H"
        signature = inspect.signature(fn) if cumulant else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if cumulant:
                bound = signature.bind(*args, **kwargs).arguments
                self.cumulant_args.add((bound["family"], float(bound["t"])))
            return result

        return wrapper

    def metrics(self):
        """Per-layer metrics from the recorded spans (every name in METRICS
        except the process-level `process.cpu_s` and `trace.overhead_s`)."""
        calls, busy, self_ns, counts = {}, {}, {}, {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            # busy time counts only the outermost span of a name
            if self._has_ancestor(i, name):
                continue
            busy[name] = busy.get(name, 0) + dur
            if name == "solver.solve_truncated" and extra:  # no counts if the call raised
                side = "le4000" if extra["active_sites"] <= 4000 else "gt4000"
                busy[f"{name}.{side}"] = busy.get(f"{name}.{side}", 0) + dur

        def c(key):
            return counts.get(key, 0)

        def s(table, key):
            return table.get(key, 0) * 1e-9

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        layer_self = {}
        for name, value in self_ns.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + value * 1e-9
        fk_busy = s(busy, "feynman_kac.fk_estimate")
        gil_busy = s(busy, "particles.gillespie_run")
        ens_busy = s(busy, "particles.population_ensemble")
        win_busy = s(busy, "solver.log_center_moment_windows_1d")
        out = {
            "seeding.derive_seed.calls": calls.get("seeding.derive_seed", 0),
            "seeding.site_uniforms.sites": c("seeding.site_uniforms.sites"),
            "seeding.site_uniforms.ns_per_site": per(
                self_ns.get("seeding.site_uniforms", 0), c("seeding.site_uniforms.sites")),
            "environments.sample_environment.calls": calls.get("environments.sample_environment", 0),
            "environments.sample_environment.sites": c("environments.sample_environment.sites"),
            "environments.sample_environment.self_s": s(self_ns, "environments.sample_environment"),
            "environments.exp_quantile_array.values": c("environments.exp_quantile_array.values"),
            "environments.exp_quantile_array.ns_per_value": per(
                self_ns.get("environments.exp_quantile_array", 0), c("environments.exp_quantile_array.values")),
            "analytics.cumulant_H.calls": calls.get("analytics.cumulant_H", 0),
            "analytics.cumulant_H.distinct_args": len(self.cumulant_args),
            "analytics.cumulant_H.self_s": s(self_ns, "analytics.cumulant_H"),
            "analytics.frechet_alpha.calls": calls.get("analytics.frechet_alpha", 0),
            "analytics.frechet_alpha.self_s": s(self_ns, "analytics.frechet_alpha"),
            "analytics.growth_J.busy_s": s(busy, "analytics.growth_J"),
            "solver.log_center_moment_windows_1d.windows": c("solver.log_center_moment_windows_1d.windows"),
            "solver.log_center_moment_windows_1d.busy_s": win_busy,
            "solver.log_center_moment_windows_1d.us_per_window": per(
                win_busy, c("solver.log_center_moment_windows_1d.windows"), 1e6),
            "solver.empirical_average.calls": calls.get("solver.empirical_average", 0),
            "solver.empirical_average.self_s": s(self_ns, "solver.empirical_average"),
            "solver.solve_untruncated.calls": calls.get("solver.solve_untruncated", 0),
            "solver.solve_untruncated.busy_s": s(busy, "solver.solve_untruncated"),
            "solver.solve_truncated.calls": calls.get("solver.solve_truncated", 0),
            "solver.solve_truncated.active_sites": c("solver.solve_truncated.active_sites"),
            "solver.solve_truncated.busy_s": s(busy, "solver.solve_truncated"),
            "solver.solve_truncated.busy_s_le4000": s(busy, "solver.solve_truncated.le4000"),
            "solver.solve_truncated.busy_s_gt4000": s(busy, "solver.solve_truncated.gt4000"),
            "spectral.principal_eigen.busy_s": s(busy, "spectral.principal_eigen"),
            "spectral.verify_sandwich.self_s": s(self_ns, "spectral.verify_sandwich"),
            "feynman_kac.fk_estimate.paths": c("feynman_kac.fk_estimate.paths"),
            "feynman_kac.fk_estimate.paths_per_s": per(c("feynman_kac.fk_estimate.paths"), fk_busy),
            "feynman_kac.fk_estimate.kill_fraction": per(
                c("feynman_kac.fk_estimate.killed"), c("feynman_kac.fk_estimate.paths")),
            "particles.gillespie_run.runs": calls.get("particles.gillespie_run", 0),
            "particles.gillespie_run.events": c("particles.gillespie_run.events"),
            "particles.gillespie_run.events_per_s": per(c("particles.gillespie_run.events"), gil_busy),
            "particles.gillespie_run.truncated": c("particles.gillespie_run.truncated"),
            "particles.population_ensemble.runs": c("particles.population_ensemble.runs"),
            "particles.population_ensemble.runs_per_s": per(c("particles.population_ensemble.runs"), ens_busy),
            "moments.estimate_H1.busy_s": s(busy, "moments.estimate_H1"),
            "moments.estimate_F_theta.busy_s": s(busy, "moments.estimate_F_theta"),
            "moments.correlation_profile.busy_s": s(busy, "moments.correlation_profile"),
            "moments.replicas": sum(c(f"moments.{f}.replicas")
                                    for f in ("estimate_H1", "estimate_F_theta", "correlation_profile")),
            "regimes.lln_experiment.busy_s": s(busy, "regimes.lln_experiment"),
            "regimes.clt_experiment.busy_s": s(busy, "regimes.clt_experiment"),
            "regimes.critical_experiment.busy_s": s(busy, "regimes.critical_experiment"),
            "regimes.block_sites": sum(c(f"regimes.{f}.block_sites")
                                       for f in ("lln_experiment", "clt_experiment", "critical_experiment")),
            "cli.main.calls": calls.get("cli.main", 0),
            "cli.self_s": layer_self.get("cli", 0.0),
            "cli.rows_written": c("cli.write_csv.rows"),
        }
        out["regimes.ns_per_block_site"] = per(layer_self.get("regimes", 0.0), out["regimes.block_sites"], 1e9)
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
