import ast
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from helpers import record_fixture
import pamlab
from pamlab.cli import COMMANDS, SCHEMAS, ConfigError, build_config, main
from pamlab.moments import estimate_H1
from pamlab.particles import population_ensemble
from pamlab.regimes import RegimeThresholds, critical_experiment
from pamlab.seeding import derive_seed

DATA = os.path.join(os.path.dirname(__file__), "data", "seed_fixture.json")
CLI_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_fixture.json")
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_seed_fixture_frozen():
    with open(DATA) as fh:
        cases = json.load(fh)
    assert len(cases) == 5
    for case in cases:
        assert derive_seed(case["master"], case["label"], case["index"]) == case["seed"]


def test_build_config_reports_all_errors():
    with pytest.raises(ConfigError) as err:
        build_config(
            "solve",
            [
                "family=weibull", "rho=0.5", "kappa=-1", "t=2",
                "radius=5", "box_radius=9", "bogus=1",
            ],
        )
    message = str(err.value)
    assert "rho > 1" in message
    assert "unknown key" in message
    # value ranges are the library's: they pass the schema and are refused, one at a time, when the run starts
    assert "kappa" not in message and "box" not in message


def test_library_reports_one_value_at_a_time(tmp_path, capsys):
    argv = ["solve", "family=weibull", "rho=2", "kappa=-1", "t=2", "radius=5", "box_radius=9"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: box of radius 9 at (0,) overruns the window of radius 5\n"
    argv[-1] = "box_radius=5"
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: kappa must be finite and >= 0, got -1.0\n"
    assert not os.listdir(tmp_path)


def test_build_config_rejects_duplicates_and_bad_values():
    with pytest.raises(ConfigError, match="duplicate key"):
        build_config("sample-env", ["family=weibull", "rho=2", "rho=3", "radius=4"])
    with pytest.raises(ConfigError, match="rho > 1"):
        build_config("sample-env", ["family=weibull", "rho=0.5", "radius=4"])
    with pytest.raises(ConfigError, match="missing required key"):
        build_config("sample-env", ["family=weibull", "rho=2"])
    with pytest.raises(ConfigError, match="expects a int"):
        build_config("sample-env", ["family=weibull", "rho=2", "radius=big"])
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        build_config("sample-env", ["family=weibull", "rho=2", "radius"])
    cfg = build_config("sample-env", ["family=weibull", "rho=2", "radius=4"])
    assert cfg.family.kind == "weibull"
    assert cfg["seed"] == 0


def test_family_specific_validation():
    with pytest.raises(ConfigError, match="p in \\(0, 1\\)"):
        build_config("sample-env", ["family=hard_core", "p=1.5", "radius=2"])
    with pytest.raises(ConfigError, match="takes no rho"):
        build_config("sample-env", ["family=sq_double_exp", "rho=1", "radius=2"])
    with pytest.raises(ConfigError, match="unknown family"):
        build_config("sample-env", ["family=cauchy", "radius=2"])
    with pytest.raises(ConfigError, match="p only applies"):
        build_config("sample-env", ["family=weibull", "rho=2", "p=0.1", "radius=2"])


def test_sample_env_csv(tmp_path):
    rc = main(
        [
            "sample-env", "family=hard_core", "p=0.3", "radius=6", "seed=2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "environment.csv").decode().splitlines()
    assert lines[0] == "x0,v_plus,v_minus,hardcore,potential"
    assert len(lines) == 1 + 13
    hard = [ln for ln in lines[1:] if ln.split(",")[3] == "1"]
    assert all(ln.split(",")[4] == "-inf" for ln in hard)
    summary = json.loads(read_bytes(tmp_path / "summary.json"))
    assert summary["version"]
    assert summary["checks_passed"] is True
    assert "total_s" in summary["timings"]
    assert summary["config"]["p"] == 0.3


def test_solve_and_fk_smoke(tmp_path):
    rc = main(
        [
            "solve", "family=weibull", "rho=2", "radius=8", "box_radius=5",
            "kappa=1", "t=1.5", "seed=4", "--out", str(tmp_path / "a"),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "a" / "solution.csv").decode().splitlines()
    assert lines[0] == "x0,active,log_m"
    assert len(lines) == 1 + 11
    with open(tmp_path / "a" / "summary.json") as fh:
        results = json.load(fh)["results"]
    assert results["n_active"] == 11 and results["method"] == "dense-eig" and results["degree"] == 0
    center = [ln for ln in lines[1:] if ln.startswith("0,")][0]
    assert np.isfinite(float(center.split(",")[2]))

    # a 101-site box goes to uniformization, which reports its Poisson degree
    argv = ["solve", "family=weibull", "rho=2", "radius=50", "box_radius=50", "kappa=1", "t=1.5", "seed=4"]
    solutions = []
    for name in ("u1", "u2"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        solutions.append(read_bytes(tmp_path / name / "solution.csv"))
        with open(tmp_path / name / "summary.json") as fh:
            results = json.load(fh)["results"]
        assert results["method"] == "uniformization" and results["degree"] > 0
    assert solutions[0] == solutions[1]

    rc = main(
        [
            "fk", "family=weibull", "rho=2", "radius=5", "kappa=1", "t=1",
            "n_paths=2000", "seed=3", "--out", str(tmp_path / "b"),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "b" / "fk.csv").decode().splitlines()
    assert lines[0] == "t,kappa,n_paths,n_killed,log_value,stderr_log"
    assert len(lines) == 2
    assert np.isfinite(float(lines[1].split(",")[4]))
    with open(tmp_path / "b" / "summary.json") as fh:
        summary = json.load(fh)
    n_killed = int(lines[1].split(",")[3])
    assert n_killed > 0
    assert summary["results"]["n_killed"] == n_killed
    assert summary["results"]["kill_fraction"] == n_killed / 2000
    assert "n_killed" not in summary["timings"] and "kill_fraction" not in summary["timings"]
    timings = summary["timings"]
    assert timings["import_s"] > 0.0 and timings["peak_rss_mb"] > 1.0 and timings["peak_rss_children_mb"] >= 0.0


NO_SCIPY_RUN = """
import sys, tempfile
import pamlab, pamlab.cli
pool_modules = sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
assert pool_modules == [], pool_modules
from pamlab import BoxDomain, TailFamily, sample_environment, solve_truncated

env = sample_environment(TailFamily.weibull(2.0), 1, 60, 3)
routes = {solve_truncated(env, BoxDomain(env, (0,), r), 1.0, 2.0).method for r in (5, 60)}
assert routes == {"dense-eig", "uniformization"}, routes
with tempfile.TemporaryDirectory() as out:
    for argv in (
        ["spectral-check", "family=weibull", "rho=2", "dim=3", "radius=8", "n_instances=1",
         "kappa=1", "t=1", "seed=4", "--out", out + "/spectral"],
        ["regime", "family=double_exp", "rho=1", "mode=clt", "rule=gamma-j", "gamma=2.5",
         "t_grid=2", "kappa=0", "n_replica=100", "seed=5", "--out", out + "/clt"],
    ):
        pamlab.cli.main(argv)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_runs_load_no_scipy():
    # a dense and a uniformization solve, a Lanczos spectral check (17^3
    # sites) and a kappa = 0 CLT regime run, all without any scipy module;
    # the import itself loads no multiprocessing or concurrent.futures module
    src = os.path.dirname(os.path.dirname(os.path.abspath(pamlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_library_rebinds_no_module_global():
    # module state that library code rebinds is shared by every caller in the process
    root = os.path.dirname(os.path.abspath(pamlab.__file__))
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
            assert lines == [], f"{name}: global statement on lines {lines}"


def test_spectral_check_all_pass(tmp_path):
    rc = main(
        [
            "spectral-check", "family=double_exp", "rho=1", "radius=6",
            "kappa=0.7", "t=1", "n_instances=5", "seed=8", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "spectral.csv").decode().splitlines()
    assert len(lines) == 6
    assert all(ln.split(",")[-1] == "1" for ln in lines[1:])


def test_exponents_tables_and_empty_grid(tmp_path):
    rc = main(
        [
            "exponents", "family=weibull", "rho=2", "t_grid=1,2,3", "gamma=0.5",
            "--out", str(tmp_path / "full"),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "full" / "exponents.csv").decode().splitlines()
    assert lines[0] == "family,d,gamma1,gamma2,empirical_only,nu"
    cells = lines[1].split(",")
    assert float(cells[2]) == 1.0
    assert float(cells[3]) == 4.0
    growth = read_bytes(tmp_path / "full" / "growth.csv").decode().splitlines()
    assert len(growth) == 4
    curve = read_bytes(tmp_path / "full" / "critical_curve.csv").decode().splitlines()
    assert np.isclose(float(curve[1].split(",")[1]), 0.91421356237309515, rtol=1e-12)

    rc = main(["exponents", "family=weibull", "rho=2", "--out", str(tmp_path / "empty")])
    assert rc == 0
    assert read_bytes(tmp_path / "empty" / "growth.csv") == b"t,H,J\n"


def test_exponents_mc_covers_exact_value(tmp_path):
    rc = main(
        [
            "exponents-mc", "family=weibull", "rho=2", "kappa=0", "t=1.5",
            "n_replica=400", "seed=6", "theta=0.5", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = read_bytes(tmp_path / "moments_mc.csv").decode().splitlines()
    assert len(lines) == 3
    for ln in lines[1:]:
        assert ln.split(",")[-1] == "1"


def test_regime_rerun_byte_identical(tmp_path):
    argv = [
        "regime", "family=weibull", "rho=2", "t_grid=3", "mode=lln",
        "rule=explicit", "L_table=3:16", "n_replica=120", "seed=5",
    ]
    rc1 = main(argv + ["--out", str(tmp_path / "r1")])
    rc2 = main(argv + ["--out", str(tmp_path / "r2")])
    assert rc1 == rc2 == 0
    a = read_bytes(tmp_path / "r1" / "regime.csv")
    b = read_bytes(tmp_path / "r2" / "regime.csv")
    assert a == b
    assert a.decode().splitlines()[0] == (
        "family,kappa,d,t,L,gamma,gamma1,gamma2,frac_in_band,skew,kurt,ks_p,verdict"
    )
    s1 = json.loads(read_bytes(tmp_path / "r1" / "summary.json"))
    s2 = json.loads(read_bytes(tmp_path / "r2" / "summary.json"))
    s1.pop("timings")
    s2.pop("timings")
    assert s1 == s2


def test_particles_csv_is_byte_identical_across_runs(tmp_path):
    argv = [
        "particles", "family=weibull", "rho=2", "radius=3", "kappa=0.5",
        "t=0.5", "n_runs=200", "seed=9",
    ]
    rc1 = main(argv + ["--out", str(tmp_path / "a")])
    rc2 = main(argv + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert read_bytes(tmp_path / "a" / "particles.csv") == read_bytes(
        tmp_path / "b" / "particles.csv"
    )


def test_particles_start_on_hard_core_is_consistent(tmp_path):
    argv = ["particles", "family=hard_core", "p=0.5", "radius=3", "seed=1", "kappa=1", "t=1", "n_runs=3"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = read_bytes(tmp_path / "particles.csv").decode().splitlines()
    assert lines[0].split(",")[-3:] == ["n_boundary_kill", "truncated", "consistent"]
    assert all(ln.split(",")[-3:] == ["1", "0", "1"] for ln in lines[1:])


def test_solve_rejects_route_selector(tmp_path, capsys):
    rc = main(
        [
            "solve", "family=weibull", "rho=2", "radius=8", "box_radius=6", "kappa=1",
            "t=2", "method=rk4", "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "unknown key 'method'" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_regime_overflow_refused(tmp_path, capsys):
    rc = main(
        [
            "regime", "family=weibull", "rho=2", "t_grid=3", "mode=lln",
            "rule=gamma-j", "gamma=6", "n_replica=120", "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "refused" in err
    assert "log L" in err


def test_solver_refusal_is_quick(tmp_path, capsys):
    # kappa t = 1e6 needs a truncation radius beyond 1e6, which is refused
    # before any radius is searched and any replica is sampled
    start = time.perf_counter()
    rc = main(["exponents-mc", "family=weibull", "rho=2", "kappa=50", "t=20000", "n_replica=50",
               "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "refused: truncation radius exceeds 1e6 for kappa t = 1e+06" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "family=weibull", "rho=2", "radius=3", "box_radius=3", "kappa=1", "t=inf"],
        ["exponents", "family=weibull", "rho=2", "t_grid=1,inf"],
        ["particles", "family=weibull", "rho=2", "radius=3", "kappa=1", "t=inf", "n_runs=2"],
        ["particles", "family=weibull", "rho=2", "radius=3", "kappa=nan", "t=1", "n_runs=2"],
    ],
)
def test_non_finite_values_are_config_errors(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "config error: " in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_quadrature_and_bracket_failures_are_refusals(tmp_path, capsys, monkeypatch):
    # H(100) of weibull(1.1) has a peak so high that its window rounds to a point
    assert main(["exponents", "family=weibull", "rho=1.1", "t_grid=100", "--out", str(tmp_path)]) == 2
    assert "refused: H(100) for weibull" in capsys.readouterr().err

    def no_bracket(cfg):
        raise pamlab.RootBracketError("no bracket")

    monkeypatch.setitem(COMMANDS, "exponents", no_bracket)
    assert main(["exponents", "family=weibull", "rho=2", "--out", str(tmp_path)]) == 2
    assert "refused: no bracket" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_regime_critical_exit_reflects_checks(tmp_path):
    rc = main(
        [
            "regime", "family=weibull", "rho=2", "t_grid=3", "mode=critical",
            "rule=gamma-j", "gamma=0.5", "delta=-0.3", "n_replica=150",
            "seed=2", "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    lines = read_bytes(tmp_path / "critical.csv").decode().splitlines()
    assert lines[0] == (
        "family,kappa,d,t,L,gamma,delta,a_gamma,log_normalizer,frac_below,passed"
    )
    assert lines[1].split(",")[-1] == "0"


def test_regime_config_errors(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "mode=critical"] + out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing required key 'gamma'" in err
    assert "missing required key 'delta'" in err
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "n_replica=50"] + out)
    assert rc == 2
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "rule=explicit"] + out)
    assert rc == 2
    for key, message in (
        ("mode=xyz", "mode must be lln, clt, or critical, got 'xyz'"),
        ("rule=xyz", "rule must be gamma-j or explicit or f-hat in mode=lln, got 'xyz'"),
        ("rule=f-hat", "missing required key 'f_table'"),
    ):
        assert main(["regime", "family=weibull", "rho=2", "t_grid=3", "gamma=1", key] + out) == 2
        assert message in capsys.readouterr().err
    # critical mode schedules L by gamma J(t); a table it would ignore is refused
    critical = ["regime", "family=weibull", "rho=2", "mode=critical", "gamma=0.5", "delta=0.1", "t_grid=3",
                "n_replica=100", "seed=1"]
    for schedule, named in (
        (["rule=explicit", "L_table=3:5"], "rule must be gamma-j in mode=critical, got 'explicit'"),
        (["rule=f-hat", "f_table=3:5"], "rule must be gamma-j in mode=critical, got 'f-hat'"),
        (["L_table=3:5"], "mode=critical does not read 'L_table'"),
    ):
        assert main(critical + schedule + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
    assert not os.listdir(tmp_path)


REGIME = ["family=weibull", "rho=2", "t_grid=1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gamma=1", "L_table=1:5"], "rule=gamma-j does not read 'L_table'"),
        (["gamma=1", "f_table=1:3"], "rule=gamma-j does not read 'f_table'"),
        (["gamma=1", "delta=0.3"], "mode=lln does not read 'delta'"),
        (["gamma=1", "theta=0.7"], "mode=lln does not read 'theta'"),
        (["gamma=1", "skew_max=0.3"], "mode=lln does not read 'skew_max'"),
        (["rule=explicit", "L_table=1:5", "gamma=2"], "rule=explicit does not read 'gamma'"),
        (["mode=clt", "gamma=1", "fraction=0.9"], "mode=clt does not read 'fraction'"),
        (["mode=critical", "gamma=0.5", "delta=0.1", "band=0.1"], "mode=critical does not read 'band'"),
        (["mode=critical", "gamma=0.5", "delta=0.1", "L_table=1:5"], "mode=critical does not read 'L_table'"),
        (["mode=critical", "gamma=0.5", "delta=0.1", "rule=explicit"],
         "rule must be gamma-j in mode=critical, got 'explicit'"),
    ],
)
def test_regime_refuses_a_key_its_mode_and_rule_do_not_read(argv, message):
    # these runs once exited 0 on a schedule or gates other than the ones written
    with pytest.raises(ConfigError) as err:
        build_config("regime", REGIME + argv)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mode=xyz", "delta=0.1", "L_table=1:5", "band=0.1"], "mode must be lln, clt, or critical, got 'xyz'"),
        (["rule=xyz", "gamma=1", "L_table=1:5", "f_table=1:3"],
         "rule must be gamma-j or explicit or f-hat in mode=lln, got 'xyz'"),
        (["mode=clt", "rule=xyz", "skew_max=1", "ks_p_min=0.1"],
         "rule must be gamma-j or explicit or f-hat in mode=clt, got 'xyz'"),
    ],
)
def test_bad_regime_mode_or_rule_is_reported_once(argv, message):
    # which keys the run reads is unknown, so none is named unknown, unread or missing
    with pytest.raises(ConfigError) as err:
        build_config("regime", REGIME + argv)
    assert str(err.value) == message
    with pytest.raises(ConfigError) as err:
        build_config("regime", REGIME + argv + ["theta=abc", "bogus=1"])
    assert str(err.value) == f"unknown key 'bogus'; {message}; theta expects a float value, got 'abc'"


def test_regime_config_holds_the_keys_the_run_reads():
    common = {"family", "rho", "p", "d", "kappa", "t_grid", "mode", "rule", "n_replica", "seed", "max_log_L", "tol"}
    for argv, own in (
        (["gamma=1"], {"gamma", "band", "fraction"}),
        (["rule=f-hat", "f_table=1:2"], {"f_table", "band", "fraction"}),
        (["mode=clt", "rule=explicit", "L_table=1:3"], {"L_table", "band", "skew_max", "exkurt_max", "ks_p_min"}),
        (["mode=critical", "gamma=0.5", "delta=0.1"], {"gamma", "delta", "theta", "fraction"}),
    ):
        assert set(build_config("regime", REGIME + argv).values) == common | own, argv


@pytest.mark.parametrize(
    "argv, unparsed, follow_on",
    [
        (["rule=explicit", "L_table=1:inf"], "L_table expects a table value", "missing required key 'L_table'"),
        (["rule=gamma-j", "gamma=abc"], "gamma expects a float value", "missing required key 'gamma'"),
        (["mode=critical", "gamma=abc", "delta=0.1"], "gamma expects a float value", "missing required key 'gamma'"),
    ],
)
def test_unparsed_key_is_not_also_reported_missing(argv, unparsed, follow_on):
    with pytest.raises(ConfigError) as err:
        build_config("regime", ["family=weibull", "rho=2", "t_grid=1", *argv])
    assert unparsed in str(err.value)
    assert follow_on not in str(err.value)


@pytest.mark.parametrize(
    "rule, table, match",
    [
        # once an OverflowError traceback with exit 1
        ("explicit", "L_table=1:inf", "L_table expects a table value, got '1:inf'"),
        ("f-hat", "f_table=1:nan", "f_table expects a table value, got '1:nan'"),
        ("explicit", "L_table=1:2.7", "explicit schedule needs integer L >= 1, got L = 2.7"),  # ran with L = 2
        ("explicit", "L_table=1:5,1:7", "schedule table names t = 1 twice"),  # ran with L = 5
        ("f-hat", "f_table=1:2.5,1.0000000000001:3", "schedule table names t = 1 twice"),
    ],
)
def test_schedule_tables_are_refused_before_any_run(tmp_path, capsys, rule, table, match):
    argv = ["regime", "family=weibull", "rho=2", "t_grid=1", f"rule={rule}", table, "n_replica=100"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_replica_and_clt_refusals_are_config_errors(tmp_path, capsys):
    base = ["exponents-mc", "family=weibull", "rho=2", "kappa=0", "t=1"]
    for argv, refusal in (
        # the theta estimate runs first, so theta is the one refusal reported
        (base + ["n_replica=10", "theta=0"], "theta must be > -1 and nonzero, and finite, got 0"),
        (base + ["theta=-1.5"], "theta must be > -1 and nonzero, and finite, got -1.5"),
        (base + ["n_replica=10"], "n_replica must be an integer >= 50, got 10"),
        (base + ["n_replica=100", "theta=0"], "theta must be > -1 and nonzero, and finite, got 0"),
        (["regime", "family=weibull", "rho=2", "t_grid=1", "mode=clt", "gamma=2.5", "kappa=1"],
         "clt_experiment needs kappa = 0 or an explicit reference, got kappa = 1"),
    ):
        build_config(argv[0], argv[1:])  # the schema accepts them; the library refuses them
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"config error: {refusal}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
    killed = ["exponents-mc", "family=hard_core", "p=0.999", "kappa=1", "t=1", "n_replica=50"]
    assert main(killed + ["--out", str(tmp_path)]) == 2
    assert "config error: all replicas were killed" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "family=sq_double_exp", "t_grid=1"],
        ["exponents", "family=hard_core", "p=0.2", "gamma=0.5"],
        ["exponents", "family=weibull", "rho=2", "t_grid=0"],
        ["regime", "family=weibull", "rho=2", "mode=critical", "gamma=5", "delta=0.1", "t_grid=3", "n_replica=100"],
        ["fk", "family=weibull", "rho=2", "radius=3", "kappa=1", "t=1", "x=9"],
        ["regime", "family=weibull", "rho=2", "mode=lln", "rule=gamma-j", "gamma=0.5", "t_grid=3", "kappa=1",
         "n_replica=100", "d=2"],
        # H(2t) - 2 H(t) is rounding noise of the quadrature at these t
        ["exponents", "family=frechet", "rho=1", "t_grid=1e-20"],
        ["exponents", "family=frechet", "rho=1", "t_grid=1e-300"],
        ["regime", "family=double_exp", "rho=1", "mode=clt", "rule=explicit", "L_table=1e-9:50", "t_grid=1e-9",
         "n_replica=100"],
        # kappa = 0 at t = 400: e^(t v) of a box site, and e^H(2t), overflow a double
        ["regime", "family=weibull", "rho=2", "mode=lln", "rule=explicit", "L_table=400:5", "t_grid=400",
         "n_replica=100"],
        ["regime", "family=double_exp", "rho=1", "mode=clt", "rule=explicit", "L_table=400:5", "t_grid=400",
         "n_replica=100"],
        # gates that can never pass
        ["regime", "family=double_exp", "rho=1", "mode=clt", "rule=gamma-j", "gamma=2.5", "t_grid=2",
         "n_replica=100", "seed=1", "skew_max=-1", "exkurt_max=-1", "ks_p_min=2"],
        # a tol outside (0, 1) at kappa t = 0, where no truncation radius is needed
        ["exponents-mc", "family=weibull", "rho=2", "kappa=0", "t=1", "n_replica=50", "tol=5", "seed=1"],
        ["regime", "family=weibull", "rho=2", "mode=lln", "rule=gamma-j", "gamma=0.5", "t_grid=3",
         "n_replica=100", "tol=7"],
    ],
)
def test_library_refusals_are_config_errors(tmp_path, capsys, argv):
    # build_config accepts these; the library raises ValueError on them
    build_config(argv[0], argv[1:])
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not os.listdir(tmp_path)


WEIBULL = ["family=weibull", "rho=2"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["sample-env", *WEIBULL, "radius=-1"], "radius must be an integer >= 0, got -1"),
        (["sample-env", *WEIBULL, "radius=3", "dim=0"], "dim must be an integer >= 1, got 0"),
        (["sample-env", *WEIBULL, "radius=3", "baseline_death=-0.5"], "baseline_death must be >= 0, got -0.5"),
        (["solve", *WEIBULL, "radius=5", "box_radius=-1", "kappa=1", "t=1"],
         "box radius must be an integer >= 0, got -1"),
        (["solve", *WEIBULL, "radius=5", "box_radius=9", "kappa=1", "t=1"],
         "box of radius 9 at (0,) overruns the window of radius 5"),
        (["solve", *WEIBULL, "radius=5", "box_radius=3", "kappa=-1", "t=1"], "kappa must be finite and >= 0, got -1"),
        (["solve", *WEIBULL, "radius=5", "box_radius=3", "kappa=1", "t=-2"], "t must be finite and >= 0, got -2"),
        (["fk", *WEIBULL, "radius=3", "kappa=1", "t=1", "n_paths=0"], "n_paths must be an integer >= 1, got 0"),
        (["fk", *WEIBULL, "radius=3", "kappa=1", "t=1", "x=1,2"], "x must have 1 coordinates, got 2"),
        (["fk", *WEIBULL, "radius=3", "kappa=1", "t=-1"], "t must be finite and >= 0, got -1"),
        (["particles", *WEIBULL, "radius=3", "kappa=1", "t=1", "n_runs=0"], "n_runs must be an integer >= 1, got 0"),
        (["particles", *WEIBULL, "radius=3", "kappa=1", "t=1", "cap=0"], "cap must be an integer >= 1, got 0"),
        # refused before a dense eigendecomposition of 3999 sites
        (["spectral-check", *WEIBULL, "radius=1999", "kappa=1", "t=-1"], "t must be finite and >= 0, got -1"),
        (["spectral-check", *WEIBULL, "radius=3", "kappa=-0.5", "t=1"], "kappa must be finite and >= 0, got -0.5"),
        (["spectral-check", *WEIBULL, "radius=3", "kappa=1", "t=1", "n_instances=0"],
         "n_instances must be >= 1, got 0"),
        (["exponents", *WEIBULL, "d=0"], "d must be an integer >= 1, got 0"),
        (["exponents-mc", *WEIBULL, "kappa=0", "t=1", "dim=0"], "dim must be an integer >= 1, got 0"),
        (["exponents-mc", *WEIBULL, "kappa=0", "t=1", "tol=0"], "tol must be in (0, 1), got 0"),
        (["exponents-mc", *WEIBULL, "kappa=1", "t=1", "theta=0"], "theta must be > -1 and nonzero, and finite, got 0"),
        # refused before any of the 2000 replicas is sampled
        (["exponents-mc", *WEIBULL, "kappa=0", "t=1", "n_replica=2000", "theta=-3"],
         "theta must be > -1 and nonzero, and finite, got -3"),
        (["regime", *WEIBULL, "t_grid=3", "gamma=1", "n_replica=50"], "n_replica must be an integer >= 100, got 50"),
        (["regime", *WEIBULL, "t_grid=3", "gamma=1", "d=0"], "d must be an integer >= 1, got 0"),
        (["regime", *WEIBULL, "t_grid=3", "gamma=1", "kappa=-1"], "kappa must be finite and >= 0, got -1"),
        (["regime", *WEIBULL, "t_grid=3", "gamma=1", "tol=0"], "tol must be in (0, 1), got 0"),
        (["regime", *WEIBULL, "t_grid=-1", "rule=explicit", "L_table=-1:5"], "t must be finite and >= 0, got -1"),
    ],
)
def test_value_refusals_name_the_value(tmp_path, capsys, argv, value):
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"config error: {value}")
    assert not os.listdir(tmp_path)


def test_literal_cli_defaults_match_the_library():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert SCHEMAS["particles"]["cap"][2] == default(population_ensemble, "cap")
    assert SCHEMAS["exponents-mc"]["tol"][2] == default(estimate_H1, "tol")
    regime = ["family=weibull", "rho=2", "t_grid=1", "gamma=0.5"]
    gates = {"lln": {"band", "fraction"}, "clt": {"band", "skew_max", "exkurt_max", "ks_p_min"}, "critical": {"fraction"}}
    for mode, read in gates.items():
        cfg = build_config("regime", regime + [f"mode={mode}"] + (["delta=0.1"] if mode == "critical" else []))
        thresholds = {gate.name for gate in dataclasses.fields(RegimeThresholds)} & set(cfg.values)
        assert thresholds == read, mode
        assert all(cfg[gate] == getattr(RegimeThresholds(), gate) for gate in read), mode
        assert ("theta" in cfg.values) == (mode == "critical")
    assert cfg["theta"] == default(critical_experiment, "theta")


def test_readme_commands_parse():
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln.split() for ln in block.splitlines() if ln.startswith("pamlab ")]
    assert len(lines) >= 8
    for argv in lines:
        command, rest = argv[1], argv[2:]
        if "--out" in rest:
            i = rest.index("--out")
            del rest[i : i + 2]
        build_config(command, rest)


# Small runs of every command, each route and corner the tables have.
CLI_RUNS = {
    "sample-env-hardcore-2d": ["sample-env", "family=hard_core", "p=0.3", "dim=2", "radius=3", "seed=2",
                               "baseline_death=0.4"],
    "solve-dense": ["solve", "family=weibull", "rho=2", "radius=8", "box_radius=5", "kappa=1", "t=1.5", "seed=4"],
    "solve-uniformization": ["solve", "family=weibull", "rho=2", "radius=50", "box_radius=50", "kappa=1",
                             "t=1.5", "seed=4"],
    "solve-kappa0": ["solve", "family=double_exp", "rho=1", "radius=6", "box_radius=4", "kappa=0", "t=1",
                     "seed=3"],
    "solve-hardcore-2d": ["solve", "family=hard_core", "p=0.2", "dim=2", "radius=4", "box_radius=3", "kappa=1",
                          "t=1", "seed=1"],
    "fk": ["fk", "family=double_exp", "rho=1", "radius=5", "kappa=1", "t=1", "x=1", "n_paths=500", "seed=3"],
    "particles": ["particles", "family=weibull", "rho=2", "radius=3", "kappa=0.5", "t=0.5", "n_runs=50",
                  "seed=9"],
    "particles-hardcore": ["particles", "family=hard_core", "p=0.5", "radius=3", "seed=1", "kappa=1", "t=1",
                           "n_runs=3"],
    "spectral-dense": ["spectral-check", "family=double_exp", "rho=1", "radius=6", "kappa=0.7", "t=1",
                       "n_instances=3", "seed=8"],
    "spectral-lanczos": ["spectral-check", "family=weibull", "rho=2", "dim=3", "radius=8", "n_instances=1",
                         "kappa=1", "t=1", "seed=4"],
    "exponents-gamma": ["exponents", "family=weibull", "rho=2", "t_grid=1,2,3", "gamma=0.5"],
    "exponents-frechet-2d": ["exponents", "family=frechet", "rho=1", "d=2", "t_grid=0.5,1"],
    "exponents-empty-grid": ["exponents", "family=weibull", "rho=2"],
    "exponents-mc-kappa0": ["exponents-mc", "family=weibull", "rho=2", "kappa=0", "t=1.5", "n_replica=100",
                            "seed=6", "theta=0.5"],
    "exponents-mc-kappa1": ["exponents-mc", "family=weibull", "rho=2", "kappa=1", "t=1", "n_replica=50",
                            "seed=2"],
    "regime-lln": ["regime", "family=weibull", "rho=2", "t_grid=3", "mode=lln", "rule=gamma-j", "gamma=2.5",
                   "n_replica=100", "seed=5"],
    "regime-clt": ["regime", "family=double_exp", "rho=1", "mode=clt", "rule=gamma-j", "gamma=2.5",
                   "t_grid=2", "kappa=0", "n_replica=100", "seed=5"],
    "regime-critical": ["regime", "family=weibull", "rho=2", "t_grid=3", "mode=critical", "gamma=0.5",
                        "delta=-0.3", "n_replica=100", "seed=2"],
    "regime-kappa1-explicit": ["regime", "family=weibull", "rho=2", "kappa=1", "t_grid=1,2", "mode=lln",
                               "rule=explicit", "L_table=1:3,2:4", "n_replica=100", "seed=3"],
}


def cli_digests(argv, out):
    """Exit code and sha256 of every file a run writes; summary.json without timings."""
    rc = main(argv + ["--out", out])
    digests = {"rc": rc}
    for name in sorted(os.listdir(out)):
        data = read_bytes(os.path.join(out, name))
        if name == "summary.json":
            summary = json.loads(data)
            summary.pop("timings")
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def cli_values():
    with tempfile.TemporaryDirectory() as root:
        return {key: cli_digests(argv, os.path.join(root, key)) for key, argv in CLI_RUNS.items()}


def test_cli_outputs_match_fixture():
    # recorded before the commands returned column tables
    with open(CLI_FIXTURE) as fh:
        want = json.load(fh)
    assert cli_values() == want


if __name__ == "__main__":
    # Records the fixture.  It was recorded once, before the commands
    # returned column tables; re-recording it would make the test vacuous.
    if "--record" not in sys.argv:
        sys.exit("usage: python tests/test_cli.py --record")
    record_fixture(CLI_FIXTURE, cli_values)
