import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pamlab
from pamlab.cli import ConfigError, build_config, main
from pamlab.seeding import derive_seed

DATA = os.path.join(os.path.dirname(__file__), "data", "seed_fixture.json")


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
    assert "kappa must be >= 0" in message
    assert "box_radius must not exceed radius" in message
    assert "unknown key" in message


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
    assert timings["import_s"] > 0.0 and timings["peak_rss_mb"] > 1.0


def test_import_loads_neither_scipy_optimize_nor_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pamlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pamlab, pamlab.cli; print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "mode=critical"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "needs gamma" in err
    assert "needs delta" in err
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "n_replica=50"])
    assert rc == 2
    rc = main(["regime", "family=weibull", "rho=2", "t_grid=3", "rule=explicit"])
    assert rc == 2


def test_replica_and_clt_refusals_are_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        build_config(
            "exponents-mc", ["family=weibull", "rho=2", "kappa=0", "t=1", "n_replica=10", "theta=0"]
        )
    assert "n_replica >= 50" in str(err.value) and "theta must be > -1 and nonzero" in str(err.value)
    with pytest.raises(ConfigError, match="theta must be > -1"):
        build_config("exponents-mc", ["family=weibull", "rho=2", "kappa=0", "t=1", "theta=-1.5"])
    with pytest.raises(ConfigError, match="clt mode needs kappa = 0"):
        build_config("regime", ["family=weibull", "rho=2", "t_grid=1", "mode=clt", "gamma=2.5", "kappa=1"])
    base = ["exponents-mc", "family=weibull", "rho=2", "kappa=0", "t=1"]
    for argv in (
        base + ["n_replica=10"],
        base + ["n_replica=100", "theta=0"],
        ["regime", "family=weibull", "rho=2", "t_grid=1", "mode=clt", "gamma=2.5", "kappa=1"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
    killed = ["exponents-mc", "family=hard_core", "p=0.999", "kappa=1", "t=1", "n_replica=50"]
    assert main(killed + ["--out", str(tmp_path)]) == 2
    assert "config error: all replicas were killed" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
