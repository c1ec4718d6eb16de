"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: annealed-blocks, window-replicas, single-box (see
workloads.py and BENCHMARK.json for why each exists).  The job list is
generated from --seed.  Each pass runs the whole list in a fresh
interpreter (worker.py), so every pass pays the package import, BLAS
start-up and cold analytic caches, as a command-line user does.  Passes
repeat until --seconds is spent (at least three).

--trace 0 reports the end-to-end metrics, as medians over passes:
  wall_s       time to run the job list, oracle checks excluded
  setup_s      package import plus one tiny warm-up solve
  peak_rss_mb  peak resident memory of the pass process
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.METRICS; trace.overhead_s is the traced
minus the untraced median wall_s.

The first pass checks every job's output against an oracle (oracle.py)
outside the timed region; later passes must reproduce its outputs
exactly.  A job that raises, fails its check, or gives different output
in two passes counts as failed; failed_ratio = failed / attempted.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (standard library only; does not import the package)

# One BLAS thread: a dense solve moved by 2x between runs with more, and
# one is never more than nproc.  Parent and change must run alike.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("annealed-blocks", "window-replicas", "single-box")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 3  # untraced passes with --trace 0
MIN_TRACE_PASSES = 2  # of each kind with --trace 1
MAX_PASSES = 40
PASS_TIMEOUT_S = 150


def pinned_env(root):
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PAMLAB_THREADS"] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(index, traced, args, tmp, env):
    result_path = os.path.join(tmp, f"result-{index}.json")
    out_dir = os.path.join(tmp, f"out-{index}")
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed), args.size,
           result_path, out_dir, "1" if traced else "0", "1" if index == 0 else "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    shutil.rmtree(out_dir)
    return result


def schedule(trace, seconds, run):
    """Run passes until `seconds` is spent; returns (untraced, traced) results."""
    done = {False: [], True: []}
    took = {False: [], True: []}
    deadline = time.monotonic() + seconds
    for i in range(MAX_PASSES):
        traced = trace and i % 2 == 1
        short = (len(done[False]) < (MIN_TRACE_PASSES if trace else MIN_PASSES)
                 or (trace and len(done[True]) < MIN_TRACE_PASSES))
        # the first pass also runs the oracle checks, so it predicts later ones badly
        expected = max(took[traced][1:] or took[traced], default=0.0)
        if not short and time.monotonic() + expected > deadline:
            break
        t0 = time.monotonic()
        done[traced].append(run(i, traced))
        took[traced].append(time.monotonic() - t0)
    return done[False], done[True]


def tally(passes):
    """(attempted, failures) over all passes; output drift counts as failure."""
    attempted = 0
    failures = {}
    digests = {}
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            jid = job["id"]
            failure = job["failure"]
            if failure is None and digests.setdefault(jid, job["digest"]) != job["digest"]:
                failure = "output differs from an earlier pass with the same inputs"
            if failure is not None:
                failures.setdefault(jid, []).append(failure)
    return attempted, failures


def summarize(untraced, traced, trace):
    def med(passes, key):
        return statistics.median(p[key] for p in passes)

    if not trace:
        return {
            "wall_s": med(untraced, "wall_s"),
            "setup_s": med(untraced, "setup_s"),
            "peak_rss_mb": med(untraced, "peak_rss_mb"),
        }
    metrics = {}
    for name, _, _ in tracer.METRICS:
        if name in traced[0]["layers"]:
            # median_low keeps a measured value, so counts stay whole numbers
            metrics[name] = statistics.median_low(p["layers"][name] for p in traced)
    metrics["process.cpu_s"] = med(untraced, "cpu_s")
    metrics["trace.overhead_s"] = med(traced, "wall_s") - med(untraced, "wall_s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every job, for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pamlab", "__init__.py")):
        print(f"perfbench: no src/pamlab under {root}; run from the repository root", file=sys.stderr)
        return 2
    env = pinned_env(root)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        untraced, traced = schedule(
            bool(args.trace), args.seconds,
            lambda i, tr: run_pass(i, tr, args, tmp, env),
        )
    except (RuntimeError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    passes = untraced + traced
    attempted, failures = tally(passes)
    failed = sum(len(v) for v in failures.values())
    metrics = summarize(untraced, traced, bool(args.trace))
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in tracer.METRICS)

    conditions = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "pamlab_threads": 1, "python": platform.python_version(),
        **{k: v for k, v in passes[0]["versions"].items() if k != "python"},
        "passes_untraced": len(untraced), "passes_traced": len(traced),
    }
    print("conditions " + json.dumps(conditions, sort_keys=True))
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for p in group:
            print(f"pass {kind:8s} wall_s {p['wall_s']:.4f}  setup_s {p['setup_s']:.4f}  "
                  f"cpu_s {p['cpu_s']:.4f}  peak_rss_mb {p['peak_rss_mb']:.1f}")
    for jid, msgs in sorted(failures.items()):
        print(f"FAILED {jid}: {msgs[0]}" + (f" (and {len(msgs) - 1} more)" if len(msgs) > 1 else ""))
    print(f"{'failed_ratio':45s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
