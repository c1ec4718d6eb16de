"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE RESULT_JSON OUT_DIR TRACE CHECK

Measures set-up (importing the package plus one tiny solve, the cost a
command-line user pays on every invocation), then runs the jobs with
the clock on, then, if CHECK=1, checks every output against its oracle
with the clock off.  TRACE=1 wraps the package's public functions for
the timed region.  The result, with one digest per job output, goes to
RESULT_JSON; a pass with CHECK=0 is verified by comparing digests with
a checked pass.
"""

import hashlib
import json
import platform
import resource
import sys
import time


def _digest(output):
    text = json.dumps(output, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    workload, seed, size, result_path, out_dir = argv[1], int(argv[2]), argv[3], argv[4], argv[5]
    trace, check = argv[6] == "1", argv[7] == "1"

    t0 = time.perf_counter()
    import pamlab
    import pamlab.cli

    env = pamlab.sample_environment(pamlab.TailFamily.weibull(2.0), 1, 3, 1)
    pamlab.solve_truncated(env, pamlab.BoxDomain(env, (0,), 3), 1.0, 1.0)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    import tracer
    import workloads

    jobs = workloads.build_jobs(workload, seed, size)
    tr = tracer.Tracer() if trace else None
    if tr:
        tr.install()
    outputs, errors = {}, {}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    job_s = {}
    for job in jobs:
        t_job = time.perf_counter()
        try:
            outputs[job["id"]] = workloads.run_job(job, out_dir)
        except Exception as err:  # a failed job counts against failed_ratio
            errors[job["id"]] = f"{type(err).__name__}: {err}"
        job_s[job["id"]] = time.perf_counter() - t_job
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    layers = None
    if tr:
        tr.uninstall()
        layers = tr.metrics()

    results = []
    for job in jobs:
        jid = job["id"]
        failure = errors.get(jid)
        if failure is None and check:
            try:
                failure = workloads.check_job(job, outputs[jid])
            except Exception as err:
                failure = f"check raised {type(err).__name__}: {err}"
        results.append({
            "id": jid,
            "failure": failure,
            "wall_s": job_s[jid],
            "digest": _digest(outputs[jid]) if jid in outputs else None,
        })
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # Linux reports KiB
        "jobs": results,
        "layers": layers,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pamlab": pamlab.__version__,
        },
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
