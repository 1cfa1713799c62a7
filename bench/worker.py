"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace]
    python3 bench/worker.py --setup-only

The worker imports suq2kit first and records the clock when the import is
done, so the parent can time interpreter start plus import.  It then runs
the workload's jobs one after another through ``suq2kit.suites.run_suite``,
writes each report with ``suq2kit.report.emit_report`` as the CLI does, and
prints one JSON line with the job records.  With ``--trace`` the layer entry
points are wrapped for the whole batch and the spans are written to
``DIR/spans.jsonl``.
"""

import time

import suq2kit  # noqa: F401  (interpreter start to here is the timed set-up)

IMPORT_DONE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from suq2kit import report, suites  # noqa: E402
from suq2kit.qarith import HalfInt  # noqa: E402


def _jobs_sphere_neg():
    return [{"suite": s, "q": -0.5, "lmax": l}
            for l in (10, 20, 30) for s in ("relations", "podles", "fredholm", "rotation")]


def _jobs_homotopy_pos():
    return [{"suite": s, "q": 0.9, "lmax": l}
            for l in (20, 30, 40)
            for s in ("relations", "podles", "lemma1", "lemma2", "lemma3", "degenerate")]


def _jobs_integer():
    return ([{"suite": "koszul", "n": n, "D": d} for n in (3, 8, 20) for d in (25, 80, 120)]
            + [{"suite": "fusion"}, {"suite": "foq"}])


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {"sphere-neg": _jobs_sphere_neg, "homotopy-pos": _jobs_homotopy_pos,
             "integer": _jobs_integer}


def jobs_for(workload: str, seed: int) -> list:
    """The workload's jobs in a seed-determined order, each carrying the seed."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    for job in jobs:
        job["seed"] = seed
    return jobs


def job_label(k: int, job: dict) -> str:
    params = "".join(f"-{key}{job[key]}" for key in ("q", "lmax", "n", "D") if key in job)
    return f"{k:02d}-{job['suite']}{params}"


def run_jobs(jobs, out_dir, tracer=None) -> dict:
    """Run the jobs in sequence; a job that raises is recorded and the batch goes on.

    Returns {"batch_s", "jobs": [{"label", "suite", "elapsed_s", "report", "error"}]}.
    With a tracer, each job is one root span ``suites.run_suite.<suite>`` that
    covers run_suite and emit_report, the work of one CLI invocation.
    """
    records = []
    batch_start = time.perf_counter()
    for k, job in enumerate(jobs):
        label = job_label(k, job)
        path = Path(out_dir) / f"{label}.json"
        if tracer is not None:
            root = tracer.open_job(k, job["suite"])
        start = time.perf_counter()
        error = None
        try:
            config = suites.SuiteConfig(
                suite=job["suite"], q=job.get("q"),
                lmax=HalfInt.parse(str(job.get("lmax", 20))),
                n=job.get("n", 3), d_trunc=job.get("D", 10), seed=job["seed"])
            report.emit_report(suites.run_suite(config), out_path=path)
        except Exception as exc:  # a failing job is a result to count, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
        records.append({"label": label, "suite": job["suite"], "elapsed_s": elapsed,
                        "report": None if error else str(path), "error": error})
    return {"batch_s": time.perf_counter() - batch_start, "jobs": records}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"import_done": IMPORT_DONE}))
        return 0

    jobs = jobs_for(args.workload, args.seed)
    if args.trace:
        from tracing import Tracer, layer_stats

        with Tracer() as tracer:
            result = run_jobs(jobs, args.out, tracer)
        tracer.dump(Path(args.out) / "spans.jsonl")
        result.update(layers=layer_stats(tracer.spans), counts=tracer.counts,
                      spans=len(tracer.spans))
    else:
        result = run_jobs(jobs, args.out)
    result.update(max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  import_done=IMPORT_DONE, environment=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
