"""One-off lmax scan of the suites behind the norm cliffs; not a workload.

    python3 bench/scan.py [--out bench/scan-q-0.5.json]

Times ``fredholm`` and ``rotation`` at q = -0.5 for lmax 10, 12, ..., 40, one
job at a time in one process with OpenBLAS on one thread, and records for
each job which path every ``operator_norm`` call took (dense SVD, ARPACK,
the sqrt(|.|_1 |.|_inf) bound, or an empty matrix).  The jobs run traced;
``elapsed_s`` is the job's wall time less the time spent classifying the
norm calls (``counting_s``).  The result is kept beside the benchmark so
the non-monotone cost in lmax is on record; the benchmark never runs it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
from tracing import COUNTING_SPAN, Tracer, layer_stats  # noqa: E402

sys.path.insert(0, str(run.SRC))
from worker import environment, run_jobs  # noqa: E402

Q = -0.5
LMAXES = range(10, 41, 2)
SUITES = ("fredholm", "rotation")
NORM = "peterweyl.operator_norm."


def scan(out_path: Path):
    out_dir = run.ROOT / ".bench_out" / "scan"
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for suite in SUITES:
        for lmax in LMAXES:
            job = {"suite": suite, "q": Q, "lmax": lmax, "seed": 0}
            with Tracer() as tracer:
                rec = run_jobs([job], out_dir, tracer)["jobs"][0]
            counting = layer_stats(tracer.spans).get(COUNTING_SPAN, (0, 0.0, 0.0))[1]
            report = json.loads(Path(rec["report"]).read_text()) if rec["report"] else None
            row = {"suite": suite, "lmax": lmax,
                   "elapsed_s": round(rec["elapsed_s"] - counting, 4),
                   "counting_s": round(counting, 4),
                   "passed": None if report is None else report["overall"],
                   "error": rec["error"],
                   **{k[len(NORM):]: v for k, v in tracer.counts.items()
                      if k.startswith(NORM) and not k.endswith("_flops")}}
            rows.append(row)
            print(json.dumps(row), flush=True)
    out_path.write_text(json.dumps({"q": Q, "environment": environment(),
                                    "git_commit": run.git_commit(), "rows": rows},
                                   indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=run.HERE / "scan-q-0.5.json")
    args = parser.parse_args(argv)
    scan(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
