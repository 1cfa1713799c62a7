"""suq2kit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sphere-neg --seed 1 --seconds 40 --trace 0

Load model: one closed-loop client.  Each repetition is a fresh interpreter
(``bench/worker.py``) that runs the workload's jobs in sequence, as a user
calling the CLI once per job would, but sharing one process per repetition as
``suite all`` does; a fresh process per repetition keeps process-wide caches
from serving one repetition from the last.  Repetitions continue while the
next one is expected to end within ``--seconds`` (at least one).  OpenBLAS is
pinned to one thread.

``--trace 0`` reports the end-to-end metrics: times of the fastest
repetition, the median set-up time and memory.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
fastest traced one plus the tracing overhead.  Every report is validated
against the package schema, checked for internal consistency, and compared
with the same job's report in every other repetition, traced or not; any
difference makes ``correct`` false.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Everything else (environment, per-job times, spans,
reports) is written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

from tracing import LAYERS, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

DEADLINE_S = 170.0       # the whole run must exit within 180 s
SETUP_PROBES = 8         # set-up samples taken besides one per repetition
KIB_PER_MB = 1024.0      # ru_maxrss is in KiB on Linux

# the child environment: one BLAS thread, so the harness does not compete
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    # time the import from byte-compiled modules, as after an install; the
    # warm-up probe writes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, started: float) -> dict:
    """Run the worker with args; returns its JSON line plus ``setup_s``."""
    remaining = DEADLINE_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = out["import_done"] - t0
    return out


# -- checking reports ----------------------------------------------------------

def check_report(data: dict, schema: dict) -> list:
    """Problems with one report: schema violations and verdicts that do not
    follow from value, threshold and mode."""
    problems = [f"schema: {e.message}"
                for e in jsonschema.Draft7Validator(schema).iter_errors(data)]
    if problems:
        return problems
    for c in data["checks"]:
        if c["mode"] == "info":
            expected = True
        elif c["mode"] == "max":
            expected = c["value"] <= c["threshold"]
        else:
            expected = c["value"] >= c["threshold"]
        if c["pass"] != expected:
            problems.append(f"check {c['name']!r}: pass={c['pass']} contradicts its value")
    if data["overall"] != all(c["pass"] for c in data["checks"]):
        problems.append("overall verdict contradicts the checks")
    return problems


def job_outcomes(rep: dict, schema: dict) -> list:
    """Per job: label, whether it ran, its problems, verdicts and pass state."""
    out = []
    for job in rep["jobs"]:
        entry = {"label": job["label"], "error": job["error"], "problems": [],
                 "verdicts": None, "passed": False}
        if job["error"] is None:
            data = json.loads(Path(job["report"]).read_text())
            entry["problems"] = check_report(data, schema)
            if not entry["problems"]:
                entry["verdicts"] = [(c["name"], c["value"], c["pass"]) for c in data["checks"]]
                entry["passed"] = data["overall"]
        out.append(entry)
    return out


def tally(reps: list) -> dict:
    """attempted, failed (raised or invalid report), passed (every gated
    check passes), and whether every repetition gave each job the same
    outcome: the same error, or the same verdicts."""
    attempted = failed = passed = 0
    problems = []
    first = {}
    for rep in reps:
        for job in rep["outcomes"]:
            attempted += 1
            failed += bool(job["error"] or job["problems"])
            passed += job["passed"]
            problems.extend(f"{job['label']}: {p}" for p in job["problems"])
            outcome = job["error"] or job["verdicts"]
            if first.setdefault(job["label"], outcome) != outcome:
                problems.append(f"{job['label']}: outcome differs between repetitions")
    return {"attempted": attempted, "failed": failed, "passed": passed,
            "correct": not problems, "problems": problems}


# -- metrics -------------------------------------------------------------------

def end_to_end(reps: list, setups: list, counts: dict) -> dict:
    """Times are minima over repetitions: interference from the rest of the
    host only ever adds time, so the minimum is the steadiest estimate of
    the work itself."""
    return {
        "batch_s": {"value": min(r["batch_s"] for r in reps), "unit": "s"},
        "max_job_s": {"value": min(max(j["elapsed_s"] for j in r["jobs"]) for r in reps),
                      "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["max_rss_kb"] for r in reps) / KIB_PER_MB,
                        "unit": "MB"},
        "passed_share": {"value": counts["passed"] / counts["attempted"], "unit": "share"},
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Layer split of the fastest traced repetition, so its self times add
    up to ``trace.batch_s``; the overhead is against the fastest untraced one."""
    best = min(traced, key=lambda r: r["batch_s"])
    out = {}
    for key, value in per_layer_metrics(best["layers"], best["counts"]).items():
        unit = "s" if key.endswith("_s") else "flop" if key.endswith("_flops") else "count"
        out[key] = {"value": value, "unit": unit}
    untraced_s = min(r["batch_s"] for r in untraced)
    out["trace.batch_s"] = {"value": best["batch_s"], "unit": "s"}
    out["trace.untraced_batch_s"] = {"value": untraced_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": best["batch_s"] - untraced_s, "unit": "s"}
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


# -- the run ---------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from suq2kit.report import load_schema

    schema = load_schema()
    started = time.perf_counter()
    out_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    spawn(["--setup-only"], started)     # warm-up: byte-compiles, fills the page cache
    setups = [] if trace else [spawn(["--setup-only"], started)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    measure_start = time.perf_counter()
    rounds = 0
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            rep_dir = out_dir / f"rep{len(untraced) + len(traced):02d}"
            rep_dir.mkdir()
            rep = spawn(["--workload", workload, "--seed", str(seed), "--out", str(rep_dir)]
                        + (["--trace"] if with_trace else []), started)
            rep["outcomes"] = job_outcomes(rep, schema)
            (traced if with_trace else untraced).append(rep)
        rounds += 1
        elapsed = time.perf_counter() - measure_start
        if elapsed + elapsed / rounds > seconds:    # the next round would end too late
            break
    setups += [r["setup_s"] for r in untraced + traced]

    counts = tally(untraced + traced)
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setups, counts)
    return {"counts": counts, "metrics": metrics, "environment": untraced[0]["environment"],
            "git_commit": git_commit(), "repetitions": len(untraced) + len(traced),
            "setup_samples": setups, "batch_samples": [r["batch_s"] for r in untraced],
            "out_dir": out_dir,
            "jobs": {j["label"]: [r["jobs"][k]["elapsed_s"] for r in untraced]
                     for k, j in enumerate(untraced[0]["jobs"])},
            "errors": {j["label"]: j["error"] for j in untraced[0]["jobs"] if j["error"]}}


def summarize(workload: str, result: dict, trace: bool):
    """Human-readable lines printed before the result line."""
    counts = result["counts"]
    print(json.dumps({"workload": workload, "environment": result["environment"],
                      "git_commit": result["git_commit"],
                      "repetitions": result["repetitions"]}))
    for label, times in result["jobs"].items():
        print(f"  {label:40s} best {min(times):8.3f} s  median {statistics.median(times):8.3f} s")
    for label, err in result["errors"].items():
        print(f"  {label}: raised {err}")
    print(f"failed_share (raised or any failing gated check): "
          f"{counts['attempted'] - counts['passed']}/{counts['attempted']}")
    for problem in counts["problems"]:
        print(f"INCORRECT: {problem}")
    if trace:
        m = result["metrics"]
        print(f"{'layer / traced name':44s} {'calls':>8s} {'self_s':>9s}  should move | no change")
        for layer, names, moves, still in LAYERS:
            print(f"{layer}: {moves} | {still}")
            for name in names:
                print(f"  {name:42s} {m[name + '.calls']['value']:8.0f} "
                      f"{m[name + '.self_s']['value']:9.4f}")
        print(f"tracing overhead {m['trace.overhead_s']['value']:+.3f} s on "
              f"{m['trace.untraced_batch_s']['value']:.3f} s untraced")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suq2kit" / "__init__.py").is_file():
        print(f"error: no suq2kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from worker import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result = run(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summarize(args.workload, result, trace)
    counts = result["counts"]
    line = {"correct": counts["correct"], "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": result["metrics"]}
    (result["out_dir"] / "result.json").write_text(json.dumps(
        {**line, "environment": result["environment"], "git_commit": result["git_commit"],
         "setup_samples": result["setup_samples"], "batch_samples": result["batch_samples"],
         "job_times": result["jobs"]}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
