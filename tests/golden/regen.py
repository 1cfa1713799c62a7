"""The golden report corpus: a fixed job list and every value its reports hold.

    PYTHONPATH=src python tests/golden/regen.py

recomputes the reports of ``JOBS``, prints every value that moved against
``reports.json`` and rewrites that file.  ``tests/test_golden.py`` recomputes
the same reports and requires them to equal the stored ones exactly.

A report is stored as ``VerificationReport.as_dict()`` without its
``wall_time_ms``, with every float as its ``repr``, so that equality of the
stored text is equality of the bits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from suq2kit import HalfInt, SuiteConfig, run_suite

CORPUS = Path(__file__).resolve().parent / "reports.json"

# a valid 3x3 parameter matrix in the --qmatrix wire format: the identity
_IDENTITY3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]


def _jobs() -> list:
    """The benchmark's 41 jobs at seed 0, widened: the Koszul resolution over
    n in {2, 3, 8, 20} and D in {1, 25, 80, 120}, the parameter-matrix suite
    at three seeds and with a supplied matrix, every suite through ``all``
    at six q, and the t-grid suites at grid sizes other than the default 11,
    among them 17, which is more than one block of the grid walk."""
    jobs = [{"suite": s, "q": -0.5, "lmax": str(l)}
            for l in (10, 20, 30) for s in ("relations", "podles", "fredholm", "rotation")]
    jobs += [{"suite": s, "q": 0.9, "lmax": str(l)}
             for l in (20, 30, 40)
             for s in ("relations", "podles", "lemma1", "lemma2", "lemma3", "degenerate")]
    jobs += [{"suite": "koszul", "n": n, "D": d} for n in (2, 3, 8, 20) for d in (1, 25, 80, 120)]
    jobs += [{"suite": "fusion"}] + [{"suite": "foq", "seed": s} for s in (0, 1, 2)]
    jobs += [{"suite": "foq", "qmatrix": _IDENTITY3}]
    jobs += [{"suite": "all", "q": q, "lmax": "12"} for q in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9)]
    jobs += [{"suite": s, "q": q, "lmax": "12", "t_grid": g}
             for s in ("lemma1", "lemma2") for q in (-0.5, 0.9) for g in (2, 17)]
    jobs += [{"suite": "rotation", "q": -0.5, "lmax": "12", "t_grid": 3}]
    return jobs


JOBS = _jobs()


def label(job: dict) -> str:
    keys = ("q", "lmax", "t_grid", "n", "D", "seed")
    return job["suite"] + "".join(f" {key}={job[key]}" for key in keys
                                  if key in job) + (" qmatrix" if "qmatrix" in job else "")


def config(job: dict) -> SuiteConfig:
    return SuiteConfig(suite=job["suite"], q=job.get("q"),
                       lmax=HalfInt.parse(job.get("lmax", "20")),
                       t_grid=job.get("t_grid", 11), n=job.get("n", 3),
                       d_trunc=job.get("D", 10), seed=job.get("seed", 0),
                       qmatrix=job.get("qmatrix"))


def _floats_as_repr(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _floats_as_repr(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats_as_repr(v) for v in value]
    return value


def stored_report(job: dict) -> dict:
    """The job's report as the corpus stores it."""
    data = run_suite(config(job)).as_dict()
    del data["wall_time_ms"]
    return _floats_as_repr(data)


def moved(old, new, path="") -> list:
    """"path: old -> new" for each stored leaf that differs; a list of
    another length or a dict with other keys counts as one difference."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for k in old for m in moved(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for k, (o, n) in enumerate(zip(old, new)) for m in moved(o, n, f"{path}[{k}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def main() -> int:
    corpus = [{"job": job, "report": stored_report(job)} for job in JOBS]
    if CORPUS.exists():
        old = {label(e["job"]): e["report"] for e in json.loads(CORPUS.read_text())}
        for entry in corpus:
            name = label(entry["job"])
            if name not in old:
                print(f"{name}: new job")
                continue
            for line in moved(old[name], entry["report"]):
                print(f"{name}{line}")
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} reports to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
