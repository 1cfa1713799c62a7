"""Self-tests of the benchmark harness: ``python -m pytest bench/test_harness.py``."""

import json
from pathlib import Path

import scipy.sparse as sp

from suq2kit import homotopy, kring, peterweyl, podles
from suq2kit.peterweyl import BandedOperator
from suq2kit.report import load_schema

import run
from tracing import TRACED, Tracer, layer_stats
from worker import run_jobs


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    spans = [["root", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 6.0, 0, 0]]
    stats = layer_stats(spans)
    assert stats == {"root": [1, 10.0, 6.0], "a": [1, 3.0, 2.0],
                     "b": [1, 1.0, 1.0], "c": [1, 1.0, 1.0]}
    assert sum(s[2] for s in stats.values()) == 10.0


def test_total_time_counts_a_recursive_name_once():
    spans = [["f", 0.0, 4.0, None, 0], ["f", 1.0, 3.0, 0, 0], ["g", 1.5, 2.0, 1, 0]]
    assert layer_stats(spans) == {"f": [2, 4.0, 3.5], "g": [1, 0.5, 0.5]}


def test_wrappers_are_installed_everywhere_and_restored():
    originals = {
        (peterweyl, "operator_norm"): peterweyl.operator_norm,
        (podles, "operator_norm"): podles.operator_norm,
        (homotopy, "operator_norm"): homotopy.operator_norm,
        (homotopy, "_masked_sqrt_ratio"): homotopy._masked_sqrt_ratio,
        (kring, "fuse"): kring.fuse,
        (BandedOperator, "from_shift_rules"): BandedOperator.__dict__["from_shift_rules"],
        (BandedOperator, "__matmul__"): BandedOperator.__dict__["__matmul__"],
    }

    def current():
        return {(owner, attr): (owner.__dict__[attr] if isinstance(owner, type)
                                else getattr(owner, attr))
                for owner, attr in originals}

    with Tracer() as tracer:
        assert all(now is not originals[key] for key, now in current().items())
        peterweyl.operator_norm(sp.identity(3, format="csr"))
        kring.fuse(2, 3)
    assert all(now is originals[key] for key, now in current().items())
    assert [s[0] for s in tracer.spans] == ["trace.counting", "peterweyl.operator_norm",
                                            "kring.fuse"]
    assert tracer.counts["peterweyl.operator_norm.dense_calls"] == 1
    assert len(TRACED) == len(set(TRACED))


def test_failed_share_counts_a_raising_job_and_a_failing_check(tmp_path):
    jobs = [{"suite": "rotation", "q": 0.5, "lmax": 10, "seed": 0},   # raises: needs q < 0
            {"suite": "lemma2", "q": 0.9, "lmax": 20, "seed": 0},     # fails its decay gate
            {"suite": "lemma3", "q": 0.5, "lmax": 10, "seed": 0}]     # passes
    rep = run_jobs(jobs, tmp_path)
    assert rep["jobs"][0]["error"].startswith("UsageError")
    schema = load_schema()
    rep["outcomes"] = run.job_outcomes(rep, schema)
    counts = run.tally([rep])
    assert (counts["attempted"], counts["failed"], counts["passed"]) == (3, 1, 1)
    assert counts["correct"]
    rep["max_rss_kb"] = 1024
    metrics = run.end_to_end([rep], [0.3], counts)
    assert metrics["passed_share"]["value"] == 1 / 3      # failed_share 2/3

    # a report whose verdict contradicts its value is caught
    path = Path(rep["jobs"][2]["report"])
    data = json.loads(path.read_text())
    data["checks"][0]["pass"] = not data["checks"][0]["pass"]
    assert run.check_report(data, schema)


def test_benchmark_json_lists_exactly_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    rep = {"layers": {}, "counts": Tracer().counts, "batch_s": 1.0, "max_rss_kb": 1024,
           "jobs": [{"elapsed_s": 1.0}]}
    layer = run.per_layer([rep], [rep])
    e2e = run.end_to_end([rep], [0.3], {"passed": 1, "attempted": 1})
    for listed, printed in ((spec["per_layer"], layer), (spec["end_to_end"], e2e)):
        assert {(m["name"], m["unit"]) for m in listed} == {
            (name, m["unit"]) for name, m in printed.items()}
