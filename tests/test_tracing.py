"""The benchmark's layer tracer still finds the entry points it wraps.

bench/tracing.py wraps ``operator_norm`` and ``fredholm_index`` by name in
every module that binds them, and classifies each norm from the sparse
matrix it is handed; a traced run of the operator suites must keep counting
both layers.
"""

from pathlib import Path

from suq2kit.qarith import HalfInt
from suq2kit.suites import SuiteConfig, run_suite

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_operator_suites_count_norms_and_ranks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer, layer_stats

    with Tracer() as tracer:
        for suite in ("fredholm", "rotation"):
            run_suite(SuiteConfig(suite=suite, q=-0.5, lmax=HalfInt(20)))
    stats = layer_stats(tracer.spans)
    assert stats["peterweyl.operator_norm"][0] > 0
    assert stats["podles.fredholm_index"][0] > 0
