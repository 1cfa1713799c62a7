"""The allocator rule that ``run_suite`` sets on glibc.

The first ``run_suite`` in a process fixes glibc's mmap threshold at 32 MiB
and its trim threshold at 64 MiB, so that freed numpy temporaries stay in the
heap instead of going back to the kernel and being faulted in again.  The
rule is process-wide, so every check runs in a fresh interpreter, with the
allocator's environment settings removed so that glibc starts from its
defaults.  Faults are minor faults of the process, from
``resource.getrusage(RUSAGE_SELF).ru_minflt``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _on_glibc(), reason="the rule applies on glibc only")

SRC = Path(__file__).resolve().parents[1] / "src"

# a churn of 16 live 1 MiB blocks: under glibc's dynamic rule the first
# rounds raise the mmap threshold to 1 MiB and the trim threshold to 2 MiB,
# so each round's 16 MiB extends the heap and is trimmed again when freed
PRELUDE = """
import json, resource
import numpy as np

def faults(work):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    work()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

def churn():
    blocks = [np.ones(1 << 17) for _ in range(16)]
    del blocks

def churn_faults():
    churn()
    churn()
    return faults(churn)
"""


def run_fresh(script: str) -> dict:
    """Run PRELUDE plus script in a fresh interpreter; its last line is JSON."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["OPENBLAS_NUM_THREADS"] = "1"
    run = subprocess.run([sys.executable, "-c", PRELUDE + script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_import_alone_keeps_glibcs_dynamic_rule():
    out = run_fresh("""
import suq2kit
from suq2kit import suites
after_import = churn_faults()
suites._keep_freed_heap()
print(json.dumps({"after_import": after_import, "after_rule": churn_faults()}))
""")
    # 16 MiB faulted in again on every round, against none once the rule holds
    assert out["after_import"] > 1000
    assert out["after_rule"] < 100


def test_a_second_identical_run_suite_takes_almost_no_faults():
    # without the rule this takes about 7000 faults on every repetition
    out = run_fresh("""
from suq2kit import SuiteConfig, run_suite
config = SuiteConfig(suite="relations", q=0.5, lmax=20)
run_suite(config)
print(json.dumps({"second": faults(lambda: run_suite(config))}))
""")
    assert out["second"] < 100


def test_the_helper_reports_that_both_mallopt_calls_succeeded():
    out = run_fresh("""
from suq2kit import suites
print(json.dumps({"first": suites._keep_freed_heap(), "again": suites._keep_freed_heap()}))
""")
    assert out == {"first": True, "again": True}
