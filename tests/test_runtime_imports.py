"""The package and every suite run on numpy alone.

Nothing under src/ imports scipy (``tests/test_hygiene.py``), and this checks
the same at run time.  In a fresh interpreter, ``import suq2kit`` loads no
scipy module, and running every suite after it loads no module at all: an
import a job triggers would move its cost from start-up into the job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys, tempfile
from pathlib import Path

import suq2kit
from suq2kit import HalfInt, SuiteConfig, emit_report, list_suites, run_suite

loaded = set(sys.modules)
scipy = sorted(m for m in loaded if m.split(".")[0] == "scipy")
added = {}
with tempfile.TemporaryDirectory() as out:
    for entry in list_suites():
        config = SuiteConfig(suite=entry["suite"], q=-0.5 if entry["needs_q"] else None,
                             lmax=HalfInt.of(max(entry["min_lmax"], 3)), n=3, d_trunc=8)
        emit_report(run_suite(config), out_path=Path(out) / f"{entry['suite']}.json")
        new = sorted(set(sys.modules) - loaded)
        if new:
            added[entry["suite"]] = new
            loaded |= set(new)
print(json.dumps({"scipy": scipy, "added": added}))
"""


def test_import_and_every_suite_load_no_scipy_and_no_late_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == {"scipy": [], "added": {}}
