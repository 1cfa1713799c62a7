"""Every value of the golden corpus is reproduced bit for bit.

``tests/golden/reports.json`` stores the reports of a fixed job list (see
``tests/golden/regen.py``): check names, anchors, modes, thresholds,
verdicts, values, parameters, assumptions and decay rows.  Each report is
recomputed here and must equal the stored one exactly.  A change that moves
a value on purpose regenerates the corpus with ``regen.py``, which prints
every value that moved, and lists each one with its reason.
"""

import json

import pytest

from golden.regen import CORPUS, label, moved, stored_report

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[label(e["job"]) for e in ENTRIES])
def test_report_matches_the_corpus(entry):
    assert moved(entry["report"], stored_report(entry["job"])) == []


def test_moved_lists_each_differing_leaf():
    old = {"checks": [{"value": "0.1", "pass": True}], "decay": [1], "seed": 0}
    new = {"checks": [{"value": "0.10000000000000002", "pass": False}], "decay": [1, 2],
           "seed": 0}
    assert moved(old, new) == [".checks[0].value: '0.1' -> '0.10000000000000002'",
                               ".checks[0].pass: True -> False",
                               ".decay: [1] -> [1, 2]"]
