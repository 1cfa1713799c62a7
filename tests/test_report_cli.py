"""Report schema, suite dispatch, CLI exit codes and determinism."""

import copy
import json
import shlex
from pathlib import Path

import jsonschema
import pytest

from suq2kit.cli import main
from suq2kit.qarith import HalfInt
from suq2kit.report import Check, VerificationReport, emit_report, load_schema
from suq2kit.suites import SuiteConfig, UsageError, list_suites, run_suite


def _strip_volatile(report_dict):
    out = copy.deepcopy(report_dict)
    out.pop("wall_time_ms")
    return out


def test_check_semantics():
    assert Check("x", "a", 1e-12, 1e-10).passed
    assert not Check("x", "a", 1e-8, 1e-10).passed
    assert Check("x", "a", 5.0, 1.0, mode="min").passed
    assert Check("x", "a", 123.0, None, mode="info").passed
    with pytest.raises(ValueError):
        Check("x", "a", 1.0, None, mode="max")
    with pytest.raises(ValueError):
        Check("x", "a", 1.0, 1.0, mode="bogus")


def test_empty_report_refused(tmp_path):
    rep = VerificationReport(suite="x", parameters={})
    with pytest.raises(ValueError):
        rep.overall
    with pytest.raises(ValueError):
        emit_report(rep, out_path=tmp_path / "r.json")


def test_suite_catalog():
    catalog = list_suites()
    names = {entry["suite"] for entry in catalog}
    assert {"relations", "podles", "lemma1", "lemma2", "lemma3", "fredholm",
            "rotation", "degenerate", "koszul", "fusion", "foq", "all"} <= names
    assert len(catalog) >= 11
    by_name = {e["suite"]: e for e in catalog}
    assert "endpoint matching of the coefficient homotopy" in by_name["lemma3"]["anchors"]
    assert "length-one resolution of the trivial module" in by_name["koszul"]["anchors"]
    assert by_name["fredholm"]["min_lmax"] == 8
    assert by_name["all"]["min_lmax"] == max(e["min_lmax"] for e in catalog)


def test_every_check_anchor_is_catalogued():
    catalog = {a for e in list_suites() for a in e["anchors"]}
    for suite, q in (("relations", 0.5), ("lemma1", -0.7), ("lemma2", 0.5),
                     ("lemma3", -0.5), ("podles", 0.5), ("fredholm", 0.5),
                     ("rotation", -0.5), ("koszul", None), ("fusion", None),
                     ("foq", None), ("degenerate", -0.5)):
        rep = run_suite(SuiteConfig(suite=suite, q=q, lmax=HalfInt(24), t_grid=3))
        for check in rep.checks:
            assert check.anchor in catalog, (suite, check.name, check.anchor)


def test_suite_all_passes_the_supplied_matrix_to_foq():
    antidiagonal = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    rep = run_suite(SuiteConfig(suite="all", q=-0.5, lmax=HalfInt(20), qmatrix=antidiagonal))
    names = [c.name for c in rep.checks]
    assert "foq: supplied matrix is equivalent to its solved canonical parameter" in names


def test_run_suite_usage_errors():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(suite="nope", q=0.5))
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(suite="rotation", q=0.5, lmax=HalfInt(20)))
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(suite="relations", q=None))
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(suite="relations", q=1.5))
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", q=0.5, t_grid=1)


def test_report_schema_and_determinism(tmp_path):
    cfg = dict(suite="lemma3", q=-0.7, lmax=HalfInt(16))
    rep1 = run_suite(SuiteConfig(**cfg))
    rep2 = run_suite(SuiteConfig(**cfg))
    schema = load_schema()
    jsonschema.validate(rep1.as_dict(), schema)
    assert _strip_volatile(rep1.as_dict()) == _strip_volatile(rep2.as_dict())
    # byte identity apart from the wall time line
    j1 = "\n".join(l for l in rep1.to_json().splitlines() if "wall_time_ms" not in l)
    j2 = "\n".join(l for l in rep2.to_json().splitlines() if "wall_time_ms" not in l)
    assert j1 == j2


def test_lemma2_csv_shape(tmp_path):
    rep = run_suite(SuiteConfig(suite="lemma2", q=-0.5, lmax=HalfInt(40), t_grid=3))
    paths = emit_report(rep, out_path=tmp_path / "r.json", csv_dir=tmp_path)
    csv_path = [p for p in paths if p.suffix == ".csv"][0]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "l,family,sup_residual"
    # one row per (l, family): 4 spins x (8 gated + 8 measured) families
    assert len(lines) - 1 == 4 * 16
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"10", "20", "30", "40"}


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["run", "--suite", "koszul", "--n", "4", "--D", "8",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, load_schema())
    assert data["overall"] is True
    assert data["suite"] == "koszul"


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--suite", "rotation", "--q", "0.5"]) == 2
    assert main(["run", "--suite", "unknown", "--q", "0.5"]) == 2
    assert main(["run", "--suite", "relations"]) == 2          # missing q
    assert main(["run", "--suite", "relations", "--q", "0"]) == 2
    assert main(["run", "--suite", "relations", "--lmax", "x/3", "--q", "0.5"]) == 2
    assert main(["bogus"]) == 2
    assert main(["suites"]) == 0


@pytest.mark.parametrize("args, message", [
    pytest.param(["--suite", "relations", "--q", "0.5", "--tol-identity", "0"],
                 "tolerances must be positive", id="zero-tolerance"),
    pytest.param(["--suite", "relations", "--q", "0.5", "--lmax", "-3"],
                 "needs lmax >= 1", id="relations-lmax"),
    pytest.param(["--suite", "podles", "--q", "0.5", "--lmax", "2"],
                 "needs lmax >= 3", id="podles-lmax"),
    pytest.param(["--suite", "lemma3", "--q", "0.5", "--lmax", "1"],
                 "needs lmax >= 2", id="lemma3-lmax"),
    pytest.param(["--suite", "fredholm", "--q", "0.5", "--lmax", "7"],
                 "needs lmax >= 8", id="fredholm-lmax"),
    pytest.param(["--suite", "fredholm", "--q", "0.5", "--lmax", "15/2"],
                 "needs lmax >= 8", id="fredholm-halfint-lmax"),
    pytest.param(["--suite", "degenerate", "--q", "0.5", "--lmax", "0"],
                 "needs lmax >= 2", id="degenerate-lmax"),
    pytest.param(["--suite", "fusion", "--q", "1.0"], "|q| < 1", id="fusion-q"),
    pytest.param(["--suite", "foq", "--seed", "-1"], "seed must be >= 0", id="negative-seed"),
])
def test_cli_bad_parameters_are_usage_errors(args, message, capsys):
    assert main(["run"] + args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    pytest.param([1, 2], id="flat-list"),
    pytest.param({"a": 1}, id="object"),
    pytest.param([[[1, 0, 3], [0, 0]], [[0, 0], [1, 0]]], id="triple-entry"),
])
def test_cli_malformed_qmatrix_is_a_usage_error(content, tmp_path, capsys):
    # valid JSON, but not rows of [re, im] pairs
    path = tmp_path / "qmat.json"
    path.write_text(json.dumps(content))
    assert main(["run", "--suite", "foq", "--qmatrix", str(path)]) == 2
    assert "rows of [re, im] pairs" in capsys.readouterr().err


def test_cli_qmatrix_for_another_suite_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]))
    code = main(["run", "--suite", "relations", "--q", "0.5", "--lmax", "4",
                 "--qmatrix", str(path)])
    assert code == 2
    assert "'relations'" in capsys.readouterr().err


def test_cli_all_checks_qmatrix_before_any_part_runs(tmp_path, capsys, monkeypatch):
    import suq2kit.cli as cli

    started = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: started.append(cfg.suite))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]))
    code = main(["run", "--suite", "all", "--q", "-0.5", "--lmax", "20",
                 "--qmatrix", str(path)])
    assert code == 2
    assert started == []
    assert "rows of [re, im] pairs" in capsys.readouterr().err


def test_cli_halfint_lmax(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["run", "--suite", "lemma1", "--q", "-0.7", "--lmax", "21/2",
                 "--t-grid", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["parameters"]["lmax"] == "21/2"


def test_cli_foq_accepts_json_matrix(tmp_path):
    # the external wire format: rows of [re, im] pairs
    mat = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]  # antidiagonal, q = -1
    path = tmp_path / "qmat.json"
    path.write_text(json.dumps(mat))
    out = tmp_path / "rep.json"
    code = main(["run", "--suite", "foq", "--qmatrix", str(path), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["parameters"]["qmatrix_solved_q"] == pytest.approx(-1.0, abs=1e-12)
    assert data["parameters"]["qmatrix_sign"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    assert main(["run", "--suite", "foq", "--qmatrix", str(bad)]) == 2
    assert main(["run", "--suite", "foq", "--qmatrix", str(tmp_path / "none.json")]) == 2


def test_cli_verification_failure_exit_code(tmp_path, monkeypatch):
    # flipping the diagonal sign factor must break the lemma3 suite for q < 0
    import suq2kit.homotopy as ho
    monkeypatch.setattr(ho, "_endpoint_sign", lambda q: 1.0)
    code = main(["run", "--suite", "lemma3", "--q", "-0.5",
                 "--out", str(tmp_path / "rep.json")])
    assert code == 1


def _readme_run_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("suq2kit run ")]


def _readme_cases():
    cases = []
    for line in _readme_run_lines():
        args = shlex.split(line)
        marks = ()
        if "--suite lemma2 --q 0.9 --lmax 30" in line:
            # the final-entry sups decay like 0.9^l and reach tol_decay only
            # past spin 200, so this documented call fails its gates
            marks = pytest.mark.xfail(strict=True, reason="lemma2 at q = 0.9 needs "
                                      "spins beyond lmax 30 to reach tol_decay")
        cases.append(pytest.param(line, marks=marks, id=args[args.index("--suite") + 1]))
    return cases


def test_readme_lists_run_commands():
    assert len(_readme_run_lines()) >= 5


@pytest.mark.parametrize("line", _readme_cases())
def test_readme_command_line_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qmat.json").write_text(
        json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    assert main(shlex.split(line)[1:]) == 0
