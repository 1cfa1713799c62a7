"""A NaN reaching a check fails it.

Python's max keeps its first argument unless another compares greater, so
max(0.0, nan) is 0.0: a worst-of folded with it reads a NaN residual as a
perfect pass.  Each test below injects NaN into one table or one measured
value and asserts that the fold, the norm or the suite reports NaN and that
the check it feeds fails.
"""

import math

import numpy as np
import pytest

import suq2kit.homotopy as ho
import suq2kit.podles as po
import suq2kit.suites as su
from suq2kit.peterweyl import block_norm, full_space, generator_op
from suq2kit.qarith import HalfInt
from suq2kit.suites import SuiteConfig, run_suite


def poisoned(fn):
    """fn with every value multiplied by NaN."""
    return lambda *args: math.nan * fn(*args)


def failed_nan_checks(report):
    return {c.name for c in report.checks if math.isnan(c.value) and not c.passed}


@pytest.mark.parametrize("q", (0.5, -0.5))
def test_lemma3_endpoint_fold_keeps_nan(monkeypatch, q):
    monkeypatch.setitem(ho._T_CORES, ("a", 1), poisoned(ho._T_CORES[("a", 1)]))
    assert math.isnan(ho.verify_lemma3(q, 6)["A_1(0,l,i) = a_1(1,l,i,j1)"])
    rep = run_suite(SuiteConfig(suite="lemma3", q=q, lmax=HalfInt(12)))
    bad = failed_nan_checks(rep)
    assert "A_1(0,l,i) = a_1(1,l,i,j1)" in bad
    if q < 0:
        assert "negative control: unsigned diagonal endpoint identity must fail" in bad
    assert not rep.overall


def test_degenerate_folds_keep_nan(monkeypatch):
    monkeypatch.setitem(ho._T_CORES, ("a", 1), poisoned(ho._T_CORES[("a", 1)]))
    out = ho.degenerate_module_check(0.5, 6)
    assert math.isnan(out["column_symmetry_residual"])
    assert math.isnan(out["endpoint_unsigned_residual"])
    rep = run_suite(SuiteConfig(suite="degenerate", q=0.5, lmax=HalfInt(12)))
    assert len(failed_nan_checks(rep)) == 2


def test_lemma1_folds_keep_nan(monkeypatch):
    monkeypatch.setitem(ho._RESC_CORES, ("A", 1), poisoned(ho._RESC_CORES[("A", 1)]))
    out = ho.verify_lemma1(0.5, 4, 3)
    assert math.isnan(out["A_1(l, i) = B_-1(l+1, i)"])
    assert not any(math.isnan(v) for name, v in out.items() if name.startswith("C"))
    rep = run_suite(SuiteConfig(suite="lemma1", q=0.5, lmax=HalfInt(8), t_grid=3))
    bad = failed_nan_checks(rep)
    assert "A_1(l, i) = B_-1(l+1, i)" in bad
    # omega_t(alpha) carries the NaN into every relation it enters
    assert "omega_t image: alpha* alpha + gamma* gamma = 1" in bad


def test_rotation_folds_keep_nan(monkeypatch):
    monkeypatch.setitem(ho._T_CORES, ("a", 0), poisoned(ho._T_CORES[("a", 0)]))
    out = ho.rotation_homotopy_check(-0.5, 3, 6, 3)
    for key in ("max_tail", "max_tail_excess", "factorized_vs_assembled",
                "endpoint_t0_deviation", "endpoint_t1_deviation"):
        assert math.isnan(out[key]), key
    rep = run_suite(SuiteConfig(suite="rotation", q=-0.5, lmax=HalfInt(12), t_grid=3))
    assert len(failed_nan_checks(rep)) == 4


def test_fredholm_uptick_keeps_nan(monkeypatch):
    tails = po.commutator_tails
    monkeypatch.setattr(po, "commutator_tails",
                        lambda *args: [math.nan if i == 2 else t
                                       for i, t in enumerate(tails(*args))])
    rep = run_suite(SuiteConfig(suite="fredholm", q=0.5, lmax=HalfInt(32)))
    assert {"[F, A] tails decrease monotonically",
            "[F, B] tails decrease monotonically"} <= failed_nan_checks(rep)


def test_fusion_fold_keeps_nan(monkeypatch):
    dim = su.kr.dim_quantum
    monkeypatch.setattr(su.kr, "dim_quantum", lambda q, k: math.nan if k == 7 else dim(q, k))
    rep = run_suite(SuiteConfig(suite="fusion", q=0.5))
    assert failed_nan_checks(rep) == {"quantum dimension is multiplicative (q = 0.5, relative)"}


@pytest.mark.parametrize("cols", (None, "kept", "dropped"))
def test_block_norm_of_a_nan_entry_is_nan(cols):
    op = generator_op("alpha", 0.5, full_space(4))
    pos = int(np.nonzero(op.diags[1])[0][3])
    op.diags[1][pos] = math.nan
    mask = None if cols is None else np.arange(op.domain.dim) != (pos if cols == "dropped"
                                                                 else -1)
    # the bound is NaN and returned before the SVD, which would raise
    # LinAlgError("SVD did not converge")
    assert math.isnan(block_norm([[op]], mask))
    assert math.isnan(block_norm([[op, op]], mask))
    assert math.isnan(op.norm(mask))
