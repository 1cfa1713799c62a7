"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Criterion 6 is split: the index and monotonicity parts pass,
while the absolute tail threshold at |q| = 0.5 is recorded as a strict
expected failure because the sector difference provably decays like
|q|^cutoff (about 1.4e-5 at cutoff 15), which no implementation of the
printed tables can push below 1e-6; see the companion analysis note.
"""

import json
import time

import numpy as np
import pytest

from suq2kit import peterweyl as pw
from suq2kit import podles as po
from suq2kit import homotopy as ho
from suq2kit import kring as kr
from suq2kit import foq as fo
from suq2kit.cli import main
from suq2kit.report import load_schema
from suq2kit.suites import SuiteConfig, run_suite

from csr_export import csr

Q_GRID = (0.3, -0.3, 0.5, -0.5, 0.9, -0.9)


def _announce(num, text):
    print(f"\n[PASS] criterion {num:>2}: {text}")


def test_c01_defining_relations():
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        space = pw.full_space(40)  # lmax = 20
        al = pw.generator_op("alpha", q, space)
        als = pw.generator_op("alpha*", q, space)
        ga = pw.generator_op("gamma", q, space)
        gas = pw.generator_op("gamma*", q, space)
        one = pw.BandedOperator.identity(space)
        for op in (al @ ga - q * (ga @ al),
                   al @ gas - q * (gas @ al),
                   ga @ gas - gas @ ga,
                   als @ al + gas @ ga - one,
                   al @ als + q * q * (ga @ gas) - one):
            worst = max(worst, op.interior_residual_norm())
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    _announce(1, f"five defining relations, all q, lmax 20: worst residual "
                 f"{worst:.2e} in {elapsed:.1f}s")


def test_c02_sphere_relations_and_composites():
    worst_rel = worst_comp = 0.0
    for q in Q_GRID:
        space = pw.full_space(40)
        a_op = po.podles_op("A", q, space)
        b_op = po.podles_op("B", q, space)
        out = po.sphere_relation_residuals(a_op, b_op, q)
        worst_rel = max(worst_rel, max(out.values()))
        comp_a = pw.generator_op("gamma*", q, space) @ pw.generator_op("gamma", q, space)
        comp_b = pw.generator_op("alpha*", q, space) @ pw.generator_op("gamma", q, space)
        worst_comp = max(worst_comp,
                         (a_op - comp_a).interior_residual_norm(2),
                         (b_op - comp_b).interior_residual_norm(2))
    assert worst_rel < 1e-10
    assert worst_comp < 1e-10
    _announce(2, f"sphere relations {worst_rel:.2e}, table-vs-word agreement "
                 f"{worst_comp:.2e}")


def test_c03_adjoint_identities_and_homomorphism():
    worst_id = worst_rel = 0.0
    for q in Q_GRID:
        worst_id = max(worst_id, max(ho.verify_lemma1(q, 30, 11).values()))
        for t in np.linspace(0.0, 1.0, 11):
            om = ho.build_omega(q, [float(t)], 30)[0]
            worst_rel = max(worst_rel, max(pw.relation_residuals(om, q).values()))
    assert worst_id < 1e-11
    assert worst_rel < 1e-10
    _announce(3, f"six identity families {worst_id:.2e}, algebra relations "
                 f"of the interpolated action {worst_rel:.2e}")


def test_c04_uniform_decay():
    for q in (0.3, -0.3, 0.5, -0.5):
        table = ho.verify_lemma2(q, [10, 20, 30, 40], 11)
        for name, sups in table.items():
            decreasing, final_ok = ho.decay_verdict(sups, 1e-8)
            assert decreasing, (q, name, sups)
            assert final_ok, (q, name, sups)
    worst_r2 = 1.0
    for q in (0.9, -0.9):
        l_list = list(range(10, 61, 2))
        table = ho.verify_lemma2(q, l_list, 11)
        for name, sups in table.items():
            usable = [(l, s) for l, s in zip(l_list, sups) if s > 1e-13]
            assert len(usable) >= 3
            _, r2 = po.fit_geometric([u[0] for u in usable], [u[1] for u in usable])
            worst_r2 = min(worst_r2, r2)
    assert worst_r2 > 0.99
    _announce(4, f"eight families decay (final < 1e-8 at l=40 for |q|<=0.5); "
                 f"worst fit R^2 = {worst_r2:.4f} at |q| = 0.9")


def test_c05_endpoint_identities_with_negative_control():
    worst = 0.0
    for q in Q_GRID:
        worst = max(worst, max(ho.verify_lemma3(q, 30).values()))
    assert worst < 1e-12
    controls = []
    for q in (-0.3, -0.5, -0.9):
        controls.append(max(ho.verify_lemma3(q, 30, signed=False).values()))
    assert min(controls) > 1e-3  # the unsigned variant must fail
    _announce(5, f"six endpoint identities {worst:.2e}; unsigned control fails "
                 f"by {min(controls):.2e} for q < 0")


def test_c06_index_stability_and_tail_monotonicity():
    for lmax in range(1, 31):
        assert po.fredholm_index(po.FredholmModule.standard(0.5, lmax).F) == 0
        assert po.fredholm_index(po.index_pair_operator(lmax)) == 1
    tails_at_15 = {}
    for q in (0.3, -0.3, 0.5, -0.5):
        mod = po.FredholmModule.standard(q, 25)
        for x in ("A", "B"):
            tails = [po.commutator_tail(mod, x, c) for c in (5, 10, 15)]
            assert tails[0] > tails[1] > tails[2]
            tails_at_15[(q, x)] = tails[2]
    # the stated absolute threshold is attainable up to |q| ~ 0.4
    for q in (0.3, -0.3):
        assert tails_at_15[(q, "A")] < 1e-6
        assert tails_at_15[(q, "B")] < 1e-6
    _announce(6, "index 0 and 1 exact for every cutoff 1..30; tails decrease, "
                 f"tail(15) at |q|=0.3 down to {tails_at_15[(0.3, 'A')]:.1e}")


@pytest.mark.xfail(strict=True, reason=(
    "sector difference entries scale like (1-q) q^(l+i+j+1), so the tail norm "
    "is Theta(|q|^cutoff): about 1.4e-5 at cutoff 15 for |q| = 0.5, which can "
    "never reach the stated 1e-6; the geometric-rate bound c |q|^cutoff that "
    "the same criterion group asserts is what actually holds (see criterion 6)"))
def test_c06_tail_threshold_at_q_half():
    mod = po.FredholmModule.standard(0.5, 25)
    assert po.commutator_tail(mod, "A", 15) < 1e-6


def test_c07_rotation_homotopy():
    for q in (-0.3, -0.5, -0.9):
        out = ho.rotation_homotopy_check(q, t_grid_size=11, lmax=30, l_from=15)
        assert out["endpoint_t0_deviation"] == 0.0
        assert out["endpoint_t1_deviation"] == 0.0
        assert out["max_tail_excess"] <= 1e-10
        assert out["factorized_vs_assembled"] <= 1e-10
    _announce(7, "rotation endpoints exact and tail bound holds at every grid t "
                 "for q in {-0.3, -0.5, -0.9}")


def test_c08_resolution_and_k_groups():
    for n in range(2, 11):
        for d in range(1, 26):
            cert = kr.koszul_verify(n, d)
            assert cert["pass"], (n, d)
        assert cert["K0"] == {"rank": 1, "torsion": [], "generator": "[1]"}
        assert cert["K1"] == {"rank": 1, "torsion": [], "generator": "[u]"}
    _announce(8, "resolution exact (kernel 0, cokernel Z) for n in 2..10, "
                 "D <= 25; K-groups (Z [1], Z [u])")


def test_c09_fusion_ring():
    for k in range(11):
        for m in range(11):
            assert kr.fuse(k, m) == kr.fusion_closed_form(k, m)
    for n in (3, 4, 5):
        for k in range(11):
            for m in range(11):
                lhs = kr.dim_classical(n, k) * kr.dim_classical(n, m)
                rhs = sum(v * kr.dim_classical(n, j) for j, v in kr.fuse(k, m).items())
                assert lhs == rhs
    worst = 0.0
    for q in Q_GRID:
        for k in range(11):
            for m in range(11):
                lhs = kr.dim_quantum(q, k) * kr.dim_quantum(q, m)
                rhs = sum(v * kr.dim_quantum(q, j) for j, v in kr.fuse(k, m).items())
                # products reach ~1e9 at |q| = 0.3, so the tolerance is
                # relative to the magnitude
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10
    _announce(9, f"fusion exact for labels <= 10; quantum-dimension residual {worst:.2e}")


def test_c10_parameter_matrices():
    worst = 0.0
    for q in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
        worst = max(worst, abs(fo.solve_su2_parameter(fo.canonical_su2_qmatrix(q)) - q))
    assert worst < 1e-12
    q3 = fo.solve_su2_parameter(fo.validate_q(np.eye(3)))
    assert abs(q3 - (-(3 - 5 ** 0.5) / 2)) < 1e-12
    rng = np.random.default_rng(2024)
    mats = [fo.random_valid_qmatrix(rng) for _ in range(50)]
    for x in mats:
        assert fo.monoidally_equivalent(x, x)
    for x in mats[:16]:
        for y in mats[:16]:
            assert fo.monoidally_equivalent(x, y) == fo.monoidally_equivalent(y, x)
            for z in mats[:16]:
                if fo.monoidally_equivalent(x, y) and fo.monoidally_equivalent(y, z):
                    assert fo.monoidally_equivalent(x, z)
    _announce(10, f"round trip {worst:.1e}; 3x3 identity solves to {q3:.10f}; "
                  "equivalence relation on 50 random parameters")


def test_c11_haar_cross_validation():
    worst = 0.0
    for q in Q_GRID:
        via_orbit = complex(pw.haar_state(("gamma*", "gamma"), q))
        via_sphere = float(csr(po.podles_op("A", q, pw.full_space(4)))[0, 0])
        worst = max(worst, abs(via_orbit.real - via_sphere) + abs(via_orbit.imag))
        if q == 0.5:
            assert via_sphere == pytest.approx(0.8, abs=1e-14)
    assert worst < 1e-12
    _announce(11, f"Haar state and sphere diagonal agree to {worst:.2e} "
                  "(two independent formula routes)")


def test_c12_cli_end_to_end(tmp_path, monkeypatch):
    out = tmp_path / "all.json"
    code = main(["run", "--suite", "all", "--q", "-0.5", "--out", str(out),
                 "--csv", str(tmp_path)])
    assert code == 0
    data = json.loads(out.read_text())
    import jsonschema
    jsonschema.validate(data, load_schema())
    assert data["overall"] is True

    # mutation sanity: flipping the diagonal sign factor breaks lemma3
    import suq2kit.homotopy as homo
    monkeypatch.setattr(homo, "_endpoint_sign", lambda q: 1.0)
    code = main(["run", "--suite", "lemma3", "--q", "-0.5",
                 "--out", str(tmp_path / "mutated.json")])
    assert code == 1
    _announce(12, "full run exits 0 with a schema-valid report; sign-flip "
                  "mutation makes suite lemma3 exit 1")
