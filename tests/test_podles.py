"""Sphere operator tables, relations, index data, commutator tails."""

import numpy as np
import pytest
import scipy.sparse as sp

from suq2kit.qarith import HalfInt
from suq2kit.peterweyl import (BandedOperator, bundle_space, full_space, generator_op,
                               operator_norm)
from suq2kit.podles import (FredholmModule, commutator_tail, commutator_tails,
                            fit_geometric, fredholm_index, index_pair_operator, podles_op,
                            sphere_relation_residuals)

from csr_export import csr

H = HalfInt
Q_GRID = (0.3, -0.3, 0.5, -0.5, 0.9, -0.9)


def test_a_diagonal_at_bottom():
    for q in (0.5, -0.8):
        a = podles_op("A", q, full_space(8))
        assert csr(a)[0, 0] == pytest.approx(1.0 / (1.0 + q * q), abs=1e-14)


def test_a_lowering_vanishes_at_bottom_of_bundle():
    # inside the winding-k bundle the lowering band dies at l = |k|/2
    for k in (2, -4):
        space = bundle_space(k, 16)
        a = podles_op("A", 0.7, space)
        l0 = abs(k)
        mat = csr(a)
        for pos in range(space.dim):
            if space.l2[pos] == l0:
                row = mat[:, pos].tocoo()
                assert all(space.l2[r] >= l0 for r in row.row)


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_tables_match_quadratic_words(q):
    space = full_space(30)  # lmax 15
    a_op = podles_op("A", q, space)
    b_op = podles_op("B", q, space)
    comp_a = generator_op("gamma*", q, space) @ generator_op("gamma", q, space)
    comp_b = generator_op("alpha*", q, space) @ generator_op("gamma", q, space)
    assert (a_op - comp_a).interior_residual_norm(2) < 1e-11
    assert (b_op - comp_b).interior_residual_norm(2) < 1e-11


@pytest.mark.parametrize("q", (0.5, -0.9))
def test_relation_checker(q):
    space = full_space(20)
    out = sphere_relation_residuals(podles_op("A", q, space), podles_op("B", q, space), q)
    assert len(out) == 4
    assert all(v < 1e-12 for v in out.values())


def test_a_table_symmetry_is_exact():
    a = podles_op("A", -0.6, full_space(16))
    assert operator_norm(csr(a) - csr(a).T) < 1e-14


# ---------------------------------------------------------------------------
# Fredholm data
# ---------------------------------------------------------------------------

def test_swap_is_selfadjoint_unitary():
    mod = FredholmModule.standard(0.5, 25)
    assert mod.unitary_defect() == 0.0


def test_index_values_all_truncations():
    for lmax in range(1, 13):
        mod = FredholmModule.standard(0.5, lmax)
        assert fredholm_index(mod.F) == 0
        assert fredholm_index(index_pair_operator(lmax)) == 1


def test_index_is_the_dimension_difference_without_linear_algebra(monkeypatch):
    # by rank-nullity dim ker - dim coker of a finite matrix is
    # dim domain - dim codomain, so no singular value is needed
    def no_svd(*args, **kwargs):
        raise AssertionError("the index took singular values")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for lmax in range(1, 13):
        swap = FredholmModule.standard(0.5, lmax).F
        corner = index_pair_operator(lmax)
        for op in (swap, corner, swap.adjoint(), corner.adjoint()):
            assert fredholm_index(op) == op.domain.dim - op.codomain.dim


def test_index_antisymmetric_under_adjoint():
    op = index_pair_operator(9)
    assert fredholm_index(op.adjoint()) == -1


def test_index_kernel_is_the_bottom_vector():
    op = index_pair_operator(6)
    dense = csr(op).toarray()
    _, svals, vt = np.linalg.svd(dense)
    null = vt[np.sum(svals > 1e-8):]
    assert null.shape[0] == 1
    # the kernel vector is supported on the single spin-zero position
    pos = int(np.argmax(np.abs(null[0])))
    assert op.domain.l2[pos] == 0
    assert abs(abs(null[0][pos]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# commutator tails
# ---------------------------------------------------------------------------

def test_tails_decrease_and_identity_commutes():
    mod = FredholmModule.standard(0.5, 25)
    tails = [commutator_tail(mod, "A", c) for c in (5, 10, 15)]
    assert tails[0] > tails[1] > tails[2]
    t_b = [commutator_tail(mod, "B", c) for c in (5, 10, 15)]
    assert t_b[0] > t_b[1] > t_b[2]
    # the unit acts by the identity on both sectors, which F intertwines
    one = (mod.F @ BandedOperator.identity(mod.plus_space)
           - BandedOperator.identity(mod.minus_space) @ mod.F)
    assert operator_norm(csr(one)) == 0.0
    with pytest.raises(ValueError):
        commutator_tail(mod, "B*", 5)


@pytest.mark.parametrize("q", (0.5, -0.5))
def test_tail_rate_matches_abs_q(q):
    # entries of the sector difference scale like |q|^(l + const), so the
    # fitted geometric rate per unit spin is |q| itself
    mod = FredholmModule.standard(q, 30)
    cutoffs = list(range(4, 24, 2))
    tails = [commutator_tail(mod, "A", c) for c in cutoffs]
    rate, r2 = fit_geometric(cutoffs, tails)
    assert r2 > 0.99
    assert rate == pytest.approx(abs(q), rel=0.08)


def test_fit_geometric_needs_points():
    with pytest.raises(ValueError):
        fit_geometric([1, 2], [1.0, 0.5])


# ---------------------------------------------------------------------------
# norms from direct-sum blocks against one dense SVD
# ---------------------------------------------------------------------------

def test_commutator_tail_past_the_old_dense_limit_is_the_dense_norm(monkeypatch):
    # at lmax 40 the bundles have dimension 1640, which used to go to ARPACK;
    # BandedOperator.norm hands its SVD path to peterweyl's operator_norm
    import suq2kit.peterweyl as pw

    seen = []

    def recording_norm(mat, exact_dim=1200, blocks=None):
        value = operator_norm(mat, exact_dim, blocks)
        vals, (rows, cols) = mat
        dense = np.zeros((rows.max() + 1, cols.max() + 1))
        dense[rows, cols] = vals
        seen.append((dense, value))
        return value

    monkeypatch.setattr(pw, "operator_norm", recording_norm)
    mod = FredholmModule.standard(-0.5, 40)
    assert mod.plus_space.dim == 1640
    for x in ("A", "B"):
        commutator_tail(mod, x, 15)
    assert len(seen) == 2
    for dense, value in seen:
        assert value == pytest.approx(np.linalg.norm(dense, 2), rel=1e-14, abs=0)


def test_podles_suite_builds_each_table_once(monkeypatch):
    from suq2kit.suites import SuiteConfig, run_suite

    calls = []
    build = BandedOperator.from_shift_rules.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[2])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(BandedOperator, "from_shift_rules", classmethod(counting))
    run_suite(SuiteConfig(suite="podles", q=-0.5, lmax=H(8)))
    # A, B, gamma, gamma*, alpha* on the full space, gamma* and gamma in
    # haar_state; the identity in the sphere relations needs no rules
    assert len(calls) == 7


def _sector_norm(mat, domain):
    # operator_norm with the weight sectors of the columns as blocks, the
    # stacked SVD that BandedOperator.norm hands over; without labels
    # operator_norm is one dense SVD
    coo = mat.tocoo()
    _, sectors = np.unique(np.column_stack((domain.i2, domain.j2))[coo.col], axis=0,
                           return_inverse=True)
    return operator_norm((coo.data, (coo.row, coo.col)), blocks=sectors)


def _tail_assembled_per_cutoff(mod, x, l_from):
    # every cutoff rebuilds the sector matrices and the commutator
    plus = csr(podles_op(x, mod.q, mod.plus_space))
    minus = csr(podles_op(x, mod.q, mod.minus_space))
    f = csr(mod.F)
    cols = sp.diags(mod.plus_space.tail_mask(l_from).astype(float))
    return _sector_norm((f @ plus - minus @ f) @ cols, mod.plus_space)


def test_commutator_tails_equal_one_tail_at_a_time():
    mod = FredholmModule.standard(-0.5, 20)
    cutoffs = [4, 9, 15, 4]
    for x in ("A", "B"):
        tails = commutator_tails(mod, x, cutoffs)
        assert tails == [_tail_assembled_per_cutoff(mod, x, c) for c in cutoffs]
        assert tails == [commutator_tail(mod, x, c) for c in cutoffs]
    assert commutator_tails(mod, "A", []) == []


def test_fredholm_suite_assembles_each_generator_once(monkeypatch):
    import suq2kit.podles as po
    from suq2kit.suites import SuiteConfig, run_suite

    calls = []
    build = BandedOperator.from_shift_rules.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[2])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(BandedOperator, "from_shift_rules", classmethod(counting))
    rep = run_suite(SuiteConfig(suite="fredholm", q=-0.5, lmax=H(60)))
    # A and B, each on the winding +1 and -1 bundles; 52 when every one of
    # the 26 tails assembled its own.  The 0/1 maps of the index checks are
    # assembled from shift rules too and are not counted here.
    assert sum(rules in po._SPHERE_RULES.values() for rules in calls) == 4
    monkeypatch.undo()

    mod = FredholmModule.standard(-0.5, 30)
    assert rep.decay == [(c, f"[F, {x}] tail", _tail_assembled_per_cutoff(mod, x, c))
                         for x in ("A", "B") for c in range(4, 27, 2)]
    measured = {c.name: c.value for c in rep.checks}
    for x in ("A", "B"):
        assert measured[f"measured: [F, {x}] tail at cutoff 15"] == \
            _tail_assembled_per_cutoff(mod, x, 15)


def test_fredholm_suite_asks_each_tail_once(monkeypatch):
    import suq2kit.podles as po
    from suq2kit.suites import SuiteConfig, run_suite

    asked = []
    tails = po.commutator_tails

    def recording(module, x, cutoffs):
        asked.append(list(cutoffs))
        return tails(module, x, cutoffs)

    monkeypatch.setattr(po, "commutator_tails", recording)
    # lmax 12 has no cutoff 15 and reports its last tail, at cutoff 8; lmax 20 adds 15
    for lmax2, wanted in ((24, [4, 6, 8]), (40, [4, 6, 8, 10, 12, 14, 16, 15])):
        asked.clear()
        rep = run_suite(SuiteConfig(suite="fredholm", q=-0.5, lmax=H(lmax2)))
        assert asked == [wanted, wanted]
        measured = {c.name: c.value for c in rep.checks}
        if lmax2 == 24:
            for x in ("A", "B"):
                last = [t for c, name, t in rep.decay if name == f"[F, {x}] tail"][-1]
                assert measured[f"measured: [F, {x}] tail at cutoff 8"] == last
