"""The spin-diagonal operator algebra against a scipy sparse oracle.

The oracle assembles the CSR matrix of each table from its shift rules by
COO, locating every target with ``TruncatedSpace.locate``, and carries out
sums, scaling, products and transposes in scipy.  Sums, scaling, adjoints
and the 0/1 maps must match it exactly, products to 2 ulp per entry.
``BandedOperator.norm`` must equal ``operator_norm`` of the exported matrix,
with the weight sectors of its columns as blocks, on its zero and SVD
paths, and one dense SVD on the SVD path; on its bound path it must equal
sqrt(norm_1 * norm_inf) of the exported matrix, which bounds the dense SVD.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from suq2kit.peterweyl import (_GEN_RULES, BandedOperator, block_stack, bundle_space,
                               full_space, generator_op, operator_norm)
from suq2kit.podles import _SPHERE_RULES, FredholmModule, podles_op
from suq2kit.qarith import HalfInt

from csr_export import csr

Q = (0.5, -0.9)


def oracle(domain, codomain, rules, q):
    """CSR matrix of the rules, assembled by COO from located targets."""
    l2, i2, j2 = domain.l2, domain.i2, domain.j2
    rows, cols, vals = [], [], []
    for (dl2, di2, dj2), fn in rules:
        coeff = np.broadcast_to(np.asarray(fn(q, l2, i2, j2), dtype=float), l2.shape)
        tgt = codomain.locate(l2 + dl2, i2 + di2, j2 + dj2)
        keep = (tgt >= 0) & (coeff != 0.0)
        rows.append(tgt[keep])
        cols.append(np.nonzero(keep)[0])
        vals.append(coeff[keep])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(codomain.dim, domain.dim)).tocsr()


def gen(name, q, space):
    """A generator and its oracle on a full space or a bundle."""
    op = generator_op(name, q, space)
    return op, oracle(space, op.codomain, _GEN_RULES[name], q)


def sphere(name, q, space):
    return podles_op(name, q, space), oracle(space, space, _SPHERE_RULES[name], q)


def assert_exact(op, mat):
    assert op.shape == mat.shape
    assert (csr(op) != mat).nnz == 0


def assert_within_2ulp(op, mat):
    got, want = csr(op).toarray(), mat.toarray()
    assert got.shape == want.shape
    scale = np.maximum(np.abs(got), np.abs(want))
    assert (np.abs(got - want) <= 2 * np.spacing(scale)).all()


def full_pairs(q, lmax2):
    space = full_space(lmax2)
    pairs = {g: gen(g, q, space) for g in ("alpha", "alpha*", "gamma", "gamma*")}
    pairs.update({x: sphere(x, q, space) for x in ("A", "B")})
    return space, pairs


# ---------------------------------------------------------------------------
# assembly, the 0/1 maps, sums, scaling and adjoints: exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", Q)
@pytest.mark.parametrize("lmax2", (1, 4, 8))
def test_tables_sums_scaling_and_adjoints_match_the_oracle_exactly(q, lmax2):
    space, pairs = full_pairs(q, lmax2)
    for op, mat in pairs.values():
        assert_exact(op, mat)
        assert_exact(op.adjoint(), mat.T.tocsr())
        assert_exact(op.adjoint().adjoint(), mat)
        assert_exact(q * op, q * mat)
    (al, m_al), (ga, m_ga) = pairs["alpha"], pairs["gamma"]
    (a, m_a), (b, m_b) = pairs["A"], pairs["B"]
    one = BandedOperator.identity(space)
    assert_exact(one, sp.identity(space.dim, format="csr"))
    assert_exact(a + one, m_a + sp.identity(space.dim))
    assert_exact(one - q * a, sp.identity(space.dim) - q * m_a)
    assert_exact(b - b, m_b - m_b)
    assert_exact(pairs["alpha*"][0] - al.adjoint(), pairs["alpha*"][1] - m_al.T)
    assert_exact(ga.adjoint() + pairs["gamma*"][0], m_ga.T + pairs["gamma*"][1])


@pytest.mark.parametrize("q", Q)
def test_bundle_tables_and_identifications_match_the_oracle_exactly(q):
    for k, lmax2 in ((0, 8), (1, 7), (-1, 7), (-2, 8), (2, 6)):
        space = bundle_space(k, lmax2)
        for name in ("alpha", "alpha*", "gamma", "gamma*"):
            op, mat = gen(name, q, space)
            assert_exact(op, mat)
            assert_exact(op.adjoint(), mat.T.tocsr())
            assert_exact(-2.5 * op, -2.5 * mat)
        for name in ("A", "B"):
            assert_exact(*sphere(name, q, space))
    for dom, cod in ((bundle_space(1, 9), bundle_space(-1, 9)),
                     (bundle_space(0, 8), bundle_space(-2, 8)),
                     (bundle_space(-2, 8), bundle_space(0, 8)),
                     (full_space(6), full_space(6))):
        rule = ((0, 0, cod.k - dom.k), lambda q, l2, i2, j2: np.ones(l2.shape))
        ident = BandedOperator.identification(dom, cod)
        assert_exact(ident, oracle(dom, cod, (rule,), None))
        assert_exact(ident.adjoint(), oracle(dom, cod, (rule,), None).T.tocsr())


# ---------------------------------------------------------------------------
# products: to 2 ulp per entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", Q)
@pytest.mark.parametrize("lmax2", (2, 5, 8))
def test_products_on_a_full_space_match_the_oracle(q, lmax2):
    _, pairs = full_pairs(q, lmax2)
    names = list(pairs)
    for x in names:
        for y in names:
            (op_x, m_x), (op_y, m_y) = pairs[x], pairs[y]
            assert_within_2ulp(op_x @ op_y, m_x @ m_y)
    (a, m_a), (b, m_b) = pairs["A"], pairs["B"]
    (al, m_al), (ga, m_ga) = pairs["alpha"], pairs["gamma"]
    left, right = (al @ ga) @ b, ga @ (al @ b)
    assert_within_2ulp(left, (m_al @ m_ga) @ m_b)
    assert_within_2ulp(right, m_ga @ (m_al @ m_b))
    assert_within_2ulp(b @ b.adjoint(), m_b @ m_b.T)
    # a residual cancels to rounding level, where 2 ulp of the products is
    # no bound on the difference; given the products, the difference is exact
    assert_exact(left - q * right, csr(left) - q * csr(right))


@pytest.mark.parametrize("q", Q)
def test_products_truncate_where_the_intermediate_vector_is_absent(q):
    # at the top spin, alpha* alpha loses the path through spin lmax + 1/2;
    # the truncated product is not the restriction of a larger one, and both
    # the diagonals and the oracle drop exactly that path
    small, big = full_space(6), full_space(8)
    prod = generator_op("alpha*", q, small) @ generator_op("alpha", q, small)
    m_al = oracle(small, small, _GEN_RULES["alpha"], q)
    m_als = oracle(small, small, _GEN_RULES["alpha*"], q)
    assert_within_2ulp(prod, m_als @ m_al)
    wide = csr(generator_op("alpha*", q, big) @ generator_op("alpha", q, big))
    pos = big.locate(small.l2, small.i2, small.j2)
    restricted = wide[pos][:, pos].toarray()
    top = small.l2 == small.lmax.twice
    assert not np.allclose(csr(prod).toarray()[:, top], restricted[:, top])
    assert np.array_equal(csr(prod).toarray()[:, ~top][~top], restricted[:, ~top][~top])


@pytest.mark.parametrize("q", Q)
def test_cross_space_chains_match_the_oracle(q):
    lmax2 = 9
    mod = FredholmModule.standard(q, HalfInt(lmax2))
    plus, minus = mod.plus_space, mod.minus_space
    rule = ((0, 0, -2), lambda q, l2, i2, j2: np.ones(l2.shape))
    m_f = oracle(plus, minus, (rule,), None)
    for x in ("A", "B"):
        a_plus, m_plus = sphere(x, q, plus)
        a_minus, m_minus = sphere(x, q, minus)
        assert_within_2ulp(mod.F @ a_plus, m_f @ m_plus)
        assert_within_2ulp(a_minus @ mod.F, m_minus @ m_f)
        assert_within_2ulp(mod.F @ a_plus - a_minus @ mod.F, m_f @ m_plus - m_minus @ m_f)
        assert_within_2ulp(mod.F.adjoint() @ a_minus @ mod.F, m_f.T @ m_minus @ m_f)
    # bundle to bundle: winding 1 -> 0 -> -1 -> 0, and back up with the adjoints
    ga, m_ga = gen("gamma", q, bundle_space(1, lmax2))
    al, m_al = gen("alpha", q, bundle_space(0, lmax2))
    gas, m_gas = gen("gamma*", q, bundle_space(-1, lmax2))
    assert_within_2ulp(al @ ga, m_al @ m_ga)
    assert_within_2ulp(gas @ al @ ga, m_gas @ m_al @ m_ga)
    assert_within_2ulp(ga.adjoint() @ gas @ al, m_ga.T @ m_gas @ m_al)
    corner = BandedOperator.identification(bundle_space(0, lmax2), bundle_space(-2, lmax2))
    m_corner = oracle(bundle_space(0, lmax2), bundle_space(-2, lmax2),
                      (((0, 0, -2), lambda q, l2, i2, j2: np.ones(l2.shape)),), None)
    sa, m_sa = sphere("A", q, bundle_space(0, lmax2))
    assert_within_2ulp(corner @ sa, m_corner @ m_sa)
    assert_within_2ulp(corner.adjoint() @ corner @ sa, m_corner.T @ m_corner @ m_sa)


# ---------------------------------------------------------------------------
# norms: the diagonals' zero case and bound against operator_norm
# ---------------------------------------------------------------------------

def sector_norm(op, cols=None):
    """operator_norm of the exported columns, with the weight sector of each
    column as its block; without labels operator_norm is one dense SVD."""
    mat = csr(op, cols).tocoo()
    src = np.arange(op.domain.dim) if cols is None else np.nonzero(cols)[0]
    weights = np.column_stack((op.domain.i2, op.domain.j2))[src[mat.col]]
    _, sectors = np.unique(weights, axis=0, return_inverse=True)
    return operator_norm((mat.data, (mat.row, mat.col)), blocks=sectors)


def assert_norms_agree(op, cols=None):
    value = op.norm(cols)
    assert value == pytest.approx(sector_norm(op, cols), rel=1e-15, abs=0)
    return value


def assert_bound_agrees(op, cols):
    """On the bound path the norm is sqrt(norm_1 * norm_inf) of the exported
    columns, and the dense SVD does not exceed it."""
    value = op.norm(cols)
    mat = abs(csr(op, cols))
    bound = np.sqrt(mat.sum(axis=0).max() * mat.sum(axis=1).max())
    assert value == pytest.approx(bound, rel=1e-15, abs=0)
    assert dense_norm(mat) <= value
    return value


@pytest.mark.parametrize("q", Q)
def test_norm_equals_operator_norm_on_each_path(q):
    space, pairs = full_pairs(q, 8)
    (al, _), (als, _) = pairs["alpha"], pairs["alpha*"]
    (ga, _), (gas, _) = pairs["gamma"], pairs["gamma*"]
    (a, _), (b, _) = pairs["A"], pairs["B"]
    one = BandedOperator.identity(space)
    interior = space.interior_mask(HalfInt(2))
    # zero path
    assert assert_norms_agree(one - one) == 0.0
    assert assert_norms_agree(als - al.adjoint()) == 0.0
    assert assert_norms_agree(a, np.zeros(space.dim, dtype=bool)) == 0.0
    mod = FredholmModule.standard(q, 8)
    one_plus = BandedOperator.identity(mod.plus_space)
    assert assert_norms_agree(mod.F.adjoint() @ mod.F - one_plus) == 0.0
    # bound path: relation residuals at rounding level on the interior
    bounded = [assert_bound_agrees(al @ ga - q * (ga @ al), interior),
               assert_bound_agrees(als @ al + gas @ ga - one, interior),
               assert_bound_agrees(a @ b - q**2 * (b @ a), interior),
               assert_bound_agrees(b.adjoint() @ b - a @ (one - q**2 * a), interior)]
    assert all(0.0 < v < 1e-13 for v in bounded)
    # stacked SVD path, whole and restricted to columns
    for op in (al, gas, a, b, al @ ga, b @ b.adjoint(), als @ al + gas @ ga - one):
        assert assert_norms_agree(op) > 1e-13
        assert assert_norms_agree(op, space.tail_mask(HalfInt(2))) > 1e-13
    tail = mod.F @ podles_op("A", q, mod.plus_space) - podles_op("A", q, mod.minus_space) @ mod.F
    assert assert_norms_agree(tail, mod.plus_space.tail_mask(2)) > 1e-13


def test_norm_hands_only_the_svd_path_to_operator_norm(monkeypatch):
    import suq2kit.peterweyl as pw

    handed = []

    def recording(mat, exact_dim=1200, blocks=None):
        handed.append(mat)
        return operator_norm(mat, exact_dim, blocks)

    monkeypatch.setattr(pw, "operator_norm", recording)
    space = full_space(6)
    al = generator_op("alpha", 0.5, space)
    one = BandedOperator.identity(space)
    assert (one - one).norm() == 0.0
    assert (al.adjoint() @ al - al.adjoint() @ al).norm() == 0.0
    assert handed == []
    assert al.norm() > 0.5
    assert al.norm(space.tail_mask(2)) > 0.5
    # the two pairs handed over are the whole matrix and its tail columns
    assert len(handed) == 2
    for (vals, (rows, cols)), mat in zip(handed, (csr(al), csr(al, space.tail_mask(2)))):
        dense = np.zeros(mat.shape)
        dense[rows, cols] = vals
        assert (dense == mat.toarray()).all()


# ---------------------------------------------------------------------------
# the sector-labelled stack against one dense SVD
# ---------------------------------------------------------------------------

def dense_norm(mat):
    return np.linalg.svd(mat.toarray(), compute_uv=False)[0]


@pytest.mark.parametrize("q", Q)
def test_sector_stack_norms_are_the_dense_norms(q):
    full = full_space(10)
    mod = FredholmModule.standard(q, 10)
    al, gas = generator_op("alpha", q, full), generator_op("gamma*", q, full)
    a, b = podles_op("A", q, full), podles_op("B", q, full)
    tail = mod.F @ podles_op("B", q, mod.plus_space) - podles_op("B", q, mod.minus_space) @ mod.F
    ops = (al, gas @ al, a, b @ b.adjoint(), generator_op("gamma", q, mod.plus_space),
           podles_op("A", q, mod.minus_space), tail)
    for op in ops:
        for cols in (None, op.domain.tail_mask(3)):
            mat = csr(op, cols)
            # several weight sectors, each a block of the stack
            pair, sectors = op.entries(cols)
            assert len(block_stack(pair, sectors)[1]) > 1
            value = op.norm(cols)
            assert value > 1e-13
            assert value == pytest.approx(dense_norm(mat), rel=1e-14, abs=0)
            # a scipy matrix without labels is one block: the dense SVD
            assert operator_norm(mat) == pytest.approx(dense_norm(mat), rel=1e-14, abs=0)
