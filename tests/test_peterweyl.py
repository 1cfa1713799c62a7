"""Regular representation tables, banded operators, Haar state."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from suq2kit.kring import dim_quantum
from suq2kit.qarith import HalfInt
from suq2kit.peterweyl import (_GEN_RULES, BandedOperator, TruncatedSpace, block_stack,
                               bundle_space, full_space, generator_op, haar_state,
                               operator_norm, reg_a_minus, reg_a_plus, reg_c_minus,
                               reg_c_plus, _masked_sqrt_ratio)
from suq2kit.suites import SuiteConfig, run_suite

from csr_export import csr

Q_GRID = (0.3, -0.3, 0.5, -0.5, 0.9, -0.9)
H = HalfInt


# ---------------------------------------------------------------------------
# spaces and indices
# ---------------------------------------------------------------------------

def test_bundle_dimension_counts():
    # winding 0 at integer cutoff L has (L+1)^2 vectors
    for L in (0, 1, 4, 9):
        assert bundle_space(0, 2 * L).dim == (L + 1) ** 2
    # winding 1: spins 1/2, 3/2, ..., each contributing 2l+1
    assert bundle_space(1, 5).dim == 2 + 4 + 6
    # the full space runs over all half-integer spins
    assert full_space(4).dim == 1 + 4 + 9 + 16 + 25


def test_winding_must_be_an_integer():
    # a float winding raises instead of truncating to the winding below it
    assert TruncatedSpace(4, k=np.int64(1)).k == 1
    with pytest.raises(TypeError):
        TruncatedSpace(4, k=1.7)
    with pytest.raises(TypeError):
        TruncatedSpace(4, k=1.0)


def test_space_locate_round_trip():
    for space in (full_space(6), bundle_space(-2, 10), bundle_space(1, 7)):
        assert (space.locate(space.l2, space.i2, space.j2) == np.arange(space.dim)).all()


def test_locate_rejects_foreign_indices():
    space = bundle_space(1, 7)
    assert space.locate(np.array([4]), np.array([0]), np.array([-1]))[0] == -1
    assert space.locate([1], [1], [-1])[0] == -1  # wrong bundle


def test_shifted_positions_are_the_located_ones():
    # one gather from the padded grid between a full space and itself or
    # between bundles at one lmax, locate otherwise; the same integers
    spaces = (full_space(7), full_space(8), bundle_space(-2, 8), bundle_space(-1, 8),
              bundle_space(0, 8), bundle_space(0, 6))
    steps = (-5, -2, -1, 0, 1, 4)  # 4 is the grid's padding
    for target, source in itertools.product(spaces, repeat=2):
        for shift in itertools.product(steps, repeat=3):
            dl2, di2, dj2 = shift
            want = target.locate(source.l2 + dl2, source.i2 + di2, source.j2 + dj2)
            assert (target.shifted(source, shift) == want).all(), (target, source, shift)


def test_operator_suites_find_every_target_on_the_grid(monkeypatch):
    # the generator, sphere and coefficient tables on bundles and the bundle
    # identifications all shift within one grid
    def no_locate(*args):
        raise AssertionError("a target was located")

    monkeypatch.setattr(TruncatedSpace, "locate", no_locate)
    for suite, q in (("relations", 0.9), ("podles", 0.9), ("lemma1", 0.9),
                     ("fredholm", -0.5), ("rotation", -0.5)):
        assert run_suite(SuiteConfig(suite=suite, q=q, lmax=H(16))).checks


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def test_coeff_reg_frozen_values():
    q = 0.5
    assert float(reg_a_plus(q, 0, 0, 0)) == pytest.approx(q / (1 + q * q) ** 0.5, abs=1e-12)
    assert float(reg_c_plus(q, 0, 0, 0)) == pytest.approx(-1 / (1 + q * q) ** 0.5, abs=1e-12)


def test_coeff_reg_boundary_vanishing():
    for q in Q_GRID:
        for l2 in (1, 2, 5):
            for j2 in range(-l2, l2 + 1, 2):
                assert float(reg_a_minus(q, l2, -l2, j2)) == 0.0
                assert float(reg_c_minus(q, l2, l2, j2)) == 0.0
                assert float(reg_a_minus(q, l2, j2, -l2)) == 0.0
                assert float(reg_c_minus(q, l2, j2, -l2)) == 0.0


def test_table_radicands_are_guarded():
    # 1 - 0.5^-2 = -3 is a genuinely negative radicand: a formula bug
    with pytest.raises(ValueError):
        _masked_sqrt_ratio(0.5, (-2,), (), True)
    assert _masked_sqrt_ratio(0.5, (-2,), (), False) == 0.0
    # 1 - q^-1 rounds to -2^-52 just below q = 1: rounding residue, clamped
    assert _masked_sqrt_ratio(1.0 - 2.0**-53, (-1,), (), True) == 0.0


# ---------------------------------------------------------------------------
# generator operators
# ---------------------------------------------------------------------------

def test_gamma_on_cyclic_vector():
    q = 0.5
    space = full_space(4)
    vec = np.zeros(space.dim)
    vec[0] = 1.0
    out = csr(generator_op("gamma", q, space)) @ vec
    pos = space.locate([1], [1], [-1])[0]
    assert out[pos] == pytest.approx(-0.894427190999916, abs=1e-12)
    assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("q", Q_GRID)
def test_defining_relations_on_interior(q):
    space = full_space(12)
    al = generator_op("alpha", q, space)
    als = generator_op("alpha*", q, space)
    ga = generator_op("gamma", q, space)
    gas = generator_op("gamma*", q, space)
    one = BandedOperator.identity(space)
    residuals = [
        (al @ ga - q * (ga @ al)).interior_residual_norm(),
        (al @ gas - q * (gas @ al)).interior_residual_norm(),
        (ga @ gas - gas @ ga).interior_residual_norm(),
        (als @ al + gas @ ga - one).interior_residual_norm(),
        (al @ als + q * q * (ga @ gas) - one).interior_residual_norm(),
    ]
    assert max(residuals) < 1e-10


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_adjoint_tables_are_transposes(q):
    # the shifted-argument adjoint tables against the plain ones
    space = full_space(10)
    for x, xs in (("alpha", "alpha*"), ("gamma", "gamma*")):
        direct = csr(generator_op(x, q, space))
        star = csr(generator_op(xs, q, space))
        assert operator_norm(star - direct.T) < 1e-12


def shift_set(op):
    """Set of (dl2, di2, dj2) shifts present in the stored entries of op."""
    coo = csr(op).tocoo()
    out = set()
    d, c = op.codomain, op.domain
    for r, s in zip(coo.row, coo.col):
        out.add((int(d.l2[r] - c.l2[s]), int(d.i2[r] - c.i2[s]), int(d.j2[r] - c.j2[s])))
    return out


def test_comodule_grading_is_structural():
    # alpha and gamma lower the column weight, adjoints raise it
    space = full_space(6)
    for gen, dj2 in (("alpha", -1), ("gamma", -1), ("alpha*", 1), ("gamma*", 1)):
        shifts = shift_set(generator_op(gen, 0.5, space))
        assert shifts and all(s[2] == dj2 for s in shifts)
    # between bundles the codomain winding moves accordingly
    dom = bundle_space(1, 9)
    op = generator_op("gamma", -0.5, dom)
    assert op.codomain.k == 0


def test_sums_need_the_same_spaces_and_weight_shift():
    from suq2kit.podles import podles_op

    # the bundles +1 and -1 have the same dimension, 110, at this cutoff
    plus = podles_op("A", 0.5, bundle_space(1, 20))
    minus = podles_op("A", 0.5, bundle_space(-1, 20))
    assert plus.domain.dim == minus.domain.dim == 110
    space = full_space(6)
    alpha = generator_op("alpha", 0.5, space)
    wider = BandedOperator.from_shift_rules(space, full_space(8), _GEN_RULES["alpha"], 1, q=0.5)
    for x, y in ((plus, minus), (minus, plus), (alpha, wider),
                 (alpha, generator_op("gamma", 0.5, space)),
                 (alpha, BandedOperator.identity(space))):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y
    assert (plus - plus).domain == plus.domain
    with pytest.raises(ValueError, match="one weight shift"):
        BandedOperator.from_shift_rules(space, space, _GEN_RULES["alpha"] + _GEN_RULES["gamma"],
                                        1, q=0.5)


def test_banded_margin_and_truncation_exactness():
    space = full_space(8)
    op = generator_op("alpha", 0.5, space)
    assert op.interior_margin == H(1)
    comp = op @ op
    assert comp.interior_margin == H(2)


# ---------------------------------------------------------------------------
# operator norms from direct-sum blocks
# ---------------------------------------------------------------------------

def _dense_norm(mat):
    return np.linalg.norm(mat.toarray(), 2)


def _random_homogeneous(domain, codomain, di2, dj2, seed):
    # random coefficients on a fixed weight shift: a direct sum over sectors
    rng = np.random.default_rng(seed)
    rules = tuple(((dl2, di2, dj2), lambda q, l2, i2, j2: rng.normal(size=l2.shape))
                  for dl2 in (-2, 0, 2))
    return BandedOperator.from_shift_rules(domain, codomain, rules, 1, q=0.5)


def _sector_labels(space, index):
    # one label per weight sector (i2, j2) of the basis vectors at index
    weights = np.column_stack((space.i2, space.j2))[index]
    return np.unique(weights, axis=0, return_inverse=True)[1]


@pytest.mark.parametrize("seed", range(4))
def test_operator_norm_of_homogeneous_matrices_is_the_dense_norm(seed):
    square = _random_homogeneous(full_space(12), full_space(12), 2, 0, seed)
    wide = _random_homogeneous(bundle_space(2, 14), bundle_space(0, 14), -2, -2, seed)
    # each case with the space its columns index; a column's weight sector is its block
    for mat, columns in ((csr(square), square.domain), (csr(wide), wide.domain),
                         (csr(wide).T, wide.codomain)):
        mat = mat.tocoo()
        assert mat.shape[0] != mat.shape[1] or columns.full
        pair, blocks = (mat.data, (mat.row, mat.col)), _sector_labels(columns, mat.col)
        assert len(block_stack(pair, blocks)[1]) > 1
        assert operator_norm(pair, blocks=blocks) == pytest.approx(_dense_norm(mat),
                                                                    rel=1e-14, abs=0)


def test_operator_norm_with_empty_rows_and_columns():
    rng = np.random.default_rng(5)
    mat = sp.random(40, 30, density=0.05, random_state=rng, format="lil")
    mat[3, :] = 0.0
    mat[:, 7] = 0.0
    mat = mat.tocsr()
    assert operator_norm(mat) == pytest.approx(_dense_norm(mat), rel=1e-14, abs=0)


def test_operator_norm_of_one_dense_component():
    dense = np.random.default_rng(6).normal(size=(20, 15))
    mat = sp.coo_matrix(dense)
    one = np.zeros(mat.nnz, dtype=int)
    stack, shapes = block_stack((mat.data, (mat.row, mat.col)), one)
    assert stack.shape == (1, 20, 15) and shapes.tolist() == [[20, 15]]
    assert operator_norm(mat) == pytest.approx(_dense_norm(mat), rel=1e-14, abs=0)
    # a wide block is stored tall
    assert block_stack((mat.data, (mat.col, mat.row)), one)[0].shape == (1, 20, 15)


def test_operator_norm_skips_stored_zeros_and_leaves_the_matrix():
    # the stored zero at (0, 2) would join the two diagonal blocks
    data = np.array([3.0, 0.0, 1.0, 2.0, -1.0])
    indices = np.array([0, 2, 1, 2, 1])
    indptr = np.array([0, 2, 3, 5])
    mat = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    before = (mat.data.copy(), mat.indices.copy(), mat.indptr.copy())
    assert mat.nnz == 5
    # labelled with the block of its column, the stored zero's row 0 lies in
    # the other block; skipped, it joins nothing
    coo = mat.tocoo()
    labels = (coo.col > 0).astype(int)
    assert block_stack((coo.data, (coo.row, coo.col)), labels)[1].tolist() == [[1, 1], [2, 2]]
    assert operator_norm(mat) == pytest.approx(_dense_norm(mat), rel=1e-14, abs=0)
    assert mat.nnz == 5
    for now, then in zip((mat.data, mat.indices, mat.indptr), before):
        assert (now == then).all()


def test_operator_norm_of_stored_zeros_takes_the_zero_path(monkeypatch):
    # only explicit zeros stored: the norm is 0 without the stacked SVD
    import suq2kit.peterweyl as pw

    def no_svd(*args, **kwargs):
        raise AssertionError("the all-zero matrix went through the stacked SVD")

    mat = sp.csr_matrix((np.zeros(3), np.array([0, 2, 1]), np.array([0, 2, 2, 3])),
                        shape=(3, 3))
    assert mat.nnz == 3
    monkeypatch.setattr(pw, "block_stack", no_svd)
    monkeypatch.setattr(pw.np.linalg, "svd", no_svd)
    assert operator_norm(mat) == 0.0


def test_identification_is_the_spin_preserving_zero_one_map():
    for dom, cod in ((bundle_space(1, 9), bundle_space(-1, 9)),
                     (bundle_space(0, 8), bundle_space(-2, 8)),
                     (full_space(6), full_space(6))):
        mat = csr(BandedOperator.identification(dom, cod))
        rows = cod.locate(dom.l2, dom.i2, dom.j2 + cod.k - dom.k)
        keep = rows >= 0
        expected = np.zeros((cod.dim, dom.dim))
        expected[rows[keep], np.nonzero(keep)[0]] = 1.0
        assert mat.has_canonical_format and (mat.data == 1.0).all()
        assert (mat.toarray() == expected).all()
    space = full_space(6)
    assert (csr(BandedOperator.identity(space)).toarray() == np.eye(space.dim)).all()


def test_operator_norm_rejects_a_block_above_exact_dim():
    block = sp.csr_matrix(np.arange(1.0, 10.0).reshape(3, 3))
    mat = sp.block_diag([block, sp.identity(2)]).tocoo()
    pair, labels = (mat.data, (mat.row, mat.col)), (mat.row >= 3).astype(int)
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        operator_norm(pair, exact_dim=2, blocks=labels)
    assert operator_norm(pair, exact_dim=3, blocks=labels) == pytest.approx(_dense_norm(mat),
                                                                            rel=1e-14)
    # without labels the whole matrix is one block
    with pytest.raises(ValueError, match=r"\(5, 5\)"):
        operator_norm(mat, exact_dim=4)


# ---------------------------------------------------------------------------
# Haar state
# ---------------------------------------------------------------------------

def test_haar_state_frozen_values():
    q = 0.5
    assert haar_state((), q) == 1.0
    assert haar_state(("alpha",), q) == 0.0
    assert complex(haar_state(("gamma*", "gamma"), q)).real == pytest.approx(0.8, abs=1e-14)


def _positivity_words():
    rng = np.random.default_rng(11)
    gens = ("alpha", "alpha*", "gamma", "gamma*")
    star = {"alpha": "alpha*", "alpha*": "alpha", "gamma": "gamma*", "gamma*": "gamma"}
    for q in (0.5, -0.9):
        for _ in range(25):
            word = tuple(rng.choice(gens) for _ in range(rng.integers(1, 5)))
            adjoint = tuple(star[g] for g in reversed(word))
            yield q, adjoint + word


def test_haar_state_positivity_on_random_words():
    for q, word in _positivity_words():
        value = complex(haar_state(word, q))
        assert value.imag == pytest.approx(0.0, abs=1e-13)
        assert value.real >= -1e-13


def test_haar_state_cutoff_is_exact():
    # a larger cutoff adds nothing: the orbit of a length-n word stays at spin <= n/2
    for q, word in _positivity_words():
        space = full_space(len(word) + 2)
        vec = np.zeros(space.dim)
        vec[0] = 1.0
        for g in reversed(word):
            vec = csr(generator_op(g, q, space)) @ vec
        assert haar_state(word, q) == vec[0]


def test_haar_state_guards():
    with pytest.raises(ValueError):
        haar_state(("beta",), 0.5)


def test_operator_applies_to_a_vector_as_its_matrix():
    rng = np.random.default_rng(12)
    full, plus = full_space(8), bundle_space(1, 9)
    ops = [generator_op(g, -0.7, space) for g in ("alpha", "gamma*") for space in (full, plus)]
    ops.append(ops[0].adjoint() @ ops[0] - 0.3 * BandedOperator.identity(full))
    for op in ops:
        vec = rng.normal(size=op.domain.dim)
        assert ((op @ vec) == csr(op) @ vec).all()
    with pytest.raises(ValueError, match="domain"):
        ops[0] @ np.zeros(full.dim + 1)


# ---------------------------------------------------------------------------
# quantum dimension
# ---------------------------------------------------------------------------

def test_quantum_dimension_values():
    # [2l+1] of the spin-l irreducible is dim_quantum at label 2l
    assert dim_quantum(0.5, 0) == 1.0
    assert dim_quantum(0.5, 1) == pytest.approx(2.5, abs=1e-14)
    assert dim_quantum(0.5, 2) == pytest.approx(5.25, abs=1e-14)
    with pytest.raises(ValueError):
        dim_quantum(0.5, -1)
