"""The gather forms of the operator layer against their scatter forms in
``scatter_oracle``, bit for bit: the adjoint, the image of a vector and the
norm bound's row sums, on random weight-homogeneous operators between full
spaces and between line bundles, on the identification that annihilates
e^(0)_{0,0}, on grids of several blocks, and with a NaN entry in a column
the mask drops."""

import math

import numpy as np
import pytest

from suq2kit.peterweyl import (BandedOperator, _norm_bound, block_norm, bundle_space,
                               full_space)
from suq2kit.qarith import HalfInt

import scatter_oracle as oracle


def bits(x):
    """The bytes of x as an array, so that equality is bit for bit (0.0 and
    -0.0 differ, and so do NaNs of another payload)."""
    x = np.ascontiguousarray(x)
    return x.dtype, x.shape, x.tobytes()


def assert_same_diags(got: dict, want: dict):
    assert list(got) == sorted(want)
    for d in want:
        assert np.array_equal(got[d], want[d]), d
        assert bits(got[d]) == bits(want[d]), d


def assert_same_bound(got: float, want: float):
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert bits(np.float64(got)) == bits(np.float64(want))


def random_op(rng, domain, codomain, shift, dl2s):
    """An operator with random diagonals dl2s, zero where the target is
    absent, as every table is; a few entries are 0.0 and -0.0."""
    probe = BandedOperator(domain, codomain, shift, {}, HalfInt(0))
    diags = {}
    for d in dl2s:
        c = rng.standard_normal(domain.dim) * (probe._target(d) >= 0)
        c[rng.random(domain.dim) < 0.1] = 0.0
        c[rng.random(domain.dim) < 0.1] = -0.0
        diags[d] = c
    return BandedOperator(domain, codomain, shift, diags, HalfInt(max(map(abs, dl2s))))


# (domain, codomain, weight shift, spin shifts): one grid or two, full or bundles
PAIRS = {
    "full, shift (0, 0)": (lambda: full_space(8), lambda: full_space(8), (0, 0),
                           (-4, -2, 0, 2, 4)),
    "full, shift (1, -1)": (lambda: full_space(8), lambda: full_space(8), (1, -1),
                            (-3, -1, 1, 3)),
    "full, two cutoffs": (lambda: full_space(6), lambda: full_space(9), (2, -2),
                          (-2, 0, 2)),
    "bundles 0 -> -2": (lambda: bundle_space(0, 10), lambda: bundle_space(-2, 10), (2, -2),
                        (-2, 0, 2)),
    "bundles 1 -> -1": (lambda: bundle_space(1, 9), lambda: bundle_space(-1, 9), (0, -2),
                        (-4, -2, 0, 2, 4)),
    "bundles 0 -> 1, two cutoffs": (lambda: bundle_space(0, 8), lambda: bundle_space(1, 11),
                                    (-1, 1), (-1, 1)),
}


def ops(seed):
    rng = np.random.default_rng(seed)
    for name, (domain, codomain, shift, dl2s) in PAIRS.items():
        yield name, random_op(rng, domain(), codomain(), shift, dl2s)
    for k, k2 in ((0, -2), (1, -1), (-2, 0)):
        # (0, -2) annihilates e^(0)_{0,0}; (-2, 0) has no preimage for it
        yield (f"identification {k} -> {k2}",
               BandedOperator.identification(bundle_space(k, 10), bundle_space(k2, 10)))


@pytest.mark.parametrize("seed", range(4))
def test_adjoint_gathers_what_the_scatter_wrote(seed):
    for name, op in ops(seed):
        assert_same_diags(op.adjoint().diags, oracle.adjoint_diags(op))


@pytest.mark.parametrize("seed", range(4))
def test_image_gathers_what_the_scatter_added(seed):
    rng = np.random.default_rng(100 + seed)
    for name, op in ops(seed):
        vec = rng.standard_normal(op.domain.dim)
        vec[rng.random(vec.size) < 0.2] = -0.0
        got, want = op @ vec, oracle.apply(op, vec)
        assert np.array_equal(got, want) and bits(got) == bits(want), name
        cvec = vec + 1j * rng.standard_normal(vec.size)
        assert bits(op @ cvec) == bits(oracle.apply(op, cvec)), name


def edge_heavy(op, rows):
    """op with its entries in the codomain rows of the mask ten times
    heavier, so that its largest row sum lies among them."""
    diags = {}
    for d, c in op.diags.items():
        tgt = op._target(d)
        diags[d] = np.where((tgt >= 0) & rows[tgt], 10.0 * c, c)
    return BandedOperator(op.domain, op.codomain, op.shift, diags, op.interior_margin)


@pytest.mark.parametrize("seed", range(4))
def test_row_sums_gather_what_the_scatter_added(seed):
    rng = np.random.default_rng(200 + seed)
    for name, op in ops(seed):
        cod = op.codomain
        # a map that reads each row at a neighbour in weight has the same
        # largest row sum unless that sum lies on a weight edge
        edges = (cod.i2 == cod.l2, cod.i2 == -cod.l2, cod.j2 == cod.l2, cod.j2 == -cod.l2)
        cols = rng.random(op.domain.dim) < 0.6
        for variant in [op] + [edge_heavy(op, rows) for rows in edges]:
            for mask in (None, cols, np.zeros(op.domain.dim, dtype=bool)):
                assert_same_bound(_norm_bound([[variant]], mask)[0],
                                  oracle.norm_bound([[variant]], mask))


@pytest.mark.parametrize("seed", range(4))
def test_row_sums_of_a_grid_of_blocks(seed):
    rng = np.random.default_rng(300 + seed)
    # rows share a codomain, columns a domain, all blocks one weight shift
    d1, d2 = bundle_space(0, 10), bundle_space(0, 8)
    c1, c2 = bundle_space(-2, 10), bundle_space(-2, 12)
    blocks = [[random_op(rng, d, c, (2, -2), (-2, 0, 2)) for d in (d1, d2)] for c in (c1, c2)]
    for grid in (blocks, blocks[:1], [row[:1] for row in blocks]):
        assert_same_bound(_norm_bound(grid)[0], oracle.norm_bound(grid))
    # with a column mask, every domain has its dimension
    space = full_space(8)
    grid = [[random_op(rng, space, space, (0, 0), (-2, 0, 2)) for _ in range(3)]
            for _ in range(2)]
    cols = rng.random(space.dim) < 0.5
    for mask in (None, cols):
        assert_same_bound(_norm_bound(grid, mask)[0], oracle.norm_bound(grid, mask))


@pytest.mark.parametrize("cols", ("all", "kept", "dropped"))
def test_a_nan_entry_makes_both_bounds_nan(cols):
    rng = np.random.default_rng(7)
    space = full_space(8)
    op = random_op(rng, space, space, (0, 0), (-2, 0, 2))
    pos = int(np.nonzero(op.diags[2])[0][5])
    op.diags[2][pos] = math.nan
    mask = {"all": None, "kept": np.ones(space.dim, dtype=bool),
            "dropped": np.arange(space.dim) != pos}[cols]
    for grid in ([[op]], [[op, op]], [[op], [op]]):
        got, want = _norm_bound(grid, mask)[0], oracle.norm_bound(grid, mask)
        assert math.isnan(got) and math.isnan(want)
        assert_same_bound(got, want)
        assert math.isnan(block_norm(grid, mask))


def test_the_bound_of_a_zero_grid_is_zero():
    space = full_space(4)
    zero = 0.0 * BandedOperator.identity(space)
    none = BandedOperator(space, space, (0, 0), {}, HalfInt(0))
    for grid in ([[zero]], [[none]], [[zero, none]]):
        assert bits(np.float64(block_norm(grid))) == bits(np.float64(0.0))
        assert oracle.norm_bound(grid) == 0.0


def test_sources_invert_targets():
    # a codomain vector's source is the domain vector whose target it is
    for _, op in ops(0):
        for d in op.diags:
            tgt, src = op._target(d), op._source(d)
            hit = tgt >= 0
            assert (src[tgt[hit]] == np.nonzero(hit)[0]).all()
            assert np.count_nonzero(src >= 0) == np.count_nonzero(hit)
