"""The norm of ``block_norm``, which drops the weight sectors that cannot
hold it before its stacked SVD, against the unpruned stacked SVD of every
sector in ``norm_oracle``, bit for bit: on operators and grids with random
diagonals on a line bundle, scaled per sector so that sectors are equal,
tied to within 1e-12 or one dominates, and with all-zero columns; and on
every SVD-path norm of the sphere-neg jobs and of fredholm and rotation at
q = +-0.9 up to lmax 40.  The prune must also drop sectors where it can,
run only where its margin covers the rounding of the bounds and of LAPACK,
and never hide a sector above ``exact_dim``."""

import math

import numpy as np
import pytest

import suq2kit.homotopy as ho
import suq2kit.peterweyl as pw
import suq2kit.podles as po
from suq2kit import HalfInt, SuiteConfig, run_suite
from suq2kit.peterweyl import BandedOperator, block_entries, block_norm, bundle_space, full_space

import norm_oracle as oracle


def bits(x: float):
    return np.float64(x).tobytes()


def oracle_norm(grid, cols=None, exact_dim=1200):
    """The unpruned stacked SVD of every sector of the grid."""
    pair, sectors = block_entries(grid, cols)
    return oracle.operator_norm(pair, exact_dim, sectors)


def random_grid(rng, space, factor, shape=(1, 1)):
    """A grid of operators on ``space`` with random diagonals dl2 in {-2, 0,
    2}, each a random function of the spin alone times ``factor`` at the
    column.  A sector block is then a trailing principal block of one
    tridiagonal matrix, scaled by the factor at its columns: the sectors i2
    and -i2, and on a bundle of winding k every sector with |i2| <= |k|,
    have equal blocks where their factors are equal."""
    def random_op():
        tables = {d: rng.standard_normal(space.lmax.twice + 1) for d in (-2, 0, 2)}
        rules = tuple(((d, 0, 0), lambda q, l2, i2, j2, t=t: t[l2] * factor)
                      for d, t in tables.items())
        return BandedOperator.from_shift_rules(space, space, rules, 1, q=0.5)

    return [[random_op() for _ in range(shape[1])] for _ in range(shape[0])]


def equal_blocks(rng, sector):
    return np.ones(sector.size)


def near_ties(rng, sector):
    return (1 + rng.uniform(-1e-12, 1e-12, sector.max() + 1))[sector]


def one_dominant(rng, sector):
    scale = np.ones(sector.max() + 1)
    scale[rng.integers(scale.size)] = 1e6
    return scale[sector]


def zero_columns(rng, sector):
    return rng.uniform(0.5, 1.5, sector.max() + 1)[sector] * (rng.random(sector.size) > 0.2)


CASES = {"equal blocks": equal_blocks, "near-ties within 1e-12": near_ties,
         "one dominant block": one_dominant, "all-zero columns": zero_columns}


@pytest.fixture
def stacked(monkeypatch):
    """(sectors stacked, sectors with a nonzero entry) of each stacked SVD
    that ``block_norm`` runs."""
    calls, totals = [], []
    kept_columns, stack = pw._kept_columns, pw.block_stack

    def recording_prune(grid, cols, *sums):
        totals.append(np.unique(block_entries(grid, cols)[1]).size)
        return kept_columns(grid, cols, *sums)

    def recording_stack(*args):
        out = stack(*args)
        calls.append((out[0].shape[0], totals[-1]))
        return out

    monkeypatch.setattr(pw, "_kept_columns", recording_prune)
    monkeypatch.setattr(pw, "block_stack", recording_stack)
    return calls


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", CASES)
def test_pruned_norm_is_the_unpruned_norm(case, seed, stacked):
    rng = np.random.default_rng(seed)
    space = bundle_space(1 + seed % 3, 16)
    factor = CASES[case](rng, space._sectors[1])
    for shape in ((1, 1), (2, 2)):
        grid = random_grid(rng, space, factor, shape)
        if case == "all-zero columns":
            # and a zero row: no entry of the first grid row lands there
            row = rng.integers(space.dim)
            for op in grid[0]:
                for d, c in op.diags.items():
                    c[op._target(d) == row] = 0.0
        for cols in (None, space.tail_mask(3)):
            assert bits(block_norm(grid, cols)) == bits(oracle_norm(grid, cols))
    assert len(stacked) == 4
    for kept, total in stacked:
        assert 1 <= kept <= total
        if case == "one dominant block":
            assert kept == 1


@pytest.mark.parametrize("case", ["in range", "an entry of 1e-120", "an entry of 1e160",
                                  "a NaN entry", "a margin below the stack's rounding"])
def test_pruning_runs_only_where_the_margin_covers_the_rounding(case, stacked, monkeypatch):
    rng = np.random.default_rng(7)
    space = bundle_space(2, 16)
    (op,), = random_grid(rng, space, np.where(space.i2 == 0, 1e3, 1.0))
    at = {i2: int(np.nonzero(space.i2 == i2)[0][0]) for i2 in (0, 4)}
    if case == "an entry of 1e-120":
        op.diags[0][at[4]] = 1e-120
    elif case == "an entry of 1e160":
        op.diags[0][at[0]] = 1e160
    elif case == "a NaN entry":
        op.diags[0][at[4]] = np.nan
    elif case == "a margin below the stack's rounding":
        m, n = oracle.block_stack(*block_entries([[op]]))[0].shape[1:]
        monkeypatch.setattr(pw, "_PRUNE_MARGIN", 2 * (m * n + m + 2) * np.finfo(float).eps
                            * (1 - 1e-3))
    got = op.norm()
    if case == "a NaN entry":
        # the bound is NaN, and block_norm returns it before any SVD
        assert math.isnan(got) and stacked == []
        return
    assert bits(got) == bits(oracle_norm([[op]]))
    total = np.unique(op.entries()[1]).size
    assert total == 17
    assert stacked == [(1 if case == "in range" else total, total)]


def test_a_pruned_block_above_exact_dim_still_raises(stacked, monkeypatch):
    # the dominant sector i2 = 14 has two columns; the three sectors of
    # eight columns, i2 = -2, 0, 2, are pruned, and they set the padding
    rng = np.random.default_rng(8)
    space = bundle_space(2, 16)
    (op,), = random_grid(rng, space, np.where(space.i2 == 14, 1e3, 1e-3))
    norm, cap = pw.operator_norm, {}

    def capped(mat, exact_dim=1200, blocks=None, pad=(0, 0)):
        return norm(mat, cap["dim"], blocks, pad)

    monkeypatch.setattr(pw, "operator_norm", capped)
    cap["dim"] = 7
    with pytest.raises(ValueError, match=r"padded to \(8, 8\) exceeds exact_dim=7"):
        op.norm()
    with pytest.raises(ValueError, match=r"a \(8, 8\) block exceeds exact_dim=7"):
        oracle_norm([[op]], exact_dim=7)
    cap["dim"] = 8
    assert bits(op.norm()) == bits(oracle_norm([[op]], exact_dim=8))
    assert stacked == [(1, 17), (1, 17)]


def test_a_kept_sector_is_stacked_at_the_padding_of_all_sectors(stacked):
    # LAPACK rounds the largest singular value of some sectors differently
    # at their own shape and at the padding of every sector; each sector in
    # turn dominates, by an exact power of two, so that it alone is stacked
    rng = np.random.default_rng(1)
    space = full_space(8)
    (op,), = random_grid(rng, space, np.ones(space.dim))
    pair, sectors = block_entries([[op]])
    pad = oracle.block_stack(pair, sectors)[0].shape[1:]
    sensitive = 0
    for s in np.unique(sectors):
        at = sectors == s
        block = (pair[0][at], (pair[1][0][at], pair[1][1][at]))
        alone, _ = oracle.block_stack(block, sectors[at])
        padded = np.zeros((1, *pad))
        padded[0, :alone.shape[1], :alone.shape[2]] = alone[0]
        sensitive += bits(oracle.operator_norm(block)) != bits(
            np.linalg.svd(padded, compute_uv=False)[0, 0])
        scale = np.where(space._sectors[1] == s, 2.0 ** 10, 1.0)
        dominant = BandedOperator(space, space, op.shift,
                                  {d: c * scale for d, c in op.diags.items()}, 1)
        assert bits(dominant.norm()) == bits(oracle_norm([[dominant]]))
    assert sensitive > 0
    assert [kept for kept, _ in stacked] == [1] * np.unique(sectors).size


def test_fredholm_tails_keep_fewer_blocks_than_they_have(stacked):
    module = po.FredholmModule.standard(-0.5, 30)
    tails = po.commutator_tails(module, "A", [2, 10, 20])
    assert all(t > 1e-13 for t in tails)
    assert len(stacked) == 3
    assert all(kept < total for kept, total in stacked)


def test_a_grid_on_two_domains_raises():
    # the column mask is one mask over one domain, so the grid has one domain
    small, large = full_space(4), full_space(6)
    grid = [[BandedOperator.identity(small), BandedOperator.identity(large)]]
    for cols in (None, small.tail_mask(1)):
        with pytest.raises(ValueError, match="must share one domain"):
            block_norm(grid, cols)


SVD_JOBS = ([(suite, -0.5, lmax) for lmax in (10, 20, 30)
             for suite in ("relations", "podles", "fredholm", "rotation")]
            + [("fredholm", q, lmax) for q in (0.9, -0.9) for lmax in (10, 20, 30, 40)]
            + [("rotation", -0.9, lmax) for lmax in (10, 20, 30, 40)])


@pytest.mark.parametrize("suite, q, lmax", SVD_JOBS, ids=lambda v: str(v))
def test_every_svd_path_norm_of_a_job_is_the_unpruned_norm(suite, q, lmax, monkeypatch):
    norm, svd, svds, seen = pw.block_norm, pw.operator_norm, [], []

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def checked(grid, cols=None):
        before = len(svds)
        got = norm(grid, cols)
        if len(svds) > before:
            seen.append((bits(got), bits(oracle_norm(grid, cols))))
        return got

    monkeypatch.setattr(pw, "operator_norm", counted)
    # BandedOperator.norm reads peterweyl's name, the rotation grids homotopy's
    monkeypatch.setattr(pw, "block_norm", checked)
    monkeypatch.setattr(ho, "block_norm", checked)
    run_suite(SuiteConfig(suite=suite, q=q, lmax=HalfInt(2 * lmax)))
    assert all(got == want for got, want in seen)
    assert len(seen) == len(svds)
    # relations and podles decide every norm off the diagonals
    assert (len(seen) > 0) == (suite in ("fredholm", "rotation"))
