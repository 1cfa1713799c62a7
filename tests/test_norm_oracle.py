"""The pruned stacked SVD of ``operator_norm`` against the unpruned one in
``norm_oracle``, bit for bit: on random direct sums of equal blocks, of
blocks tied to within 1e-12, with one dominant block and with all-zero
columns, and on every SVD-path norm of the sphere-neg jobs and of
fredholm and rotation at q = +-0.9 up to lmax 40.  Pruning must also drop
blocks where it can, run only where its margin covers the rounding of the
bounds and of LAPACK, and never hide a block above ``exact_dim``."""

import numpy as np
import pytest

import suq2kit.peterweyl as pw
import suq2kit.podles as po
from suq2kit import HalfInt, SuiteConfig, run_suite
from suq2kit.peterweyl import operator_norm

import norm_oracle as oracle


def bits(x: float):
    return np.float64(x).tobytes()


def direct_sum(rng, blocks):
    """A COO pair of the direct sum of dense ``blocks``, its rows and its
    columns shuffled so that the blocks interleave as weight sectors do,
    and the block of each entry."""
    rows, cols, vals, labels = [], [], [], []
    row_offset = col_offset = 0
    for label, block in enumerate(blocks):
        r, c = np.nonzero(block)
        rows.append(r + row_offset)
        cols.append(c + col_offset)
        vals.append(block[r, c])
        labels.append(np.full(r.size, label))
        row_offset += block.shape[0]
        col_offset += block.shape[1]
    row_perm, col_perm = rng.permutation(row_offset), rng.permutation(col_offset)
    pair = (np.concatenate(vals), (row_perm[np.concatenate(rows)], col_perm[np.concatenate(cols)]))
    return pair, np.concatenate(labels)


def random_shapes(rng, n):
    # tall, wide and square blocks, so that transposing and padding both matter
    return [tuple(rng.integers(1, 9, size=2)) for _ in range(n)]


def equal_blocks(rng):
    block = rng.standard_normal(rng.integers(2, 8, size=2))
    return [block] * 6 + [0.5 * rng.standard_normal(shape) for shape in random_shapes(rng, 4)]


def near_ties(rng):
    block = rng.standard_normal((5, 4))
    ties = [block * (1 + rng.uniform(-1e-12, 1e-12)) for _ in range(5)]
    ties += [block.T * (1 + rng.uniform(-1e-12, 1e-12)) for _ in range(3)]
    return ties + [0.9 * block, 0.3 * rng.standard_normal((9, 2))]


def one_dominant(rng):
    blocks = [rng.standard_normal(shape) for shape in random_shapes(rng, 12)]
    blocks[rng.integers(12)] *= 1e3
    return blocks


def zero_columns(rng):
    blocks = [rng.standard_normal(shape) for shape in random_shapes(rng, 10)]
    for block in blocks[::2]:
        block[:, rng.integers(block.shape[1])] = 0.0
    blocks[1][rng.integers(blocks[1].shape[0])] = 0.0
    return blocks


CASES = {"equal blocks": equal_blocks, "near-ties within 1e-12": near_ties,
         "one dominant block": one_dominant, "all-zero columns": zero_columns}


@pytest.fixture
def stacked(monkeypatch):
    """(blocks stacked, blocks in the matrix) of each stacked SVD."""
    calls, totals = [], []
    bounds, stack = pw._block_bounds, pw.block_stack

    def recording_bounds(*args):
        out = bounds(*args)
        totals.append(len(out[0]))
        return out

    def recording_stack(*args):
        out = stack(*args)
        calls.append((out[0].shape[0], totals[-1]))
        return out

    monkeypatch.setattr(pw, "_block_bounds", recording_bounds)
    monkeypatch.setattr(pw, "block_stack", recording_stack)
    return calls


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", CASES)
def test_pruned_norm_is_the_unpruned_norm(case, seed, stacked):
    rng = np.random.default_rng(seed)
    pair, labels = direct_sum(rng, CASES[case](rng))
    got = operator_norm(pair, blocks=labels)
    assert bits(got) == bits(oracle.operator_norm(pair, blocks=labels))
    (kept, total), = stacked
    assert 1 <= kept <= total
    if case == "one dominant block":
        assert kept == 1


@pytest.mark.parametrize("case", ["in range", "an entry of 1e-120", "an entry of 1e160",
                                  "a NaN entry", "a margin below the stack's rounding"])
def test_pruning_runs_only_where_the_margin_covers_the_rounding(case, stacked, monkeypatch):
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((4, 3)) for _ in range(6)]
    blocks[0] *= 1e3
    if case == "an entry of 1e-120":
        blocks[1][0, 0] = 1e-120
    elif case == "an entry of 1e160":
        blocks[0][0, 0] = 1e160
    elif case == "a NaN entry":
        blocks[1][0, 0] = np.nan
    elif case == "a margin below the stack's rounding":
        # (4 * 3 + 4 + 2) eps is 4.0e-15, above half of this margin
        monkeypatch.setattr(pw, "_PRUNE_MARGIN", 7e-15)
    pair, labels = direct_sum(rng, blocks)
    if case == "a NaN entry":
        for norm in (operator_norm, oracle.operator_norm):
            with pytest.raises(np.linalg.LinAlgError):
                norm(pair, blocks=labels)
    else:
        assert bits(operator_norm(pair, blocks=labels)) == bits(
            oracle.operator_norm(pair, blocks=labels))
    assert stacked == [(1 if case == "in range" else 6, 6)]


def test_a_pruned_block_above_exact_dim_still_raises(stacked):
    # a small 3x3 block that the dominant 2x2 block prunes
    rng = np.random.default_rng(8)
    pair, labels = direct_sum(rng, [1e-3 * rng.standard_normal((3, 3)),
                                    1e3 * rng.standard_normal((2, 2))])
    with pytest.raises(ValueError, match=r"a \(3, 3\) block exceeds exact_dim=2"):
        operator_norm(pair, exact_dim=2, blocks=labels)
    assert bits(operator_norm(pair, exact_dim=3, blocks=labels)) == bits(
        oracle.operator_norm(pair, exact_dim=3, blocks=labels))
    assert stacked == [(1, 2)]


def test_fredholm_tails_keep_fewer_blocks_than_they_have(stacked):
    module = po.FredholmModule.standard(-0.5, 30)
    tails = po.commutator_tails(module, "A", [2, 10, 20])
    assert all(t > 1e-13 for t in tails)
    assert len(stacked) == 3
    assert all(kept < total for kept, total in stacked)


SVD_JOBS = ([(suite, -0.5, lmax) for lmax in (10, 20, 30)
             for suite in ("relations", "podles", "fredholm", "rotation")]
            + [("fredholm", q, lmax) for q in (0.9, -0.9) for lmax in (10, 20, 30, 40)]
            + [("rotation", -0.9, lmax) for lmax in (10, 20, 30, 40)])


@pytest.mark.parametrize("suite, q, lmax", SVD_JOBS, ids=lambda v: str(v))
def test_every_svd_path_norm_of_a_job_is_the_unpruned_norm(suite, q, lmax, monkeypatch):
    norm, seen = pw.operator_norm, []

    def checked(mat, exact_dim=1200, blocks=None):
        got = norm(mat, exact_dim, blocks)
        seen.append((bits(got), bits(oracle.operator_norm(mat, exact_dim, blocks))))
        return got

    monkeypatch.setattr(pw, "operator_norm", checked)
    run_suite(SuiteConfig(suite=suite, q=q, lmax=HalfInt(2 * lmax)))
    assert all(got == want for got, want in seen)
    # relations and podles decide every norm off the diagonals
    assert (len(seen) > 0) == (suite in ("fredholm", "rotation"))
