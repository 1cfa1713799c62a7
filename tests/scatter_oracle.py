"""The scatter forms of the operator layer, as an oracle.

Each function here sends every diagonal of an operator to its targets, as
the package did before it read its position maps by gathers: the adjoint
writes each diagonal at its targets, the image of a vector and the row sums
of the norm bound add each diagonal there.  A target that is absent from the
codomain is -1 and lands in slot 0, which is dropped.  The package's gather
forms must give the same floats bit for bit.
"""

import numpy as np


def adjoint_diags(op) -> dict:
    """The diagonals of ``op.adjoint()``."""
    diags = {}
    for d, c in op.diags.items():
        diag = np.zeros(op.codomain.dim + 1)
        diag[op._target(d) + 1] = c
        diags[-d] = diag[1:]
    return diags


def apply(op, vec) -> np.ndarray:
    """``op @ vec``: a row sums in descending dl2."""
    out = np.zeros(op.codomain.dim + 1, dtype=np.result_type(vec, float))
    for d, c in reversed(op.diags.items()):
        out[op._target(d) + 1] += c * vec
    return out[1:]


def norm_bound(grid, cols=None) -> float:
    """sqrt(norm_1 * norm_inf) of a grid read as one block operator, 0.0
    when no kept entry is nonzero."""
    weights = [[[np.abs(c) if cols is None else np.abs(c) * cols for c in op.diags.values()]
                for op in row] for row in grid]
    if not any(w.any() for row in weights for block in row for w in block):
        return 0.0
    norm_1 = np.max([sum(w for block in column for w in block).max() for column in zip(*weights)])
    row_maxima = []
    for row, row_weights in zip(grid, weights):
        sums = np.zeros(row[0].codomain.dim + 1)
        for op, block in zip(row, row_weights):
            for d, w in zip(reversed(op.diags), reversed(block)):
                sums[op._target(d) + 1] += w
        row_maxima.append(sums[1:].max())
    return float(np.sqrt(norm_1 * np.max(row_maxima)))
