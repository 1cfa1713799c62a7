"""The unpruned stacked SVD, as an oracle.

``operator_norm`` here is the package's norm as it was before it bounded
each sector block: every block of the matrix goes into one zero-padded
stack and one dense SVD, and the norm is the largest first singular value.
The package's norm, which runs the SVD only on the blocks that can hold the
maximum and pads them to this stack's shape, must give the same float bit
for bit.
"""

import numpy as np

from suq2kit.peterweyl import block_stack


def operator_norm(mat, exact_dim: int = 1200, blocks=None) -> float:
    """Largest singular value of a matrix from one stacked SVD of all its
    blocks; 0 for a matrix with no nonzero entry.  ``mat`` is a COO pair or
    has a ``tocoo`` method, ``blocks`` labels each entry, and a block whose
    smaller side exceeds ``exact_dim`` raises ValueError."""
    if not isinstance(mat, tuple):
        mat = mat.tocoo(copy=True)
        mat.sum_duplicates()
        mat = (mat.data, (mat.row, mat.col))
    vals, (rows, cols) = mat
    pair = (np.asarray(vals), (np.asarray(rows), np.asarray(cols)))
    if not pair[0].any():
        return 0.0
    if blocks is None:
        blocks = np.zeros(pair[0].size, dtype=np.intp)
    stack, shapes = block_stack(pair, blocks)
    big = shapes.min(axis=1) > exact_dim
    if big.any():
        raise ValueError(f"a {tuple(shapes[big][0].tolist())} block exceeds exact_dim={exact_dim}")
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())
