"""The unpruned stacked SVD, as an oracle.

``operator_norm`` here is the package's norm as it was before it bounded
each sector block: every block of the matrix goes into one zero-padded
stack and one dense SVD, and the norm is the largest first singular value.
``block_stack`` is its own copy of the package's stacking, so that the
oracle reads nothing of the code it checks.  The package's
``block_norm``, which runs the SVD only on the sectors that can hold the
maximum and pads them to this stack's shape, must give the same float bit
for bit.
"""

import numpy as np


def block_stack(pair, blocks):
    """The blocks of a COO pair, labelled per entry, zero padded into one
    stack of tall blocks, with the (rows, cols) shape of each block.
    Stored zeros are skipped, every row and column must lie in one block,
    and a wide block is stored transposed."""
    vals, (rows, cols) = pair
    vals, rows, cols, blocks = map(np.asarray, (vals, rows, cols, blocks))
    nonzero = vals != 0
    vals, rows, cols = vals[nonzero], rows[nonzero], cols[nonzero]
    block_ids, block = np.unique(blocks[nonzero], return_inverse=True)
    n_blocks = block_ids.size

    def local_positions(nodes):
        ids, node_of = np.unique(nodes, return_inverse=True)
        label = np.empty(ids.size, dtype=np.intp)
        label[node_of] = block
        if (label[node_of] != block).any():
            raise ValueError("a row or column lies in two blocks")
        order = np.argsort(label, kind="stable")
        sizes = np.bincount(label, minlength=n_blocks)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return pos[node_of], sizes

    row_pos, height = local_positions(rows)
    col_pos, width = local_positions(cols)
    wide = (width > height)[block]
    tall = (int(np.maximum(height, width).max(initial=0)),
            int(np.minimum(height, width).max(initial=0)))
    stack = np.zeros((n_blocks, *tall), dtype=vals.dtype)
    np.add.at(stack, (block, np.where(wide, col_pos, row_pos), np.where(wide, row_pos, col_pos)),
              vals)
    return stack, np.column_stack((height, width))


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
