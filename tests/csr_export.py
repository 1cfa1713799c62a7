"""The test-side scipy export of a ``BandedOperator``: its matrix as CSR,
built from ``BandedOperator.entries``.  The package itself exports no scipy
matrix; the tests use this one as the oracle's view of an operator."""

import numpy as np
import scipy.sparse as sp


def csr(op, cols=None):
    """The columns of ``op`` at the domain vectors in the mask ``cols`` (every
    column when None) as a scipy CSR matrix, in canonical format."""
    pair, _ = op.entries(cols)
    width = op.domain.dim if cols is None else np.count_nonzero(cols)
    return sp.coo_matrix(pair, shape=(op.codomain.dim, width)).tocsr()
