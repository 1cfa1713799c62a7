"""Truncated Peter-Weyl model of L^2(SU_q(2)).

The Hilbert space carries the orthonormal basis e^(l)_{i,j} indexed by a spin
l and two weights i, j, all half-integers with l - i and l - j integral.  The
generators alpha and gamma of the quantum group act by tridiagonal tables in
the spin label; this module stores those tables as banded operators on finite
truncations l <= lmax and provides the Haar state through the cyclic vector
e^(0)_{0,0}.

:class:`BandedOperator` is the package's one operator type, and its sparse
storage is this module's choice; ``.matrix`` stays readable for applying an
operator to a vector and for handing it to :func:`operator_norm`.

Index bookkeeping is done in "twice" units (integers 2l, 2i, 2j) so every
exponent appearing in a coefficient formula is an exact integer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .qarith import HalfInt, QParam, guarded_sqrt_array, qpow

__all__ = [
    "TruncatedSpace",
    "BandedOperator",
    "full_space",
    "bundle_space",
    "coeff_reg",
    "generator_op",
    "involution",
    "haar_state",
    "relation_residuals",
    "operator_norm",
    "block_matrix",
    "block_stack",
    "GENERATORS",
]

GENERATORS = ("alpha", "alpha*", "gamma", "gamma*")


# ---------------------------------------------------------------------------
# indices and spaces
# ---------------------------------------------------------------------------

class TruncatedSpace:
    """Finite slice of the Peter-Weyl basis.

    In bundle mode (``full=False``) the column weight is pinned at j = k/2,
    modeling the line-bundle section space with winding k; spins then run
    over |k|/2, |k|/2 + 1, ..., lmax.  In full mode all weights with
    |i|, |j| <= l <= lmax are admitted, modeling L^2(SU_q(2)) itself.
    """

    def __init__(self, lmax, k: int = 0, full: bool = False):
        self.lmax = HalfInt.of(lmax)
        self.k = int(k)
        self.full = bool(full)
        if not full and self.lmax.twice < abs(self.k):
            raise ValueError(f"lmax={self.lmax} below the bottom spin |k|/2 of bundle k={self.k}")
        self._build()

    def _build(self):
        lmax2 = self.lmax.twice
        if self.full:
            levels = np.arange(0, lmax2 + 1)
            sizes = (levels + 1) ** 2
        else:
            levels = np.arange(abs(self.k), lmax2 + 1, 2)
            sizes = levels + 1
        self.levels2 = levels
        self.level_base = np.concatenate(([0], np.cumsum(sizes)))
        self.dim = int(self.level_base[-1])

        l_parts, i_parts, j_parts = [], [], []
        for l2, size in zip(levels, sizes):
            i2 = np.arange(-l2, l2 + 1, 2)
            if self.full:
                li = np.repeat(i2, l2 + 1)
                lj = np.tile(i2, l2 + 1)
            else:
                li = i2
                lj = np.full(l2 + 1, self.k)
            l_parts.append(np.full(size, l2))
            i_parts.append(li)
            j_parts.append(lj)
        self.l2 = np.concatenate(l_parts).astype(np.int64)
        self.i2 = np.concatenate(i_parts).astype(np.int64)
        self.j2 = np.concatenate(j_parts).astype(np.int64)

    # -- lookup -------------------------------------------------------------

    def contains(self, l2, i2, j2):
        """Vectorized admissibility test in twice units."""
        l2 = np.asarray(l2)
        ok = (l2 >= 0) & (l2 <= self.lmax.twice)
        ok &= (np.abs(i2) <= l2) & (np.abs(j2) <= l2)
        if self.full:
            ok &= ((l2 - i2) % 2 == 0) & ((l2 - j2) % 2 == 0)
        else:
            ok &= (j2 == self.k) & ((l2 - self.k) % 2 == 0) & ((l2 - i2) % 2 == 0)
        return ok

    def locate(self, l2, i2, j2):
        """Positions of (possibly invalid) indices; -1 where not contained."""
        l2 = np.asarray(l2, dtype=np.int64)
        i2 = np.asarray(i2, dtype=np.int64)
        j2 = np.asarray(j2, dtype=np.int64)
        ok = self.contains(l2, i2, j2)
        l2s = np.where(ok, l2, self.levels2[0])
        if self.full:
            level_idx = l2s
            within = ((i2 + l2s) // 2) * (l2s + 1) + (j2 + l2s) // 2
        else:
            level_idx = (l2s - abs(self.k)) // 2
            within = (i2 + l2s) // 2
        pos = self.level_base[level_idx] + within
        return np.where(ok, pos, -1)

    def interior_mask(self, margin) -> np.ndarray:
        """Vectors far enough below lmax that a margin-banded operator is
        truncation exact on them."""
        m2 = HalfInt.of(margin).twice
        return self.l2 <= self.lmax.twice - m2

    def tail_mask(self, l_from) -> np.ndarray:
        return self.l2 >= HalfInt.of(l_from).twice

    def __eq__(self, other):
        return (isinstance(other, TruncatedSpace)
                and (self.lmax, self.k, self.full) == (other.lmax, other.k, other.full))

    def __hash__(self):
        return hash((self.lmax, self.k, self.full))

    def __repr__(self):
        kind = "full" if self.full else f"k={self.k}"
        return f"TruncatedSpace({kind}, lmax={self.lmax}, dim={self.dim})"


@lru_cache(maxsize=None)
def full_space(lmax2: int) -> TruncatedSpace:
    return TruncatedSpace(HalfInt(lmax2), full=True)


@lru_cache(maxsize=None)
def bundle_space(k: int, lmax2: int) -> TruncatedSpace:
    return TruncatedSpace(HalfInt(lmax2), k=k)


# ---------------------------------------------------------------------------
# regular representation coefficient tables
# ---------------------------------------------------------------------------
#
# Boundary convention: a coefficient is zero whenever the source or target
# basis vector does not exist.  The masks below encode exactly that; at every
# masked point the printed closed form is either zero or an indeterminate
# 0/0, so masking is the unique continuous completion.  Every table here, in
# podles and in homotopy is total: at any integer indices it is exactly 0.0
# off its support and never raises there, so callers shift without clipping.

def _src_ok(l2, i2, j2):
    return (l2 >= 0) & (np.abs(i2) <= l2) & (np.abs(j2) <= l2)


def _masked_sqrt_ratio(q, num_exps, den_exps, mask):
    """sqrt(prod(1-q^n) / prod(1-q^d)) with zeros where mask is false."""
    num = np.ones(np.broadcast(*num_exps).shape)
    for e in num_exps:
        num = num * (1.0 - qpow(q, e))
    den = np.ones_like(num)
    for e in den_exps:
        den = den * (1.0 - qpow(q, e))
    inner = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    return guarded_sqrt_array(inner)


def _iratio(q, num_exp, l2):
    """(1 - q^num) / (1 - q^(2*l2)) with its removable limit 1/2 at l2 = 0.

    The l2 = 0 branch is only ever multiplied by factors that vanish there,
    so any finite completion gives the same product; 1/(1 + q^l2) is the
    continuous one.
    """
    safe = np.where(l2 > 0, 1.0 - qpow(q, 2 * l2), 1.0)
    return np.where(l2 > 0, (1.0 - qpow(q, num_exp)) / safe,
                    1.0 / (1.0 + qpow(q, l2)))


def _band(q, mask, num_exps, den_exps, pref=1.0, den_exp=None):
    """One off-diagonal table entry: pref * sqrt(prod(1-q^n) / prod(1-q^d)),
    divided by 1 - q^den_exp when given, and zero where mask is false.

    Each table passes its printed exponents and prefactor; the product is
    formed before the division so every table keeps its printed arithmetic.
    """
    val = pref * _masked_sqrt_ratio(q, num_exps, den_exps, mask)
    if den_exp is not None:
        val = val / np.where(mask, 1.0 - qpow(q, den_exp), 1.0)
    return np.where(mask, val, 0.0)


def reg_a_plus(q, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2), (l2 - j2 + 2, l2 - i2 + 2),
                 (2 * l2 + 2, 2 * l2 + 4), pref=qpow(q, (2 * l2 + i2 + j2) // 2 + 1))


def reg_a_minus(q, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (i2 != -l2) & (j2 != -l2)
    return _band(q, mask, (l2 + j2, l2 + i2), (2 * l2, 2 * l2 + 2))


def reg_c_plus(q, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2), (l2 - j2 + 2, l2 + i2 + 2),
                 (2 * l2 + 2, 2 * l2 + 4), pref=-qpow(q, (l2 + j2) // 2))


def reg_c_minus(q, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (i2 != l2) & (j2 != -l2)
    return _band(q, mask, (l2 + j2, l2 - i2), (2 * l2, 2 * l2 + 2),
                 pref=qpow(q, (l2 + i2) // 2))


_REG_CORES = {"a+": reg_a_plus, "a-": reg_a_minus, "c+": reg_c_plus, "c-": reg_c_minus}


def coeff_reg(sym: str, q, l, i, j) -> float:
    """Regular-representation coefficient a_+/a_-/c_+/c_- at one index.

    Returns 0 whenever the transition target does not exist (which is exactly
    where the closed form degenerates).
    """
    if sym not in _REG_CORES:
        raise ValueError(f"unknown coefficient symbol {sym!r}")
    qp = QParam.of(q).require_strict()
    l, i, j = HalfInt.of(l), HalfInt.of(i), HalfInt.of(j)
    if not (l.integer_distance(i) and l.integer_distance(j)):
        raise ValueError(f"parity violation: l={l}, i={i}, j={j}")
    return float(_REG_CORES[sym](qp.q, l.twice, i.twice, j.twice))


# shifts in twice units: (dl2, di2, dj2) and the coefficient evaluated at the
# argument printed in the generator tables (source for alpha/gamma, target
# for their adjoints).
_GEN_RULES = {
    "alpha": (
        ((1, -1, -1), reg_a_plus),
        ((-1, -1, -1), reg_a_minus),
    ),
    "gamma": (
        ((1, 1, -1), reg_c_plus),
        ((-1, 1, -1), reg_c_minus),
    ),
    "alpha*": (
        ((-1, 1, 1), lambda q, l2, i2, j2: reg_a_plus(q, l2 - 1, i2 + 1, j2 + 1)),
        ((1, 1, 1), lambda q, l2, i2, j2: reg_a_minus(q, l2 + 1, i2 + 1, j2 + 1)),
    ),
    "gamma*": (
        ((-1, -1, 1), lambda q, l2, i2, j2: reg_c_plus(q, l2 - 1, i2 - 1, j2 + 1)),
        ((1, -1, 1), lambda q, l2, i2, j2: reg_c_minus(q, l2 + 1, i2 - 1, j2 + 1)),
    ),
}


# ---------------------------------------------------------------------------
# banded operators
# ---------------------------------------------------------------------------

class BandedOperator:
    """Sparse operator with band width <= interior_margin in the spin label.

    Stored as a CSR matrix between two truncated spaces.  Applying it to a
    vector supported on l <= lmax - interior_margin is truncation exact.
    """

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace,
                 matrix, interior_margin):
        self.domain = domain
        self.codomain = codomain
        self.matrix = sp.csr_matrix(matrix)
        self.interior_margin = HalfInt.of(interior_margin)
        if self.matrix.shape != (codomain.dim, domain.dim):
            raise ValueError("matrix shape does not match the spaces")

    @classmethod
    def from_shift_rules(cls, domain, codomain, rules, margin, q):
        """Assemble from (shift, coefficient) rules.

        Each rule is ((dl2, di2, dj2), fn) with fn(q, l2, i2, j2) vectorized
        over the twice arrays of the domain; entries whose target leaves the
        codomain are dropped (that is the truncation).
        """
        rows, cols, vals = [], [], []
        l2, i2, j2 = domain.l2, domain.i2, domain.j2
        for (dl2, di2, dj2), fn in rules:
            coeff = np.asarray(fn(q, l2, i2, j2), dtype=float)
            tgt = codomain.locate(l2 + dl2, i2 + di2, j2 + dj2)
            keep = (tgt >= 0) & (coeff != 0.0)
            rows.append(tgt[keep])
            cols.append(np.nonzero(keep)[0])
            vals.append(coeff[keep])
        mat = sp.coo_matrix(
            (np.concatenate(vals) if vals else [],
             (np.concatenate(rows) if rows else [], np.concatenate(cols) if cols else [])),
            shape=(codomain.dim, domain.dim))
        return cls(domain, codomain, mat.tocsr(), margin)

    @classmethod
    def identification(cls, domain, codomain):
        """Spin-preserving 0/1 map e^(l)_{i, j} -> e^(l)_{i, j + (k' - k)/2}.

        Entries exist wherever both spaces carry the basis vector: the
        identity of a space, the bijection between the bundles k = 1 and
        k' = -1, and for (k, k') = (0, -2) the map annihilating e^(0)_{0,0}.
        """
        rows = codomain.locate(domain.l2, domain.i2, domain.j2 + codomain.k - domain.k)
        keep = rows >= 0
        mat = sp.csr_matrix((np.ones(int(keep.sum())), (rows[keep], np.nonzero(keep)[0])),
                            shape=(codomain.dim, domain.dim))
        return cls(domain, codomain, mat, HalfInt(0))

    @classmethod
    def identity(cls, space):
        return cls.identification(space, space)

    # sparse algebra; margins add under composition
    def __matmul__(self, other):
        if isinstance(other, BandedOperator):
            if other.codomain != self.domain:
                raise ValueError("composition domain mismatch")
            return BandedOperator(other.domain, self.codomain,
                                  self.matrix @ other.matrix,
                                  self.interior_margin + other.interior_margin)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, BandedOperator):
            return BandedOperator(self.domain, self.codomain,
                                  self.matrix + other.matrix,
                                  max(self.interior_margin, other.interior_margin))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, BandedOperator):
            return BandedOperator(self.domain, self.codomain,
                                  self.matrix - other.matrix,
                                  max(self.interior_margin, other.interior_margin))
        return NotImplemented

    def __rmul__(self, scalar):
        return BandedOperator(self.domain, self.codomain, scalar * self.matrix,
                              self.interior_margin)

    def adjoint(self) -> "BandedOperator":
        # all tables are real, so the adjoint is the transpose
        return BandedOperator(self.codomain, self.domain, self.matrix.T.tocsr(),
                              self.interior_margin)

    def restrict_cols(self, mask: np.ndarray) -> sp.csr_matrix:
        keep = sp.diags(mask.astype(float))
        return (self.matrix @ keep).tocsr()

    def interior_residual_norm(self, margin=None) -> float:
        """Operator norm restricted to interior columns."""
        m = self.interior_margin if margin is None else HalfInt.of(margin)
        return operator_norm(self.restrict_cols(self.domain.interior_mask(m)))


def block_matrix(blocks):
    """One sparse matrix from a grid of the matrices of operators (as from
    ``.matrix`` or :meth:`BandedOperator.restrict_cols`), for the norm of a
    block operator on a direct sum of spaces."""
    return sp.bmat(blocks, format="csr")


def block_stack(mat):
    """The direct-sum blocks of a sparse matrix, zero padded into one stack.

    A block is a connected component of the bipartite graph joining row r to
    column c wherever entry (r, c) is nonzero; stored zeros are skipped, and
    the caller's matrix is left as it is.  A wide block is stored transposed,
    so every block in the stack is tall.  Returns the stack, of shape
    (blocks, rows, cols) with rows >= cols, and the (rows, cols) shape of
    each block in the matrix.  The singular values of the matrix are those
    of the stacked blocks together with zeros.
    """
    # imported here so that runs with no operator norm (the integer suites)
    # pay neither its import time nor its ~1 MB
    from scipy.sparse.csgraph import connected_components

    coo = sp.coo_matrix(mat)
    nonzero = coo.data != 0
    rows, cols, vals = coo.row[nonzero], coo.col[nonzero], coo.data[nonzero]
    row_ids, row_of = np.unique(rows, return_inverse=True)
    col_ids, col_of = np.unique(cols, return_inverse=True)
    n_rows = row_ids.size
    n_nodes = n_rows + col_ids.size
    graph = sp.coo_matrix((np.ones(vals.size), (row_of, n_rows + col_of)),
                          shape=(n_nodes, n_nodes))
    n_blocks, label = connected_components(graph, directed=False)

    def local_positions(labels):
        # position of each node among the nodes of its block, in index order
        order = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=n_blocks)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return pos, sizes

    row_pos, height = local_positions(label[:n_rows])
    col_pos, width = local_positions(label[n_rows:])
    block = label[row_of]
    wide = (width > height)[block]
    tall = (np.maximum(height, width).max(initial=0), np.minimum(height, width).max(initial=0))
    stack = np.zeros((n_blocks, *tall), dtype=vals.dtype)
    np.add.at(stack, (block, np.where(wide, col_pos[col_of], row_pos[row_of]),
                      np.where(wide, row_pos[row_of], col_pos[col_of])), vals)
    return stack, np.column_stack((height, width))


def operator_norm(mat, exact_dim: int = 1200) -> float:
    """Largest singular value of a sparse matrix, exact, from its blocks.

    Every operator here is homogeneous for the torus weights, so it is a
    direct sum of small maps between weight sectors: the blocks of
    :func:`block_stack`.  The norm of a direct sum is the largest norm of
    its blocks, and zero padding adds only zero singular values, so one
    stacked dense SVD of the blocks gives the norm exactly.  ``exact_dim``
    caps the blocks that SVD runs on: a block whose smaller side exceeds it
    raises ValueError naming its shape.

    An empty or all-zero matrix has norm 0.  When the rigorous upper bound
    sqrt(norm_1 * norm_inf) is below 1e-13, that bound is returned in place
    of the norm: it is at rounding level and certifies any realistic
    threshold of a ``max`` check.
    """
    mat = sp.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()  # spla.norm sorts the indices of its argument in place
    if min(mat.shape) == 0 or mat.nnz == 0:
        return 0.0
    upper = float(np.sqrt(spla.norm(mat, 1) * spla.norm(mat, np.inf)))
    if upper < 1e-13:
        return upper
    stack, shapes = block_stack(mat)
    big = shapes.min(axis=1) > exact_dim
    if big.any():
        raise ValueError(f"a {tuple(shapes[big][0].tolist())} block exceeds exact_dim={exact_dim}")
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def generator_op(gen: str, q, space: TruncatedSpace, codomain: TruncatedSpace = None
                 ) -> BandedOperator:
    """Banded operator of a generator on a truncated space.

    alpha and gamma lower the column weight by 1/2 (bundle winding k -> k-1),
    their adjoints raise it.  For a full space the codomain is the space
    itself; for bundles it is the neighbouring bundle with the same cutoff.
    """
    if gen not in _GEN_RULES:
        raise ValueError(f"unknown generator {gen!r}")
    qp = QParam.of(q).require_strict()
    if codomain is None:
        if space.full:
            codomain = space
        else:
            dk = -1 if gen in ("alpha", "gamma") else 1
            codomain = bundle_space(space.k + dk, space.lmax.twice)
    return BandedOperator.from_shift_rules(space, codomain, _GEN_RULES[gen],
                                           HalfInt(1), q=qp.q)


def involution(vec, space: TruncatedSpace, q):
    """The *-involution on a coefficient array over ``space``.

    e^(l)_{i,j} is sent to (-1)^(2l+i+j) q^(i+j) e^(l)_{-i,-j}; coefficients
    are conjugated.  Bundle vectors land in the opposite bundle.  Returns the
    image array and the space it lives on.
    """
    qp = QParam.of(q)
    target = space if space.full else bundle_space(-space.k, space.lmax.twice)
    l2, i2, j2 = space.l2, space.i2, space.j2
    phase = qpow(-1.0, (2 * l2 + i2 + j2) // 2) * qpow(qp.q, (i2 + j2) // 2)
    out = np.zeros(target.dim, dtype=complex)
    out[target.locate(l2, -i2, -j2)] = phase * np.conj(vec)
    return out, target


def haar_state(word, q) -> complex:
    """Haar state of a product of generators, via the GNS cyclic vector.

    ``word`` is a sequence over {"alpha", "alpha*", "gamma", "gamma*"}; the
    product is applied right to left to e^(0)_{0,0} and paired with it again.
    The orbit of a length-n word never leaves spin n/2, so the generator
    operators on the cutoff n/2 compute it exactly.
    """
    word = tuple(word)
    for g in word:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r} in word")
    qp = QParam.of(q).require_strict()
    space = full_space(len(word))
    vec = np.zeros(space.dim)
    vec[0] = 1.0
    for g in reversed(word):
        vec = generator_op(g, qp, space).matrix @ vec
    return complex(vec[0])


def relation_residuals(gens: dict, q: float) -> dict:
    """Interior residuals of the five defining relations of SU_q(2).

    ``gens`` maps each name in GENERATORS to its banded image on one space.
    """
    al, als = gens["alpha"], gens["alpha*"]
    ga, gas = gens["gamma"], gens["gamma*"]
    one = BandedOperator.identity(al.domain)
    return {
        "alpha gamma = q gamma alpha": (al @ ga - q * (ga @ al)).interior_residual_norm(),
        "alpha gamma* = q gamma* alpha": (al @ gas - q * (gas @ al)).interior_residual_norm(),
        "gamma gamma* = gamma* gamma": (ga @ gas - gas @ ga).interior_residual_norm(),
        "alpha* alpha + gamma* gamma = 1": (als @ al + gas @ ga - one).interior_residual_norm(),
        "alpha alpha* + q^2 gamma gamma* = 1": (al @ als + q * q * (ga @ gas) - one)
        .interior_residual_norm(),
    }
