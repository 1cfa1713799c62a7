"""Truncated Peter-Weyl model of L^2(SU_q(2)).

The Hilbert space carries the orthonormal basis e^(l)_{i,j} indexed by a spin
l and two weights i, j, all half-integers with l - i and l - j integral.  The
generators alpha and gamma of the quantum group act by tridiagonal tables in
the spin label; this module stores those tables as banded operators on finite
truncations l <= lmax and provides the Haar state through the cyclic vector
e^(0)_{0,0}.

:class:`BandedOperator` is the package's one operator type.  Every operator
here is homogeneous: all its entries move the weights (i, j) by one pair, so
it is stored as its spin diagonals, one coefficient array over the domain per
spin shift.  Sums, scaling, composition and adjoints are numpy array
arithmetic on those arrays, and an operator applies to a coefficient vector
with ``@``.  Every norm, of one operator or of a grid of them read as one
block operator, is decided by :func:`block_norm`: it reads the zero case and
the rounding-level bound off the diagonals and hands only an open norm to
:func:`operator_norm`, the exact stacked SVD over the weight sectors.  The
package runs on numpy alone and exports no scipy matrix.

Index bookkeeping is done in "twice" units (integers 2l, 2i, 2j) so every
exponent appearing in a coefficient formula is an exact integer.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache

import numpy as np

from .qarith import HalfInt, guarded_sqrt_array, qpow, strict_q

__all__ = [
    "TruncatedSpace",
    "BandedOperator",
    "full_space",
    "bundle_space",
    "generator_op",
    "haar_state",
    "relation_residuals",
    "operator_norm",
    "block_norm",
    "block_entries",
    "block_stack",
    "GENERATORS",
]

GENERATORS = ("alpha", "alpha*", "gamma", "gamma*")


# ---------------------------------------------------------------------------
# indices and spaces
# ---------------------------------------------------------------------------

# the largest spin or weight step, in grid units, that a space's padded
# position grid absorbs; every product of two generator or sphere tables
# stays within it
_PAD = 4

# a weight sector (i2, j2) packed into one integer, j2 in the low 32 bits
_SECTOR_BASE = 2 ** 32


class TruncatedSpace:
    """Finite slice of the Peter-Weyl basis.

    In bundle mode (``full=False``) the column weight is pinned at j = k/2,
    modeling the line-bundle section space with winding k; spins then run
    over |k|/2, |k|/2 + 1, ..., lmax.  In full mode all weights with
    |i|, |j| <= l <= lmax are admitted, modeling L^2(SU_q(2)) itself.
    """

    def __init__(self, lmax, k: int = 0, full: bool = False):
        self.lmax = HalfInt.of(lmax)
        self.k = operator.index(k)  # a float winding raises TypeError, not truncates
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

    @cached_property
    def _flat(self) -> np.ndarray:
        """Index of each basis vector on the grid (l2, (l2 + i2)/2, (l2 + j2)/2),
        or (l2, (l2 + i2)/2) on a bundle, whose j2 is fixed; padded by _PAD
        on every side and flattened."""
        n = self.lmax.twice + 1 + 2 * _PAD
        flat = (self.l2 + _PAD) * n + (self.l2 + self.i2) // 2 + _PAD
        return flat * n + (self.l2 + self.j2) // 2 + _PAD if self.full else flat

    @cached_property
    def _grid(self) -> np.ndarray:
        """Positions on that grid, -1 off the space."""
        n = self.lmax.twice + 1 + 2 * _PAD
        grid = np.full(n ** (3 if self.full else 2), -1, dtype=np.int32)  # half of intp
        grid[self._flat] = np.arange(self.dim)
        return grid

    @cached_property
    def _sectors(self) -> np.ndarray:
        """The weight sector (i2, j2) of each basis vector, packed."""
        return self.i2 * _SECTOR_BASE + self.j2

    def shifted(self, source: "TruncatedSpace", shift) -> np.ndarray:
        """Positions in this space of the basis of ``source`` shifted by
        (dl2, di2, dj2), in twice units; -1 where the shifted vector is absent.

        Between spaces on one grid, the same full space or two bundles at one
        lmax whose windings differ by dj2, a shift moves every grid index by
        the same offset, so the positions are one gather from the padded grid.
        """
        dl2, di2, dj2 = shift
        steps = (dl2, (dl2 + di2) // 2, (dl2 + dj2) // 2)[:3 if self.full else 2]
        one_grid = (source == self if self.full
                    else not source.full and source.lmax == self.lmax and source.k + dj2 == self.k)
        if (one_grid and (dl2 + di2) % 2 == 0 and (dl2 + dj2) % 2 == 0
                and max(map(abs, steps)) <= _PAD):
            n = self.lmax.twice + 1 + 2 * _PAD
            offset = 0
            for step in steps:
                offset = offset * n + step
            return self._grid[source._flat + offset].astype(np.intp)
        return self.locate(source.l2 + dl2, source.i2 + di2, source.j2 + dj2)

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


def _spin_dens(q, l2, mask):
    """1 - q^(2l+2) and (1 - q^(2l+2))(1 - q^(2l+4)) where mask holds and 1
    elsewhere: the denominators of the diagonal tables, which vanish at the
    absent spins l2 = -1 and -2."""
    d1 = 1.0 - qpow(q, 2 * l2 + 2)
    return np.where(mask, d1, 1.0), np.where(mask, d1 * (1.0 - qpow(q, 2 * l2 + 4)), 1.0)


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
    """Homogeneous operator between two truncated spaces, stored as its spin
    diagonals.

    Every entry moves the weights (i, j) by the one pair ``shift`` = (di2,
    dj2), in twice units.  ``diags`` maps each spin shift dl2 to an array over
    the domain: its entry at a basis vector is the matrix entry at that vector
    shifted by (dl2, di2, dj2), and it is zero where the shifted vector is
    absent from the codomain.  The band width in the spin label is at most
    ``interior_margin``, so applying the operator to a vector supported on
    l <= lmax - interior_margin is truncation exact.
    """

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, shift, diags: dict,
                 interior_margin):
        self.domain = domain
        self.codomain = codomain
        self.shift = tuple(shift)
        self.diags = dict(sorted(diags.items()))
        self.interior_margin = HalfInt.of(interior_margin)
        # codomain positions of the shifted domain basis, per dl2, filled by _target
        self._targets = {}
        if any(c.shape != (domain.dim,) for c in self.diags.values()):
            raise ValueError("a diagonal does not match the domain")

    def _target(self, dl2) -> np.ndarray:
        """Codomain positions of the domain basis shifted by (dl2, *shift); -1
        where the shifted vector is absent."""
        tgt = self._targets.get(dl2)
        if tgt is None:
            tgt = self._targets[dl2] = self.codomain.shifted(self.domain, (dl2, *self.shift))
        return tgt

    @classmethod
    def from_shift_rules(cls, domain, codomain, rules, margin, q):
        """Assemble from (shift, coefficient) rules.

        Each rule is ((dl2, di2, dj2), fn) with fn(q, l2, i2, j2) vectorized
        over the twice arrays of the domain; all rules share one weight shift
        (di2, dj2).  Entries whose target leaves the codomain are dropped
        (that is the truncation), and rules with the same dl2 add up.  The
        targets are the operator's own, so they are located once.
        """
        shifts = {(di2, dj2) for (_, di2, dj2), _ in rules}
        if len(shifts) != 1:
            raise ValueError(f"the rules must share one weight shift, got {sorted(shifts)}")
        op = cls(domain, codomain, shifts.pop(), {}, margin)
        l2, i2, j2 = domain.l2, domain.i2, domain.j2
        diags = {}
        for (dl2, _, _), fn in rules:
            coeff = np.asarray(fn(q, l2, i2, j2), dtype=float) * (op._target(dl2) >= 0)
            diags[dl2] = diags[dl2] + coeff if dl2 in diags else coeff
        op.diags = dict(sorted(diags.items()))
        return op

    @classmethod
    def identification(cls, domain, codomain):
        """Spin-preserving 0/1 map e^(l)_{i, j} -> e^(l)_{i, j + (k' - k)/2}.

        Entries exist wherever both spaces carry the basis vector: the
        identity of a space, the bijection between the bundles k = 1 and
        k' = -1, and for (k, k') = (0, -2) the map annihilating e^(0)_{0,0}.
        """
        op = cls(domain, codomain, (0, codomain.k - domain.k), {}, HalfInt(0))
        op.diags = {0: (op._target(0) >= 0).astype(float)}
        return op

    @classmethod
    def identity(cls, space):
        return cls.identification(space, space)

    # array algebra on the diagonals; margins add under composition
    def __matmul__(self, other):
        """Composition: each diagonal of ``self`` is gathered at the targets of
        each diagonal of ``other`` and multiplied in.  Every composite
        diagonal accumulates its terms in descending dl2 of ``self``, which is
        ascending spin of the intermediate vector: the order of a CSR product,
        so a composite entry is the same float as the CSR product's.

        A numpy vector over the domain is mapped to one over the codomain.
        """
        if isinstance(other, np.ndarray):
            return self._apply(other)
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if other.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        diags = {}
        for d, left in reversed(self.diags.items()):
            for e, right in other.diags.items():
                # right is zero where its target is -1, so that gather is harmless
                term = left[other._target(e)]
                term *= right
                if d + e in diags:
                    diags[d + e] += term
                else:
                    diags[d + e] = term
        shift = (self.shift[0] + other.shift[0], self.shift[1] + other.shift[1])
        return BandedOperator(other.domain, self.codomain, shift, diags,
                              self.interior_margin + other.interior_margin)

    def _combine(self, other, op):
        if not isinstance(other, BandedOperator):
            return NotImplemented
        if (self.domain, self.codomain, self.shift) != (other.domain, other.codomain, other.shift):
            raise ValueError("only operators between the same spaces with the same "
                             "weight shift add")
        diags = dict(self.diags)
        for d, c in other.diags.items():
            diags[d] = op(diags.get(d, 0.0), c)
        return BandedOperator(self.domain, self.codomain, self.shift, diags,
                              max(self.interior_margin, other.interior_margin))

    def _apply(self, vec: np.ndarray) -> np.ndarray:
        """The image of a coefficient vector over the domain.  A row sums in
        descending dl2, which is ascending column: the order of a CSR
        matrix-vector product.  Absent targets land in slot 0, which is
        dropped."""
        if vec.shape != (self.domain.dim,):
            raise ValueError(f"a vector of shape {vec.shape} on a {self.domain.dim}-dim domain")
        out = np.zeros(self.codomain.dim + 1, dtype=np.result_type(vec, float))
        for d, c in reversed(self.diags.items()):
            out[self._target(d) + 1] += c * vec
        return out[1:]

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar):
        return BandedOperator(self.domain, self.codomain, self.shift,
                              {d: scalar * c for d, c in self.diags.items()},
                              self.interior_margin)

    def adjoint(self) -> "BandedOperator":
        """The transpose, as all tables are real: each diagonal is scattered
        to its targets and becomes the diagonal of the opposite shift."""
        diags = {}
        for d, c in self.diags.items():
            diag = np.zeros(self.codomain.dim + 1)
            diag[self._target(d) + 1] = c  # slot 0 takes the absent targets and is dropped
            diags[-d] = diag[1:]
        return BandedOperator(self.codomain, self.domain, (-self.shift[0], -self.shift[1]),
                              diags, self.interior_margin)

    @property
    def shape(self) -> tuple:
        """(codomain.dim, domain.dim), the shape of the operator's matrix."""
        return self.codomain.dim, self.domain.dim

    # -- entries and norms ----------------------------------------------------

    def entries(self, cols=None):
        """The nonzero entries of the columns of the domain vectors in the mask
        ``cols`` (of every column when None), in ascending dl2: a COO pair
        (values, (rows, columns)) with the columns numbered among those
        kept, and the weight sector (i2, j2) of each entry's column, packed
        into one integer.  The sectors are the blocks of the operator's
        direct sum."""
        src = np.arange(self.domain.dim) if cols is None else np.nonzero(cols)[0]
        empty = np.zeros(0, dtype=np.intp)
        rows, kept, vals = [empty], [empty], [np.zeros(0)]
        for d, c in self.diags.items():
            coeff = c[src]
            keep = np.nonzero(coeff)[0]
            rows.append(self._target(d)[src[keep]])
            kept.append(keep)
            vals.append(coeff[keep])
        kept = np.concatenate(kept)
        return ((np.concatenate(vals), (np.concatenate(rows), kept)),
                self.domain._sectors[src[kept]])

    def norm(self, cols=None) -> float:
        """Operator norm, of the columns of the domain vectors in the mask
        ``cols`` when given: the one-block grid of :func:`block_norm`."""
        return block_norm([[self]], cols)

    def interior_residual_norm(self, margin=None) -> float:
        """Operator norm restricted to interior columns."""
        m = self.interior_margin if margin is None else HalfInt.of(margin)
        return self.norm(self.domain.interior_mask(m))


def block_norm(grid, cols=None) -> float:
    """Operator norm of a grid of operators read as one block operator, as
    in :func:`block_entries`, of the columns of the domain vectors in the
    mask ``cols`` when given (of every column of every block when None).

    This is where every norm is decided.  A grid with no nonzero entry has
    norm 0.  Otherwise, when the rigorous upper bound sqrt(norm_1 *
    norm_inf) is below 1e-13, that bound is returned in place of the norm:
    it is at rounding level and certifies any realistic threshold of a
    ``max`` check.  Both are read off the diagonals and hold for any grid;
    only a norm left open goes to the stacked SVD of :func:`operator_norm`,
    on the entries of the grid with their weight sectors as blocks, which
    :func:`block_entries` gives for a grid of one weight shift.
    """
    weights = [[[np.abs(c) if cols is None else np.abs(c) * cols for c in op.diags.values()]
                for op in row] for row in grid]
    if not any(w.any() for row in weights for block in row for w in block):
        return 0.0
    # a column sums in ascending dl2 and a row in descending dl2 within a
    # block, then on across the blocks of its grid column or grid row; an
    # absent target has weight 0 and lands in slot 0, which is dropped
    norm_1 = max(sum(w for block in column for w in block).max() for column in zip(*weights))
    norm_inf = 0.0
    for row, row_weights in zip(grid, weights):
        sums = np.zeros(row[0].codomain.dim + 1)
        for op, block in zip(row, row_weights):
            for d, w in zip(reversed(op.diags), reversed(block)):
                sums[op._target(d) + 1] += w
        norm_inf = max(norm_inf, sums[1:].max())
    upper = float(np.sqrt(norm_1 * norm_inf))
    if upper < 1e-13:
        return upper
    pair, sectors = block_entries(grid, cols)
    return operator_norm(pair, blocks=sectors)


def block_entries(grid, cols=None):
    """The entries of a grid of operators as one block operator, from the
    direct sum of the domains along a row to the direct sum of the
    codomains down a column: a COO pair and the weight sector of each
    entry's column, as from :meth:`BandedOperator.entries`.  ``cols``
    restricts every block to the columns of the domain vectors in the mask.

    All operators must share one weight shift, so a row of the sum lies in
    one sector too and the sectors stay the blocks of its direct sum.
    """
    if len({op.shift for row in grid for op in row}) != 1:
        raise ValueError("the operators of a block grid must share one weight shift")
    vals, rows, kept, sectors = [], [], [], []
    row_offset = 0
    for row in grid:
        col_offset = 0
        for op in row:
            (v, (r, c)), s = op.entries(cols)
            vals.append(v)
            rows.append(r + row_offset)
            kept.append(c + col_offset)
            sectors.append(s)
            col_offset += op.domain.dim if cols is None else np.count_nonzero(cols)
        row_offset += row[0].codomain.dim
    pair = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(kept)))
    return pair, np.concatenate(sectors)


def block_stack(pair, blocks):
    """The blocks of a matrix, zero padded into one stack.

    ``pair`` is the COO pair (values, (rows, cols)) of the matrix and
    ``blocks`` labels each entry with its block; every row and every column
    must lie in one block.  Stored zeros are skipped, and a row or column
    with no nonzero entry belongs to no block.  A wide block is stored
    transposed, so every block in the stack is tall.  Returns the stack, of
    shape (blocks, rows, cols) with rows >= cols, and the (rows, cols) shape
    of each block in the matrix.  The singular values of the matrix are
    those of the stacked blocks together with zeros.
    """
    vals, (rows, cols) = pair
    vals, rows, cols, blocks = map(np.asarray, (vals, rows, cols, blocks))
    nonzero = vals != 0
    vals, rows, cols = vals[nonzero], rows[nonzero], cols[nonzero]
    block_ids, block = np.unique(blocks[nonzero], return_inverse=True)
    n_blocks = block_ids.size

    def local_positions(nodes):
        # position of each row (or column) among those of its block, in index
        # order, and the number of them in each block
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
    tall = (np.maximum(height, width).max(initial=0), np.minimum(height, width).max(initial=0))
    stack = np.zeros((n_blocks, *tall), dtype=vals.dtype)
    np.add.at(stack, (block, np.where(wide, col_pos, row_pos), np.where(wide, row_pos, col_pos)),
              vals)
    return stack, np.column_stack((height, width))


def operator_norm(mat, exact_dim: int = 1200, blocks=None) -> float:
    """Largest singular value of a matrix, exact, from its blocks; 0 for a
    matrix with no nonzero entry.

    ``mat`` is a COO pair (values, (rows, cols)) of numpy arrays, or any
    matrix with a ``tocoo`` method.  The norm of a direct sum is the largest
    norm of its blocks, and zero padding adds only zero singular values, so
    one stacked dense SVD of the blocks of :func:`block_stack` gives the
    norm exactly.  ``blocks`` labels each entry of a pair with its block:
    every operator here is homogeneous for the torus weights, and
    :func:`block_norm` passes the weight sector of each entry's column.
    Without labels the whole matrix is one block, a dense SVD.
    ``exact_dim`` caps the blocks that SVD runs on: a block whose smaller
    side exceeds it raises ValueError naming its shape.
    """
    if not isinstance(mat, tuple):
        mat = mat.tocoo(copy=True)  # a copy: the caller's matrix is left as it is
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def generator_op(gen: str, q, space: TruncatedSpace) -> BandedOperator:
    """Banded operator of a generator on a truncated space.

    alpha and gamma lower the column weight by 1/2 (bundle winding k -> k-1),
    their adjoints raise it.  For a full space the codomain is the space
    itself; for bundles it is the neighbouring bundle with the same cutoff.
    """
    if gen not in _GEN_RULES:
        raise ValueError(f"unknown generator {gen!r}")
    q = strict_q(q)
    if space.full:
        codomain = space
    else:
        dk = -1 if gen in ("alpha", "gamma") else 1
        codomain = bundle_space(space.k + dk, space.lmax.twice)
    return BandedOperator.from_shift_rules(space, codomain, _GEN_RULES[gen],
                                           HalfInt(1), q=q)


def haar_state(word, q) -> float:
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
    q = strict_q(q)
    space = full_space(len(word))
    vec = np.zeros(space.dim)
    vec[0] = 1.0
    for g in reversed(word):
        vec = generator_op(g, q, space) @ vec
    return float(vec[0])


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
