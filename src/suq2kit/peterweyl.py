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
with ``@``.  The index maps between a diagonal and the codomain, where each
domain vector lands and where each codomain vector comes from, are located
once per space pair and shift: a space keeps the maps into it while some
operator holds them, so operators on the same spaces share them.  Every
operation reads them by gathers and none scatters through one.

Every norm, of one operator or of a grid of them read as one block
operator, is decided by :func:`block_norm`: it reads the zero case, the
rounding-level bound and the weight sectors that can hold an open norm off
the sums of the diagonals, and hands only those sectors' entries to
:func:`operator_norm`, the exact stacked SVD.  The package runs on numpy
alone and exports no scipy matrix.

Index bookkeeping is done in "twice" units (integers 2l, 2i, 2j) so every
exponent appearing in a coefficient formula is an exact integer.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import cached_property, lru_cache

import numpy as np

from .qarith import HalfInt, Lattice, guarded_sqrt_array, strict_q

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
        bottom = 0 if full else abs(self.k)
        if self.lmax.twice < bottom:
            raise ValueError(f"lmax={self.lmax} below the bottom spin {HalfInt(bottom)} of "
                             + ("the full space" if full else f"bundle k={self.k}"))
        # a plain tuple, which every position-cache lookup hashes and compares
        self._key = (self.lmax.twice, self.k, self.full)
        # position maps into this space, keyed by (source._key, shift); an
        # entry lives as long as some operator holds its array
        self._positions = weakref.WeakValueDictionary()
        self._build()

    def _build(self):
        lmax2 = self.lmax.twice
        if self.full:
            levels = np.arange(0, lmax2 + 1, dtype=np.int64)
            sizes = (levels + 1) ** 2
        else:
            levels = np.arange(abs(self.k), lmax2 + 1, 2, dtype=np.int64)
            sizes = levels + 1
        self.levels2 = levels
        self.level_base = np.concatenate(([0], np.cumsum(sizes)))
        self.dim = int(self.level_base[-1])

        # a level lists its vectors by i2, and on a full space by j2 within i2
        self.l2 = np.repeat(levels, sizes)
        within = np.arange(self.dim) - np.repeat(self.level_base[:-1], sizes)
        if self.full:
            self.i2 = 2 * (within // (self.l2 + 1)) - self.l2
            self.j2 = 2 * (within % (self.l2 + 1)) - self.l2
        else:
            self.i2 = 2 * within - self.l2
            self.j2 = np.full(self.dim, self.k, dtype=np.int64)

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
    def _sectors(self) -> tuple:
        """The distinct weight sectors (i2, j2), packed and sorted, and the
        index among them of each basis vector's sector."""
        return np.unique(self.i2 * _SECTOR_BASE + self.j2, return_inverse=True)

    def shifted(self, source: "TruncatedSpace", shift) -> np.ndarray:
        """Positions in this space of the basis of ``source`` shifted by
        (dl2, di2, dj2), in twice units; -1 where the shifted vector is absent.

        Between spaces on one grid, the same full space or two bundles at one
        lmax whose windings differ by dj2, a shift moves every grid index by
        the same offset, so the positions are one gather from the padded grid.
        """
        dl2, di2, dj2 = shift
        steps = (dl2, (dl2 + di2) // 2, (dl2 + dj2) // 2)[:3 if self.full else 2]
        one_grid = (source._key == self._key if self.full
                    else not source.full and source.lmax.twice == self.lmax.twice
                    and source.k + dj2 == self.k)
        if (one_grid and (dl2 + di2) % 2 == 0 and (dl2 + dj2) % 2 == 0
                and max(map(abs, steps)) <= _PAD):
            n = self.lmax.twice + 1 + 2 * _PAD
            offset = 0
            for step in steps:
                offset = offset * n + step
            return self._grid[source._flat + offset].astype(np.intp)
        return self.locate(source.l2 + dl2, source.i2 + di2, source.j2 + dj2)

    def positions(self, source: "TruncatedSpace", shift: tuple) -> np.ndarray:
        """:meth:`shifted`, located once per (source, shift) while some
        caller holds the array, so every operator between the same spaces
        with the same shift reads one map.  The map is shared, so it is
        read only; read it by indexing, as numpy's ``take`` is several
        times slower on a read-only index."""
        key = (source._key, shift)
        pos = self._positions.get(key)
        if pos is None:
            pos = self._positions[key] = self.shifted(source, shift)
            pos.flags.writeable = False
        return pos

    def interior_mask(self, margin) -> np.ndarray:
        """Vectors far enough below lmax that a margin-banded operator is
        truncation exact on them."""
        m2 = HalfInt.of(margin).twice
        return self.l2 <= self.lmax.twice - m2

    def tail_mask(self, l_from) -> np.ndarray:
        return self.l2 >= HalfInt.of(l_from).twice

    def __getstate__(self):
        # weak references do not pickle; a copy starts with an empty cache
        return {k: v for k, v in self.__dict__.items() if k != "_positions"}

    def __setstate__(self, state):
        self.__dict__.update(state, _positions=weakref.WeakValueDictionary())

    def __eq__(self, other):
        return isinstance(other, TruncatedSpace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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
#
# Every table reads its factors q^n and 1 - q^n through the
# ``qarith.Lattice`` of its call: each printed exponent is spelled as a
# lattice coordinate (l2, 2 l2, l2 +- i2, l2 +- j2, or a half-sum of them)
# plus a small constant, and each factor is one gather.  Products keep their
# printed order, so every value is the float the printed form gives.

def _masked_sqrt_ratio(x, num, den, mask):
    """sqrt(prod(1-q^n) / prod(1-q^d)) with zeros where mask is false.

    x is the :class:`~suq2kit.qarith.Lattice` (or any q-factor reader) of
    the table call, and each n and d is a (coordinate, constant) pair that
    it reads; the factors multiply in the order given.
    """
    val = x.omq(*num[0])
    for e in num[1:]:
        val = val * x.omq(*e)
    if not den:
        return guarded_sqrt_array(np.where(mask, val, 0.0))
    d = x.omq(*den[0])
    for e in den[1:]:
        d = d * x.omq(*e)
    return guarded_sqrt_array(_masked_quotient(val, d, mask))


def _masked_quotient(num, den, mask):
    """num / den where mask holds and 0.0 elsewhere, where nothing divides."""
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den, mask).shape), where=mask)


def _iratio(x, num):
    """(1 - q^num) / (1 - q^(2*l2)) with its removable limit 1/2 at l2 = 0.

    The l2 = 0 branch is only ever multiplied by factors that vanish there,
    so any finite completion gives the same product; 1/(1 + q^l2) is the
    continuous one.
    """
    limit = np.asarray(1.0 / (1.0 + x.pow(x.l2)))
    return np.divide(x.omq(*num), x.omq(x.ll), out=limit, where=x.l2 > 0)


def _spin_dens(x, mask):
    """1 - q^(2l+2) and (1 - q^(2l+2))(1 - q^(2l+4)) where mask holds and 1
    elsewhere: the denominators of the diagonal tables, which vanish at the
    absent spins l2 = -1 and -2."""
    d1 = x.omq(x.ll, 2)
    return np.where(mask, d1, 1.0), np.where(mask, d1 * x.omq(x.ll, 4), 1.0)


def _band(x, mask, num, den, pref=1.0, den_exp=None):
    """One off-diagonal table entry: pref * sqrt(prod(1-q^n) / prod(1-q^d)),
    divided by 1 - q^den_exp when given, and zero where mask is false.

    Each table passes its printed exponents as (coordinate, constant) pairs
    of its lattice x, and its prefactor; the product is formed before the
    division so every table keeps its printed arithmetic.
    """
    val = pref * _masked_sqrt_ratio(x, num, den, mask)
    if den_exp is None:
        return np.where(mask, val, 0.0)
    return _masked_quotient(val, x.omq(*den_exp), mask)


def reg_a_plus(q, l2, i2, j2):
    x = Lattice(q, l2, i2, j2)
    return _band(x, x.src_ok, ((x.lmj, 2), (x.lmi, 2)), ((x.ll, 2), (x.ll, 4)),
                 pref=x.pow((x.lpi + x.lpj) // 2, 1))


def reg_a_minus(q, l2, i2, j2):
    x = Lattice(q, l2, i2, j2)
    mask = x.src_ok & (x.lpi != 0) & (x.lpj != 0)
    return _band(x, mask, ((x.lpj, 0), (x.lpi, 0)), ((x.ll, 0), (x.ll, 2)))


def reg_c_plus(q, l2, i2, j2):
    x = Lattice(q, l2, i2, j2)
    return _band(x, x.src_ok, ((x.lmj, 2), (x.lpi, 2)), ((x.ll, 2), (x.ll, 4)),
                 pref=-x.pow(x.lpj // 2))


def reg_c_minus(q, l2, i2, j2):
    x = Lattice(q, l2, i2, j2)
    mask = x.src_ok & (x.lmi != 0) & (x.lpj != 0)
    return _band(x, mask, ((x.lpj, 0), (x.lmi, 0)), ((x.ll, 0), (x.ll, 2)),
                 pref=x.pow(x.lpi // 2))


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
        # per dl2, the position maps of _target and _source, kept from the
        # spaces' shared caches for as long as the operator lives
        self._targets = {}
        self._sources = {}
        if any(c.shape != (domain.dim,) for c in self.diags.values()):
            raise ValueError("a diagonal does not match the domain")

    def _target(self, dl2) -> np.ndarray:
        """Codomain positions of the domain basis shifted by (dl2, *shift); -1
        where the shifted vector is absent."""
        tgt = self._targets.get(dl2)
        if tgt is None:
            tgt = self._targets[dl2] = self.codomain.positions(self.domain, (dl2, *self.shift))
        return tgt

    def _source(self, dl2) -> np.ndarray:
        """Domain positions of the codomain basis shifted by -(dl2, *shift);
        -1 where that vector is absent.  It inverts :meth:`_target`, so the
        diagonal dl2 is read at a codomain row by one gather at this map."""
        src = self._sources.get(dl2)
        if src is None:
            di2, dj2 = self.shift
            src = self._sources[dl2] = self.domain.positions(self.codomain, (-dl2, -di2, -dj2))
        return src

    @classmethod
    def from_shift_rules(cls, domain, codomain, rules, margin, q):
        """Assemble from (shift, coefficient) rules.

        Each rule is ((dl2, di2, dj2), fn) with fn(q, l2, i2, j2) vectorized
        over the twice arrays of the domain; all rules share one weight shift
        (di2, dj2).  Entries whose target leaves the codomain are dropped
        (that is the truncation), and rules with the same dl2 add up.  Each
        rule's targets are located once, or read from a live operator on
        the same spaces with the same shift.
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
        matrix-vector product.  A row with no entry on a diagonal adds 0.0,
        which leaves a sum started at +0.0 as it is."""
        if vec.shape != (self.domain.dim,):
            raise ValueError(f"a vector of shape {vec.shape} on a {self.domain.dim}-dim domain")
        out = np.zeros(self.codomain.dim, dtype=np.result_type(vec, float))
        for d, c in reversed(self.diags.items()):
            out += _gather(c * vec, self._source(d))
        return out

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar):
        return BandedOperator(self.domain, self.codomain, self.shift,
                              {d: scalar * c for d, c in self.diags.items()},
                              self.interior_margin)

    def adjoint(self) -> "BandedOperator":
        """The transpose, as all tables are real: each diagonal, gathered at
        the sources of the codomain rows, is the diagonal of the opposite
        shift."""
        diags = {-d: _gather(c, self._source(d)) for d, c in self.diags.items()}
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
        kept, and the index of the weight sector (i2, j2) of each entry's
        column among the domain's sectors.  The sectors are the blocks of the
        operator's direct sum."""
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
                self.domain._sectors[1][src[kept]])

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
    The grid has one domain, over which ``cols`` is one mask; a grid on
    several domains raises ValueError.

    This is where every norm is decided, in three steps, from the |entry|
    sums of every column and row that :func:`_norm_bound` takes on the
    diagonals.  First, when the rigorous upper bound sqrt(norm_1 *
    norm_inf) is below 1e-13, that bound is returned in place of the norm:
    it is exactly 0 for a grid with no nonzero entry, and otherwise at
    rounding level, where it certifies any realistic threshold of a
    ``max`` check.  A NaN entry anywhere in the grid, in a kept column or
    not, makes that bound NaN, and NaN is returned before any SVD.

    Second, :func:`_kept_columns` groups the sums by weight sector, the
    blocks of the direct sum.  A sector block's largest singular value s_b
    lies in [l_b, u_b]: l_b is its largest column 2-norm, from the column
    sums of squares, and u_b its own sqrt(norm_1 * norm_inf).  A sector
    with u_b (1 + d) < L (1 - d), L the largest l_b and d =
    ``_PRUNE_MARGIN`` = 1e-9, is dropped.  Third, the entries of the kept
    sectors' columns go to :func:`operator_norm`, one stacked SVD at the
    padded shape (m, n) of all sectors: LAPACK returns the same floats for
    a block at the same padding, while a smaller one can move s_b by an
    ULP.  The result is the float the SVD of every sector gives, as long
    as no dropped sector's computed s_b exceeds the kept maximum.

    d covers that.  With eps the machine epsilon, each computed bound is
    within (m + 2) eps of the exact one, relative: a sum of at most m
    nonnegative terms, a product and a square root.  The sums run in
    diagonal order (a column in ascending dl2, a row in descending dl2),
    and that bound holds in any order.  LAPACK's computed s_b is within
    p(m, n) eps s_b of s_b, p a modestly growing polynomial, allowed m n
    here.  Let sector a give L.  For a dropped b, computed s_b <= u_b (1 +
    m n eps) < L (1 - d)/(1 + d) (1 + (m + 2) eps)(1 + m n eps) <= s_a (1 -
    d)/(1 + d) (1 + (m + 2) eps)^2 (1 + m n eps), which is below computed
    s_a >= s_a (1 - m n eps) when (m n + m + 2) eps <= d, to first order;
    the code asks for d / 2.  So a is kept, and no dropped sector beats
    it.  The prune runs only when that holds, as it does for every stack
    up to m = n = 1200, and only when every nonzero entry in the columns
    of ``cols`` has a magnitude in [1e-100, 1e100], so that no square, sum
    or product in a bound underflows or overflows.
    """
    if len({op.domain for row in grid for op in row}) != 1:
        raise ValueError("the operators of a block grid must share one domain, "
                         "over which the column mask is one mask")
    upper, sums = _norm_bound(grid, cols)
    if upper < 1e-13 or np.isnan(upper):
        return upper
    kept, pad = _kept_columns(grid, cols, *sums)
    pair, sectors = block_entries(grid, kept)
    return operator_norm(pair, blocks=sectors, pad=pad)


def _norm_bound(grid, cols=None):
    """sqrt(norm_1 * norm_inf) of the grid of :func:`block_norm`, an upper
    bound of its norm, and the sums it reads: the :func:`_weights` of every
    diagonal, the :func:`_column_sums` of each grid column and the row sums
    of each grid row.  A row sums from +0.0 in descending dl2 within a
    block, then on across its grid row, gathering each diagonal at its
    sources; a row with no entry on a diagonal reads the trailing 0.0.
    np.max keeps a NaN weight, so the bound is NaN when an entry is.
    """
    weights = [[[_weights(c, cols) for c in op.diags.values()] for op in row] for row in grid]
    columns = _column_sums(grid, weights)
    rows = [np.zeros(row[0].codomain.dim) for row in grid]
    for row, sums, row_weights in zip(grid, rows, weights):
        for op, block in zip(row, row_weights):
            for d, w in zip(reversed(op.diags), reversed(block)):
                sums += w[op._source(d)]
    norm_1, norm_inf = np.max([s.max() for s in columns]), np.max([s.max() for s in rows])
    # in Python floats an overflow leaves the bound inf, still an upper
    # bound, and the norm open, with no warning
    return math.sqrt(float(norm_1) * float(norm_inf)), (weights, columns, rows)


def _weights(c, cols):
    """|c|, times the column mask ``cols`` when given, with a trailing 0.0
    that a position map's -1 reads."""
    w = np.zeros(c.size + 1)
    np.abs(c, out=w[:-1])
    if cols is not None:
        w[:-1] *= cols
    return w


def _column_sums(grid, weights, squares=False) -> list:
    """For each grid column, the sum of each column of the ``weights`` of
    :func:`_weights`, or of their squares: from +0.0 in ascending dl2
    within a block, then on down the grid column, with the trailing 0.0."""
    columns = [np.zeros(op.domain.dim + 1) for op in grid[0]]
    for row_weights in weights:
        for sums, block in zip(columns, row_weights):
            for w in block:
                sums += w * w if squares else w
    return columns


# a sector is dropped when its upper bound clears the largest lower bound
# by this relative margin; see block_norm
_PRUNE_MARGIN = 1e-9

# entries of magnitude in [1e-100, 1e100]: their squares, sums and the
# products of two sums are normal floats, neither subnormal nor infinite
_BOUND_RANGE = (1e-100, 1e100)


def _kept_columns(grid, cols, weights, columns, rows):
    """The mask of the domain vectors in ``cols`` whose weight sector can
    hold the norm of the grid of :func:`block_norm`, and the padded shape
    of the stack of all sectors, from the sums of :func:`_norm_bound`.
    A column lies in the sector of its domain vector, a row in the sector
    of the columns that reach it: its codomain weight less the weight
    shift.  A row that none reaches sums to 0.0 and counts in no sector.
    A sector's shape counts its lines with a nonzero sum, as
    :func:`block_stack` counts them."""
    (di2, dj2), (labels, sector) = grid[0][0].shift, grid[0][0].domain._sectors
    col_sums, col_sector = np.concatenate([s[:-1] for s in columns]), np.tile(sector, len(columns))
    row_sums = np.concatenate(rows)
    row_sector = np.minimum(np.concatenate([
        np.searchsorted(labels, codomain_labels - (di2 * _SECTOR_BASE + dj2))[index]
        for codomain_labels, index in (row[0].codomain._sectors for row in grid)]), labels.size - 1)
    pad = _padded_shape(np.bincount(row_sector[row_sums > 0], minlength=labels.size),
                        np.bincount(col_sector[col_sums > 0], minlength=labels.size))
    mags = [w for row in weights for block in row for w in block]
    if ((pad[0] * pad[1] + pad[0] + 2) * np.finfo(float).eps > _PRUNE_MARGIN / 2
            or min(np.min(w, where=w > 0, initial=np.inf) for w in mags) < _BOUND_RANGE[0]
            or max(w.max() for w in mags) > _BOUND_RANGE[1]):
        return cols, pad
    squares = np.concatenate([s[:-1] for s in _column_sums(grid, weights, squares=True)])
    norm_1, norm_inf, lower = (np.zeros(labels.size) for _ in range(3))
    np.maximum.at(norm_1, col_sector, col_sums)
    np.maximum.at(norm_inf, row_sector, row_sums)
    np.maximum.at(lower, col_sector, squares)
    kept = ~(np.sqrt(norm_1 * norm_inf) * (1 + _PRUNE_MARGIN)
             < np.sqrt(lower.max()) * (1 - _PRUNE_MARGIN))[sector]
    return kept if cols is None else kept & cols, pad


def _gather(values, positions):
    """``values`` at ``positions``, and 0.0 where a position is -1."""
    return np.append(values, 0.0)[positions]


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


def block_stack(pair, blocks, pad=(0, 0)):
    """The blocks of a matrix, zero padded into one stack.

    ``pair`` is the COO pair (values, (rows, cols)) of the matrix and
    ``blocks`` labels each entry with its block; every row and every column
    must lie in one block.  Stored zeros are skipped, and a row or column
    with no nonzero entry belongs to no block.  A wide block is stored
    transposed, so every block in the stack is tall.  Returns the stack, of
    shape (blocks, rows, cols) with rows >= cols, at least ``pad``, and the
    (rows, cols) shape of each block in the matrix.  The singular values of
    the matrix are those of the stacked blocks together with zeros.
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
    tall = np.maximum(_padded_shape(height, width), pad)
    stack = np.zeros((n_blocks, *tall), dtype=vals.dtype)
    np.add.at(stack, (block, np.where(wide, col_pos, row_pos), np.where(wide, row_pos, col_pos)),
              vals)
    return stack, np.column_stack((height, width))


def _padded_shape(height, width) -> tuple:
    """The (rows, cols) of a stack that holds every block of these heights
    and widths tall: the longest long side and the longest short side."""
    return (int(np.maximum(height, width).max(initial=0)),
            int(np.minimum(height, width).max(initial=0)))


def operator_norm(mat, exact_dim: int = 1200, blocks=None, pad=(0, 0)) -> float:
    """Largest singular value of a matrix, exact, from one stacked SVD of
    its blocks; 0 for a matrix with no nonzero entry.

    ``mat`` is a COO pair (values, (rows, cols)) of numpy arrays, or any
    matrix with a ``tocoo`` method.  ``blocks`` labels each entry of a pair
    with its block: every operator here is homogeneous for the torus
    weights, and :func:`block_norm` passes the weight sector of each
    entry's column.  Without labels the whole matrix is one block, a dense
    SVD.  The norm of a direct sum is the largest norm of its blocks, and
    zero padding adds only zero singular values, so the largest first
    singular value of the stack of :func:`block_stack` is the norm.  The
    stack is padded at least to ``pad``, as :func:`block_norm` passes the
    sectors that can hold the norm at the padded shape of all its sectors.
    A padded shape whose smaller side exceeds ``exact_dim``, so that some
    block's does, passed or pruned, raises ValueError naming the shape.
    """
    if not isinstance(mat, tuple):
        mat = mat.tocoo(copy=True)  # a copy: the caller's matrix is left as it is
        mat.sum_duplicates()
        mat = (mat.data, (mat.row, mat.col))
    vals = np.asarray(mat[0])
    if not vals.any():
        return 0.0
    blocks = np.zeros(vals.size, dtype=np.intp) if blocks is None else blocks
    stack, _ = block_stack(mat, blocks, pad)
    if stack.shape[2] > exact_dim:
        raise ValueError(f"a stack padded to {stack.shape[1:]} exceeds exact_dim={exact_dim}")
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
    operators on the cutoff n/2 compute it exactly.  Each generator of the
    word is built once and lives through the word, so every position map
    its application reads is located once.
    """
    word = tuple(word)
    for g in word:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r} in word")
    q = strict_q(q)
    space = full_space(len(word))
    ops = {g: generator_op(g, q, space) for g in dict.fromkeys(word)}
    vec = np.zeros(space.dim)
    vec[0] = 1.0
    for g in reversed(word):
        vec = ops[g] @ vec
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
