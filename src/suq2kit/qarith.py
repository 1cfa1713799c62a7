"""Deformation-parameter arithmetic.

Everything downstream (operator tables, coefficient homotopies, fusion data)
consumes a real deformation parameter q and spin labels in half-integer
steps.  q travels as a plain float: each entry point that builds a table
passes it through :func:`strict_q`, which rejects it unless it is finite with
0 < |q| < 1 (the tables divide by 1 - q^(2n)); only
``foq.canonical_su2_qmatrix`` also takes q = +-1, the classical points the
monoidal equivalence can solve to.  Spins are stored as twice
their value in a plain integer (:class:`HalfInt`), and the handful of scalar
functions that appear in every coefficient formula live here.

Every coefficient table reads its powers q^n and factors 1 - q^n through
one reader: :class:`Lattice` forms the lattice coordinates of a table call
once (2 l2 and l2 +- i2, l2 +- j2 in twice units) and its
:class:`QReader` holds q^n and 1 - q^n over their range, so each factor of
a table is one gather.  :func:`worst_of` is the max that the worst-case
folds of the checks use, because it keeps a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


__all__ = [
    "HalfInt",
    "strict_q",
    "qnumber",
    "QReader",
    "Lattice",
    "m_array",
    "guarded_sqrt_array",
    "worst_of",
]


@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer, stored as twice its value.

    All arithmetic happens on the integer ``twice``, so spin bookkeeping is
    exact for q arbitrarily close to the classical point.
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, HalfInt or exact float multiple of 1/2."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        doubled = 2 * value
        if doubled != int(doubled):
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(doubled))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "n" or "n/2" (the serialization used in configs)."""
        text = text.strip()
        if text.endswith("/2"):
            return cls(int(text[:-2]))
        return cls(2 * int(text))

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __eq__(self, other):
        try:
            return self.twice == HalfInt.of(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __le__(self, other):
        return self.twice <= HalfInt.of(other).twice

    def __lt__(self, other):
        return self.twice < HalfInt.of(other).twice

    def __ge__(self, other):
        return self.twice >= HalfInt.of(other).twice

    def __gt__(self, other):
        return self.twice > HalfInt.of(other).twice

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


def strict_q(q) -> float:
    """q as a float, checked for the operator tables: finite with 0 < |q| < 1.

    |q| = 1 is rejected because the tables divide by 1 - q^(2n).
    """
    q = float(q)
    if not (math.isfinite(q) and 0.0 < abs(q) < 1.0):
        raise ValueError(f"q must be finite with 0 < |q| < 1, got {q!r}")
    return q


def qnumber(q, a: int) -> float:
    """The q-integer (q^a - q^-a)/(q - q^-1).

    Antisymmetric in a; equals a at q -> 1 but that limit is excluded since
    the denominator vanishes there.
    """
    x = strict_q(q)
    return (x**a - x**(-a)) / (x - 1.0 / x)


# the largest |c| a table adds to a lattice coordinate
_PAD = 8


class QReader:
    """q^n and 1 - q^n, read at integer coordinates x plus a constant c.

    Built from the range [lo, hi] of the lattice coordinates of one table
    call, it holds numpy's float64 power q^n and 1 - q^n for n from 3/2 lo
    to 3/2 hi (0 counting as a coordinate), widened by _PAD on each side.
    ``pow(x, c)`` and ``omq(x, c)`` are then one gather each from a view
    offset by c, bit for bit numpy's ``q ** (x + c)`` and ``1.0 - q ** (x +
    c)``, with no exponent array and no reduction per factor.  x must lie
    in that range, as a coordinate, half of one or of the sum of two, or a
    coordinate plus half another does: outside it a read can return a
    wrong value instead of raising, since numpy counts a negative index
    from the end.  The lookup beats numpy's array power, which sends each
    element through libm's pow for a negative base, ten times slower.
    """

    def __init__(self, q: float, lo: int, hi: int):
        lo, hi = min(lo, 0), max(hi, 0)
        self._lo = lo + lo // 2                      # 3/2 lo, rounded down
        self._span = hi + hi // 2 - self._lo + 1
        self._pow = np.power(q, np.arange(self._lo - _PAD, self._lo + self._span + _PAD,
                                          dtype=float))
        self._omq = 1.0 - self._pow

    def _view(self, table: np.ndarray, c: int) -> np.ndarray:
        """``table`` from exponent lo + c on, rotated so that its entry x, a
        negative x counted from the end as numpy does, is at exponent x + c."""
        if abs(c) > _PAD:
            raise ValueError(f"offset {c} exceeds the reader's pad {_PAD}")
        view = table[c + _PAD:c + _PAD + self._span]
        return np.roll(view, self._lo) if self._lo else view

    def pow(self, x, c: int = 0):
        """q^(x + c) at the integer coordinates x."""
        return np.take(self._view(self._pow, c), x)

    def omq(self, x, c: int = 0):
        """1 - q^(x + c) at the integer coordinates x."""
        return np.take(self._view(self._omq, c), x)


class Lattice:
    """The lattice coordinates of one table call and their q-factor reader.

    From the twice arrays (l2, i2, j2) it forms, once, the coordinates
    ``l2``, ``ll`` = 2 l2, ``lpi`` = l2 + i2, ``lmi`` = l2 - i2, ``lpj`` =
    l2 + j2 and ``lmj`` = l2 - j2, the mask ``src_ok`` of the basis vectors
    that exist (|i2|, |j2| <= l2 is all four of lpi, lmi, lpj, lmj >= 0),
    and the :class:`QReader` over their range, whose ``pow`` and ``omq`` it
    exposes.  A table spells each printed exponent in these coordinates:
    (2 l2 + i2 + j2)/2 is (lpi + lpj) // 2, (3 l2 - i2)/2 is l2 + lmi // 2.
    """

    def __init__(self, q: float, l2, i2, j2):
        # every coordinate, l2 too, takes the shape of the three together.
        # l2 is a writable array, the caller's when it can be: np.take reads
        # a read-only index, such as the view np.broadcast_to returns,
        # several times slower
        l2 = np.asarray(l2)
        shape = np.broadcast(l2, i2, j2).shape
        if l2.shape != shape or not l2.flags.writeable:
            l2 = np.broadcast_to(l2, shape).copy()
        self.l2 = l2
        self.ll = 2 * l2
        self.lpi, self.lmi = l2 + i2, l2 - i2
        self.lpj, self.lmj = l2 + j2, l2 - j2
        self.src_ok = (self.lpi >= 0) & (self.lmi >= 0) & (self.lpj >= 0) & (self.lmj >= 0)
        if self.src_ok.all():
            # on the support every coordinate lies in [0, 2 l2]
            lo, hi = 0, 2 * int(np.max(l2, initial=0))
        else:
            coords = (l2, self.ll, self.lpi, self.lmi, self.lpj, self.lmj)
            lo, hi = min(int(np.min(x)) for x in coords), max(int(np.max(x)) for x in coords)
        reader = QReader(q, lo, hi)
        self.pow, self.omq = reader.pow, reader.omq


def m_array(q: float, s, l2, mask=True):
    """Interpolation scalar m(t, l) on arrays, with s = |q|^t and l2 = 2l.

    (q^2 - s^2 q^(2l)) / (s^2 - q^(2l+2)); entries outside ``mask`` are 0 and
    never divide.  This is the arithmetic the coefficient tables run.
    """
    read = QReader(q, int(np.min(l2, initial=0)), int(np.max(l2, initial=0)))
    # q^2 factored out, so that where s^2 q^(2l-2) = 1 the zero is exact and
    # not the difference of a scalar and an array power of q
    num = np.where(mask, q**2 * (1.0 - s**2 * read.pow(l2, -2)), 0.0)
    den = np.where(mask, s**2 - read.pow(l2, 2), 1.0)
    return num / den


_SQRT_TOL = 1e-12


def guarded_sqrt_array(x):
    """Elementwise square root that clamps tiny negative rounding residue to zero.

    A radicand below -_SQRT_TOL is a genuinely negative value, i.e. a formula
    bug upstream, and raises instead of being silently clamped.
    """
    x = np.asarray(x, dtype=float)
    low = float(x.min(initial=0.0))
    if low < -_SQRT_TOL:
        raise ValueError(f"negative radicand {low!r} exceeds tolerance {_SQRT_TOL!r}")
    return np.sqrt(np.maximum(x, 0.0))


def worst_of(*values):
    """The largest of the values, or NaN as soon as one of them is NaN.

    Python's max keeps a value unless a later one compares greater, so
    max(0.0, nan) is 0.0 and a NaN residual folded into a worst case would
    read as a pass.  On numbers this is max, ties keeping the first value.
    """
    out = values[0]
    for v in values[1:]:
        if math.isnan(v) or v > out:
            out = v
    return out
