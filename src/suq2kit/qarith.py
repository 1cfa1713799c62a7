"""Deformation-parameter arithmetic.

Everything downstream (operator tables, coefficient homotopies, fusion data)
consumes a real deformation parameter q in [-1, 1] \\ {0} and spin labels in
half-integer steps.  This module keeps both exact: q is validated once and
carried around as a :class:`QParam`, spins are stored as twice their value in
a plain integer (:class:`HalfInt`), and the handful of scalar functions that
appear in every coefficient formula live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


__all__ = [
    "HalfInt",
    "QParam",
    "qnumber",
    "qpow",
    "m_array",
    "m_scalar",
    "guarded_sqrt_array",
    "guarded_sqrt",
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

    def integer_distance(self, other) -> bool:
        """True iff self - other is an integer (same parity of ``twice``)."""
        other = HalfInt.of(other)
        return (self.twice - other.twice) % 2 == 0

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def __mul__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("HalfInt can only be scaled by an integer")
        return HalfInt(self.twice * n)

    __rmul__ = __mul__

    def __float__(self):
        return self.twice / 2.0

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


@dataclass(frozen=True)
class QParam:
    """Validated deformation parameter.

    q must lie in [-1, 1] and be nonzero.  The operator modules additionally
    need |q| < 1; they call :meth:`require_strict` at their entry points.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q) or q == 0.0 or abs(q) > 1.0:
            raise ValueError(f"q must lie in [-1, 1] and be nonzero, got {q!r}")
        object.__setattr__(self, "q", q)

    @classmethod
    def of(cls, value) -> "QParam":
        if isinstance(value, QParam):
            return value
        return cls(float(value))

    @property
    def abs_q(self) -> float:
        return abs(self.q)

    @property
    def sign(self) -> int:
        return 1 if self.q > 0 else -1

    def require_strict(self) -> "QParam":
        """Reject |q| = 1 (needed whenever a 1 - q^(2n) denominator occurs)."""
        if self.abs_q == 1.0:
            raise ValueError("this evaluation path needs |q| < 1")
        return self


def qnumber(q, a: int) -> float:
    """The q-integer (q^a - q^-a)/(q - q^-1).

    Antisymmetric in a; equals a at q -> 1 but that limit is excluded since
    the denominator vanishes there.
    """
    qp = QParam.of(q).require_strict()
    x = qp.q
    return (x**a - x**(-a)) / (x - 1.0 / x)


def qpow(q: float, e):
    """q**e for an integer exponent array, read from a table of q^n.

    The table is numpy's own float64 power of q over the range of ``e``, so
    every value equals the array power ``q ** e`` bit for bit; a 0-d ``e``
    gets the array value too, where numpy's scalar power can differ by 1 ULP.
    The lookup exists because numpy's array power is about ten times slower
    for a negative base than for a positive one, as it sends each element
    through libm's pow; the table needs one pow per distinct exponent.
    """
    e = np.asarray(e)
    if e.dtype.kind not in "iu":
        raise TypeError(f"qpow needs integer exponents, got dtype {e.dtype}")
    if e.size == 0:
        return np.power(q, e)
    lo, hi = int(e.min()), int(e.max())
    return np.power(q, np.arange(lo, hi + 1, dtype=float))[e - lo]


def m_array(q: float, s, l2, mask=True):
    """Interpolation scalar m(t, l) on arrays, with s = |q|^t and l2 = 2l.

    (q^2 - s^2 q^(2l)) / (s^2 - q^(2l+2)); entries outside ``mask`` are 0 and
    never divide.  This is the arithmetic the coefficient tables run.
    """
    # q^2 factored out, so that where s^2 q^(2l-2) = 1 the zero is exact and
    # not the difference of a scalar and an array power of q
    num = np.where(mask, q**2 * (1.0 - s**2 * qpow(q, l2 - 2)), 0.0)
    den = np.where(mask, s**2 - qpow(q, l2 + 2), 1.0)
    return num / den


def m_scalar(q, t: float, l: int) -> float:
    """Interpolation scalar (q^2 - |q|^(2t) q^(2l)) / (|q|^(2t) - q^(2l+2)).

    Defined for t in [0, 1] and spin l >= 1, where numerator and denominator
    are both nonnegative (denominator strictly positive) for |q| < 1.  At
    t = 1 the value is exactly 1 for every l, and the single degenerate
    request (t=1, l=0) is resolved to 1 by that convention.
    """
    qp = QParam.of(q).require_strict()
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    l = int(l)
    if l < 1:
        if l == 0 and t == 1.0:
            return 1.0
        raise ValueError(f"spin label must be >= 1, got {l}")
    return float(m_array(qp.q, qp.abs_q ** t, 2 * l))


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


def guarded_sqrt(x: float) -> float:
    """Scalar form of :func:`guarded_sqrt_array`."""
    return float(guarded_sqrt_array(float(x)))
