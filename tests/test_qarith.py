"""Scalar arithmetic: q-numbers, half-integers, the interpolation scalar."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from suq2kit.qarith import (HalfInt, QParam, guarded_sqrt, guarded_sqrt_array, m_array,
                            m_scalar, qnumber, qpow)
from suq2kit.suites import SuiteConfig, UsageError

Q_GRID = (0.3, -0.3, 0.5, -0.5, 0.9, -0.9)
# both signs from far inside the unit interval to next to its end
WIDE_Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999)


def bits(x):
    """The float64 bit patterns of x, so that == compares bit for bit."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# qnumber
# ---------------------------------------------------------------------------

def test_qnumber_trivial_values():
    assert qnumber(0.5, 0) == 0.0
    assert qnumber(0.5, 1) == 1.0


def test_qnumber_direct_evaluation():
    # (0.125 - 8) / (0.5 - 2)
    assert qnumber(0.5, 3) == pytest.approx(5.25, abs=1e-14)


def test_qnumber_antisymmetry():
    for q in Q_GRID:
        for a in range(-20, 21):
            assert qnumber(q, a) == pytest.approx(-qnumber(q, -a), abs=1e-12)


def test_qnumber_three_term_recursion():
    # [a+1] = (q + 1/q) [a] - [a-1]
    for q in Q_GRID:
        for a in range(-50, 50):
            lhs = qnumber(q, a + 1)
            rhs = (q + 1.0 / q) * qnumber(q, a) - qnumber(q, a - 1)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_qnumber_matches_high_precision():
    mpmath.mp.dps = 50
    for q in (0.5, -0.9):
        for a in (2, 7, 25):
            qm = mpmath.mpf(q)
            exact = (qm**a - qm**-a) / (qm - 1 / qm)
            assert qnumber(q, a) == pytest.approx(float(exact), rel=1e-13)


def test_qnumber_rejects_unit_modulus():
    with pytest.raises(ValueError):
        qnumber(1.0, 2)
    with pytest.raises(ValueError):
        qnumber(-1.0, 2)


# ---------------------------------------------------------------------------
# qpow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", WIDE_Q_GRID)
def test_qpow_is_the_array_power_bitwise(q):
    e = np.random.default_rng(7).integers(-60, 250, size=4000)
    square = e[:3600].reshape(60, 60)
    for exps in (e, e[::3], e[-40:], square, square.T, np.arange(-5, 6)):
        out = qpow(q, exps)
        assert out.shape == exps.shape
        assert np.array_equal(bits(out), bits(q ** exps))


def test_qpow_of_no_exponents_is_empty():
    out = qpow(-0.5, np.zeros((0, 3), dtype=np.int64))
    assert out.shape == (0, 3) and out.dtype == np.float64


def test_qpow_rejects_float_exponents():
    with pytest.raises(TypeError):
        qpow(0.5, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# m_scalar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", WIDE_Q_GRID + (0.3,))
def test_m_scalar_is_the_array_entry_bitwise(q):
    spins = np.arange(1, 61)
    for t in [k / 10 for k in range(11)]:
        table = m_array(q, abs(q) ** t, 2 * spins)
        scalars = [m_scalar(q, t, int(l)) for l in spins]
        assert np.array_equal(bits(scalars), bits(table))


def test_m_scalar_is_one_at_t_one():
    for q in Q_GRID:
        for l in range(1, 101):
            assert abs(m_scalar(q, 1.0, l) - 1.0) < 1e-15


def test_m_scalar_convention_at_spin_zero():
    assert m_scalar(0.5, 1.0, 0) == 1.0
    with pytest.raises(ValueError):
        m_scalar(0.5, 0.5, 0)
    with pytest.raises(ValueError):
        m_scalar(0.5, 0.5, -1)


def test_m_scalar_frozen_values():
    assert m_scalar(0.5, 0.0, 1) == pytest.approx(0.0, abs=1e-15)
    # (0.25 - 0.5 * 0.0625) / (0.5 - 0.015625)
    assert m_scalar(0.5, 0.5, 2) == pytest.approx(0.45161290322580644, abs=1e-13)
    mpmath.mp.dps = 40
    q, t, l = mpmath.mpf(-0.7), mpmath.mpf(0.3), 4
    exact = (q**2 - abs(q) ** (2 * t) * q ** (2 * l)) / (abs(q) ** (2 * t) - q ** (2 * l + 2))
    assert m_scalar(-0.7, 0.3, 4) == pytest.approx(float(exact), rel=1e-13)


def test_m_scalar_range_and_monotone_in_spin():
    # increasing in the spin label, saturating at |q|^(2 - 2t) from below
    for q in Q_GRID:
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            limit = abs(q) ** (2.0 - 2.0 * t)
            values = [m_scalar(q, t, l) for l in range(1, 40)]
            assert all(0.0 <= v <= limit + 1e-15 for v in values)
            for a, b in zip(values, values[1:]):
                if t < 1.0:
                    assert b > a or b == pytest.approx(limit, abs=1e-15)
                else:
                    assert b == pytest.approx(a, abs=1e-15)
            assert values[-1] == pytest.approx(limit, abs=abs(q) ** 60 + 1e-12)


def test_m_scalar_rejects_bad_t():
    with pytest.raises(ValueError):
        m_scalar(0.5, -0.1, 2)
    with pytest.raises(ValueError):
        m_scalar(0.5, 1.1, 2)


# ---------------------------------------------------------------------------
# guarded_sqrt
# ---------------------------------------------------------------------------

def test_guarded_sqrt_basic():
    assert guarded_sqrt(0.0) == 0.0
    assert guarded_sqrt(0.25) == 0.5
    assert guarded_sqrt(-1e-16) == 0.0
    assert list(guarded_sqrt_array([-1e-16, 0.0, 0.25])) == [0.0, 0.0, 0.5]


def test_guarded_sqrt_flags_genuinely_negative():
    with pytest.raises(ValueError):
        guarded_sqrt(-1e-6)
    with pytest.raises(ValueError):
        guarded_sqrt_array([0.25, -1e-6])


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_guarded_sqrt_squares_back(x):
    r = guarded_sqrt(x)
    assert r * r == pytest.approx(x, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# HalfInt
# ---------------------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_halfint_addition_is_exact(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert (x + y) - y == x
    assert (x + y).twice == a + b


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_halfint_parity_predicate(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert x.integer_distance(y) == ((a - b) % 2 == 0)


def test_halfint_parse_and_str():
    assert HalfInt.parse("20") == HalfInt(40)
    assert HalfInt.parse("41/2") == HalfInt(41)
    assert str(HalfInt(41)) == "41/2"
    assert str(HalfInt(40)) == "20"
    assert float(HalfInt(3)) == 1.5


def test_halfint_ordering_and_abs():
    assert HalfInt(3) > HalfInt(2)
    assert abs(HalfInt(-7)) == HalfInt(7)
    assert HalfInt(4) == 2
    assert -HalfInt(5) == HalfInt(-5)
    assert HalfInt(3) * 2 == HalfInt(6)


def test_halfint_of_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    assert HalfInt.of(1.5) == HalfInt(3)


# ---------------------------------------------------------------------------
# QParam / tolerances
# ---------------------------------------------------------------------------

def test_qparam_validation():
    qp = QParam(-0.7)
    assert qp.abs_q == 0.7
    assert qp.sign == -1
    assert qp.sign * qp.abs_q == qp.q
    for bad in (0.0, 1.5, -2.0, math.nan):
        with pytest.raises(ValueError):
            QParam(bad)
    QParam(1.0)  # allowed; strict paths reject it separately
    with pytest.raises(ValueError):
        QParam(1.0).require_strict()


def test_precision_validation():
    SuiteConfig(suite="relations")
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_identity=0.0)
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_decay=-1e-8)
