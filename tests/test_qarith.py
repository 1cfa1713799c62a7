"""Scalar arithmetic: q-numbers, half-integers, the interpolation scalar."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from suq2kit.qarith import HalfInt, guarded_sqrt_array, m_array, qnumber, qpow, strict_q
from suq2kit import homotopy as ho
from suq2kit.peterweyl import full_space, generator_op, haar_state
from suq2kit.podles import FredholmModule, podles_op
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
# m_array
# ---------------------------------------------------------------------------

def test_m_scalar_is_one_at_t_one():
    spins = np.arange(1, 101)
    for q in Q_GRID:
        assert (np.abs(m_array(q, abs(q) ** 1.0, 2 * spins) - 1.0) < 1e-15).all()


def test_m_scalar_frozen_values():
    assert m_array(0.5, 0.5 ** 0.0, 2) == pytest.approx(0.0, abs=1e-15)
    # (0.25 - 0.5 * 0.0625) / (0.5 - 0.015625)
    assert m_array(0.5, 0.5 ** 0.5, 4) == pytest.approx(0.45161290322580644, abs=1e-13)
    mpmath.mp.dps = 40
    q, t, l = mpmath.mpf(-0.7), mpmath.mpf(0.3), 4
    exact = (q**2 - abs(q) ** (2 * t) * q ** (2 * l)) / (abs(q) ** (2 * t) - q ** (2 * l + 2))
    assert m_array(-0.7, 0.7 ** 0.3, 8) == pytest.approx(float(exact), rel=1e-13)


def test_m_scalar_range_and_monotone_in_spin():
    # increasing in the spin label, saturating at |q|^(2 - 2t) from below
    for q in Q_GRID:
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            limit = abs(q) ** (2.0 - 2.0 * t)
            values = m_array(q, abs(q) ** t, 2 * np.arange(1, 40)).tolist()
            assert all(0.0 <= v <= limit + 1e-15 for v in values)
            for a, b in zip(values, values[1:]):
                if t < 1.0:
                    assert b > a or b == pytest.approx(limit, abs=1e-15)
                else:
                    assert b == pytest.approx(a, abs=1e-15)
            assert values[-1] == pytest.approx(limit, abs=abs(q) ** 60 + 1e-12)


# ---------------------------------------------------------------------------
# guarded_sqrt_array
# ---------------------------------------------------------------------------

def test_guarded_sqrt_basic():
    assert list(guarded_sqrt_array([-1e-16, 0.0, 0.25])) == [0.0, 0.0, 0.5]


def test_guarded_sqrt_flags_genuinely_negative():
    with pytest.raises(ValueError):
        guarded_sqrt_array(-1e-6)
    with pytest.raises(ValueError):
        guarded_sqrt_array([0.25, -1e-6])


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_guarded_sqrt_squares_back(x):
    r = float(guarded_sqrt_array(x))
    assert r * r == pytest.approx(x, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# HalfInt
# ---------------------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_halfint_addition_is_exact(a, b):
    x, y = HalfInt(a), HalfInt(b)
    assert (x + y).twice == a + b
    assert x + 0 == 0 + x == x


def test_halfint_parse_and_str():
    assert HalfInt.parse("20") == HalfInt(40)
    assert HalfInt.parse("41/2") == HalfInt(41)
    assert str(HalfInt(41)) == "41/2"
    assert str(HalfInt(40)) == "20"


def test_halfint_ordering():
    assert HalfInt(3) > HalfInt(2)
    assert HalfInt(4) == 2
    assert HalfInt(3) + 1 == HalfInt(5)


def test_halfint_of_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    assert HalfInt.of(1.5) == HalfInt(3)


# ---------------------------------------------------------------------------
# strict_q / tolerances
# ---------------------------------------------------------------------------

def test_strict_q_validation():
    assert strict_q(-0.7) == -0.7
    assert type(strict_q(np.float64(0.5))) is float
    for bad in (0.0, 1.5, -2.0, math.nan, math.inf, 1.0, -1.0):
        with pytest.raises(ValueError, match=r"\|q\| < 1"):
            strict_q(bad)


# every entry point that builds tables or q-numbers from q, on a small cutoff
STRICT_Q_ENTRY_POINTS = {
    "qnumber": lambda q: qnumber(q, 3),
    "generator_op": lambda q: generator_op("alpha", q, full_space(2)),
    "haar_state": lambda q: haar_state(("gamma*", "gamma"), q),
    "podles_op": lambda q: podles_op("A", q, full_space(4)),
    "FredholmModule.standard": lambda q: FredholmModule.standard(q, 2),
    "build_omega": lambda q: ho.build_omega(q, [0.5], 2)[0],
    "verify_lemma1": lambda q: ho.verify_lemma1(q, 2, 3),
    "verify_lemma2": lambda q: ho.verify_lemma2(q, [1, 2], 3),
    "verify_lemma3": lambda q: ho.verify_lemma3(q, 2),
    "degenerate_module_check": lambda q: ho.degenerate_module_check(q, 2),
    "_omega_matrices_on_minus2": lambda q: ho._omega_matrices_on_minus2(q, 2),
    "rotation_homotopy_check": lambda q: ho.rotation_homotopy_check(q, 3, 4, 2),
}


@pytest.mark.parametrize("name", sorted(STRICT_Q_ENTRY_POINTS))
def test_entry_points_take_only_strict_q(name):
    call = STRICT_Q_ENTRY_POINTS[name]
    call(-0.5)
    for bad in (0.0, 1.0, -1.0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"\|q\| < 1"):
            call(bad)


def test_precision_validation():
    SuiteConfig(suite="relations")
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_identity=0.0)
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_decay=-1e-8)
    # an infinite tolerance would pass every threshold it sets
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_identity=math.inf)
    with pytest.raises(UsageError):
        SuiteConfig(suite="relations", tol_decay=math.inf)
