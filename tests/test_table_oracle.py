"""Every coefficient table, and every helper that builds one, against its
printed exponent form in ``table_oracle``, bit for bit: on full spaces and
line bundles, at the shifted arguments the shift rules and the pairing
identities use, and at random integer indices off the support."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import suq2kit.homotopy as ho
import suq2kit.peterweyl as pw
import suq2kit.podles as po
from suq2kit.qarith import Lattice, m_array

import table_oracle as oracle

Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 0.99)
# full space or the winding-k bundle, as (k, lmax in spin units)
SPACES = [(k, lmax) for lmax in (2, 12, 40) for k in ("full", 1, -1, 2, -2)]


def bits(x):
    """The float64 bit patterns of x, so that equality is bit for bit (0.0
    and -0.0 differ)."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def assert_same(got, want, what):
    assert np.shape(got) == np.shape(want), what
    assert np.array_equal(bits(got), bits(want)), what


def space_of(k, lmax):
    return pw.full_space(2 * lmax) if k == "full" else pw.bundle_space(k, 2 * lmax)


def s_values(q, dim):
    """s = |q|^t as a column over three t on small spaces, one t on large
    ones, the two shapes the families are evaluated with."""
    return ho._s_column(q, (0.0, 0.4, 1.0)) if dim < 20000 else abs(q) ** 0.4


def check_tables(q, s, l2, i2, j2, j2_scalar=None):
    """The library tables against the oracle at one set of index arrays, the
    twelve families also at one scalar j2 when given, as the lemma checks
    call them."""
    for name, fn in oracle.REG.items():
        assert_same(getattr(pw, name)(q, l2, i2, j2), fn(q, l2, i2, j2), name)
    for name, fn in oracle.SPHERE.items():
        assert_same(getattr(po, name)(q, l2, i2, j2), fn(q, l2, i2, j2), name)
    for key, fn in oracle.T_CORES.items():
        assert_same(ho._T_CORES[key](q, s, l2, i2, j2), fn(q, s, l2, i2, j2), key)
        if j2_scalar is not None:
            assert_same(ho._T_CORES[key](q, s, l2, i2, j2_scalar),
                        fn(q, s, l2, i2, j2_scalar), key)


def check_rescaled(q, s, l2, i2):
    for key, fn in oracle.RESC_CORES.items():
        assert_same(ho._RESC_CORES[key](q, s, l2, i2), fn(q, s, l2, i2), key)
    # both sides of every adjoint-pairing identity, the right one shifted
    for name, lhs, rhs, dl2, di2 in ho._LEMMA1_IDENTITIES:
        assert_same(ho._RESC_CORES[rhs](q, s, l2 + dl2, i2 + di2),
                    oracle.RESC_CORES[rhs](q, s, l2 + dl2, i2 + di2), name)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("k, lmax", SPACES)
def test_tables_match_the_oracle_bitwise(k, lmax, q):
    space = space_of(k, lmax)
    l2, i2, j2 = space.l2, space.i2, space.j2
    s = s_values(q, space.dim)
    check_tables(q, s, l2, i2, j2, None if k == "full" else k)
    # the generator rules, at the arguments they shift to
    for gen, rules in pw._GEN_RULES.items():
        for (shift, fn), (want_shift, want) in zip(rules, oracle.GEN_RULES[gen]):
            assert shift == want_shift
            assert_same(fn(q, l2, i2, j2), want(q, l2, i2, j2), (gen, shift))
    # the rescaled families take (l2, i2) alone: on a full space, those of
    # its winding-zero bundle, where omega_t lives
    flat = pw.bundle_space(0, 2 * lmax) if k == "full" else space
    check_rescaled(q, s_values(q, flat.dim), flat.l2, flat.i2)


@pytest.mark.parametrize("q", Q_GRID)
def test_helpers_match_the_oracle_bitwise(q):
    # the small cutoffs; every table above runs the helpers at lmax 40 too
    for k, lmax in [(k, lmax) for k, lmax in SPACES if lmax < 40]:
        space = space_of(k, lmax)
        l2, i2, j2 = space.l2, space.i2, space.j2
        s = s_values(q, space.dim)
        x = Lattice(q, l2, i2, j2)
        mask = x.src_ok & (x.lmi >= 2)
        assert np.array_equal(x.src_ok, oracle.src_ok(l2, i2, j2))
        assert_same(pw._masked_sqrt_ratio(x, ((x.lpi, 2), (x.lmi, 0)), ((x.ll, 2), (x.ll, 4)),
                                          mask),
                    oracle.masked_sqrt_ratio(q, (l2 + i2 + 2, l2 - i2), (2 * l2 + 2, 2 * l2 + 4),
                                             mask), "masked_sqrt_ratio")
        assert_same(pw._band(x, mask, ((x.lmj, 2),), ((x.ll, 4),), pref=x.pow(x.lpj // 2, 1),
                             den_exp=(x.ll, 2)),
                    oracle.band(q, mask, (l2 - j2 + 2,), (2 * l2 + 4,),
                                pref=oracle.qpow(q, (l2 + j2) // 2 + 1), den_exp=2 * l2 + 2),
                    "band")
        assert_same(pw._iratio(x, (x.lmi, 0)), oracle.iratio(q, l2 - i2, l2), "iratio")
        for got, want in zip(pw._spin_dens(x, mask), oracle.spin_dens(q, l2, mask)):
            assert_same(got, want, "spin_dens")
        assert_same(ho._plus_scale(q, s, x, x.src_ok), oracle.plus_scale(q, s, l2, x.src_ok),
                    "plus_scale")
        spins = l2 >= 2
        assert_same(m_array(q, s, l2, spins), oracle.m_array(q, s, l2, spins), "m_array")


# index arrays of one parity (l2 - i2 and l2 - j2 even, as on every basis
# vector), on the support and off it on every side
@st.composite
def index_arrays(draw):
    n = draw(st.integers(1, 40))
    l2 = np.array(draw(st.lists(st.integers(-8, 40), min_size=n, max_size=n)))
    a, b = (np.array(draw(st.lists(st.integers(-4, 44), min_size=n, max_size=n)))
            for _ in range(2))
    return l2, l2 - 2 * a, l2 - 2 * b


@settings(max_examples=60, deadline=None)
@given(index_arrays(), st.sampled_from(Q_GRID), st.sampled_from((0.0, 0.5, 1.0)))
def test_tables_match_the_oracle_at_random_indices(idx, q, t):
    l2, i2, j2 = idx
    s = abs(q) ** t
    check_tables(q, s, l2, i2, j2, int(j2[0]))
    check_rescaled(q, s, l2, i2)
    absent = (l2 < 0) | (np.abs(i2) > l2) | (np.abs(j2) > l2)
    for module, names in ((pw, oracle.REG), (po, oracle.SPHERE)):
        for name in names:
            vals = getattr(module, name)(q, l2, i2, j2)
            assert np.isfinite(vals).all() and (vals[absent] == 0.0).all(), name
