"""Coefficient homotopy: closed forms, rescalings, lemma verifiers."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from suq2kit.qarith import HalfInt, m_array, strict_q
from suq2kit.suites import SuiteConfig, run_suite
from suq2kit.homotopy import (build_omega, decay_verdict, degenerate_module_check,
                              rotation_homotopy_check, verify_lemma1, verify_lemma2,
                              verify_lemma3)
import suq2kit.homotopy as ho
import suq2kit.peterweyl as pw
import suq2kit.podles as po
from suq2kit.peterweyl import (BandedOperator, block_entries, block_norm, block_stack,
                               operator_norm, reg_a_minus, reg_a_plus, reg_c_minus,
                               reg_c_plus, relation_residuals)

from csr_export import csr

H = HalfInt
FAMILIES = [(fam, k) for fam in "abcd" for k in (1, 0, -1)]


# single entries of the array cores, with indices in twice units and s = |q|^t

def t_entry(family, k, q, t, l2, i2, j2):
    return float(ho._T_CORES[(family, k)](q, abs(q) ** t, l2, i2, j2))


def rescaled_entry(family, k, q, t, l2, i2):
    return float(ho._RESC_CORES[(family, k)](q, abs(q) ** t, l2, i2))


def m_entry(q, t, l):
    return float(m_array(q, abs(q) ** t, 2 * l))


# ---------------------------------------------------------------------------
# the twelve closed forms against the independent product route
# ---------------------------------------------------------------------------

# independent route: the same entries as sums of products of the regular
# representation tables, at index arrays in twice units
def t_coeff_composite(family: str, k: int, q, t: float, l2, i2, j2):
    qq = strict_q(q)
    s = abs(qq) ** t

    def ap(a, b, c):
        return reg_a_plus(qq, a, b, c)

    def am(a, b, c):
        return reg_a_minus(qq, a, b, c)

    def cp(a, b, c):
        return reg_c_plus(qq, a, b, c)

    def cm(a, b, c):
        return reg_c_minus(qq, a, b, c)

    if family == "a":
        if k == 1:
            return (s / qq * ap(l2, -i2, -j2) * ap(l2 + 1, i2 + 1, j2 + 1)
                    - qq**2 / s * cm(l2 + 1, -i2 - 1, -j2 + 1) * cm(l2 + 2, i2, j2))
        if k == 0:
            return (s / qq * (ap(l2, -i2, -j2) * am(l2 + 1, i2 + 1, j2 + 1)
                              + am(l2, -i2, -j2) * ap(l2 - 1, i2 + 1, j2 + 1))
                    - qq**2 / s * (cp(l2 - 1, -i2 - 1, -j2 + 1) * cm(l2, i2, j2)
                                   + cm(l2 + 1, -i2 - 1, -j2 + 1) * cp(l2, i2, j2)))
        return (s / qq * am(l2, -i2, -j2) * am(l2 - 1, i2 + 1, j2 + 1)
                - qq**2 / s * cp(l2 - 1, -i2 - 1, -j2 + 1) * cp(l2 - 2, i2, j2))
    if family == "b":
        if k == 1:
            return (qq / s * am(l2 + 1, -i2 + 1, -j2 + 1) * am(l2 + 2, i2, j2)
                    - s * cp(l2, -i2, -j2) * cp(l2 + 1, i2 - 1, j2 + 1))
        if k == 0:
            return (qq / s * (ap(l2 - 1, -i2 + 1, -j2 + 1) * am(l2, i2, j2)
                              + am(l2 + 1, -i2 + 1, -j2 + 1) * ap(l2, i2, j2))
                    - s * (cp(l2, -i2, -j2) * cm(l2 + 1, i2 - 1, j2 + 1)
                           + cm(l2, -i2, -j2) * cp(l2 - 1, i2 - 1, j2 + 1)))
        return (qq / s * ap(l2 - 1, -i2 + 1, -j2 + 1) * ap(l2 - 2, i2, j2)
                - s * cm(l2, -i2, -j2) * cm(l2 - 1, i2 - 1, j2 + 1))
    if family == "c":
        if k == 1:
            return (s / qq * ap(l2, -i2, -j2) * cp(l2 + 1, i2 + 1, j2 + 1)
                    + qq / s * cm(l2 + 1, -i2 - 1, -j2 + 1) * am(l2 + 2, i2 + 2, j2))
        if k == 0:
            return (s / qq * (ap(l2, -i2, -j2) * cm(l2 + 1, i2 + 1, j2 + 1)
                              + am(l2, -i2, -j2) * cp(l2 - 1, i2 + 1, j2 + 1))
                    + qq / s * (cp(l2 - 1, -i2 - 1, -j2 + 1) * am(l2, i2 + 2, j2)
                                + cm(l2 + 1, -i2 - 1, -j2 + 1) * ap(l2, i2 + 2, j2)))
        return (s / qq * am(l2, -i2, -j2) * cm(l2 - 1, i2 + 1, j2 + 1)
                + qq / s * cp(l2 - 1, -i2 - 1, -j2 + 1) * ap(l2 - 2, i2 + 2, j2))
    if family == "d":
        if k == 1:
            return (qq / s * am(l2 + 1, -i2 + 1, -j2 + 1) * cm(l2 + 2, i2 - 2, j2)
                    + s / qq * cp(l2, -i2, -j2) * ap(l2 + 1, i2 - 1, j2 + 1))
        if k == 0:
            return (qq / s * (ap(l2 - 1, -i2 + 1, -j2 + 1) * cm(l2, i2 - 2, j2)
                              + am(l2 + 1, -i2 + 1, -j2 + 1) * cp(l2, i2 - 2, j2))
                    + s / qq * (cp(l2, -i2, -j2) * am(l2 + 1, i2 - 1, j2 + 1)
                                + cm(l2, -i2, -j2) * ap(l2 - 1, i2 - 1, j2 + 1)))
        return (qq / s * ap(l2 - 1, -i2 + 1, -j2 + 1) * cp(l2 - 2, i2 - 2, j2)
                + s / qq * cm(l2, -i2, -j2) * am(l2 - 1, i2 - 1, j2 + 1))
    raise ValueError(f"unknown family {family!r}")



@pytest.mark.parametrize("q", (0.5, -0.7, 0.9, -0.3))
@pytest.mark.parametrize("t", (0.0, 0.33, 1.0))
def test_closed_forms_match_composite_products(q, t):
    # every (l2, i2, j2) with spin up to 4 at once
    l2, i2, j2 = np.array([(l2, i2, j2) for l2 in range(0, 9)
                           for i2 in range(-l2, l2 + 1, 2) for j2 in range(-l2, l2 + 1, 2)]).T
    assert l2.size == 285
    for fam, k in FAMILIES:
        closed = ho._T_CORES[(fam, k)](q, abs(q) ** t, l2, i2, j2)
        gap = np.abs(closed - t_coeff_composite(fam, k, q, t, l2, i2, j2))
        worst = int(np.argmax(gap))  # the first NaN, if any
        assert gap[worst] <= 2e-15, (fam, k, q, t, l2[worst], i2[worst], j2[worst], gap[worst])


def test_t_coeff_boundary_and_parity():
    # lowering from the bottom of the admissible range vanishes
    assert t_entry("c", -1, 0.5, 0.4, 4, 4, 0) == 0.0
    assert t_entry("c", 0, 0.5, 0.4, 2, 2, 0) == 0.0


def test_t1_tables_symmetric_in_column_weight():
    for q in (0.5, -0.8):
        for l2 in range(1, 9):
            for i2 in range(-l2, l2 + 1, 2):
                for j2 in range(2 - l2 % 2, l2 + 1, 2):
                    for fam, k in FAMILIES:
                        plus = t_entry(fam, k, q, 1.0, l2, i2, j2)
                        minus = t_entry(fam, k, q, 1.0, l2, i2, -j2)
                        assert plus == pytest.approx(minus, abs=1e-14)


# ---------------------------------------------------------------------------
# rescaled families
# ---------------------------------------------------------------------------

def test_rescaled_frozen_values():
    q = 0.5
    assert rescaled_entry("A", 1, q, 0.0, 0, 0) == 0.0
    assert rescaled_entry("A", 0, q, 0.0, 0, 0) == pytest.approx(1.0, abs=1e-14)
    assert rescaled_entry("A", 0, q, 1.0, 0, 0) == pytest.approx(2 * q / (1 + q * q), abs=1e-14)
    assert rescaled_entry("C", 1, q, 0.0, 0, 0) == 0.0
    assert rescaled_entry("C", 0, q, 0.0, 0, 0) == 0.0


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_rescaled_reduces_to_plain_tables_at_t_one(q):
    for fam in "ABCD":
        for k in (1, 0, -1):
            for l2 in range(0, 31, 2):
                for i2 in range(-l2, l2 + 1, 2):
                    resc = rescaled_entry(fam, k, q, 1.0, l2, i2)
                    plain = t_entry(fam.lower(), k, q, 1.0, l2, i2, 0)
                    assert resc == pytest.approx(plain, abs=1e-13)


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_cancellation_safe_plus_band(q):
    # away from the removable point the cancelled form equals the raw product
    for t in (0.15, 0.6, 1.0):
        for l2 in range(0, 17, 2):
            for i2 in range(-l2, l2 + 1, 2):
                for fam in "ABCD":
                    raw = (m_entry(q, t, l2 // 2 + 1) ** -0.5
                           * t_entry(fam.lower(), 1, q, t, l2, i2, 0))
                    assert rescaled_entry(fam, 1, q, t, l2, i2) == pytest.approx(raw, abs=1e-13)


def test_plus_band_continuous_through_origin():
    # max grid-step jump of X_1(t, 0, 0) shrinks under grid refinement
    for q in (0.5, -0.5):
        steps = []
        for size in (11, 101, 1001):
            ts = np.linspace(0.0, 1.0, size)
            vals = [rescaled_entry("A", 1, q, float(t), 0, 0) for t in ts]
            steps.append(max(abs(b - a) for a, b in zip(vals, vals[1:])))
        assert steps[0] > steps[1] > steps[2]
        assert steps[2] < 1e-2


def test_minus_band_rescaling_uses_interpolation_scalar():
    q, t = -0.6, 0.4
    for l2 in (2, 6, 12):
        for i2 in range(-l2 + 2, l2 - 1, 2):
            raw = m_entry(q, t, l2 // 2) ** 0.5 * t_entry("a", -1, q, t, l2, i2, 0)
            assert rescaled_entry("A", -1, q, t, l2, i2) == pytest.approx(raw, abs=1e-14)


def _index_grid():
    """Every integer (l2, i2, j2) of one parity with -4 <= l2 <= 24 and
    |i2|, |j2| <= l2 + 4: the support and a margin of absent vectors."""
    pts = [(l2, i2, j2) for l2 in range(-4, 25) for i2 in range(-l2 - 4, l2 + 5, 2)
           for j2 in range(-l2 - 4, l2 + 5, 2)]
    return tuple(np.array(x, dtype=np.int64) for x in zip(*pts))


@pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("q", (0.05, -0.05, 0.5, -0.5, 0.9, -0.9, 0.999))
def test_every_family_is_total(q, t):
    # callers evaluate a family at shifted indices as they are, so off its
    # support each one must be exactly 0.0 and raise nothing; np.where
    # evaluates both branches, so no discarded branch may divide by zero
    # either (numpy's warning is an error under the test configuration)
    s = abs(q) ** t
    l2, i2, j2 = _index_grid()
    absent = (l2 < 0) | (np.abs(i2) > l2) | (np.abs(j2) > l2)
    even = (l2 % 2 == 0) & (j2 == 0)
    tables = [(f.__name__, f(q, l2, i2, j2), absent)
              for f in (reg_a_plus, reg_a_minus, reg_c_plus, reg_c_minus)]
    tables += [(f.__name__, f(q, l2, i2, j2), absent)
               for rules in po._SPHERE_RULES.values() for _, f in rules]
    tables += [(key, f(q, s, l2, i2, j2), absent) for key, f in ho._T_CORES.items()]
    tables += [(key, f(q, s, l2[even], i2[even]), absent[even])
               for key, f in ho._RESC_CORES.items()]
    for key, vals, off in tables:
        assert vals.shape == off.shape, key
        assert np.isfinite(vals).all(), key
        assert (vals[off] == 0.0).all(), key


# ---------------------------------------------------------------------------
# omega_t operators
# ---------------------------------------------------------------------------

def test_omega_zero_fixes_cyclic_vector():
    om = build_omega(0.5, [0.0], 8)[0]
    e0 = np.zeros(om["alpha"].domain.dim)
    e0[0] = 1.0
    out = csr(om["alpha"]) @ e0
    assert out[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(out[1:])) < 1e-14
    assert np.max(np.abs(csr(om["gamma"]) @ e0)) < 1e-14


def test_omega_zero_preserves_complement_of_cyclic_vector():
    # no transitions into or out of the bottom vector at t = 0
    for q in (0.5, -0.7):
        om = build_omega(q, [0.0], 10)[0]
        for op in om.values():
            mat = csr(op)
            col0 = mat[:, 0].toarray().ravel()
            row0 = mat[0, :].toarray().ravel()
            assert np.max(np.abs(col0[1:])) < 1e-15
            assert np.max(np.abs(row0[1:])) < 1e-15


def test_omega_adjoint_pairs():
    om = build_omega(-0.7, [0.3], 25)[0]
    assert operator_norm(csr(om["alpha*"]) - csr(om["alpha"]).T) < 1e-11
    assert operator_norm(csr(om["gamma*"]) - csr(om["gamma"]).T) < 1e-11


@pytest.mark.parametrize("q", (0.5, -0.9))
@pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
def test_omega_satisfies_defining_relations(q, t):
    om = build_omega(q, [t], 12)[0]
    assert max(relation_residuals(om, q).values()) < 1e-10


def test_omega_is_diagonal_conjugation_of_unrescaled_action():
    # for t > 0 the rescaling is conjugation by the diagonal built from the
    # interpolation scalar, which is where the algebra relations come from
    q, t, lmax = -0.6, 0.4, 10
    om = build_omega(q, [t], lmax)[0]
    space = om["alpha"].domain
    gvals = np.ones(space.dim)
    for pos in range(space.dim):
        l = int(space.l2[pos]) // 2
        gvals[pos] = np.prod([m_entry(q, t, r) ** -0.5 for r in range(1, l + 1)])
    g = np.diag(gvals)
    ginv = np.diag(1.0 / gvals)
    import suq2kit.homotopy as ho
    s = abs(q) ** t
    rules = tuple(((2 * k, 0, 0),
                   (lambda qq, l2, i2, j2, _k=k: ho._T_CORES[("a", _k)](qq, s, l2, i2, j2)))
                  for k in (1, 0, -1))
    pi_t = BandedOperator.from_shift_rules(space, space, rules, HalfInt(1), q=q)
    conj = g @ csr(pi_t).toarray() @ ginv
    interior = space.interior_mask(HalfInt(2))
    diff = (csr(om["alpha"]).toarray() - conj)[:, interior]
    assert np.max(np.abs(diff)) < 1e-12


# ---------------------------------------------------------------------------
# lemma verifiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", (-0.7, 0.9))
def test_lemma1_identities(q):
    out = verify_lemma1(q, 14, 7)
    assert len(out) == 6
    assert max(out.values()) < 1e-11


@pytest.mark.parametrize("q", (0.05, 0.1, 0.2))
def test_lemma1_identities_at_small_q(q):
    # m(0, 1) is exactly 0; as the scalar q**2 minus the array power q^2 it
    # was a 1.7e-18 residue at q = 0.1, which the square roots blew up to 1.3e-8
    out = verify_lemma1(q, 20)
    assert max(out.values()) < 1e-11
    assert m_entry(q, 0.0, 1) == 0.0


def test_lemma1_needs_both_endpoints():
    with pytest.raises(ValueError):
        verify_lemma1(0.5, 10, 1)


def test_lemma2_decay_table():
    table = verify_lemma2(0.5, [10, 20, 30, 40], 5)
    assert len(table) == 16
    for name, sups in table.items():
        decreasing, final_ok = decay_verdict(sups, 1e-8)
        assert decreasing, name
        assert final_ok, name


def test_lemma2_extra_families_measured():
    # the eight gated families come first, the eight adjoint ones after them
    table = verify_lemma2(0.5, [10, 20], 3)
    assert list(table) == [name for name, *_ in ho._LEMMA2_FAMILIES + ho._LEMMA2_EXTRA]


@pytest.mark.parametrize("q", (0.5, -0.9))
def test_lemma2_spins_together_equal_spins_alone(q):
    l_list = [1, 4, 9]
    table = verify_lemma2(q, l_list, 3)
    alone = [verify_lemma2(q, [l], 3) for l in l_list]
    assert table == {name: [a[name][0] for a in alone] for name in table}


def test_lemma2_input_validation():
    with pytest.raises(ValueError):
        verify_lemma2(0.5, [10, 10], 3)
    with pytest.raises(ValueError):
        verify_lemma2(0.5, [0, 5], 3)
    # a float spin raises instead of truncating to the spin below it
    with pytest.raises(TypeError):
        verify_lemma2(0.5, [10.5, 20.9], 3)
    with pytest.raises(TypeError):
        verify_lemma2(0.5, [10, 20.0], 3)
    assert verify_lemma2(0.5, np.array([10, 20]), 3) == verify_lemma2(0.5, [10, 20], 3)


# ---------------------------------------------------------------------------
# the t grid as an array axis against the per-t oracle
# ---------------------------------------------------------------------------
#
# The library evaluates each rescaled family once over a block of t; the
# oracle below is the loop form, one scalar s = |q|^t at a time.  Every value
# must agree bit for bit.  Grids of 17 and 33 points cross block boundaries.

def lemma1_per_t(q, lmax, t_grid_size):
    l2, i2 = ho._level_arrays(range(0, HalfInt.of(lmax).twice + 1, 2))
    out = {}
    for name, lhs, rhs, dl2, di2 in ho._LEMMA1_IDENTITIES:
        worst = 0.0
        for t in np.linspace(0.0, 1.0, t_grid_size):
            s = abs(q) ** t
            diff = (ho._RESC_CORES[lhs](q, s, l2, i2)
                    - ho._RESC_CORES[rhs](q, s, l2 + dl2, i2 + di2))
            worst = max(worst, float(np.max(np.abs(diff))))
        out[name] = worst
    return out


def lemma2_per_t(q, l_list, t_grid_size):
    l2, i2 = ho._level_arrays([2 * l for l in l_list])
    starts = np.cumsum([0] + [2 * l + 1 for l in l_list[:-1]])

    def sup(vals):
        return np.maximum.reduceat(np.abs(vals), starts)

    out = {}
    for name, fam, k, kind in ho._LEMMA2_FAMILIES + ho._LEMMA2_EXTRA:
        worst = np.zeros(len(l_list))
        t1 = ([] if kind == "resc" else
              [ho._T_CORES[(fam, k)](q, abs(q), l2, i2, j2) for j2 in (2, -2)])
        if kind == "t1":
            for vals in t1:
                worst = np.maximum(worst, sup(vals))
        else:
            for t in np.linspace(0.0, 1.0, t_grid_size):
                rv = ho._RESC_CORES[(fam.upper(), k)](q, abs(q) ** t, l2, i2)
                if kind == "resc":
                    worst = np.maximum(worst, sup(rv))
                else:
                    for tv in t1:
                        worst = np.maximum(worst, sup(tv - rv))
        out[name] = worst.tolist()
    return out


def omega_per_t(q, t, lmax):
    space = pw.bundle_space(0, HalfInt.of(lmax).twice)
    s = abs(q) ** t
    return {name: BandedOperator.from_shift_rules(space, space, ho._omega_rules(family, di2, s),
                                                  HalfInt(2), q=q)
            for name, family, di2 in (("alpha", "A", 0), ("alpha*", "B", 0),
                                      ("gamma", "C", 2), ("gamma*", "D", -2))}


ORACLE_Q = (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 0.7, 0.99)
ORACLE_GRIDS = (2, 3, 11, 17, 33)
ORACLE_LMAX = (2, 12, 40)
# every (q, grid) pair, the cutoff turning with them, so that each q and each
# grid meets every cutoff: the full product would take three times as long
ORACLE_CASES = [pytest.param(q, grid, ORACLE_LMAX[(a + b) % len(ORACLE_LMAX)],
                             id=f"{q}-{grid}-{ORACLE_LMAX[(a + b) % len(ORACLE_LMAX)]}")
                for a, q in enumerate(ORACLE_Q) for b, grid in enumerate(ORACLE_GRIDS)]


def reprs(value):
    if isinstance(value, dict):
        return {k: reprs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [reprs(v) for v in value]
    return repr(value)


@pytest.mark.parametrize("q, grid, lmax", ORACLE_CASES)
def test_lemma1_equals_the_per_t_oracle(q, grid, lmax):
    assert reprs(verify_lemma1(q, lmax, grid)) == reprs(lemma1_per_t(q, lmax, grid))


@pytest.mark.parametrize("q, grid, lmax", ORACLE_CASES)
def test_lemma2_equals_the_per_t_oracle(q, grid, lmax):
    l_list = list(range(1, lmax + 1))
    assert reprs(verify_lemma2(q, l_list, grid)) == reprs(lemma2_per_t(q, l_list, grid))


@pytest.mark.parametrize("q, grid, lmax", ORACLE_CASES)
def test_omega_equals_the_per_t_oracle(q, grid, lmax):
    ts = np.linspace(0.0, 1.0, grid)
    got = build_omega(q, ts, lmax)
    assert len(got) == grid
    for t, om in zip(ts, got):
        want = omega_per_t(q, float(t), lmax)
        assert om.keys() == want.keys()
        for name, op in om.items():
            ref = want[name]
            assert (op.domain, op.codomain, op.shift) == (ref.domain, ref.codomain, ref.shift)
            assert op.interior_margin == ref.interior_margin
            assert op.diags.keys() == ref.diags.keys(), (t, name)
            for d, diag in op.diags.items():
                assert np.array_equal(diag, ref.diags[d]), (t, name, d)


def test_omega_takes_a_sequence_of_t_in_the_unit_interval():
    assert build_omega(0.5, [], 4) == []
    with pytest.raises(TypeError):
        build_omega(0.5, 0.5, 4)
    with pytest.raises(ValueError):
        build_omega(0.5, [0.0, 1.5], 4)


def test_lemma1_suite_memory_does_not_grow_with_the_t_grid():
    # the grid is walked in blocks, so 401 points take the memory of 17
    def peak(t_grid):
        tracemalloc.start()
        try:
            run_suite(SuiteConfig(suite="lemma1", q=0.5, lmax=HalfInt(40), t_grid=t_grid))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(17)                         # caches of the spaces and their targets
    assert peak(401) <= 1.5 * peak(17)


@pytest.mark.parametrize("q", (0.5, -0.5))
def test_lemma3_endpoint_identities(q):
    out = verify_lemma3(q, 15)
    assert len(out) == 6
    assert max(out.values()) < 1e-12


def test_lemma3_negative_control():
    signed = max(verify_lemma3(-0.5, 12).values())
    unsigned = max(verify_lemma3(-0.5, 12, signed=False).values())
    assert signed < 1e-12
    assert unsigned > 1e-3  # the sign factor genuinely matters for q < 0
    # for q > 0 the sign factor is trivial
    assert max(verify_lemma3(0.6, 12, signed=False).values()) < 1e-12


def test_lemma3_quantifies_over_positive_spins_only():
    # the identities fail at spin zero (that is why the bottom vector is
    # split off); the verifier must exclude it
    q = 0.5
    lhs = rescaled_entry("A", 0, q, 0.0, 0, 0)  # = 1
    rhs = t_entry("a", 0, q, 1.0, 0, 0, 0)  # = 0.8
    assert abs(lhs - rhs) > 0.1
    assert max(verify_lemma3(q, 10).values()) < 1e-12


# ---------------------------------------------------------------------------
# degeneracy and rotation
# ---------------------------------------------------------------------------

def test_degenerate_checks_positive_q():
    for q in (0.5, 0.9):
        out = degenerate_module_check(q, 12)
        assert out["column_symmetry_residual"] < 1e-12
        assert out["endpoint_unsigned_residual"] < 1e-12


def test_degenerate_suite_checks_up_to_a_half_odd_lmax(monkeypatch):
    from suq2kit.suites import SuiteConfig, run_suite

    seen = []
    check = ho.degenerate_module_check

    def recording(q, lmax):
        seen.append(lmax)
        return check(q, lmax)

    monkeypatch.setattr(ho, "degenerate_module_check", recording)
    run_suite(SuiteConfig(suite="degenerate", q=0.5, lmax=H(41)))
    assert seen == [H(41)]


def test_degenerate_negative_control():
    out = degenerate_module_check(-0.5, 12)
    assert out["column_symmetry_residual"] < 1e-12
    assert out["endpoint_unsigned_residual"] > 1e-3


def test_rotation_homotopy():
    out = rotation_homotopy_check(-0.5, t_grid_size=7, lmax=16, l_from=8)
    assert out["endpoint_t0_deviation"] == 0.0
    assert out["endpoint_t1_deviation"] == 0.0
    assert out["max_tail_excess"] < 1e-10
    assert out["factorized_vs_assembled"] < 1e-10


def test_rotation_block_grid_norm_is_the_dense_norm(monkeypatch):
    minus2, om0, om1 = ho._omega_matrices_on_minus2(-0.5, 8)
    a, b = om0["gamma"], om1["gamma"]
    c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
    p, u, r = c * c * a + s * s * b, s * s * a + c * c * b, c * s * (b - a)
    grid = [[r, u - b], [p - b, r]]
    for cols in (None, minus2.tail_mask(4)):
        dense = sp.bmat([[csr(y, cols) for y in row] for row in grid]).toarray()
        pair, sectors = block_entries(grid, cols)
        assert len(block_stack(pair, sectors)[1]) > 1
        want = np.linalg.svd(dense, compute_uv=False)[0]
        assert block_norm(grid, cols) == pytest.approx(want, rel=1e-14, abs=0)
    # an all-zero grid is settled before operator_norm, which an empty pair
    # would reach without a shape
    def no_svd(*args, **kwargs):
        raise AssertionError("the zero grid reached operator_norm")

    monkeypatch.setattr(pw, "operator_norm", no_svd)
    zero = 0.0 * r
    assert block_norm([[p - p, zero], [zero, u - u]]) == 0.0
    with pytest.raises(ValueError, match="weight shift"):
        block_entries([[a, BandedOperator.identity(minus2)]])


def test_rotation_rejects_positive_q():
    with pytest.raises(ValueError):
        rotation_homotopy_check(0.5)
