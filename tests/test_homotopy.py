"""Coefficient homotopy: closed forms, rescalings, lemma verifiers."""

import numpy as np
import pytest

from suq2kit.qarith import HalfInt, QParam, m_scalar
from suq2kit.homotopy import (build_omega, decay_verdict, degenerate_module_check,
                              eval_rescaled, eval_t_coeff, rotation_homotopy_check,
                              verify_lemma1, verify_lemma2, verify_lemma3)
import suq2kit.homotopy as ho
import suq2kit.peterweyl as pw
import suq2kit.podles as po
from suq2kit.peterweyl import (BandedOperator, bundle_space, operator_norm,
                               reg_a_minus, reg_a_plus, reg_c_minus, reg_c_plus,
                               relation_residuals)

H = HalfInt
FAMILIES = [(fam, k) for fam in "abcd" for k in (1, 0, -1)]


# ---------------------------------------------------------------------------
# the twelve closed forms against the independent product route
# ---------------------------------------------------------------------------

# independent route: the same entries as sums of products of the regular
# representation tables
def t_coeff_composite(family: str, k: int, q, t: float, l, i, j) -> float:
    qp = QParam.of(q).require_strict()
    qq = qp.q
    s = qp.abs_q ** t
    l2 = HalfInt.of(l).twice
    i2 = HalfInt.of(i).twice
    j2 = HalfInt.of(j).twice

    def ap(a, b, c):
        return float(reg_a_plus(qq, a, b, c))

    def am(a, b, c):
        return float(reg_a_minus(qq, a, b, c))

    def cp(a, b, c):
        return float(reg_c_plus(qq, a, b, c))

    def cm(a, b, c):
        return float(reg_c_minus(qq, a, b, c))

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
    for l2 in range(0, 9):
        for i2 in range(-l2, l2 + 1, 2):
            for j2 in range(-l2, l2 + 1, 2):
                for fam, k in FAMILIES:
                    closed = eval_t_coeff(fam, k, q, t, H(l2), H(i2), H(j2))
                    product = t_coeff_composite(fam, k, q, t, H(l2), H(i2), H(j2))
                    assert closed == pytest.approx(product, abs=2e-15), \
                        (fam, k, q, t, l2, i2, j2)


def test_t_coeff_boundary_and_parity():
    # lowering from the bottom of the admissible range vanishes
    assert eval_t_coeff("c", -1, 0.5, 0.4, H(4), H(4), H(0)) == 0.0
    assert eval_t_coeff("c", 0, 0.5, 0.4, H(2), H(2), H(0)) == 0.0
    with pytest.raises(ValueError):
        eval_t_coeff("a", 0, 0.5, 0.4, H(2), H(1), H(0))
    with pytest.raises(ValueError):
        eval_t_coeff("a", 0, 0.5, 1.5, H(2), H(0), H(0))


def test_t1_tables_symmetric_in_column_weight():
    for q in (0.5, -0.8):
        for l2 in range(1, 9):
            for i2 in range(-l2, l2 + 1, 2):
                for j2 in range(2 - l2 % 2, l2 + 1, 2):
                    for fam, k in FAMILIES:
                        plus = eval_t_coeff(fam, k, q, 1.0, H(l2), H(i2), H(j2))
                        minus = eval_t_coeff(fam, k, q, 1.0, H(l2), H(i2), H(-j2))
                        assert plus == pytest.approx(minus, abs=1e-14)


# ---------------------------------------------------------------------------
# rescaled families
# ---------------------------------------------------------------------------

def test_rescaled_frozen_values():
    q = 0.5
    assert eval_rescaled("A", 1, q, 0.0, 0, 0) == 0.0
    assert eval_rescaled("A", 0, q, 0.0, 0, 0) == pytest.approx(1.0, abs=1e-14)
    assert eval_rescaled("A", 0, q, 1.0, 0, 0) == pytest.approx(2 * q / (1 + q * q), abs=1e-14)
    assert eval_rescaled("C", 1, q, 0.0, 0, 0) == 0.0
    assert eval_rescaled("C", 0, q, 0.0, 0, 0) == 0.0


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_rescaled_reduces_to_plain_tables_at_t_one(q):
    for fam in "ABCD":
        for k in (1, 0, -1):
            for l2 in range(0, 31, 2):
                for i2 in range(-l2, l2 + 1, 2):
                    resc = eval_rescaled(fam, k, q, 1.0, H(l2), H(i2))
                    plain = eval_t_coeff(fam.lower(), k, q, 1.0, H(l2), H(i2), 0)
                    assert resc == pytest.approx(plain, abs=1e-13)


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_cancellation_safe_plus_band(q):
    # away from the removable point the cancelled form equals the raw product
    for t in (0.15, 0.6, 1.0):
        for l2 in range(0, 17, 2):
            for i2 in range(-l2, l2 + 1, 2):
                for fam in "ABCD":
                    raw = (m_scalar(q, t, l2 // 2 + 1) ** -0.5
                           * eval_t_coeff(fam.lower(), 1, q, t, H(l2), H(i2), 0))
                    assert eval_rescaled(fam, 1, q, t, H(l2), H(i2)) == \
                        pytest.approx(raw, abs=1e-13)


def test_plus_band_continuous_through_origin():
    # max grid-step jump of X_1(t, 0, 0) shrinks under grid refinement
    for q in (0.5, -0.5):
        steps = []
        for size in (11, 101, 1001):
            ts = np.linspace(0.0, 1.0, size)
            vals = [eval_rescaled("A", 1, q, float(t), 0, 0) for t in ts]
            steps.append(max(abs(b - a) for a, b in zip(vals, vals[1:])))
        assert steps[0] > steps[1] > steps[2]
        assert steps[2] < 1e-2


def test_minus_band_rescaling_uses_interpolation_scalar():
    q, t = -0.6, 0.4
    for l2 in (2, 6, 12):
        for i2 in range(-l2 + 2, l2 - 1, 2):
            raw = m_scalar(q, t, l2 // 2) ** 0.5 * eval_t_coeff("a", -1, q, t, H(l2), H(i2), 0)
            assert eval_rescaled("A", -1, q, t, H(l2), H(i2)) == pytest.approx(raw, abs=1e-14)


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
    # evaluates both branches, and the discarded one may divide by zero
    s = abs(q) ** t
    l2, i2, j2 = _index_grid()
    absent = (l2 < 0) | (np.abs(i2) > l2) | (np.abs(j2) > l2)
    even = (l2 % 2 == 0) & (j2 == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = [(key, f(q, l2, i2, j2), absent) for key, f in pw._REG_CORES.items()]
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
    om = build_omega(0.5, 0.0, 8)
    e0 = np.zeros(om["alpha"].domain.dim)
    e0[0] = 1.0
    out = om["alpha"].matrix @ e0
    assert out[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(out[1:])) < 1e-14
    assert np.max(np.abs(om["gamma"].matrix @ e0)) < 1e-14


def test_omega_zero_preserves_complement_of_cyclic_vector():
    # no transitions into or out of the bottom vector at t = 0
    for q in (0.5, -0.7):
        om = build_omega(q, 0.0, 10)
        for op in om.values():
            col0 = op.matrix[:, 0].toarray().ravel()
            row0 = op.matrix[0, :].toarray().ravel()
            assert np.max(np.abs(col0[1:])) < 1e-15
            assert np.max(np.abs(row0[1:])) < 1e-15


def test_omega_adjoint_pairs():
    om = build_omega(-0.7, 0.3, 25)
    assert operator_norm(om["alpha*"].matrix - om["alpha"].matrix.T) < 1e-11
    assert operator_norm(om["gamma*"].matrix - om["gamma"].matrix.T) < 1e-11


@pytest.mark.parametrize("q", (0.5, -0.9))
@pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
def test_omega_satisfies_defining_relations(q, t):
    om = build_omega(q, t, 12)
    assert max(relation_residuals(om, q).values()) < 1e-10


def test_omega_is_diagonal_conjugation_of_unrescaled_action():
    # for t > 0 the rescaling is conjugation by the diagonal built from the
    # interpolation scalar, which is where the algebra relations come from
    q, t, lmax = -0.6, 0.4, 10
    om = build_omega(q, t, lmax)
    space = om["alpha"].domain
    gvals = np.ones(space.dim)
    for pos in range(space.dim):
        l = int(space.l2[pos]) // 2
        gvals[pos] = np.prod([m_scalar(q, t, r) ** -0.5 for r in range(1, l + 1)])
    g = np.diag(gvals)
    ginv = np.diag(1.0 / gvals)
    import suq2kit.homotopy as ho
    s = abs(q) ** t
    rules = tuple(((2 * k, 0, 0),
                   (lambda qq, l2, i2, j2, _k=k: ho._T_CORES[("a", _k)](qq, s, l2, i2, j2)))
                  for k in (1, 0, -1))
    pi_t = BandedOperator.from_shift_rules(space, space, rules, HalfInt(1), q=q)
    conj = g @ pi_t.matrix.toarray() @ ginv
    interior = space.interior_mask(HalfInt(2))
    diff = (om["alpha"].matrix.toarray() - conj)[:, interior]
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
    assert m_scalar(q, 0.0, 1) == 0.0


def test_lemma1_needs_both_endpoints():
    with pytest.raises(ValueError):
        verify_lemma1(0.5, 10, 1)


def test_lemma2_decay_table():
    table = verify_lemma2(0.5, [10, 20, 30, 40], 5)
    assert len(table) == 8
    for name, sups in table.items():
        decreasing, final_ok = decay_verdict(sups, 1e-8)
        assert decreasing, name
        assert final_ok, name


def test_lemma2_extra_families_measured():
    table = verify_lemma2(0.5, [10, 20], 3, include_extra=True)
    assert len(table) == 16


@pytest.mark.parametrize("q", (0.5, -0.9))
def test_lemma2_spins_together_equal_spins_alone(q):
    l_list = [1, 4, 9]
    table = verify_lemma2(q, l_list, 3, include_extra=True)
    alone = [verify_lemma2(q, [l], 3, include_extra=True) for l in l_list]
    assert table == {name: [a[name][0] for a in alone] for name in table}


def test_lemma2_input_validation():
    with pytest.raises(ValueError):
        verify_lemma2(0.5, [10, 10], 3)
    with pytest.raises(ValueError):
        verify_lemma2(0.5, [0, 5], 3)


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
    lhs = eval_rescaled("A", 0, q, 0.0, 0, 0)   # = 1
    rhs = eval_t_coeff("a", 0, q, 1.0, 0, 0, 0)  # = 0.8
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


def test_rotation_rejects_positive_q():
    with pytest.raises(ValueError):
        rotation_homotopy_check(0.5)
