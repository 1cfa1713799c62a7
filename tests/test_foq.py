"""Parameter matrices of free orthogonal quantum groups."""

import numpy as np
import pytest

from suq2kit.foq import (canonical_su2_qmatrix, invariant_pair,
                         monoidally_equivalent, random_valid_qmatrix,
                         solve_su2_parameter, validate_q)

Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0)


def test_identity_matrices_validate():
    for n in (2, 3, 4):
        inv = invariant_pair(validate_q(np.eye(n)))
        assert inv.sign == 1
        assert inv.trace == pytest.approx(n)


def test_canonical_matrix_invariants():
    for q in Q_GRID:
        inv = invariant_pair(canonical_su2_qmatrix(q))
        assert inv.sign == (-1 if q > 0 else 1)
        assert inv.trace == pytest.approx(abs(q) + 1.0 / abs(q), abs=1e-12)


def test_canonical_matrix_for_q_pm_one():
    m1 = canonical_su2_qmatrix(1.0)
    assert np.allclose(m1.entries, [[0, -1], [1, 0]])
    assert m1.sign == -1
    m2 = canonical_su2_qmatrix(-1.0)
    assert np.allclose(m2.entries, [[0, 1], [1, 0]])
    assert m2.sign == 1


def test_canonical_matrix_rejects_q_off_the_closed_interval():
    # the one q entry point that takes |q| = 1; 0, |q| > 1 and nan stay out
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="must lie in"):
            canonical_su2_qmatrix(bad)


def test_fundamental_intertwining_equations():
    # for an antidiagonal parameter [[0, a], [b, 0]] the conjugation
    # equation on the fundamental matrix collapses to a/b = -q
    for q in Q_GRID:
        ent = canonical_su2_qmatrix(q).entries
        a, b = ent[0, 1], ent[1, 0]
        assert a / b == pytest.approx(-q, abs=1e-14)
        assert -q * b / a == pytest.approx(1.0, abs=1e-14)


def test_rejections():
    with pytest.raises(ValueError, match="not scalar"):
        validate_q([[0.0, -0.5], [1.0, 0.0]])  # unnormalized, |q| != 1
    with pytest.raises(ValueError, match="not scalar"):
        validate_q([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        validate_q(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        validate_q(np.ones((2, 3)))


def test_round_trip_on_q_grid():
    for q in Q_GRID:
        assert solve_su2_parameter(canonical_su2_qmatrix(q)) == pytest.approx(q, abs=1e-12)


def test_identity_solutions():
    assert solve_su2_parameter(validate_q(np.eye(2))) == pytest.approx(-1.0, abs=1e-12)
    assert solve_su2_parameter(validate_q(np.eye(3))) == \
        pytest.approx(-(3 - 5 ** 0.5) / 2, abs=1e-12)


def test_equivalence_examples():
    one3 = validate_q(np.eye(3))
    assert monoidally_equivalent(one3, one3)
    q3 = solve_su2_parameter(one3)
    assert monoidally_equivalent(one3, canonical_su2_qmatrix(q3))
    assert not monoidally_equivalent(one3, validate_q(np.eye(4)))


def test_random_valid_matrices():
    rng = np.random.default_rng(0)
    mats = [random_valid_qmatrix(rng) for _ in range(50)]
    for m in mats:
        # renormalized sign is exactly +-1 and the trace clears the dimension
        assert m.sign in (1, -1)
        assert invariant_pair(m).trace >= m.n - 1e-8


def test_equivalence_is_equivalence_relation():
    rng = np.random.default_rng(1)
    mats = [random_valid_qmatrix(rng) for _ in range(16)]
    for x in mats:
        assert monoidally_equivalent(x, x)
        for y in mats:
            assert monoidally_equivalent(x, y) == monoidally_equivalent(y, x)
            for z in mats:
                if monoidally_equivalent(x, y) and monoidally_equivalent(y, z):
                    assert monoidally_equivalent(x, z)


def test_solver_guards_corrupted_trace():
    qm = validate_q(np.eye(2))
    broken = type(qm)(qm.entries * 0.4, qm.sign, qm.tol)
    with pytest.raises(ValueError):
        solve_su2_parameter(broken)
