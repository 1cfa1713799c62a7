"""Regular representation tables, banded operators, Haar state."""

import numpy as np
import pytest

from suq2kit.kring import dim_quantum
from suq2kit.qarith import HalfInt
from suq2kit.peterweyl import (BandedOperator, BasisIndex, StateVector,
                               TruncatedSpace, bundle_space, coeff_reg,
                               full_space, generator_op, haar_state, involution,
                               operator_norm, spectral_project, _masked_sqrt_ratio)

Q_GRID = (0.3, -0.3, 0.5, -0.5, 0.9, -0.9)
H = HalfInt


# ---------------------------------------------------------------------------
# spaces and indices
# ---------------------------------------------------------------------------

def test_basis_index_validation():
    BasisIndex(H(1), H(1), H(-1))
    with pytest.raises(ValueError):
        BasisIndex(H(1), H(3), H(1))      # weight above spin
    with pytest.raises(ValueError):
        BasisIndex(H(2), H(1), H(0))      # parity violation


def test_bundle_dimension_counts():
    # winding 0 at integer cutoff L has (L+1)^2 vectors
    for L in (0, 1, 4, 9):
        assert bundle_space(0, 2 * L).dim == (L + 1) ** 2
    # winding 1: spins 1/2, 3/2, ..., each contributing 2l+1
    assert bundle_space(1, 5).dim == 2 + 4 + 6
    # the full space runs over all half-integer spins
    assert full_space(4).dim == 1 + 4 + 9 + 16 + 25


def test_space_locate_round_trip():
    for space in (full_space(6), bundle_space(-2, 10), bundle_space(1, 7)):
        for pos in range(space.dim):
            idx = space.basis_index(pos)
            assert space.position(idx) == pos


def test_locate_rejects_foreign_indices():
    space = bundle_space(1, 7)
    assert space.locate(np.array([4]), np.array([0]), np.array([-1]))[0] == -1
    with pytest.raises(KeyError):
        space.position(BasisIndex(H(1), H(1), H(-1)))  # wrong bundle


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def test_coeff_reg_frozen_values():
    q = 0.5
    assert coeff_reg("a+", q, 0, 0, 0) == pytest.approx(q / (1 + q * q) ** 0.5, abs=1e-12)
    assert coeff_reg("c+", q, 0, 0, 0) == pytest.approx(-1 / (1 + q * q) ** 0.5, abs=1e-12)


def test_coeff_reg_boundary_vanishing():
    for q in Q_GRID:
        for l2 in (1, 2, 5):
            l = H(l2)
            for j2 in range(-l2, l2 + 1, 2):
                assert coeff_reg("a-", q, l, -l, H(j2)) == 0.0
                assert coeff_reg("c-", q, l, l, H(j2)) == 0.0
                assert coeff_reg("a-", q, l, H(j2), -l) == 0.0
                assert coeff_reg("c-", q, l, H(j2), -l) == 0.0


def test_coeff_reg_parity_error():
    with pytest.raises(ValueError):
        coeff_reg("a+", 0.5, H(2), H(1), H(0))
    with pytest.raises(ValueError):
        coeff_reg("x+", 0.5, 0, 0, 0)


def test_table_radicands_are_guarded():
    # 1 - 0.5^-2 = -3 is a genuinely negative radicand: a formula bug
    with pytest.raises(ValueError):
        _masked_sqrt_ratio(0.5, (-2,), (), True)
    assert _masked_sqrt_ratio(0.5, (-2,), (), False) == 0.0
    # 1 - q^-1 rounds to -2^-52 just below q = 1: rounding residue, clamped
    assert _masked_sqrt_ratio(1.0 - 2.0**-53, (-1,), (), True) == 0.0


# ---------------------------------------------------------------------------
# generator operators
# ---------------------------------------------------------------------------

def test_gamma_on_cyclic_vector():
    q = 0.5
    space = full_space(4)
    vec = StateVector(space, {BasisIndex(H(0), H(0), H(0)): 1.0})
    out = generator_op("gamma", q, space).apply(vec)
    assert set(out.amplitudes) == {BasisIndex(H(1), H(1), H(-1))}
    amp = out.amplitudes[BasisIndex(H(1), H(1), H(-1))]
    assert amp == pytest.approx(-0.894427190999916, abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_defining_relations_on_interior(q):
    space = full_space(12)
    al = generator_op("alpha", q, space)
    als = generator_op("alpha*", q, space)
    ga = generator_op("gamma", q, space)
    gas = generator_op("gamma*", q, space)
    one = BandedOperator.identity(space)
    residuals = [
        (al @ ga - q * (ga @ al)).interior_residual_norm(),
        (al @ gas - q * (gas @ al)).interior_residual_norm(),
        (ga @ gas - gas @ ga).interior_residual_norm(),
        (als @ al + gas @ ga - one).interior_residual_norm(),
        (al @ als + q * q * (ga @ gas) - one).interior_residual_norm(),
    ]
    assert max(residuals) < 1e-10


@pytest.mark.parametrize("q", (0.5, -0.7))
def test_adjoint_tables_are_transposes(q):
    # the shifted-argument adjoint tables against the plain ones
    space = full_space(10)
    for x, xs in (("alpha", "alpha*"), ("gamma", "gamma*")):
        direct = generator_op(x, q, space).matrix
        star = generator_op(xs, q, space).matrix
        assert operator_norm(star - direct.T) < 1e-12


def test_comodule_grading_is_structural():
    # alpha and gamma lower the column weight, adjoints raise it
    space = full_space(6)
    for gen, dj2 in (("alpha", -1), ("gamma", -1), ("alpha*", 1), ("gamma*", 1)):
        shifts = generator_op(gen, 0.5, space).shift_set()
        assert shifts and all(s[2] == dj2 for s in shifts)
    # between bundles the codomain winding moves accordingly
    dom = bundle_space(1, 9)
    op = generator_op("gamma", -0.5, dom)
    assert op.codomain.k == 0


def test_banded_margin_and_truncation_exactness():
    space = full_space(8)
    op = generator_op("alpha", 0.5, space)
    assert op.interior_margin == H(1)
    comp = op @ op
    assert comp.interior_margin == H(2)


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_involution_is_involutive_and_fixes_unit():
    q = -0.7
    space = full_space(6)
    rng = np.random.default_rng(3)
    amps = {space.basis_index(p): complex(rng.normal(), rng.normal())
            for p in rng.choice(space.dim, size=8, replace=False)}
    vec = StateVector(space, amps)
    twice = involution(involution(vec, q), q)
    for idx, amp in amps.items():
        assert twice.amplitudes[idx] == pytest.approx(amp, abs=1e-14)

    unit = StateVector(space, {BasisIndex(H(0), H(0), H(0)): 1.0})
    out = involution(unit, q)
    assert out.amplitudes == {BasisIndex(H(0), H(0), H(0)): 1.0}


def test_involution_frozen_example():
    # e^(1/2)_{1/2,-1/2} maps to -e^(1/2)_{-1/2,1/2} for any q
    space = full_space(3)
    vec = StateVector(space, {BasisIndex(H(1), H(1), H(-1)): 1.0})
    out = involution(vec, 0.5)
    assert out.amplitudes == {BasisIndex(H(1), H(-1), H(1)): pytest.approx(-1.0)}


def test_involution_swaps_bundles():
    vec = StateVector(bundle_space(2, 8), {BasisIndex(H(2), H(0), H(2)): 2.0})
    out = involution(vec, 0.5)
    assert out.space.k == -2


# ---------------------------------------------------------------------------
# Haar state
# ---------------------------------------------------------------------------

def test_haar_state_frozen_values():
    q = 0.5
    assert haar_state((), q, 1) == 1.0
    assert haar_state(("alpha",), q, 1) == 0.0
    assert complex(haar_state(("gamma*", "gamma"), q, 1)).real == pytest.approx(0.8, abs=1e-14)


def test_haar_state_positivity_on_random_words():
    rng = np.random.default_rng(11)
    gens = ("alpha", "alpha*", "gamma", "gamma*")
    star = {"alpha": "alpha*", "alpha*": "alpha", "gamma": "gamma*", "gamma*": "gamma"}
    for q in (0.5, -0.9):
        for _ in range(25):
            word = tuple(rng.choice(gens) for _ in range(rng.integers(1, 5)))
            adjoint = tuple(star[g] for g in reversed(word))
            value = complex(haar_state(adjoint + word, q, H(len(word) * 2)))
            assert value.imag == pytest.approx(0.0, abs=1e-13)
            assert value.real >= -1e-13


def test_haar_state_guards():
    with pytest.raises(ValueError):
        haar_state(("alpha",) * 5, 0.5, H(4))  # word longer than 2 lmax
    with pytest.raises(ValueError):
        haar_state(("beta",), 0.5, 1)


# ---------------------------------------------------------------------------
# projections and quantum dimension
# ---------------------------------------------------------------------------

def test_spectral_project_partition():
    space = full_space(6)
    rng = np.random.default_rng(5)
    amps = {space.basis_index(p): float(rng.normal()) for p in range(space.dim)}
    vec = StateVector(space, amps)
    parts = [spectral_project(vec, H(l2)) for l2 in range(0, 7)]
    recombined = {}
    for part in parts:
        for idx, a in part.amplitudes.items():
            recombined[idx] = recombined.get(idx, 0.0) + a
    assert recombined == amps
    again = spectral_project(parts[3], H(3))
    assert again.amplitudes == parts[3].amplitudes
    assert spectral_project(parts[3], H(0)).amplitudes == {}


def test_quantum_dimension_values():
    # [2l+1] of the spin-l irreducible is dim_quantum at label 2l
    assert dim_quantum(0.5, 0) == 1.0
    assert dim_quantum(0.5, 1) == pytest.approx(2.5, abs=1e-14)
    assert dim_quantum(0.5, 2) == pytest.approx(5.25, abs=1e-14)
    with pytest.raises(ValueError):
        dim_quantum(0.5, -1)
