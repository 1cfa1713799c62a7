"""Coefficient homotopy connecting the twisted adjoint action to a trivial one.

A one-parameter family of tridiagonal actions pi_t (t in [0, 1]) on the
line-bundle spaces interpolates between the honest *-representation at t = 1
and a representation that splits off the trivial one-dimensional summand at
t = 0.  Its matrix entries are the twelve closed-form families
a/b/c/d_{+1,0,-1}(t, l, i, j) implemented below, together with rescaled
families A/B/C/D_k(t, l, i) obtained from the j = 0 slice by conjugating with
a diagonal built from the interpolation scalar m(t, l).  The rescaled entries
define a genuine *-homomorphism omega_t for every t.

Three families of assertions are certified here:

* the adjoint-pairing identities between the rescaled families (and the five
  algebra relations for omega_t),
* uniform decay, in the spin label, of the differences between the t = 1
  action on the winding -2 bundle and the rescaled family,
* exact endpoint matching at t = 0, with a sign factor sgn(q) on the diagonal
  families.

On top of these sit the two degeneracy checks used by the index argument and
the explicit rotation homotopy needed when q < 0.
"""

from __future__ import annotations

import numpy as np

from .qarith import HalfInt, guarded_sqrt_array, m_array, qpow, strict_q
from .peterweyl import (BandedOperator, block_entries, bundle_space, operator_norm, _band,
                        _iratio, _spin_dens, _src_ok, _masked_sqrt_ratio,
                        _pair_norm_without_svd)

__all__ = [
    "build_omega",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "rotation_homotopy_check",
    "degenerate_module_check",
]


# ---------------------------------------------------------------------------
# the twelve closed-form families (twice units)
# ---------------------------------------------------------------------------
#
# s stands for |q|^t.  Masks encode the boundary convention (coefficient 0
# whenever source or target vector is absent); the k = 0 families are
# evaluated in grouped form so the removable 0/0 at spin zero never occurs.
# The twelve families and the rescaled ones are total: exactly 0.0 off the
# support and never raising there, at any integer indices, shifted or not.

def _omq(q, e):
    return 1.0 - qpow(q, e)


def t_a1(q, s, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2),
                 (l2 + j2 + 2, l2 + i2 + 2, l2 - j2 + 2, l2 - i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                 pref=s * qpow(q, 2 * l2 + 3) - qpow(q, l2 + 3) / s, den_exp=2 * l2 + 4)


def t_am1(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (np.abs(i2) != l2) & (np.abs(j2) != l2)
    return _band(q, mask,
                 (l2 - j2, l2 - i2, l2 + j2, l2 + i2), (2 * l2 - 2, 2 * l2 + 2),
                 pref=s / q - qpow(q, l2 + 1) / s, den_exp=2 * l2)


def t_a0(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2)
    d1, d12 = _spin_dens(q, l2, mask)
    grp1 = ((s * qpow(q, (2 * l2 - i2 - j2) // 2) * _omq(q, l2 + j2 + 2)
             + qpow(q, (2 * l2 - i2 + j2) // 2 + 2) / s * _omq(q, l2 - j2 + 2))
            * _omq(q, l2 + i2 + 2) / d12)
    grp2 = ((s * qpow(q, (2 * l2 + i2 + j2) // 2) * _omq(q, l2 - j2)
             + qpow(q, (2 * l2 + i2 - j2) // 2 + 2) / s * _omq(q, l2 + j2))
            * _iratio(q, l2 - i2, l2) / d1)
    return np.where(mask, grp1 + grp2, 0.0)


def t_b1(q, s, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2),
                 (l2 - j2 + 2, l2 - i2 + 2, l2 + j2 + 2, l2 + i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                 pref=q / s - s * qpow(q, l2 + 1), den_exp=2 * l2 + 4)


def t_bm1(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (np.abs(i2) != l2) & (np.abs(j2) != l2)
    return _band(q, mask,
                 (l2 + j2, l2 + i2, l2 - j2, l2 - i2), (2 * l2 - 2, 2 * l2 + 2),
                 pref=qpow(q, 2 * l2 + 1) / s - s * qpow(q, l2 - 1), den_exp=2 * l2)


def t_b0(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2)
    d1, d12 = _spin_dens(q, l2, mask)
    grp1 = ((qpow(q, (2 * l2 + i2 + j2) // 2 + 2) / s * _omq(q, l2 - j2 + 2)
             + s * qpow(q, (2 * l2 + i2 - j2) // 2) * _omq(q, l2 + j2 + 2))
            * _omq(q, l2 - i2 + 2) / d12)
    grp2 = ((qpow(q, (2 * l2 - i2 - j2) // 2 + 2) / s * _omq(q, l2 + j2)
             + s * qpow(q, (2 * l2 - i2 + j2) // 2) * _omq(q, l2 - j2))
            * _iratio(q, l2 + i2, l2) / d1)
    return np.where(mask, grp1 + grp2, 0.0)


def t_c1(q, s, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2),
                 (l2 + j2 + 2, l2 + i2 + 2, l2 - j2 + 2, l2 + i2 + 4), (2 * l2 + 2, 2 * l2 + 6),
                 pref=qpow(q, (l2 - i2) // 2 + 1) / s - s * qpow(q, (3 * l2 - i2) // 2 + 1),
                 den_exp=2 * l2 + 4)


def t_cm1(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (np.abs(j2) != l2) & (i2 <= l2 - 4)
    return _band(q, mask,
                 (l2 - j2, l2 - i2, l2 + j2, l2 - i2 - 2), (2 * l2 - 2, 2 * l2 + 2),
                 pref=s * qpow(q, (l2 + i2) // 2 - 1) - qpow(q, (3 * l2 + i2) // 2 + 1) / s,
                 den_exp=2 * l2)


def t_c0(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (i2 <= l2 - 2)
    rad = _masked_sqrt_ratio(q, (l2 + i2 + 2, l2 - i2), (), mask)
    d1, d12 = _spin_dens(q, l2, mask)
    grp1 = ((s * qpow(q, (3 * l2 - j2) // 2 + 1) * _omq(q, l2 + j2 + 2)
             + qpow(q, (3 * l2 + j2) // 2 + 3) / s * _omq(q, l2 - j2 + 2)) / d12)
    grp2 = ((s * qpow(q, (l2 + j2) // 2 - 1) * _iratio(q, l2 - j2, l2)
             + qpow(q, (l2 - j2) // 2 + 1) / s * _iratio(q, l2 + j2, l2)) / d1)
    return np.where(mask, rad * (grp1 - grp2), 0.0)


def t_d1(q, s, l2, i2, j2):
    return _band(q, _src_ok(l2, i2, j2),
                 (l2 - j2 + 2, l2 - i2 + 2, l2 + j2 + 2, l2 - i2 + 4), (2 * l2 + 2, 2 * l2 + 6),
                 pref=qpow(q, (l2 + i2) // 2 + 1) / s - s * qpow(q, (3 * l2 + i2) // 2 + 1),
                 den_exp=2 * l2 + 4)


def t_dm1(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (np.abs(j2) != l2) & (i2 >= -l2 + 4)
    return _band(q, mask,
                 (l2 + j2, l2 + i2, l2 - j2, l2 + i2 - 2), (2 * l2 - 2, 2 * l2 + 2),
                 pref=s * qpow(q, (l2 - i2) // 2 - 1) - qpow(q, (3 * l2 - i2) // 2 + 1) / s,
                 den_exp=2 * l2)


def t_d0(q, s, l2, i2, j2):
    mask = _src_ok(l2, i2, j2) & (i2 >= -l2 + 2)
    rad = _masked_sqrt_ratio(q, (l2 + i2, l2 - i2 + 2), (), mask)
    d1, d12 = _spin_dens(q, l2, mask)
    grp1 = ((qpow(q, (3 * l2 - j2) // 2 + 1) / s * _iratio(q, l2 + j2, l2)
             + s * qpow(q, (3 * l2 + j2) // 2 - 1) * _iratio(q, l2 - j2, l2)) / d1)
    grp2 = ((qpow(q, (l2 + j2) // 2 + 1) / s * _omq(q, l2 - j2 + 2)
             + s * qpow(q, (l2 - j2) // 2 - 1) * _omq(q, l2 + j2 + 2)) / d12)
    return np.where(mask, rad * (grp1 - grp2), 0.0)


_T_CORES = {
    ("a", 1): t_a1, ("a", 0): t_a0, ("a", -1): t_am1,
    ("b", 1): t_b1, ("b", 0): t_b0, ("b", -1): t_bm1,
    ("c", 1): t_c1, ("c", 0): t_c0, ("c", -1): t_cm1,
    ("d", 1): t_d1, ("d", 0): t_d0, ("d", -1): t_dm1,
}


# ---------------------------------------------------------------------------
# rescaled families
# ---------------------------------------------------------------------------
#
# X_1 combines m(t, l+1)^(-1/2) with the prefactor of x_1 analytically, so
# the 0/0 of the raw product at (t, l) = (0, 0) never occurs:
#     m(t, l+1)^(-1/2) = sqrt(s^2 - q^(2l+4)) / (|q| sqrt(1 - s^2 q^(2l)))
# while every x_1 prefactor carries the factor (1 - s^2 q^(2l)).

def _plus_scale(q, s, l2, mask):
    """sqrt(1 - s^2 q^(2l)) * sqrt(s^2 - q^(2l+4)) / (s |q|), zero off the mask."""
    rad = np.where(mask, (1.0 - s**2 * qpow(q, l2)) * (s**2 - qpow(q, l2 + 4)), 0.0)
    return guarded_sqrt_array(rad) / (s * abs(q))


def _resc_plus(num_exps, pref):
    """X_1 from the two numerator exponents of its radical and its prefactor,
    both functions of the twice arrays; the four families differ only there."""
    def fn(q, s, l2, i2):
        mask = (l2 >= 0) & (np.abs(i2) <= l2)
        rad = _masked_sqrt_ratio(q, num_exps(l2, i2), (2 * l2 + 2, 2 * l2 + 6), mask)
        den = np.where(mask, _omq(q, 2 * l2 + 4), 1.0)
        r = _omq(q, l2 + 2) * rad / den
        return np.where(mask, pref(q, l2, i2) * _plus_scale(q, s, l2, mask) * r, 0.0)
    return fn


def _resc_minus(core):
    """X_-1: the j = 0 entry times sqrt(m(t, l)), taken where the entry is
    nonzero, which holds only at spins >= 1."""
    def fn(q, s, l2, i2):
        raw = core(q, s, l2, i2, 0)
        return raw * guarded_sqrt_array(m_array(q, s, l2, raw != 0.0))
    return fn


_RESC_CORES = {
    ("A", 1): _resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 - i2 + 2),
                         lambda q, l2, i2: -qpow(q, l2 + 3)),
    ("A", 0): lambda q, s, l2, i2: t_a0(q, s, l2, i2, 0),
    ("A", -1): _resc_minus(t_am1),
    ("B", 1): _resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 - i2 + 2),
                         lambda q, l2, i2: q),
    ("B", 0): lambda q, s, l2, i2: t_b0(q, s, l2, i2, 0),
    ("B", -1): _resc_minus(t_bm1),
    ("C", 1): _resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 + i2 + 4),
                         lambda q, l2, i2: qpow(q, (l2 - i2) // 2 + 1)),
    ("C", 0): lambda q, s, l2, i2: t_c0(q, s, l2, i2, 0),
    ("C", -1): _resc_minus(t_cm1),
    ("D", 1): _resc_plus(lambda l2, i2: (l2 - i2 + 2, l2 - i2 + 4),
                         lambda q, l2, i2: qpow(q, (l2 + i2) // 2 + 1)),
    ("D", 0): lambda q, s, l2, i2: t_d0(q, s, l2, i2, 0),
    ("D", -1): _resc_minus(t_dm1),
}


# ---------------------------------------------------------------------------
# omega_t operators
# ---------------------------------------------------------------------------

def _omega_rules(family: str, di2: int, s: float):
    return tuple(((2 * k, di2, 0), (lambda q, l2, i2, j2, _c=_RESC_CORES[(family, k)]:
                                    _c(q, s, l2, i2)))
                 for k in (1, 0, -1))


def build_omega(q, t: float, lmax) -> dict:
    """omega_t as {generator name: banded image} on the winding-zero bundle."""
    q = strict_q(q)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    space = bundle_space(0, HalfInt.of(lmax).twice)
    s = abs(q) ** t
    ops = {}
    for name, family, di2 in (("alpha", "A", 0), ("alpha*", "B", 0),
                              ("gamma", "C", 2), ("gamma*", "D", -2)):
        ops[name] = BandedOperator.from_shift_rules(
            space, space, _omega_rules(family, di2, s), HalfInt(2), q=q)
    return ops


# ---------------------------------------------------------------------------
# identity and decay verifiers
# ---------------------------------------------------------------------------

def _t_grid(n: int):
    if n < 2:
        raise ValueError("the t grid must contain both endpoints, need >= 2 points")
    return np.linspace(0.0, 1.0, n)


def _level_arrays(levels2):
    """All (l2, i2) pairs with l2 in levels2 and |i2| <= l2, i2 of the parity
    of l2, spin after spin."""
    return (np.repeat(levels2, [l2 + 1 for l2 in levels2]),
            np.concatenate([np.arange(-l2, l2 + 1, 2) for l2 in levels2]))


# adjoint pairings between the rescaled families: each row is
# (name, lhs family, rhs family, dl2, di2), the rhs evaluated at
# (l2 + dl2, i2 + di2); quantified over all admissible (l, i) including the
# spin-zero boundary, where both sides vanish.
_LEMMA1_IDENTITIES = (
    ("A_1(l, i) = B_-1(l+1, i)", ("A", 1), ("B", -1), 2, 0),
    ("A_0(l, i) = B_0(l, i)", ("A", 0), ("B", 0), 0, 0),
    ("A_-1(l, i) = B_1(l-1, i)", ("A", -1), ("B", 1), -2, 0),
    ("C_1(l, i) = D_-1(l+1, i+1)", ("C", 1), ("D", -1), 2, 2),
    ("C_0(l, i) = D_0(l, i+1)", ("C", 0), ("D", 0), 0, 2),
    ("C_-1(l, i) = D_1(l-1, i+1)", ("C", -1), ("D", 1), -2, 2),
)


def verify_lemma1(q, lmax, t_grid_size: int = 11) -> dict:
    """Max residuals of the six adjoint-pairing identity families.

    These are exactly the equalities making omega_t(x)* = omega_t(x*) for the
    generator pairs, checked pointwise on the (t, l, i) grid.
    """
    q = strict_q(q)
    grid = _t_grid(t_grid_size)
    l2, i2 = _level_arrays(range(0, HalfInt.of(lmax).twice + 1, 2))
    out = {}
    for name, lhs, rhs, dl2, di2 in _LEMMA1_IDENTITIES:
        worst = 0.0
        for t in grid:
            s = abs(q) ** t
            diff = (_RESC_CORES[lhs](q, s, l2, i2)
                    - _RESC_CORES[rhs](q, s, l2 + dl2, i2 + di2))
            worst = max(worst, float(np.max(np.abs(diff))))
        out[name] = worst
    return out


_LEMMA2_FAMILIES = (
    ("|a_1(1,l,i,j1) - A_1(t,l,i)|", "a", 1, "diff"),
    ("|a_0(1,l,i,j1)|", "a", 0, "t1"),
    ("|A_0(t,l,i)|", "A", 0, "resc"),
    ("|a_-1(1,l,i,j1) - A_-1(t,l,i)|", "a", -1, "diff"),
    ("|c_1(1,l,i,j1) - C_1(t,l,i)|", "c", 1, "diff"),
    ("|c_0(1,l,i,j1)|", "c", 0, "t1"),
    ("|C_0(t,l,i)|", "C", 0, "resc"),
    ("|c_-1(1,l,i,j1) - C_-1(t,l,i)|", "c", -1, "diff"),
)

# measured alongside but never gated: the adjoint families satisfy the same
# decay via the pairing identities, so they carry no independent information
_LEMMA2_EXTRA = (
    ("|b_1(1,l,i,j1) - B_1(t,l,i)|", "b", 1, "diff"),
    ("|b_0(1,l,i,j1)|", "b", 0, "t1"),
    ("|B_0(t,l,i)|", "B", 0, "resc"),
    ("|b_-1(1,l,i,j1) - B_-1(t,l,i)|", "b", -1, "diff"),
    ("|d_1(1,l,i,j1) - D_1(t,l,i)|", "d", 1, "diff"),
    ("|d_0(1,l,i,j1)|", "d", 0, "t1"),
    ("|D_0(t,l,i)|", "D", 0, "resc"),
    ("|d_-1(1,l,i,j1) - D_-1(t,l,i)|", "d", -1, "diff"),
)


def verify_lemma2(q, l_list, t_grid_size: int = 11) -> dict:
    """Decay table: for each l, the sup over the t grid, both j = +-1 and all
    admissible i of the sixteen difference families, the eight gated ones
    first.

    Returns {family_name: [sup at each l]}; the caller decides pass/fail
    (eventual decrease plus a final threshold).
    """
    q = strict_q(q)
    grid = _t_grid(t_grid_size)
    l_list = [int(l) for l in l_list]
    if any(b <= a for a, b in zip(l_list, l_list[1:])):
        raise ValueError("l_list must be strictly increasing")
    if min(l_list) < 1:
        raise ValueError("decay families are indexed by spins >= 1")
    # every spin of l_list in one array; each spin's 2l+1 weights are a segment
    l2, i2 = _level_arrays([2 * l for l in l_list])
    starts = np.cumsum([0] + [2 * l + 1 for l in l_list[:-1]])

    def sup(vals):
        return np.maximum.reduceat(np.abs(vals), starts)

    out = {}
    for name, fam, k, kind in _LEMMA2_FAMILIES + _LEMMA2_EXTRA:
        worst = np.zeros(len(l_list))
        # the t = 1 family at j = +-1/2, the same at every grid point
        t1 = ([] if kind == "resc" else
              [_T_CORES[(fam, k)](q, abs(q), l2, i2, j2) for j2 in (2, -2)])
        if kind == "t1":
            for vals in t1:
                worst = np.maximum(worst, sup(vals))
        else:
            resc = fam.upper()
            for t in grid:
                s = abs(q) ** t
                rv = _RESC_CORES[(resc, k)](q, s, l2, i2)
                if kind == "resc":
                    worst = np.maximum(worst, sup(rv))
                else:
                    for tv in t1:
                        worst = np.maximum(worst, sup(tv - rv))
        out[name] = worst.tolist()
    return out


def decay_verdict(sups, tol_decay: float):
    """(eventually_decreasing, final_ok) for one decay family.

    Eventually decreasing means strictly decreasing past the peak; once a
    value drops below tol_decay, ties are tolerated, because differences of
    coefficients that agree to better than machine precision saturate at the
    floating-point floor (often exactly 0) instead of shrinking further.
    """
    sups = list(sups)
    peak = int(np.argmax(sups))
    decreasing = all(sups[m] > sups[m + 1] or sups[m] < tol_decay
                     for m in range(peak, len(sups) - 1))
    return decreasing, sups[-1] < tol_decay


def _endpoint_sign(q: float) -> float:
    # the factor certified by the negative control in verify_lemma3
    return 1.0 if q > 0 else -1.0


def verify_lemma3(q, lmax, signed: bool = True) -> dict:
    """Residuals of the six endpoint identities at t = 0.

    The rescaled families at t = 0 match the t = 1 families evaluated at
    j = +-1, with a factor sgn(q) exactly on the diagonal (k = 0) pairs;
    quantified over spins l >= 1 only.  ``signed=False`` evaluates the
    unsigned variant, which must fail for q < 0 (negative control).
    """
    q = strict_q(q)
    lmax2 = HalfInt.of(lmax).twice
    if lmax2 < 4:
        raise ValueError("need lmax >= 2")
    l2, i2 = _level_arrays(range(2, lmax2 + 1, 2))
    sgn = _endpoint_sign(q) if signed else 1.0
    s0, s1 = 1.0, abs(q)
    out = {}
    for fam in ("a", "c"):
        resc = fam.upper()
        for k in (1, 0, -1):
            factor = sgn if k == 0 else 1.0
            rv = _RESC_CORES[(resc, k)](q, s0, l2, i2)
            worst = 0.0
            for j2 in (2, -2):
                tv = _T_CORES[(fam, k)](q, s1, l2, i2, j2)
                worst = max(worst, float(np.max(np.abs(rv - factor * tv))))
            label = f"{resc}_{k}(0,l,i) = " + (f"sgn(q) {fam}_{k}(1,l,i,j1)" if k == 0
                                               else f"{fam}_{k}(1,l,i,j1)")
            out[label] = worst
    return out


# ---------------------------------------------------------------------------
# degeneracy checks and the rotation homotopy
# ---------------------------------------------------------------------------

def degenerate_module_check(q, lmax) -> dict:
    """The two degeneracy statements entering the index computation.

    (i)  On the winding (+1, -1) pair the t = 1 coefficient tables are
         symmetric in the column weight, so the swap intertwines the two
         sector actions exactly.
    (ii) On the winding (0, -2) pair with the bottom vector removed, the
         t = 0 action matches the t = 1 action of the other sector; this
         holds verbatim for q > 0 and must fail on the diagonal families for
         q < 0 (the sign obstruction driving the rotation homotopy).
    """
    q = strict_q(q)
    lmax2 = HalfInt.of(lmax).twice

    # (i): x_k(1, l, i, +1/2) = x_k(1, l, i, -1/2) on half-odd spins
    l2, i2 = _level_arrays(range(1, lmax2 + 1, 2))
    sym = 0.0
    for fam in "abcd":
        for k in (1, 0, -1):
            plus = _T_CORES[(fam, k)](q, abs(q), l2, i2, 1)
            minus = _T_CORES[(fam, k)](q, abs(q), l2, i2, -1)
            sym = max(sym, float(np.max(np.abs(plus - minus))))

    # (ii): unsigned endpoint matching over spins >= 1
    unsigned = verify_lemma3(q, HalfInt(lmax2), signed=False)
    return {
        "column_symmetry_residual": sym,
        "endpoint_unsigned_residual": max(unsigned.values()),
    }


def _omega_matrices_on_minus2(q, lmax):
    """omega_0 and the t = 1 action, both as matrices on the winding -2 basis.

    omega_0 lives on the winding-zero bundle; the canonical identification
    drops the bottom vector and matches e^(l)_{i,0} with e^(l)_{i,-1}.
    """
    q = strict_q(q)
    lmax2 = HalfInt.of(lmax).twice
    minus2 = bundle_space(-2, lmax2)
    out_omega0, out_omega1 = {}, {}
    for name, fam, di2 in (("alpha", "a", 0), ("gamma", "c", 2)):
        # s = |q|^0 = 1 at t = 0
        out_omega0[name] = BandedOperator.from_shift_rules(
            minus2, minus2, _omega_rules(fam.upper(), di2, 1.0), HalfInt(2), q=q)
        rules1 = tuple(((2 * k, di2, 0),
                        (lambda qq, a2, b2, c2, _fam=fam, _k=k:
                         _T_CORES[(_fam, _k)](qq, abs(q), a2, b2, c2)))
                       for k in (1, 0, -1))
        out_omega1[name] = BandedOperator.from_shift_rules(
            minus2, minus2, rules1, HalfInt(2), q=q)
    return minus2, out_omega0, out_omega1


def _grid_norm(grid, cols=None) -> float:
    """Norm of a grid of operators as one block operator, of the columns of
    the domain vectors in the mask ``cols`` when given.  The zero case and
    the bound are settled on the entries, so an all-zero grid, an empty
    pair, never reaches :func:`operator_norm`; the stacked SVD takes the
    weight sectors of the columns as its blocks."""
    pair, sectors = block_entries(grid, cols)
    settled = _pair_norm_without_svd(pair)
    return operator_norm(pair, blocks=sectors) if settled is None else settled


def rotation_homotopy_check(q, t_grid_size: int = 11, lmax=30, l_from=15) -> dict:
    """Certify the explicit rotation homotopy used for q < 0.

    The even part of the homotopy conjugates diag(omega_0(x), omega(x)) by a
    rotation U(t); the odd part is diag(omega(x), omega(x)) and the symmetry
    swaps the two copies.  Checked per grid point: the commutator's tail norm
    beyond the given spin never exceeds the tail norm of omega_0(x) - omega(x)
    (a rotation is an isometry), and the endpoint block structures are exact,
    diag(omega_0, omega) at t = 0 and diag(omega, omega_0) at t = 1.
    """
    q = strict_q(q)
    if q >= 0:
        raise ValueError("the rotation homotopy is only needed for q < 0")
    grid = _t_grid(t_grid_size)
    minus2, om0, om1 = _omega_matrices_on_minus2(q, lmax)
    cols = minus2.tail_mask(HalfInt.of(l_from))

    # the two off corners of the graded commutator are Kronecker products
    # S(t) (x) Delta of a 2x2 rotation factor with Delta = omega_0 - omega,
    # so their norms factor exactly; one grid point is cross-checked against
    # the fully assembled operator below
    def rotation_factors(c, s):
        s1 = np.array([[-c * s, s * s], [c * c, -c * s]])
        s2 = np.array([[c * s, -c * c], [-s * s, c * s]])
        return s1, s2

    worst_gap = -np.inf
    worst_tail = 0.0
    endpoint0 = endpoint1 = 0.0
    assembly_gap = 0.0
    t_mid = float(grid[len(grid) // 2])
    for x in ("alpha", "gamma"):
        a = om0[x]          # omega_0 seen on the winding -2 basis
        b = om1[x]          # the t = 1 action there
        delta_tail = (a - b).norm(cols)
        for t in grid:
            if t == 0.0:
                c, s = 1.0, 0.0
            elif t == 1.0:
                c, s = 0.0, 1.0
            else:
                c, s = np.cos(np.pi * t / 2.0), np.sin(np.pi * t / 2.0)
            s1, s2 = rotation_factors(c, s)
            tail = max(np.linalg.norm(s1, 2), np.linalg.norm(s2, 2)) * delta_tail
            worst_tail = max(worst_tail, tail)
            worst_gap = max(worst_gap, tail - delta_tail)
            if t in (0.0, 1.0, t_mid):
                # the even part [[p, r], [r, u]] written block by block
                p, u, r = c * c * a + s * s * b, s * s * a + c * c * b, c * s * (b - a)
                if t == t_mid:
                    # swap . even - diag(b, b) . swap, restricted to the tail columns
                    commutator = [[r, u - b], [p - b, r]]
                    assembled = _grid_norm(commutator, cols)
                    assembly_gap = max(assembly_gap,
                                       abs(assembled - np.linalg.norm(s1, 2) * delta_tail))
                if t == 0.0:
                    endpoint0 = max(endpoint0, _grid_norm([[p - a, r], [r, u - b]]))
                if t == 1.0:
                    endpoint1 = max(endpoint1, _grid_norm([[p - b, r], [r, u - a]]))
    return {
        "max_tail": worst_tail,
        "max_tail_excess": max(worst_gap, 0.0),
        "factorized_vs_assembled": assembly_gap,
        "endpoint_t0_deviation": endpoint0,
        "endpoint_t1_deviation": endpoint1,
        "rotation_endpoint_convention": "U(1) maps (x, y) to (y, -x)",
    }
