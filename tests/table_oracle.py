"""The coefficient tables in their printed exponent forms, as an oracle.

Each table and helper here spells every factor 1 - q^n with its exponent n
written out as an integer array of (l2, i2, j2) in twice units, and reads
q^n from a power table over that array's own range, as the package did
before its tables read q-factors by lattice coordinate.  The package's
tables must give the same floats bit for bit: the products keep their
printed order, and every q^n is numpy's own float64 power.
"""

import numpy as np

from suq2kit.qarith import guarded_sqrt_array


def qpow(q, e):
    """q**e for an integer exponent array, read from numpy's array power of
    q over the range of e."""
    e = np.asarray(e)
    if e.size == 0:
        return np.power(q, e)
    lo, hi = int(e.min()), int(e.max())
    return np.power(q, np.arange(lo, hi + 1, dtype=float))[e - lo]


def omq(q, e):
    return 1.0 - qpow(q, e)


def m_array(q, s, l2, mask=True):
    num = np.where(mask, q**2 * (1.0 - s**2 * qpow(q, l2 - 2)), 0.0)
    den = np.where(mask, s**2 - qpow(q, l2 + 2), 1.0)
    return num / den


# -- helpers ------------------------------------------------------------------

def src_ok(l2, i2, j2):
    return (l2 >= 0) & (np.abs(i2) <= l2) & (np.abs(j2) <= l2)


def masked_sqrt_ratio(q, num_exps, den_exps, mask):
    num = np.ones(np.broadcast(*num_exps).shape)
    for e in num_exps:
        num = num * (1.0 - qpow(q, e))
    den = np.ones_like(num)
    for e in den_exps:
        den = den * (1.0 - qpow(q, e))
    inner = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    return guarded_sqrt_array(inner)


def iratio(q, num_exp, l2):
    safe = np.where(l2 > 0, 1.0 - qpow(q, 2 * l2), 1.0)
    return np.where(l2 > 0, (1.0 - qpow(q, num_exp)) / safe,
                    1.0 / (1.0 + qpow(q, l2)))


def spin_dens(q, l2, mask):
    d1 = 1.0 - qpow(q, 2 * l2 + 2)
    return np.where(mask, d1, 1.0), np.where(mask, d1 * (1.0 - qpow(q, 2 * l2 + 4)), 1.0)


def band(q, mask, num_exps, den_exps, pref=1.0, den_exp=None):
    val = pref * masked_sqrt_ratio(q, num_exps, den_exps, mask)
    if den_exp is not None:
        val = val / np.where(mask, 1.0 - qpow(q, den_exp), 1.0)
    return np.where(mask, val, 0.0)


# -- regular representation ---------------------------------------------------

def reg_a_plus(q, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2), (l2 - j2 + 2, l2 - i2 + 2),
                (2 * l2 + 2, 2 * l2 + 4), pref=qpow(q, (2 * l2 + i2 + j2) // 2 + 1))


def reg_a_minus(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (i2 != -l2) & (j2 != -l2)
    return band(q, mask, (l2 + j2, l2 + i2), (2 * l2, 2 * l2 + 2))


def reg_c_plus(q, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2), (l2 - j2 + 2, l2 + i2 + 2),
                (2 * l2 + 2, 2 * l2 + 4), pref=-qpow(q, (l2 + j2) // 2))


def reg_c_minus(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (i2 != l2) & (j2 != -l2)
    return band(q, mask, (l2 + j2, l2 - i2), (2 * l2, 2 * l2 + 2),
                pref=qpow(q, (l2 + i2) // 2))


REG = {"reg_a_plus": reg_a_plus, "reg_a_minus": reg_a_minus,
       "reg_c_plus": reg_c_plus, "reg_c_minus": reg_c_minus}


# -- Podles sphere --------------------------------------------------------------

def sphere_a_minus(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(i2) != l2) & (np.abs(j2) != l2)
    return band(q, mask, (l2 - j2, l2 + i2, l2 + j2, l2 - i2), (2 * l2 - 2, 2 * l2 + 2),
                pref=-qpow(q, (2 * l2 + i2 + j2) // 2 - 1), den_exp=2 * l2)


def sphere_a_diag(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2)
    d1, d12 = spin_dens(q, l2, mask)
    t1 = qpow(q, l2 + j2) * (1.0 - qpow(q, l2 - j2 + 2)) * (1.0 - qpow(q, l2 + i2 + 2)) / d12
    t2 = qpow(q, l2 + i2) * (1.0 - qpow(q, l2 + j2)) * iratio(q, l2 - i2, l2) / d1
    return np.where(mask, t1 + t2, 0.0)


def sphere_a_plus(q, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 + j2 + 2, l2 - i2 + 2, l2 - j2 + 2, l2 + i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                pref=-qpow(q, (2 * l2 + i2 + j2) // 2 + 1), den_exp=2 * l2 + 4)


def sphere_b_minus(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(j2) != l2) & (i2 <= l2 - 4)
    return band(q, mask, (l2 - j2, l2 - i2 - 2, l2 + j2, l2 - i2), (2 * l2 - 2, 2 * l2 + 2),
                pref=qpow(q, (3 * l2 + 2 * i2 + j2) // 2), den_exp=2 * l2)


def sphere_b_diag(q, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (i2 <= l2 - 2)
    rad = masked_sqrt_ratio(q, (l2 + i2 + 2, l2 - i2), (), mask)
    d1, d12 = spin_dens(q, l2, mask)
    t1 = qpow(q, (l2 + i2) // 2) * iratio(q, l2 + j2, l2) / d1
    t2 = qpow(q, (3 * l2 + i2 + 2 * j2) // 2 + 2) * (1.0 - qpow(q, l2 - j2 + 2)) / d12
    return np.where(mask, rad * (t1 - t2), 0.0)


def sphere_b_plus(q, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 + j2 + 2, l2 + i2 + 4, l2 - j2 + 2, l2 + i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                pref=-qpow(q, (l2 + j2) // 2), den_exp=2 * l2 + 4)


SPHERE = {"sphere_a_minus": sphere_a_minus, "sphere_a_diag": sphere_a_diag,
          "sphere_a_plus": sphere_a_plus, "sphere_b_minus": sphere_b_minus,
          "sphere_b_diag": sphere_b_diag, "sphere_b_plus": sphere_b_plus}


# -- the twelve homotopy families ----------------------------------------------

def t_a1(q, s, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 + j2 + 2, l2 + i2 + 2, l2 - j2 + 2, l2 - i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                pref=s * qpow(q, 2 * l2 + 3) - qpow(q, l2 + 3) / s, den_exp=2 * l2 + 4)


def t_am1(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(i2) != l2) & (np.abs(j2) != l2)
    return band(q, mask,
                (l2 - j2, l2 - i2, l2 + j2, l2 + i2), (2 * l2 - 2, 2 * l2 + 2),
                pref=s / q - qpow(q, l2 + 1) / s, den_exp=2 * l2)


def t_a0(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2)
    d1, d12 = spin_dens(q, l2, mask)
    grp1 = ((s * qpow(q, (2 * l2 - i2 - j2) // 2) * omq(q, l2 + j2 + 2)
             + qpow(q, (2 * l2 - i2 + j2) // 2 + 2) / s * omq(q, l2 - j2 + 2))
            * omq(q, l2 + i2 + 2) / d12)
    grp2 = ((s * qpow(q, (2 * l2 + i2 + j2) // 2) * omq(q, l2 - j2)
             + qpow(q, (2 * l2 + i2 - j2) // 2 + 2) / s * omq(q, l2 + j2))
            * iratio(q, l2 - i2, l2) / d1)
    return np.where(mask, grp1 + grp2, 0.0)


def t_b1(q, s, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 - j2 + 2, l2 - i2 + 2, l2 + j2 + 2, l2 + i2 + 2), (2 * l2 + 2, 2 * l2 + 6),
                pref=q / s - s * qpow(q, l2 + 1), den_exp=2 * l2 + 4)


def t_bm1(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(i2) != l2) & (np.abs(j2) != l2)
    return band(q, mask,
                (l2 + j2, l2 + i2, l2 - j2, l2 - i2), (2 * l2 - 2, 2 * l2 + 2),
                pref=qpow(q, 2 * l2 + 1) / s - s * qpow(q, l2 - 1), den_exp=2 * l2)


def t_b0(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2)
    d1, d12 = spin_dens(q, l2, mask)
    grp1 = ((qpow(q, (2 * l2 + i2 + j2) // 2 + 2) / s * omq(q, l2 - j2 + 2)
             + s * qpow(q, (2 * l2 + i2 - j2) // 2) * omq(q, l2 + j2 + 2))
            * omq(q, l2 - i2 + 2) / d12)
    grp2 = ((qpow(q, (2 * l2 - i2 - j2) // 2 + 2) / s * omq(q, l2 + j2)
             + s * qpow(q, (2 * l2 - i2 + j2) // 2) * omq(q, l2 - j2))
            * iratio(q, l2 + i2, l2) / d1)
    return np.where(mask, grp1 + grp2, 0.0)


def t_c1(q, s, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 + j2 + 2, l2 + i2 + 2, l2 - j2 + 2, l2 + i2 + 4), (2 * l2 + 2, 2 * l2 + 6),
                pref=qpow(q, (l2 - i2) // 2 + 1) / s - s * qpow(q, (3 * l2 - i2) // 2 + 1),
                den_exp=2 * l2 + 4)


def t_cm1(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(j2) != l2) & (i2 <= l2 - 4)
    return band(q, mask,
                (l2 - j2, l2 - i2, l2 + j2, l2 - i2 - 2), (2 * l2 - 2, 2 * l2 + 2),
                pref=s * qpow(q, (l2 + i2) // 2 - 1) - qpow(q, (3 * l2 + i2) // 2 + 1) / s,
                den_exp=2 * l2)


def t_c0(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (i2 <= l2 - 2)
    rad = masked_sqrt_ratio(q, (l2 + i2 + 2, l2 - i2), (), mask)
    d1, d12 = spin_dens(q, l2, mask)
    grp1 = ((s * qpow(q, (3 * l2 - j2) // 2 + 1) * omq(q, l2 + j2 + 2)
             + qpow(q, (3 * l2 + j2) // 2 + 3) / s * omq(q, l2 - j2 + 2)) / d12)
    grp2 = ((s * qpow(q, (l2 + j2) // 2 - 1) * iratio(q, l2 - j2, l2)
             + qpow(q, (l2 - j2) // 2 + 1) / s * iratio(q, l2 + j2, l2)) / d1)
    return np.where(mask, rad * (grp1 - grp2), 0.0)


def t_d1(q, s, l2, i2, j2):
    return band(q, src_ok(l2, i2, j2),
                (l2 - j2 + 2, l2 - i2 + 2, l2 + j2 + 2, l2 - i2 + 4), (2 * l2 + 2, 2 * l2 + 6),
                pref=qpow(q, (l2 + i2) // 2 + 1) / s - s * qpow(q, (3 * l2 + i2) // 2 + 1),
                den_exp=2 * l2 + 4)


def t_dm1(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (np.abs(j2) != l2) & (i2 >= -l2 + 4)
    return band(q, mask,
                (l2 + j2, l2 + i2, l2 - j2, l2 + i2 - 2), (2 * l2 - 2, 2 * l2 + 2),
                pref=s * qpow(q, (l2 - i2) // 2 - 1) - qpow(q, (3 * l2 - i2) // 2 + 1) / s,
                den_exp=2 * l2)


def t_d0(q, s, l2, i2, j2):
    mask = src_ok(l2, i2, j2) & (i2 >= -l2 + 2)
    rad = masked_sqrt_ratio(q, (l2 + i2, l2 - i2 + 2), (), mask)
    d1, d12 = spin_dens(q, l2, mask)
    grp1 = ((qpow(q, (3 * l2 - j2) // 2 + 1) / s * iratio(q, l2 + j2, l2)
             + s * qpow(q, (3 * l2 + j2) // 2 - 1) * iratio(q, l2 - j2, l2)) / d1)
    grp2 = ((qpow(q, (l2 + j2) // 2 + 1) / s * omq(q, l2 - j2 + 2)
             + s * qpow(q, (l2 - j2) // 2 - 1) * omq(q, l2 + j2 + 2)) / d12)
    return np.where(mask, rad * (grp1 - grp2), 0.0)


T_CORES = {
    ("a", 1): t_a1, ("a", 0): t_a0, ("a", -1): t_am1,
    ("b", 1): t_b1, ("b", 0): t_b0, ("b", -1): t_bm1,
    ("c", 1): t_c1, ("c", 0): t_c0, ("c", -1): t_cm1,
    ("d", 1): t_d1, ("d", 0): t_d0, ("d", -1): t_dm1,
}


# -- the rescaled families -------------------------------------------------------

def plus_scale(q, s, l2, mask):
    rad = np.where(mask, (1.0 - s**2 * qpow(q, l2)) * (s**2 - qpow(q, l2 + 4)), 0.0)
    return guarded_sqrt_array(rad) / (s * abs(q))


def resc_plus(num_exps, pref):
    def fn(q, s, l2, i2):
        mask = (l2 >= 0) & (np.abs(i2) <= l2)
        rad = masked_sqrt_ratio(q, num_exps(l2, i2), (2 * l2 + 2, 2 * l2 + 6), mask)
        den = np.where(mask, omq(q, 2 * l2 + 4), 1.0)
        r = omq(q, l2 + 2) * rad / den
        return np.where(mask, pref(q, l2, i2) * plus_scale(q, s, l2, mask) * r, 0.0)
    return fn


def resc_minus(core):
    def fn(q, s, l2, i2):
        raw = core(q, s, l2, i2, 0)
        return raw * guarded_sqrt_array(m_array(q, s, l2, raw != 0.0))
    return fn


def resc_zero(core):
    def fn(q, s, l2, i2):
        return core(q, s, l2, i2, 0)
    return fn


RESC_CORES = {
    ("A", 1): resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 - i2 + 2),
                        lambda q, l2, i2: -qpow(q, l2 + 3)),
    ("A", 0): resc_zero(t_a0),
    ("A", -1): resc_minus(t_am1),
    ("B", 1): resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 - i2 + 2),
                        lambda q, l2, i2: q),
    ("B", 0): resc_zero(t_b0),
    ("B", -1): resc_minus(t_bm1),
    ("C", 1): resc_plus(lambda l2, i2: (l2 + i2 + 2, l2 + i2 + 4),
                        lambda q, l2, i2: qpow(q, (l2 - i2) // 2 + 1)),
    ("C", 0): resc_zero(t_c0),
    ("C", -1): resc_minus(t_cm1),
    ("D", 1): resc_plus(lambda l2, i2: (l2 - i2 + 2, l2 - i2 + 4),
                        lambda q, l2, i2: qpow(q, (l2 + i2) // 2 + 1)),
    ("D", 0): resc_zero(t_d0),
    ("D", -1): resc_minus(t_dm1),
}


# -- the shift rules of the generator tables ----------------------------------

GEN_RULES = {
    "alpha": (((1, -1, -1), reg_a_plus), ((-1, -1, -1), reg_a_minus)),
    "gamma": (((1, 1, -1), reg_c_plus), ((-1, 1, -1), reg_c_minus)),
    "alpha*": (((-1, 1, 1), lambda q, l2, i2, j2: reg_a_plus(q, l2 - 1, i2 + 1, j2 + 1)),
               ((1, 1, 1), lambda q, l2, i2, j2: reg_a_minus(q, l2 + 1, i2 + 1, j2 + 1))),
    "gamma*": (((-1, -1, 1), lambda q, l2, i2, j2: reg_c_plus(q, l2 - 1, i2 - 1, j2 + 1)),
               ((1, -1, 1), lambda q, l2, i2, j2: reg_c_minus(q, l2 + 1, i2 - 1, j2 + 1))),
}
