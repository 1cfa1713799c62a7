"""Exact fusion, dimension, Smith form and resolution checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from suq2kit.kring import (dim_classical, dim_quantum, fuse, fusion_closed_form,
                           int_det, koszul_matrix, koszul_verify, smith_normal_form,
                           _matmul)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_with_trivial_and_generator():
    for k in range(8):
        assert fuse(k, 0) == {k: 1}
        expected = {k + 1: 1} if k == 0 else {k - 1: 1, k + 1: 1}
        assert fuse(k, 1) == expected


def test_fuse_two_two():
    assert fuse(2, 2) == {0: 1, 2: 1, 4: 1}


def test_fuse_matches_closed_form_brute():
    for k in range(9):
        for m in range(9):
            assert fuse(k, m) == fusion_closed_form(k, m)
            # an actual representation: every multiplicity positive
            assert all(v > 0 for v in fuse(k, m).values())


def test_fuse_lists_labels_ascending_without_zeros():
    # the quantum-dimension sums add in this order, so it fixes their rounding
    for k in range(11):
        for m in range(11):
            product = fuse(k, m)
            assert list(product) == sorted(product)
            assert 0 not in product.values()


def test_fusion_commutative_and_associative():
    def prod(x: dict, y: dict) -> dict:
        out = {}
        for k, vk in x.items():
            for m, vm in y.items():
                for j, vj in fuse(k, m).items():
                    out[j] = out.get(j, 0) + vk * vm * vj
        return {j: v for j, v in out.items() if v}

    for a in range(6):
        for b in range(6):
            assert fuse(a, b) == fuse(b, a)
            for c in range(6):
                ia, ib, ic = {a: 1}, {b: 1}, {c: 1}
                assert prod(prod(ia, ib), ic) == prod(ia, prod(ib, ic))


def test_fusion_element_validation():
    with pytest.raises(ValueError):
        fuse(-1, 2)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_classical_dimensions_n3():
    assert [dim_classical(3, k) for k in range(4)] == [1, 3, 8, 21]


def test_classical_dimension_exactness_at_large_label():
    # growth like n^k; must stay exact far beyond 64-bit range
    value = dim_classical(10, 60)
    assert value > 10**55
    assert dim_classical(10, 61) == 10 * value - dim_classical(10, 59)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_dimension_is_ring_homomorphism(n):
    for k in range(11):
        for m in range(11):
            lhs = dim_classical(n, k) * dim_classical(n, m)
            rhs = sum(v * dim_classical(n, j) for j, v in fuse(k, m).items())
            assert lhs == rhs


def test_quantum_dimension_values_and_multiplicativity():
    assert dim_quantum(0.5, 0) == 1.0
    assert dim_quantum(0.5, 1) == pytest.approx(2.5, abs=1e-14)
    q = -0.7
    assert abs(dim_quantum(q, 1) ** 2 - (dim_quantum(q, 0) + dim_quantum(q, 2))) < 1e-12
    for k in range(9):
        for m in range(9):
            lhs = dim_quantum(q, k) * dim_quantum(q, m)
            rhs = sum(v * dim_quantum(q, j) for j, v in fuse(k, m).items())
            assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity():
    _, d, _ = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_hand_cases():
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    _, d, _ = smith_normal_form([[2], [-1]])
    assert d[0][0] == 1


def test_snf_random_certificates():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert _matmul(_matmul(u, a), v) == d
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        assert all(x >= 0 for x in diag)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_exact_layer_rejects_non_integral_entries():
    # int() would truncate 1.5 to 1 and 2.7 to 2 and certify another matrix
    with pytest.raises(TypeError):
        int_det([[1.5, 0], [0, 2]])
    with pytest.raises(TypeError):
        smith_normal_form([[2.7, 0], [0, 1]])
    with pytest.raises(TypeError):
        int_det([[2, 1], [Fraction(1, 2), 3]])
    with pytest.raises(TypeError):
        smith_normal_form([["2", 0], [0, 1]])


def test_exact_layer_reads_ints_bools_and_numpy_integers():
    assert int_det([[True, False], [False, True]]) == 1
    # numpy integers become Python ints, so products cannot wrap around
    big = np.array([[2 ** 40, 0], [0, 2 ** 40]], dtype=np.int64)
    assert int_det(big) == 2 ** 80
    assert int_det(np.array([[2, 4], [6, 8]], dtype=np.int32)) == -8
    u, d, v = smith_normal_form(np.array([[2, 4], [6, 8]], dtype=np.int16))
    assert d == [[2, 0], [0, 4]]
    assert all(type(x) is int for m in (u, d, v) for row in m for x in row)


@pytest.mark.parametrize("call", [
    # int() would certify n = 3, return d_3 = 8 and fuse labels 2 and 1
    lambda: koszul_verify(3.7, 10),
    lambda: koszul_verify(3, 10.0),
    lambda: koszul_matrix(2.5, 4),
    lambda: koszul_matrix(2, 4.2),
    lambda: dim_classical(3.9, 2),
    lambda: dim_classical(3, 2.0),
    lambda: dim_quantum(0.5, 1.5),
    lambda: fuse(2.5, 1),
    lambda: fuse(2, "1"),
])
def test_exact_layer_rejects_non_integral_arguments(call):
    with pytest.raises(TypeError):
        call()


def test_exact_layer_reads_numpy_integer_arguments():
    n, d, k = np.int64(3), np.int32(10), np.int16(2)
    cert = koszul_verify(n, d)
    assert cert["pass"] and type(cert["n"]) is int and type(cert["degree"]) is int
    assert koszul_matrix(n, d) == koszul_matrix(3, 10)
    assert dim_classical(n, k) == dim_classical(3, 2) == 8
    assert dim_quantum(0.5, k) == dim_quantum(0.5, 2)
    assert fuse(k, np.uint8(1)) == fuse(2, 1) == {1: 1, 3: 1}


def test_int_det_known_values():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0


# oracles: the dense triple sum and Bareiss elimination without shortcuts

def _naive_matmul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def _bareiss_det(matrix):
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _sparse_matrix(rng, rows, cols, density=0.4):
    return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def test_matmul_equals_the_triple_sum():
    rng = random.Random(11)
    for _ in range(300):
        r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a = _sparse_matrix(rng, r, k, rng.choice((0.0, 0.2, 0.6, 1.0)))
        b = _sparse_matrix(rng, k, c, rng.choice((0.0, 0.2, 0.6, 1.0)))
        if rng.random() < 0.3:
            a[rng.randrange(r)] = [0] * k              # a zero row
            for row in b:                               # a zero column
                row[rng.randrange(c)] = 0
        assert _matmul(a, b) == _naive_matmul(a, b)
    # empty inner dimension: there is no row of b to give a width
    assert _matmul([[], []], []) == _naive_matmul([[], []], []) == [[], []]
    assert _matmul([], [[1, 2]]) == []
    big = [[2 ** 200, 0], [0, -(3 ** 150)]]
    assert _matmul(big, big) == _naive_matmul(big, big)


def _triangular(rng, n, lower, singular=False):
    m = [[rng.randint(-9, 9) if (j <= i if lower else j >= i) else 0 for j in range(n)]
         for i in range(n)]
    for i in range(n):
        m[i][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    if singular:
        i = rng.randrange(n)
        m[i][i] = 0
    return m


def test_int_det_equals_plain_bareiss():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 7)
        cases = [_sparse_matrix(rng, n, n, rng.choice((0.2, 0.5, 1.0))),
                 _triangular(rng, n, lower=False), _triangular(rng, n, lower=True),
                 _triangular(rng, n, lower=False, singular=True),
                 _triangular(rng, n, lower=True, singular=True)]
        # lead entries +-2 or 0; a 0 moves that row's leading (or trailing)
        # entry off the diagonal, and the matrix is singular
        even = [_triangular(rng, n, lower) for lower in (False, True)]
        for t in even:
            for i in range(n):
                t[i][i] = rng.choice((-2, 0, 2))
        perm = list(range(n))
        rng.shuffle(perm)
        # row-permuted triangular, and the row rotation that U below has
        cases += [[t[p] for p in perm] for t in cases[1:5] + even]
        cases += [t[1:] + t[:1] for t in cases[1:3]]
        singular = _sparse_matrix(rng, n, n, 0.6)
        if n > 1:
            singular[-1] = [2 * x - y for x, y in zip(singular[0], singular[1])]
            cases.append(singular)
        for m in cases:
            assert int_det(m) == _bareiss_det(m), m
    assert int_det([]) == _bareiss_det([]) == 1
    with pytest.raises(ValueError):
        int_det([[1, 2]])


@pytest.mark.parametrize("n", (3, 20))
def test_koszul_transforms_at_d120_have_unit_determinant(n):
    mat = koszul_matrix(n, 120)
    u, d, v = smith_normal_form(mat)
    assert _matmul(_matmul(u, mat), v) == _naive_matmul(_naive_matmul(u, mat), v) == d
    # V is upper triangular; U is not triangular, but its rows lead at
    # columns 1, 2, ..., D and then 0 (a row rotation of an upper triangular
    # matrix), so int_det takes both as a signed product of lead entries
    assert all(not any(v[i][:i]) for i in range(len(v)))
    assert any(u[i][j] for i in range(len(u)) for j in range(i))
    assert any(u[i][j] for i in range(len(u)) for j in range(i + 1, len(u)))
    leads = [next(j for j, x in enumerate(row) if x) for row in u]
    assert leads == list(range(1, len(u))) + [0]
    for t in (u, v):
        assert int_det(t) == _bareiss_det(t)
        assert abs(int_det(t)) == 1


def _parent_smith_normal_form(matrix):
    # the pivot loop as it was before each position scanned for its pivot
    # once; it asked pivot_position twice and dropped the first answer
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in range(rows):
                a[r][i], a[r][j] = a[r][j], a[r][i]
            for r in range(cols):
                v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(src, dst, mult):
        for c in range(cols):
            a[dst][c] += mult * a[src][c]
        for c in range(rows):
            u[dst][c] += mult * u[src][c]

    def add_col(src, dst, mult):
        for r in range(rows):
            a[r][dst] += mult * a[r][src]
        for r in range(cols):
            v[r][dst] += mult * v[r][src]

    def pivot_position(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    def diagonalize(k0):
        k = k0
        while k < min(rows, cols):
            pos = pivot_position(k)
            if pos is None:
                return k
            while True:
                pos = pivot_position(k)
                swap_rows(k, pos[0])
                swap_cols(k, pos[1])
                clean = True
                for i in range(k + 1, rows):
                    qd = a[i][k] // a[k][k]
                    if qd:
                        add_row(k, i, -qd)
                    if a[i][k] != 0:
                        clean = False
                for j in range(k + 1, cols):
                    qd = a[k][j] // a[k][k]
                    if qd:
                        add_col(k, j, -qd)
                    if a[k][j] != 0:
                        clean = False
                if clean:
                    break
            k += 1
        return k

    rank = diagonalize(0)
    while True:
        bad = None
        for m in range(rank - 1):
            if a[m + 1][m + 1] != 0 and a[m + 1][m + 1] % a[m][m] != 0:
                bad = m
                break
        if bad is None:
            break
        add_col(bad + 1, bad, 1)
        diagonalize(bad)
    for m in range(rank):
        if a[m][m] < 0:
            for c in range(cols):
                a[m][c] = -a[m][c]
            for c in range(rows):
                u[m][c] = -u[m][c]
    return u, a, v


def test_smith_normal_form_equals_the_parent_pivot_loop():
    sizes = [(n, d) for n in (2, 3, 8, 20) for d in (1, 5, 25, 40)]
    sizes += [(n, d) for n in (3, 20) for d in (80, 120)]     # the benchmark's
    for n, d in sizes:
        mat = koszul_matrix(n, d)
        assert smith_normal_form(mat) == _parent_smith_normal_form(mat)
    rng = random.Random(13)
    for _ in range(100):
        a = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0.6)
        assert smith_normal_form(a) == _parent_smith_normal_form(a)
    # without a +-1 entry every pivot search scans its whole block (until
    # elimination leaves a 1); with one, the first search stops there
    for unit in (False, True):
        for _ in range(100):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            a = [[rng.choice((-1, 1)) * rng.randint(2, 9) if rng.random() < 0.6 else 0
                  for _ in range(cols)] for _ in range(rows)]
            if unit:
                a[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((-1, 1))
            assert any(abs(x) == 1 for row in a for x in row) == unit
            assert smith_normal_form(a) == _parent_smith_normal_form(a)


# ---------------------------------------------------------------------------
# the resolution and K-groups
# ---------------------------------------------------------------------------

def test_koszul_matrix_shape():
    m = koszul_matrix(3, 4)
    assert len(m) == 5 and len(m[0]) == 4
    assert m[0][0] == 3 and m[1][0] == -1 and m[2][0] == 0


def test_koszul_hand_case_n2_degree1():
    rep = koszul_verify(2, 1)
    assert rep["pass"]
    assert rep["kernel_rank"] == 0
    assert rep["cokernel_free_rank"] == 1
    assert rep["cokernel_torsion"] == []


@pytest.mark.parametrize("n", (2, 3, 7, 10))
def test_koszul_passes_several_truncations(n):
    for d in (1, 3, 10, 25):
        assert koszul_verify(n, d)["pass"]


def test_koszul_rejects_bad_input():
    with pytest.raises(ValueError):
        koszul_verify(1, 5)
    with pytest.raises(ValueError):
        koszul_verify(3, 0)


def test_ktheory_groups_and_generators():
    for n in (3, 5):
        cert = koszul_verify(n, 10)
        assert cert["induced_endomorphism"] == 0
        assert cert["K0"] == {"rank": 1, "torsion": [], "generator": "[1]"}
        assert cert["K1"] == {"rank": 1, "torsion": [], "generator": "[u]"}
        assert cert["pass"]


def test_induced_endomorphism_vanishes_for_every_n():
    # evaluating at t = n sends column k of (n - t), n t^k - t^(k+1), to 0
    for n in range(2, 12):
        mat = koszul_matrix(n, 6)
        assert all(sum(n ** r * row[k] for r, row in enumerate(mat)) == 0 for k in range(6))
        cert = koszul_verify(n, 6)
        assert cert["augmentation_annihilates_image"] and cert["augmentation_onto"]


def test_k_groups_follow_a_surviving_augmentation(monkeypatch):
    import suq2kit.kring as kr
    from suq2kit.suites import SuiteConfig, run_suite

    exact = kr.koszul_matrix
    for shift, k0 in ((1, {"rank": 0, "torsion": []}), (2, {"rank": 0, "torsion": [2]})):
        def shifted(n, d, shift=shift):
            # n + shift on the diagonal: the augmentation of column 0 is shift
            mat = exact(n, d)
            for k in range(d):
                mat[k][k] += shift
            return mat

        monkeypatch.setattr(kr, "koszul_matrix", shifted)
        cert = koszul_verify(3, 10)
        assert cert["induced_endomorphism"] == shift
        assert {key: cert["K0"][key] for key in k0} == k0
        assert cert["K1"]["rank"] == 0
        rep = run_suite(SuiteConfig(suite="koszul", n=3, d_trunc=10))
        assert not rep.overall
        k_check = next(c for c in rep.checks if c.name.startswith("K-groups"))
        assert not k_check.passed


def test_a_non_unimodular_transform_fails_the_certificate(monkeypatch):
    import suq2kit.kring as kr
    from suq2kit.suites import SuiteConfig, run_suite

    exact = kr.smith_normal_form
    for doubled in ("lead entry", "last row"):
        def corrupted(matrix, doubled=doubled):
            u, d, v = exact(matrix)
            # U keeps its row-rotated shape; the last row leads at column 0
            if doubled == "lead entry":
                u[-1][0] *= 2
            else:
                # the last row of D is 0, so U A V = D still holds and only
                # the determinant tells this U is not unimodular
                u[-1] = [2 * x for x in u[-1]]
                assert _matmul(_matmul(u, matrix), v) == d
            assert abs(kr.int_det(u)) == 2 == abs(_bareiss_det(u))
            return u, d, v

        monkeypatch.setattr(kr, "smith_normal_form", corrupted)
        cert = koszul_verify(3, 25)
        assert not cert["snf_certified"] and not cert["pass"]
        rep = run_suite(SuiteConfig(suite="koszul", n=3, d_trunc=25))
        assert not rep.overall
        snf_check = next(c for c in rep.checks if c.name.startswith("Smith form certificate"))
        assert not snf_check.passed


# ---------------------------------------------------------------------------
# work per suite job
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_koszul_suite_computes_one_certificate(monkeypatch):
    import suq2kit.kring as kr
    from suq2kit.suites import SuiteConfig, run_suite

    calls = _count_calls(monkeypatch, kr,
                         ("koszul_verify", "smith_normal_form", "int_det", "_matmul"))
    rep = run_suite(SuiteConfig(suite="koszul", n=3, d_trunc=25))
    assert rep.overall
    # twice each when the K-groups came from a second certificate
    assert calls == {"koszul_verify": 1, "smith_normal_form": 1, "int_det": 2, "_matmul": 2}


def test_fusion_suite_fuses_each_pair_once(monkeypatch):
    import suq2kit.kring as kr
    from suq2kit.suites import SuiteConfig, run_suite

    calls = _count_calls(monkeypatch, kr, ("fuse",))
    rep = run_suite(SuiteConfig(suite="fusion"))
    assert rep.overall
    # 229 distinct pairs, asked for 6303 times by the four checks
    assert calls == {"fuse": 229}
