"""Exact integer algebra: fusion ring, Z[t] modules, Smith form, K-groups.

The representation ring of a free orthogonal quantum group is of SU(2) type:
irreducibles H_k indexed by nonnegative integers with the rank-one fusion
rule H_k (x) H_1 = H_{k-1} + H_{k+1}.  Everything in this module is exact:
fusion multiplicities ({label: multiplicity} dicts), classical dimensions
(they grow like n^k, so Python's unbounded integers are mandatory), the
Koszul-style resolution

    0 -> Z[t] --(n - t)--> Z[t] --eval at n--> Z -> 0

whose truncated exactness is certified by the resolution's own elimination
to its Smith form, and the K-groups read off the endomorphism
c = eval_n(n - t) of Z it leaves:
K0 = coker c, generated by the unit, and K1 = ker c, generated by the
fundamental matrix (Z both, as c = 0).
"""

from __future__ import annotations

import operator
from math import prod

from .qarith import qnumber

__all__ = [
    "fuse",
    "fusion_closed_form",
    "dim_classical",
    "dim_quantum",
    "smith_normal_form",
    "int_det",
    "koszul_matrix",
    "koszul_verify",
    "KTHEORY_ASSUMPTIONS",
]


# ---------------------------------------------------------------------------
# fusion ring
# ---------------------------------------------------------------------------

def _fuse_with_generator(x: dict, minus: dict) -> dict:
    """x H_1 - minus by the rank-one rule; H_{-1} is zero."""
    d = {}
    for k, v in x.items():
        for m in (k - 1, k + 1):
            if m >= 0:
                d[m] = d.get(m, 0) + v
    for k, v in minus.items():
        d[k] = d.get(k, 0) - v
    return {k: d[k] for k in sorted(d) if d[k]}


def fuse(k: int, m: int) -> dict:
    """Decompose H_k (x) H_m by iterating the rank-one rule.

    Returns {label: multiplicity} in ascending label order with no zero
    entries.  The generator recursion H_{m+1} = H_m H_1 - H_{m-1} is applied
    inside the product, so no closed form is wired in; the fusion suite
    compares against the independently hard-coded closed form.
    """
    k, m = operator.index(k), operator.index(m)
    if k < 0 or m < 0:
        raise ValueError("irreducible labels are nonnegative")
    # tensoring with H_m, built up degree by degree
    prev = {k: 1}                                # H_k (x) H_0
    if m == 0:
        return prev
    cur = _fuse_with_generator(prev, {})         # H_k (x) H_1
    for _ in range(m - 1):
        prev, cur = cur, _fuse_with_generator(cur, prev)
    return cur


def fusion_closed_form(k: int, m: int) -> dict:
    """{j: 1} for j = |k-m|, |k-m|+2, ..., k+m.

    The Clebsch-Gordan form of the product; the fusion suite gates the
    iterated rank-one rule in :func:`fuse` against it.
    """
    return {j: 1 for j in range(abs(k - m), k + m + 1, 2)}


def dim_classical(n: int, k: int) -> int:
    """Exact dimension of H_k when the fundamental one has dimension n.

    d_0 = 1, d_1 = n, d_{k+1} = n d_k - d_{k-1}; the dimension function is a
    ring homomorphism for the fusion product.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 0:
        raise ValueError("label must be nonnegative")
    prev, cur = 1, n
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, n * cur - prev
    return cur


def dim_quantum(q, k: int) -> float:
    """q-deformed dimension [k+1] of H_k; multiplicative over fusion."""
    k = operator.index(k)
    if k < 0:
        raise ValueError("label must be nonnegative")
    return qnumber(q, k + 1)


# ---------------------------------------------------------------------------
# Smith normal form (exact, with unimodular transforms)
# ---------------------------------------------------------------------------

def _matmul(a, b):
    # row i of the product is the sum of a[i][k] * (row k of b) over the
    # nonzero a[i][k], adding only the nonzero entries of each row of b; the
    # certificate's U, A and V are mostly zeros
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_rows(matrix):
    # operator.index admits ints, bools and numpy integers; a float or any
    # other entry int() would truncate raises TypeError
    return [list(map(operator.index, row)) for row in matrix]


def _permutation_sign(perm) -> int:
    # (-1)^(n - number of cycles)
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def int_det(matrix) -> int:
    """Exact determinant of a square matrix of integers.

    If the columns of the rows' leading nonzero entries, or of their trailing
    ones, form a permutation p, the rows permuted by p form a triangular
    matrix, so det = sign(p) * (product of those entries), found in O(n^2).
    The identity permutation is the upper (leading) or lower (trailing)
    triangular case; the Smith form's V is upper triangular and its U a row
    rotation of an upper triangular matrix.  Any other matrix goes through
    fraction-free (Bareiss) elimination; a row whose entry in the pivot column
    is 0 only rescales its nonzero entries, since Bareiss division is exact.
    A non-integral entry raises TypeError.
    """
    a = _int_rows(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    for order in (range(n), range(n - 1, -1, -1)):
        ends = [next((j for j in order if row[j]), None) for row in a]
        if None in ends:
            break                                   # a zero row
        if len(set(ends)) == n:
            return _permutation_sign(ends) * prod(row[j] for row, j in zip(a, ends))
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row, pivot = a[k], a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                if f or row[j]:
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def smith_normal_form(matrix):
    """(U, D, V) with U A V = D, U and V unimodular, D diagonal with a
    divisibility chain d_1 | d_2 | ...

    Pivot policy is deterministic: smallest nonzero absolute value in the
    remaining block, ties broken row-major; the search stops at the first
    entry of absolute value 1, since none is smaller.  Entries are read as
    Python integers (a non-integral one raises TypeError), so intermediate
    growth is exact.
    """
    a = _int_rows(matrix)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

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
        # row_dst += mult * row_src, over the nonzero entries of row_src
        for m in (a, u):
            target = m[dst]
            for c, x in enumerate(m[src]):
                if x:
                    target[c] += mult * x

    def add_col(src, dst, mult):
        # col_dst += mult * col_src, over the nonzero entries of col_src
        for m in (a, v):
            for row in m:
                if row[src]:
                    row[dst] += mult * row[src]

    def pivot_position(k):
        best, best_abs = None, 0
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                x = row[j]
                if x:
                    x = abs(x)
                    if x == 1:
                        return i, j
                    if best is None or x < best_abs:
                        best, best_abs = (i, j), x
        return best

    def diagonalize(k0):
        # standard Euclidean sweep; the min-abs pivot strictly shrinks on
        # every rescan, so each position terminates
        k = k0
        while k < min(rows, cols):
            pos = pivot_position(k)
            if pos is None:
                return k
            while True:
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
                pos = pivot_position(k)
            k += 1
        return k

    rank = diagonalize(0)

    # enforce the divisibility chain: a violation (d_m, d_{m+1}) is replaced
    # by (gcd, lcm) through one column move plus rediagonalization, which
    # strictly decreases |d_m|, so the loop terminates
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


# ---------------------------------------------------------------------------
# Koszul-style resolution and K-groups
# ---------------------------------------------------------------------------

KTHEORY_ASSUMPTIONS = (
    "induction from the trivial subgroup lands in projective objects",
    "crossed products of induced coefficients by the dual are stably trivial",
    "maximal and reduced completions agree on K-theory for this family",
)


def koszul_matrix(n: int, d_trunc: int):
    """Integer matrix of multiplication by (n - t) from degree < D to degree <= D."""
    n, d_trunc = operator.index(n), operator.index(d_trunc)
    mat = [[0] * d_trunc for _ in range(d_trunc + 1)]
    for k in range(d_trunc):
        mat[k][k] = n
        mat[k + 1][k] = -1
    return mat


def _unit_pivot_elimination(rows):
    """The record that reduces the (D + 1) x D lower bidiagonal matrix with
    nonzeros ``rows`` (one {column: entry} dict per row) to its Smith form
    [I_D; 0]: the row additions (dst, src, mult), row dst += mult * row src,
    for k = D - 1, ..., 0, then the signed row permutation (perm, signs) that
    puts signs[i] * row perm[i] at row i.

    Bottom-up, row k + 1 holds only its pivot p = M[k + 1][k] when row k is
    reached, and row k still holds M[k][k]; so the multiple -M[k][k] * p,
    read off the matrix, clears column k of row k when p = +-1, row k + 1
    ends as p e_k and row 0 as 0.  Each sign is its pivot, so a pivot other
    than +-1 leaves |det U| != 1, which the certificate refuses.
    """
    d = len(rows) - 1
    pivots = [rows[k + 1].get(k, 0) for k in range(d)]
    ops = [(k, k + 1, -rows[k].get(k, 0) * pivots[k]) for k in range(d - 1, -1, -1)]
    return ops, list(range(1, d + 1)) + [0], pivots + [1]


def _replay(rows, ops, perm, signs):
    """Apply a recorded elimination to the nonzeros ``rows`` in exact
    integers: (the rows of U A, det U), with U the product of the record.

    An addition between two distinct rows has determinant 1, one with
    src == dst scales its row by 1 + mult; the signed permutation adds its
    sign and the product of its signs.
    """
    rows = [dict(row) for row in rows]
    det = 1
    for dst, src, mult in ops:
        if dst == src:
            det *= 1 + mult
        target = rows[dst]
        for j, x in list(rows[src].items()):
            y = target.get(j, 0) + mult * x
            if y:
                target[j] = y
            else:
                target.pop(j, None)
    det *= _permutation_sign(perm) * prod(signs)
    return [{j: s * x for j, x in rows[p].items()} for p, s in zip(perm, signs)], det


def koszul_verify(n: int, d_trunc: int) -> dict:
    """Certify exactness of the truncated resolution in exact integers and
    read the K-groups off it.

    Checks: multiplication by (n - t) is injective (kernel rank 0), its
    cokernel is a free abelian group of rank one (all invariant factors 1),
    the augmentation t -> n annihilates the image and is onto.  The
    augmentation is the integer row (n^0, ..., n^D), applied to the nonzeros
    of each column of the same matrix the certificate reduces.

    The certificate is the resolution's own elimination: the nonzeros of
    :func:`koszul_matrix` are read once, eliminated bottom-up on the +-1
    subdiagonal pivots by D row additions and a signed row permutation
    (:func:`_unit_pivot_elimination`), and that record is replayed in exact
    integers (:func:`_replay`).  So U A V = D with V the identity, and det U
    is the product of the factors' determinants: 1 per addition between two
    distinct rows, times the signed permutation's.  The certificate holds
    when the replayed U A is [I_D; 0], the Smith form
    :func:`smith_normal_form` gives, and |det U| = 1; rank, invariant
    factors, kernel and cokernel are read off its diagonal.  Everything
    costs O(D) big-integer operations and one scan of the matrix.

    Column 0's augmentation c = sum_r n^r M[r][0] is the endomorphism of Z
    the resolution induces (``induced_endomorphism``); ``K0`` = coker c and
    ``K1`` = ker c have rank 1 if c = 0, else 0, with torsion [|c|] in K0
    when |c| > 1.
    """
    n, d_trunc = operator.index(n), operator.index(d_trunc)
    if n < 2 or d_trunc < 1:
        raise ValueError("need n >= 2 and a positive truncation degree")
    rows = [{j: x for j, x in enumerate(row) if x} for row in koszul_matrix(n, d_trunc)]
    form, det_u = _replay(rows, *_unit_pivot_elimination(rows))
    diag = [form[m].get(m, 0) for m in range(d_trunc)]
    rank = sum(1 for x in diag if x)
    invariants = [abs(x) for x in diag[:rank]]
    kernel_rank = d_trunc - rank
    coker_free_rank = (d_trunc + 1) - rank
    coker_torsion = [f for f in invariants if f != 1]

    snf_ok = form == [{m: 1} for m in range(d_trunc)] + [{}] and abs(det_u) == 1

    augmentation = [n ** r for r in range(d_trunc + 1)]
    eps_of_image = [0] * d_trunc
    for e, row in zip(augmentation, rows):
        for k, x in row.items():
            eps_of_image[k] += e * x
    eps_onto = augmentation[0] == 1
    c = eps_of_image[0]
    rank_k = int(c == 0)

    return {
        "n": n,
        "degree": d_trunc,
        "kernel_rank": kernel_rank,
        "cokernel_free_rank": coker_free_rank,
        "cokernel_torsion": coker_torsion,
        "snf_certified": snf_ok,
        "augmentation_annihilates_image": not any(eps_of_image),
        "augmentation_onto": eps_onto,
        "induced_endomorphism": c,
        "K0": {"rank": rank_k, "torsion": [abs(c)] if abs(c) > 1 else [],
               "generator": "[1]"},
        "K1": {"rank": rank_k, "torsion": [], "generator": "[u]"},
        "pass": (kernel_rank == 0 and coker_free_rank == 1 and not coker_torsion
                 and snf_ok and not any(eps_of_image) and eps_onto),
    }
