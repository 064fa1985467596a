"""Integer normal forms, checked against the oracles below.

`determinant` (fraction-free Bareiss) and `mat_mul` are the Smith-form
oracles: U A W = D with U and W of determinant +-1, for the Smith form
of `int_oracles`.  `inverse` is Gauss-Jordan over Fractions; it gives the
W^-1 whose rows pin the components on the Smith route, which
`solve_binomial`'s Hermite route is compared with.  `lattice_solve` writes a vector over a Hermite basis; it
is the route `sigma_stable` took before it compared canonical cosets.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from padicloci.cosets import BinomialSystem, TorsionCoset, _check_unimodular, solve_binomial
from padicloci.intlinalg import (
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    mat_vec,
    transpose,
    vec_mat,
)
from int_oracles import diagonal_of, smith_normal_form


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def determinant(mat):
    """Exact determinant (fraction-free, Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(mat):
    """Inverse of an invertible square matrix over Q, by Gauss-Jordan."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def lattice_solve(hnf_rows, target):
    """Integer coefficients expressing ``target`` over a Hermite basis, or None."""
    residual = list(target)
    coeffs = []
    m = len(target)
    for row in hnf_rows:
        c = next((j for j in range(m) if row[j]), None)
        if c is None:
            raise ValueError("zero row in Hermite basis")
        if residual[c] % row[c]:
            return None
        q = residual[c] // row[c]
        coeffs.append(q)
        for j in range(m):
            residual[j] -= q * row[j]
    if any(residual):
        return None
    return coeffs


def random_matrix(rng, n, m, lo=-6, hi=6):
    return [[rng.randrange(lo, hi + 1) for _ in range(m)] for _ in range(n)]


def test_smith_factorization_and_divisibility():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        a = random_matrix(rng, n, m)
        u, d, w = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), w) == d
        assert determinant(u) in (1, -1)
        assert determinant(w) in (1, -1)
        diag = diagonal_of(d)
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x]
        for a_, b_ in zip(nz, nz[1:]):
            assert b_ % a_ == 0
        # zeros only after the nonzero invariant factors
        assert diag == nz + [0] * (len(diag) - len(nz))


def test_unimodular_check_agrees_with_the_bareiss_determinant():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 5)
        if rng.randrange(2):
            # a shuffled product of elementary row additions
            m = identity_matrix(n)
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.randrange(-2, 3)
                    m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            rng.shuffle(m)
        else:
            m = random_matrix(rng, n, n, -2, 2)
        unimodular = determinant(m) in (1, -1)
        seen.add(unimodular)
        if unimodular:
            assert _check_unimodular(m, n) == m
        else:
            with pytest.raises(ValueError, match="unimodular"):
                _check_unimodular(m, n)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="shape"):
        _check_unimodular([[1, 0]], 2)


def _cosets_from_inverse(system):
    """solve_binomial with the pinned rows read off W^-1 itself."""
    u, dmat, w = smith_normal_form([list(v) for v, _ in system.equations])
    winv = inverse(w)
    assert mat_mul(w, winv) == identity_matrix(len(w))
    moved = [sum(c * e for c, (_, e) in zip(urow, system.equations)) % 1 for urow in u]
    diag = diagonal_of(dmat)
    diag += [0] * (len(moved) - len(diag))
    if any(e for e, s in zip(moved, diag) if s == 0):
        return []
    pinned = [(k, s) for k, s in enumerate(diag) if s]
    basis = [[int(x) for x in winv[k]] for k, _ in pinned]
    out = [
        TorsionCoset(system.dim, basis, [(moved[k] + j) / s for (k, s), j in zip(pinned, choice)])
        for choice in product(*(range(s) for _, s in pinned))
    ]
    return sorted(out, key=lambda c: (c.dim, c.basis, c.translate))


def test_pinned_rows_are_the_inverse_column_transform_rows():
    rng = random.Random(41)
    for _ in range(150):
        d = rng.randrange(1, 5)
        eqs = []
        for _ in range(rng.randrange(1, 4)):
            v = [rng.randrange(-4, 5) for _ in range(d)]
            if any(v):
                eqs.append((v, Fraction(rng.randrange(0, 12), 12)))
        if not eqs:
            continue
        system = BinomialSystem(d, eqs)
        # row k of U A is s_k times row k of W^-1
        rows = [list(v) for v, _ in system.equations]
        u, dmat, w = smith_normal_form(rows)
        winv = inverse(w)
        for k, s in enumerate(diagonal_of(dmat)):
            if s:
                assert vec_mat(u[k], rows) == [s * x for x in winv[k]]
        assert solve_binomial(system) == _cosets_from_inverse(system)


def test_hermite_form_is_canonical_for_the_row_span():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randrange(1, 4), rng.randrange(1, 5)
        a = random_matrix(rng, n, m)
        basis, _, _ = hermite_normal_form(a)
        # mixing rows by unimodular operations leaves the form unchanged
        shuffled = [row[:] for row in a]
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            shuffled[0] = [x + y for x, y in zip(shuffled[0], shuffled[1])]
        basis2, _, _ = hermite_normal_form(shuffled)
        assert basis == basis2
        # echelon with positive pivots, reduced above
        pivots = []
        for row in basis:
            c = next(i for i, x in enumerate(row) if x)
            assert row[c] > 0
            pivots.append(c)
        assert pivots == sorted(pivots)


def test_hermite_carries_values_through_row_operations():
    from fractions import Fraction

    rows = [[2, 0], [1, 1], [3, 1]]
    vals = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2) + Fraction(1, 3)]
    basis, carried, leftover = hermite_normal_form(rows, vals)
    assert len(basis) == 2
    # the dependent third row collapses to value zero
    assert all(x % 1 == 0 for x in leftover)
    # carried values still describe the same functional on the span
    for row, val in zip(rows, vals):
        coeffs = lattice_solve(basis, row)
        assert coeffs is not None
        assert sum(c * t for c, t in zip(coeffs, carried)) == val


def test_lattice_solve_membership():
    basis, _, _ = hermite_normal_form([[2, 0, 1], [0, 3, 1]])
    assert lattice_solve(basis, [2, 3, 2]) is not None
    assert lattice_solve(basis, [1, 0, 0]) is None
    assert lattice_solve(basis, [0, 0, 0]) == [0, 0]


def test_integer_kernel_is_saturated_and_annihilates():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randrange(1, 4), rng.randrange(1, 5)
        a = random_matrix(rng, n, m)
        ker = integer_kernel(a)
        for vec in ker:
            assert mat_vec(a, vec) == [0] * n
        if ker:
            _, d, _ = smith_normal_form(ker)
            assert all(x == 1 for x in diagonal_of(d))
        # rank-nullity over Q
        _, d, _ = smith_normal_form(a)
        rank = sum(1 for x in diagonal_of(d) if x)
        assert len(ker) == m - rank


def test_empty_matrix_kernel_needs_explicit_arity():
    assert integer_kernel([], ncols=3) == identity_matrix(3)


def test_vector_helpers():
    a = [[1, 2], [3, 4]]
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert vec_mat([1, 1], a) == [4, 6]
    assert transpose(a) == [[1, 3], [2, 4]]


def test_determinant_matches_cofactor_on_small_cases():
    rng = random.Random(9)

    def cof(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * cof([r[:j] + r[j + 1 :] for r in m[1:]])
            for j in range(n)
        )

    for _ in range(30):
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n, n)
        assert determinant(m) == cof(m)
