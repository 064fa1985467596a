"""Exact integer matrix normal forms.

Everything works over plain Python integers, so there is no coefficient
growth concern beyond what bigints handle natively.  Matrices are lists
of row lists, and ``hermite_normal_form`` is the one elimination: it is
row-style and returns a canonical basis of the row span (positive
pivots, entries above a pivot reduced into ``[0, pivot)``), which is
what makes lattices comparable by equality.
"""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, x):
    return [sum(r[k] * x[k] for k in range(len(x))) for r in a]


def vec_mat(x, a):
    # row vector times matrix
    if not a:
        return []
    return [sum(x[k] * a[k][j] for k in range(len(x))) for j in range(len(a[0]))]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def hermite_normal_form(rows, values=None):
    """Canonical row-style Hermite basis of the row span.

    ``values`` is an optional parallel list carried through the same row
    operations, so additive data attached to lattice vectors (e.g. Q/Z
    labels) stays consistent; it defaults to zeros.  Returns (basis_rows,
    carried_values, leftover_values): the zero rows are dropped, and the
    values they carry, which consistent data leaves at 0, are the leftover.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    vals = list(values) if values is not None else [0] * n

    def add_row(i, j, q):
        ai, aj = a[i], a[j]
        for k in range(m):
            ai[k] += q * aj[k]
        vals[i] += q * vals[j]

    r = 0
    for c in range(m):
        # reduce the second smallest entry of the column by the smallest
        # until one is left, ties going to the upper row
        nz = [i for i in range(r, n) if a[i][c]]
        while len(nz) > 1:
            nz.sort(key=lambda i: (abs(a[i][c]), i))
            add_row(nz[1], nz[0], -(a[nz[1]][c] // a[nz[0]][c]))
            if not a[nz[1]][c]:
                del nz[1]
        if not nz:
            continue
        i = nz[0]
        a[r], a[i], vals[r], vals[i] = a[i], a[r], vals[i], vals[r]
        if a[r][c] < 0:
            a[r], vals[r] = [-x for x in a[r]], -vals[r]
        for i in range(r):
            if not 0 <= a[i][c] < a[r][c]:
                add_row(i, r, -(a[i][c] // a[r][c]))
        r += 1
    return a[:r], vals[:r], vals[r:]


def column_lattice(rows):
    """Hermite basis of the column span of ``rows``, a row Hermite form.

    Its pivot columns are upper triangular, so pivots all 1 span Z^r.
    Otherwise the columns are folded in one at a time, so a wide matrix
    never enters one Hermite form, until the span is all of Z^r.
    """
    unit = identity_matrix(len(rows))
    span = unit if all(next(filter(None, row)) == 1 for row in rows) else []
    for col in zip(*rows):
        if span == unit:
            break
        span = hermite_normal_form(span + [list(col)])[0]
    return span


def integer_kernel(mat, ncols=None):
    """Basis of the right kernel {x : mat @ x == 0}, saturated by construction.

    The Hermite form of [mat^T | J], J the identity with its columns
    reversed, is a unimodular transform of it, so its rows that vanish on
    the mat^T block carry in the J block a basis of the kernel that
    extends to a basis of Z^m: the kernel's Hermite basis on the
    coordinates taken last to first.  For mat in Hermite form with
    pivots 1 that is one vector per free coordinate, 1 there and 0 on
    the other free coordinates; the vectors are listed by increasing
    free coordinate.
    """
    n = len(mat)
    m = len(mat[0]) if n else ncols
    if m is None:
        raise ValueError("column count needed for an empty matrix")
    rows = [[r[j] for r in mat] + unit[::-1] for j, unit in enumerate(identity_matrix(m))]
    return [row[n:][::-1] for row in reversed(hermite_normal_form(rows)[0]) if not any(row[:n])]
