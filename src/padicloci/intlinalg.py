"""Exact integer matrix normal forms with unimodular witnesses.

Everything works over plain Python integers, so there is no coefficient
growth concern beyond what bigints handle natively.  Conventions:

* matrices are lists of row lists;
* ``smith_normal_form(A)`` returns ``(U, D, W)`` with ``U @ A @ W == D``,
  ``U`` and ``W`` unimodular and ``D`` diagonal with positive entries
  satisfying the divisibility chain ``d1 | d2 | ... | dr``;
* ``hermite_normal_form`` is row-style: it returns a canonical basis of the
  row span (positive pivots, entries above a pivot reduced into
  ``[0, pivot)``), which is what makes lattices comparable by equality.
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


def smith_normal_form(mat):
    """Diagonalize ``mat`` over the integers.

    Returns (U, D, W) with U @ mat @ W == D.  The diagonal of D is
    nonnegative and each entry divides the next nonzero one.
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    if any(len(r) != m for r in mat):
        raise ValueError("ragged matrix")
    a = [list(r) for r in mat]
    u = identity_matrix(n)
    w = identity_matrix(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in w:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        ai, aj = a[i], a[j]
        for k in range(m):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(n):
            ui[k] += q * uj[k]

    def add_col(i, j, q):
        # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in w:
            r[i] += q * r[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # smallest-magnitude nonzero entry of the trailing block becomes pivot
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            pivot = a[t][t]
            restart = False
            for i in range(t + 1, n):
                if a[i][t] % pivot:
                    add_row(i, t, -(a[i][t] // pivot))
                    swap_rows(i, t)  # strictly smaller pivot moved up
                    restart = True
                    break
            if restart:
                continue
            for i in range(t + 1, n):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // pivot))
            for j in range(t + 1, m):
                if a[t][j] % pivot:
                    add_col(j, t, -(a[t][j] // pivot))
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, m):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // pivot))
            # divisibility chain: drag any non-multiple into the pivot row
            bad = None
            for i in range(t + 1, n):
                if any(x % pivot for x in a[i][t + 1 :]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1
    return u, a, w


def diagonal_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def hermite_normal_form(rows, values=None):
    """Canonical row-style Hermite basis of the row span.

    ``values`` is an optional parallel list carried through the same row
    operations; additive data attached to lattice vectors (e.g. Q/Z labels)
    stays consistent that way.  Returns (basis_rows, carried_values); zero
    rows are dropped and must carry value 0 if values are given.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    vals = list(values) if values is not None else None

    def add_row(i, j, q):
        ai, aj = a[i], a[j]
        for k in range(m):
            ai[k] += q * aj[k]
        if vals is not None:
            vals[i] = vals[i] + q * vals[j]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        if vals is not None:
            vals[i], vals[j] = vals[j], vals[i]

    def negate(i):
        a[i] = [-x for x in a[i]]
        if vals is not None:
            vals[i] = -vals[i]

    r = 0
    for c in range(m):
        while True:
            nz = [i for i in range(r, n) if a[i][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(a[i][c]))
            add_row(nz[1], nz[0], -(a[nz[1]][c] // a[nz[0]][c]))
        nz = [i for i in range(r, n) if a[i][c]]
        if not nz:
            continue
        swap(r, nz[0])
        if a[r][c] < 0:
            negate(r)
        for i in range(r):
            if not 0 <= a[i][c] < a[r][c]:
                add_row(i, r, -(a[i][c] // a[r][c]))
        r += 1
    basis = a[:r]
    if vals is not None:
        carried = vals[:r]
        # any dependent row must have collapsed to trivial data
        return basis, carried, vals[r:]
    return basis, None, None


def integer_kernel(mat, ncols=None):
    """Basis of the right kernel {x : mat @ x == 0}, saturated by construction."""
    n = len(mat)
    m = len(mat[0]) if n else ncols
    if m is None:
        raise ValueError("column count needed for an empty matrix")
    if n == 0:
        return [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    u, d, w = smith_normal_form(mat)
    rank = sum(1 for x in diagonal_of(d) if x)
    cols = transpose(w)
    return [list(cols[j]) for j in range(rank, m)]
