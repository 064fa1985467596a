"""Integer normal forms used only as test oracles.

``smith_normal_form(A)`` returns (U, D, W) with U A W = D, U and W
unimodular and D diagonal with nonnegative entries each dividing the
next nonzero one.  The library computes binomial components, integer
kernels and saturation off the Hermite form alone; the tests check them
against this independent elimination.
"""

from padicloci.intlinalg import identity_matrix


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
