"""Exact linear algebra over fields and integral domains.

Entries are any objects with ring operators and an exact equality test
against 0 (Fraction, CycNumber, Laurent polynomials).  Matrices are lists
of row lists, always small here, so plain Gaussian elimination is the
whole story: one loop, `_echelon`, brings a matrix to row-echelon form
by cross-multiplying only, so it also works over polynomial rings where
division is unavailable, and on integer residues modulo a prime.  The
ranks are its pivot counts; `kernel_basis` back-substitutes from its
rows and divides only there.
"""


def _is_zero(x):
    return x == 0


def _cross(row, top, c):
    return [top[c] * x - row[c] * y for x, y in zip(row, top)]


def _echelon(rows, combine):
    """(rows, pivot columns) in row-echelon form; combine(row, top, c)
    clears column c of row against the pivot row top without dividing."""
    a = [list(r) for r in rows]
    pivots = []
    if not a:
        return a, pivots
    rank = 0
    for c in range(len(a[0])):
        piv = None
        for r in range(rank, len(a)):
            if not _is_zero(a[r][c]):
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for r in range(rank + 1, len(a)):
            if not _is_zero(a[r][c]):
                a[r] = combine(a[r], top, c)
        pivots.append(c)
        rank += 1
        if rank == len(a):
            break
    return a, pivots


def rank_division_free(rows):
    return len(_echelon(rows, _cross)[1])


def rank_mod_prime(rows, ell):
    """Rank over F_ell of a matrix of integers reduced mod ell."""

    def combine(row, top, c):
        return [(top[c] * x - row[c] * y) % ell for x, y in zip(row, top)]

    return len(_echelon(rows, combine)[1])


def kernel_basis(rows, ncols, one, zero):
    """Basis of the right kernel over a field.

    `one` and `zero` supply the scalar constants of the entry type, since
    the matrix may be empty in a way that leaves no entry to copy from.
    """
    a, pivots = _echelon(rows, _cross)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            acc = zero
            for x, y in zip(a[r][pc + 1 :], vec[pc + 1 :]):
                if not _is_zero(y):
                    acc = acc + x * y
            vec[pc] = (zero - acc) / a[r][pc]
        basis.append(vec)
    return basis
