"""Exact linear algebra over fields and integral domains.

Entries are any objects with ring operators and an exact equality test
against 0 (Fraction, CycNumber, Laurent polynomials).  Matrices are lists
of row lists, always small here, so plain Gaussian elimination is the
whole story: `kernel_basis` and `rank_over_field` share one reduction
that divides by pivots; `rank_division_free` and `rank_mod_prime` share
one that cross-multiplies only, so it also works over polynomial rings
where division is unavailable, and on integer residues modulo a prime.
"""


def _is_zero(x):
    return x == 0


def rank_over_field(rows):
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def _cross_rank(rows, combine):
    """Row-echelon rank; combine(row, top, c) clears column c of row
    against the pivot row top without dividing."""
    a = [list(r) for r in rows]
    if not a:
        return 0
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
        rank += 1
        if rank == len(a):
            break
    return rank


def rank_division_free(rows):
    return _cross_rank(
        rows, lambda row, top, c: [top[c] * x - row[c] * y for x, y in zip(row, top)]
    )


def rank_mod_prime(rows, ell):
    """Rank over F_ell of a matrix of integers reduced mod ell."""
    return _cross_rank(
        rows, lambda row, top, c: [(top[c] * x - row[c] * y) % ell for x, y in zip(row, top)]
    )


def _row_reduce(rows, ncols):
    """Reduced row echelon form over a field: (rows, pivot columns)."""
    a = [list(r) for r in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(a)):
            if not _is_zero(a[r][c]):
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank][c]
        a[rank] = [x / lead for x in a[rank]]
        for r in range(len(a)):
            if r != rank and not _is_zero(a[r][c]):
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(c)
        rank += 1
        if rank == len(a):
            break
    return a, pivots


def kernel_basis(rows, ncols, one, zero):
    """Basis of the right kernel over a field.

    `one` and `zero` supply the scalar constants of the entry type, since
    the matrix may be empty in a way that leaves no entry to copy from.
    """
    a, pivots = _row_reduce(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - a[r][fc]
        basis.append(vec)
    return basis
