"""Exact linear algebra over fields and integral domains.

Entries are any objects with ring operators and an exact equality test
against 0 (Fraction, CycNumber, Laurent polynomials).  Matrices are lists
of row lists, always small here, so plain Gaussian elimination is the
whole story: one loop, `_rank`, brings a matrix to row-echelon form by
cross-multiplying only, so it also works over polynomial rings where
division is unavailable, and on integer residues modulo a prime, and
counts the pivots.
"""


def _is_zero(x):
    return x == 0


def _cross(row, top, c):
    return [top[c] * x - row[c] * y for x, y in zip(row, top)]


def _rank(rows, combine):
    """Pivot count of row-echelon reduction; combine(row, top, c) clears
    column c of row against the pivot row top without dividing."""
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
    return _rank(rows, _cross)


def rank_mod_prime(rows, ell):
    """Rank over F_ell of a matrix of integers reduced mod ell."""

    def combine(row, top, c):
        return [(top[c] * x - row[c] * y) % ell for x, y in zip(row, top)]

    return _rank(rows, combine)

