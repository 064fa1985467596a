"""Exact linear algebra over fields and integral domains.

Entries are any objects with ring operators and an exact equality test
against 0 (Fraction, CycNumber, int).  Matrices are lists of row lists,
always small here, so plain Gaussian elimination is the whole story:
one loop, `_rank`, brings a matrix to row-echelon form by
cross-multiplying only, so it also works over rings where division is
unavailable, and, reducing every combination mod ell, on integers
modulo a prime ell, and counts the pivots.  It stops at a pivot in the
last column, since the rows below it then have no other column left.
"""


def _rank(rows, ell=None):
    """Pivot count of row-echelon reduction: each row below a pivot is
    replaced by its cross-multiplied combination with the pivot row,
    taken mod ell when ell is given, so no row is changed in place."""
    a = list(rows)
    if not a:
        return 0
    last = len(a[0]) - 1
    rank = 0
    for c in range(last + 1):
        for piv in range(rank, len(a)):
            if a[piv][c] != 0:
                break
        else:
            continue
        if c == last:
            return rank + 1
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        t = top[c]
        for r in range(rank + 1, len(a)):
            row = a[r]
            x = row[c]
            if x != 0:
                if ell is None:
                    a[r] = [t * y - x * z for y, z in zip(row, top)]
                else:
                    a[r] = [(t * y - x * z) % ell for y, z in zip(row, top)]
        rank += 1
        if rank == len(a):
            break
    return rank


def rank_division_free(rows):
    return _rank(rows)


def rank_mod_prime(rows, ell):
    """Rank over F_ell of a matrix of integers reduced mod ell."""
    return _rank(rows, ell)
