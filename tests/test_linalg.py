from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from padicloci.linalg import rank_division_free, rank_mod_prime

# small primes, where entries often vanish mod ell, and one above 2**31
# like the primes of the twisted Betti fast path
_PRIMES = (2, 3, 5, 7, 2 ** 31 + 11)


def _oracle_rank(rows, ncols, domain):
    return DomainMatrix([[domain(x) for x in row] for row in rows], (len(rows), ncols), domain).rank()


@st.composite
def _matrices(draw):
    """Integer matrices of 1 to 5 rows and columns, n x 1 and 1 x n
    among them, with some columns all zero and, in about a third of the
    draws, the first columns spanned by fewer rows than the matrix has,
    so that the last pivot can only land in the last column."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-12, 12)
    if draw(st.integers(0, 2)) == 0:
        # every row a combination of fewer rows on the first ncols - 1
        # columns, and a free last column
        base = [draw(st.lists(entry, min_size=ncols - 1, max_size=ncols - 1))
                for _ in range(draw(st.integers(0, nrows - 1)))]
        rows = []
        for _ in range(nrows):
            ks = [draw(entry) for _ in base]
            head = [sum(k * b[c] for k, b in zip(ks, base)) for c in range(ncols - 1)]
            rows.append(head + [draw(entry)])
    else:
        rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=400, deadline=None)
@given(_matrices(), st.sampled_from(_PRIMES))
@example([[0], [0], [3]], 5)
@example([[2, 0, 7]], 3)
@example([[0, 0, 1], [0, 0, 2]], 7)
@example([[1, 2, 0], [2, 4, 1]], 5)
@example([[1, 2, 0], [2, 4, 5]], 5)
@example([[0, 0], [0, 0]], 2)
def test_rank_matches_the_sympy_rank_over_the_rationals_and_mod_a_prime(rows, ell):
    ncols = len(rows[0])
    want = _oracle_rank(rows, ncols, QQ)
    assert rank_division_free(rows) == want
    assert rank_division_free([[Fraction(x, 3) for x in row] for row in rows]) == want
    reduced = [[x % ell for x in row] for row in rows]
    assert rank_mod_prime(reduced, ell) == _oracle_rank(rows, ncols, GF(ell))
