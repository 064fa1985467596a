"""Slow references for twisted cohomology at torsion characters.

They are the library's earlier routes, kept as oracles.  `evaluate`
substitutes CycNumber values into a Laurent polynomial one term at a
time, a power and a product per variable, each reduced on its own.
`specialize_exact_reference` sends every variable to
`CycNumber.root_of_unity` of its Q/Z value and evaluates each cell that
way before the exact rank.  `scan_reference` walks the grid of Fraction
characters a/m, specializes each in Q/Z form and sorts the hits.
`binomial_equation_by_division` reads a binomial's root off the
quotient -(c0 / c1) of its coefficients in Q(zeta_n), as the shape test
did before it read the root off the normalized second coefficient.
`power` and `quotient` are the integer power and the quotient in
Q(zeta_n), which `CycNumber` leaves out because no command takes them.
"""

from fractions import Fraction
from itertools import product

from padicloci.complexes import JumpingLocusSample, specialize
from padicloci.cyclotomic import CycNumber
from padicloci.linalg import rank_division_free


def power(x, e):
    """x**e by repeated squaring; a negative e inverts x first."""
    if e < 0:
        x, e = x.inverse(), -e
    result = CycNumber(x.order, (Fraction(1),))
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


def quotient(x, y):
    """x / y, through the Euclid inverse of y."""
    return x * y.inverse()


def evaluate(poly, point):
    """Value of poly at invertible field elements (CycNumber coordinates)."""
    if len(point) != poly.nvars:
        raise ValueError("point arity mismatch")
    total = CycNumber.from_rational(0)
    for exp, c in poly.terms.items():
        val = c
        for x, e in zip(point, exp):
            if e:
                val = val * power(x, e)
        total = total + val
    return total


def specialize_exact_reference(cplx, char):
    """Betti numbers at the Q/Z character char by exact elimination."""
    vals = tuple(Fraction(x) % 1 for x in char)
    if len(vals) != cplx.nvars:
        raise ValueError("character arity mismatch")
    point = [CycNumber.root_of_unity(q) for q in vals]
    ranks = [rank_division_free([[evaluate(e, point) for e in row] for row in m]) for m in cplx.mats]
    ranks.append(0)
    return tuple(r - ranks[k] - ranks[k - 1] for k, r in enumerate(cplx.dims))


def scan_reference(cplx, i, j, order_bound):
    """scan_torsion over the grid of Fraction characters."""
    m = order_bound
    hits = []
    scanned = 0
    fracs = [Fraction(a, m) for a in range(m)]
    for char in product(fracs, repeat=cplx.nvars):
        h = specialize(cplx, char)
        scanned += 1
        if h[i] > j:
            hits.append(char)
    hits.sort()
    return JumpingLocusSample(i, j, m, hits, scanned)


def binomial_equation_by_division(q):
    """Equation (v, e) meaning t**v = zeta_e, or None if not binomial."""
    items = q.sorted_terms()
    if len(items) != 2:
        return None
    (e0, c0), (e1, c1) = items
    root = (-quotient(c0, c1)).root_of_unity_exponent()
    if root is None:
        return None
    return (tuple(x - y for x, y in zip(e1, e0)), root)
