"""Rank-one twisted cohomology of small free complexes.

A complex here is a chain of free modules over the Laurent ring
Z[t_1^(+-1) ... t_d^(+-1)] with differentials given by matrices whose
composites vanish identically.  A torsion character is carried as
integer numerators a at an order m, the point a / m of the character
torus, the same form `cosets` gives torsion points; Q/Z values are
read at order 1 and turned into that form once.  Specializing the
variables at the character lands every entry in an exact cyclotomic
field Q(zeta_L), with L the lcm of the character's exact order and of
the coefficient orders, and twisted Betti numbers follow from the
ranks.

Those ranks are first bounded over a finite field.  Sending zeta_L to
a primitive L-th root of unity in F_ell, ell = 1 (mod L) prime, is a
ring homomorphism on the ell-integral elements, so each rank r_k mod
ell is a lower bound for the true rank.  Because D^(k+1) D^k = 0, the
true rank of D^k is at most u_k = min(dims[k] - r_(k-1),
dims[k+1] - r_(k+1)).  When r_k = u_k for every k the ranks are
proved; otherwise, or when ell divides a coefficient denominator, the
exact fraction-free elimination over the cyclotomic field decides;
it evaluates each cell in one pass, in the least cyclotomic field
that holds the cell's value.  The choice of ell and the image of every
coefficient depend on the character's order only, so that reduction
is built once per order and kept on the complex: the root of that
order mod ell, the distinct monomials, and each cell as its monomial
indices and coefficient images.  Each character raises the root to
one power mod the order per distinct monomial and sums each cell in
one pass; the elimination stops at a last-column pivot, so an n x 1
map costs one pivot search.  Nothing is rounded on either path.  On
top of that sit full torsion scans of the jumping condition h^i > j,
determinantal generators for the same condition, and a shape test
that recognizes when those generators cut out a union of torsion
cosets.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .cyclotomic import CycNumber, modular_root
from .laurent import LaurentPoly, laurent_det, laurent_from_json
from .linalg import rank_division_free, rank_mod_prime
from .padic import _json_int


class TwistedComplex:
    """Free complex with Laurent differentials composing to zero.

    dims lists the module ranks in cohomological order; mats[i] is the
    matrix of the map from module i to module i + 1, with dims[i + 1]
    rows and dims[i] columns.
    """

    __slots__ = ("nvars", "dims", "mats", "_reductions")

    def __init__(self, nvars, dims, mats):
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("at least one character variable")
        dims = tuple(int(r) for r in dims)
        if not dims or any(r < 1 for r in dims):
            raise ValueError("module ranks must be >= 1")
        mats = [tuple(tuple(self._entry(e, nvars) for e in row) for row in m) for m in mats]
        if len(mats) != len(dims) - 1:
            raise ValueError("one matrix per pair of adjacent modules")
        for i, m in enumerate(mats):
            if len(m) != dims[i + 1] or any(len(row) != dims[i] for row in m):
                raise ValueError("matrix %d has the wrong shape" % i)
        for i in range(len(mats) - 1):
            self._check_composite(mats[i + 1], mats[i], i)
        self.nvars = nvars
        self.dims = dims
        self.mats = tuple(mats)
        # den -> the mod-ell reduction for characters of that order, or None
        self._reductions = {}

    @staticmethod
    def _entry(e, nvars):
        if not isinstance(e, LaurentPoly):
            return LaurentPoly.constant(nvars, e)
        if e.nvars != nvars:
            raise ValueError("entry arity mismatch")
        return e

    @staticmethod
    def _check_composite(upper, lower, i):
        for r in range(len(upper)):
            for c in range(len(lower[0]) if lower else 0):
                acc = LaurentPoly.zero(upper[0][0].nvars)
                for k in range(len(lower)):
                    acc = acc + upper[r][k] * lower[k][c]
                if not acc.is_zero():
                    raise ValueError(
                        "maps %d and %d do not compose to zero" % (i, i + 1)
                    )

    @classmethod
    def from_json(cls, doc):
        nvars = _json_int(doc["vars"])
        mats = [
            [[laurent_from_json(nvars, cell) for cell in row] for row in m]
            for m in doc["matrices"]
        ]
        dims = doc.get("dims")
        if dims is None:
            if not mats:
                raise ValueError("dims required when no matrices are given")
            dims = [len(mats[0][0])] + [len(m) for m in mats]
        return cls(nvars, [_json_int(r) for r in dims], mats)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def _torsion_char(char, nvars, order):
    """(a, m) with the character the point a / m: Q/Z values read at
    order 1 (m the lcm of their denominators), integer numerators a at
    any other order, as `TorsionCoset.contains` reads a point."""
    if len(char) != nvars:
        raise ValueError("character arity mismatch")
    if order != 1:
        return char, order
    vals = [Fraction(x) for x in char]
    m = lcm(*(q.denominator for q in vals))
    return [q.numerator * (m // q.denominator) for q in vals], m


def _betti(dims, ranks):
    out = []
    for i, r in enumerate(dims):
        drop = (ranks[i] if i < len(ranks) else 0) + (ranks[i - 1] if i > 0 else 0)
        out.append(r - drop)
    return tuple(out)


# more than any scan order under the grid cap has divisors (160 at most)
_REDUCTIONS_KEPT = 256


def _reduction(cplx, den):
    """(ell, root, exps, mats) for the characters of order den, or None
    where the exact path decides: with (ell, omega) = modular_root(big),
    big the lcm of den and the coefficient orders, root = omega^(big/den)
    has order den mod ell, exps lists the complex's distinct exponent
    vectors in first-seen order, and each cell of mats is its terms'
    (indices into exps, images mod ell).  The complex keeps the last
    _REDUCTIONS_KEPT orders' reductions."""
    if den in cplx._reductions:
        return cplx._reductions[den]
    if len(cplx._reductions) >= _REDUCTIONS_KEPT:
        del cplx._reductions[next(iter(cplx._reductions))]
    coeffs = [c for m in cplx.mats for row in m for e in row for c in e.terms.values()]
    big = lcm(den, *(c.order for c in coeffs))
    got = modular_root(big)
    out = None
    if got is not None:
        ell, omega = got
        exps = {}
        mats = [[[(tuple(exps.setdefault(x, len(exps)) for x in e.terms),
                   tuple(c.mod_image(ell, pow(omega, big // c.order, ell))
                         for c in e.terms.values()))
                  for e in row] for row in m] for m in cplx.mats]
        if all(None not in imgs for m in mats for row in m for _, imgs in row):
            out = (ell, pow(omega, big // den, ell), list(exps), mats)
    cplx._reductions[den] = out
    return out


def _modular_ranks(cplx, a, m):
    """Ranks of the differentials at the character a / m proved by
    reduction mod a prime, or None.

    The ranks over F_ell are lower bounds; they are returned only when
    each meets the upper bound that the neighbouring ranks impose
    through D^(k+1) D^k = 0.  The reduction is the one for the
    character's exact order m / gcd(m, a), however a / m is written.
    """
    g = gcd(m, *a)
    den = m // g
    red = _reduction(cplx, den)
    if red is None:
        return None
    ell, root, exps, mats = red
    point = [x // g for x in a]
    vals = [pow(root, sum(map(mul, exp, point)) % den, ell) for exp in exps]
    val = vals.__getitem__
    ranks = [rank_mod_prime([[sum(map(mul, imgs, map(val, idx))) % ell for idx, imgs in row]
                             for row in mat], ell) for mat in mats]
    dims, nbr = cplx.dims, [0, *ranks, 0]
    for k, r in enumerate(ranks):
        if r != min(dims[k] - nbr[k], dims[k + 1] - nbr[k + 2]):
            return None
    return ranks


def _cell_value(e, a, m):
    """The Laurent polynomial e at the character a / m, in one pass.

    Each term c t^v sends c to zeta_n^(<v, a> n / m) c, with n the lcm
    over the terms of the coefficient orders and the orders of their
    roots, the least order that holds the value; the shifted
    coefficients add up in one vector of length n, reduced once.
    """
    terms = []
    n = 1
    for v, c in e.terms.items():
        r = sum(map(mul, v, a)) % m
        n = lcm(n, c.order, m // gcd(r, m))
        terms.append((r, c))
    vec = [0] * n
    for r, c in terms:
        shift = r * n // m
        step = n // c.order
        for i, x in enumerate(c.coeffs):
            if x:
                vec[(shift + i * step) % n] += x
    return CycNumber(n, vec)


def specialize_exact(cplx, char, order=1):
    """Twisted Betti numbers by exact elimination over the cyclotomic field.

    The character is read as in `specialize`.  Each cell is evaluated
    in the least cyclotomic field that holds its value and ranks are
    computed by division-free elimination, so h^i = dim ker D^i -
    rank D^(i-1) comes out exact.
    """
    a, m = _torsion_char(char, cplx.nvars, order)
    ranks = []
    for mat in cplx.mats:
        rows = [[_cell_value(e, a, m) for e in row] for row in mat]
        ranks.append(rank_division_free(rows))
    return _betti(cplx.dims, ranks)


def specialize(cplx, char, order=1):
    """Twisted Betti numbers of the complex at one torsion character.

    At order 1 the character is its Q/Z values (Fractions or strings);
    at any other order it is the integer numerators a of the point
    a / order, reduced or not.

    The ranks of the differentials are computed over F_ell at a prime
    ell = 1 (mod L) first.  Each is a lower bound for the true rank,
    and D^(k+1) D^k = 0 bounds it above by min(dims[k] - r_(k-1),
    dims[k+1] - r_(k+1)); where the bounds meet for every k the Betti
    vector is exact.  Where they do not, or where ell divides a
    coefficient denominator, `specialize_exact` decides.  On the
    builtin complexes that happens at the trivial character only, where
    every differential vanishes and the upper bounds stay above 0.
    """
    a, m = _torsion_char(char, cplx.nvars, order)
    ranks = _modular_ranks(cplx, a, m)
    if ranks is None:
        return specialize_exact(cplx, a, m)
    return _betti(cplx.dims, ranks)


class JumpingLocusSample:
    """Result of one full torsion scan of the condition h^i > j."""

    __slots__ = ("i", "j", "order_bound", "hits", "scanned")

    def __init__(self, i, j, order_bound, hits, scanned):
        self.i = i
        self.j = j
        self.order_bound = order_bound
        self.hits = tuple(tuple(q for q in h) for h in hits)
        self.scanned = scanned

    def to_json(self):
        return {
            "i": self.i,
            "j": self.j,
            "order_bound": self.order_bound,
            "scanned": self.scanned,
            "hits": [[str(q) for q in h] for h in self.hits],
        }


def scan_torsion(cplx, i, j, order_bound):
    """Scan every character of order dividing the bound for h^i > j.

    The characters are the integer numerators a in [0, m)^d at the
    bound m, walked in lexicographic order, which is the order of the
    points a / m; only the reported hits become Fractions.  The loop
    asserts the Euler characteristic of each specialization against
    the alternating sum of module ranks, and every collected hit is
    specialized a second time before it is reported.
    """
    m = int(order_bound)
    if m < 1:
        raise ValueError("order bound must be >= 1")
    if not 0 <= i < len(cplx.dims):
        raise ValueError("cohomological index out of range")
    signs = [(-1) ** k for k in range(len(cplx.dims))]
    euler = sum(map(mul, signs, cplx.dims))
    hits = []
    scanned = 0
    for a in product(range(m), repeat=cplx.nvars):
        h = specialize(cplx, a, m)
        if sum(map(mul, signs, h)) != euler:
            raise AssertionError("Euler characteristic drifted during the scan")
        scanned += 1
        if h[i] > j:
            hits.append(a)
    for a in hits:
        if specialize(cplx, a, m)[i] <= j:
            raise AssertionError("scan hit failed re-verification")
    hits = [tuple(Fraction(x, m) for x in a) for a in hits]
    return JumpingLocusSample(i, j, m, hits, scanned)


# ---------------------------------------------------------------------------
# determinantal generators
# ---------------------------------------------------------------------------

SIZE_LIMIT_MESSAGE = "size limit exceeded"
_PRODUCT_CAP = 5000


def _normalize_associate(q):
    """Canonical unit multiple: lowest exponents at zero, lowest coefficient 1."""
    if q.is_zero():
        return q
    lows = [min(e[k] for e in q.terms) for k in range(q.nvars)]
    shifted = q.shift(tuple(-x for x in lows))
    lead = min(shifted.terms)
    return shifted.scale(shifted.terms[lead].inverse())


def _coeff_key(c):
    if c.is_rational():
        return (1, (str(c.rational_value()),))
    return (c.order, tuple(str(x) for x in c.coeffs))


def _poly_key(q):
    return tuple((exp, _coeff_key(c)) for exp, c in q.sorted_terms())


def _nonzero_minors(mat, size):
    """Nonzero size-by-size minors; empty when the size exceeds the shape,
    which is exactly the vacuous rank condition."""
    if mat is None:
        return []
    nrows, ncols = len(mat), len(mat[0])
    if size > min(nrows, ncols):
        return []
    out = []
    for rr in combinations(range(nrows), size):
        for cc in combinations(range(ncols), size):
            d = laurent_det([[mat[r][c] for c in cc] for r in rr])
            if not d.is_zero():
                out.append(d)
    return out


def fitting_locus(cplx, i, j):
    """Generators for the locus of characters with h^i > j.

    The condition says the two neighbouring ranks sum to at most
    c - 1 with c = dims[i] - j.  That locus is the union over splits
    a + b = c - 1 of the loci cut out by the (a+1)-minors of D^i
    together with the (b+1)-minors of D^(i-1); the union becomes a
    product of those clause ideals.  Oversized minors are vacuously
    satisfied rank bounds, a clause with no surviving generator means
    the whole character torus, and a clause containing a unit is an
    empty piece and is dropped.  Matrices beyond the size cap or
    oversized clause products give an explicit refusal string.
    """
    if not 0 <= i < len(cplx.dims):
        raise ValueError("cohomological index out of range")
    d = cplx.nvars
    c = cplx.dims[i] - j
    if c <= 0:
        return [LaurentPoly.constant(d, 1)]
    upper = cplx.mats[i] if i < len(cplx.mats) else None
    lower = cplx.mats[i - 1] if i > 0 else None
    for m in (upper, lower):
        if m is not None and max(len(m), len(m[0])) > 6:
            return SIZE_LIMIT_MESSAGE
    clauses = []
    seen = set()
    for a in range(c):
        b = c - 1 - a
        gens = _nonzero_minors(upper, a + 1) + _nonzero_minors(lower, b + 1)
        if not gens:
            return []
        if any(len(g.terms) == 1 for g in gens):
            continue
        gens = {_poly_key(g): g for g in map(_normalize_associate, gens)}
        key = frozenset(gens)
        if key not in seen:
            seen.add(key)
            clauses.append([gens[k] for k in sorted(gens)])
    if not clauses:
        return [LaurentPoly.constant(d, 1)]
    if len(clauses) == 1:
        return clauses[0]
    total = 1
    for cl in clauses:
        total *= len(cl)
    if total > _PRODUCT_CAP:
        return SIZE_LIMIT_MESSAGE
    out = {}
    for pick in product(*clauses):
        g = pick[0]
        for f in pick[1:]:
            g = g * f
        g = _normalize_associate(g)
        out[_poly_key(g)] = g
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# shape of the locus
# ---------------------------------------------------------------------------


def _binomial_equation(q):
    """Equation (v, e) meaning t**v = zeta_e, or None if not binomial.

    q must come from `_normalize_associate`: t**e0 + c t**e1 with c =
    zeta**a vanishes where t**(e1 - e0) = -1/c = zeta**(1/2 - a)."""
    items = q.sorted_terms()
    if len(items) != 2:
        return None
    (e0, _), (e1, c) = items
    root = c.root_of_unity_exponent()
    if root is None:
        return None
    v = tuple(x - y for x, y in zip(e1, e0))
    return (v, (Fraction(1, 2) - root) % 1)


def shape_check(generators, nvars=None, scan=None):
    """Decide whether generators cut out a union of torsion cosets.

    Every generator must be a binomial whose coefficient ratio is a
    root of unity; the system they make is then solved exactly and the
    decomposition reported.  A monomial generator is a unit, so the
    locus is empty and confirmed with no cosets.  Anything else leaves
    the shape undetermined, with the scan evidence attached when the
    caller provides some.
    """
    from .cosets import BinomialSystem, solve_binomial
    gens = [_normalize_associate(g) for g in generators if not g.is_zero()]
    if gens:
        nvars = gens[0].nvars
    elif nvars is None:
        raise ValueError("variable count needed for an empty generator list")
    out = {"generators": len(gens)}
    if scan is not None:
        out["scan"] = scan.to_json()
    if any(len(g.terms) == 1 for g in gens):
        out["verdict"] = "shape confirmed"
        out["cosets"] = []
        return out
    eqs = []
    for g in gens:
        eq = _binomial_equation(g)
        if eq is None:
            out["verdict"] = "shape undetermined: non-binomial generators"
            return out
        eqs.append(eq)
    cosets = solve_binomial(BinomialSystem(nvars, eqs))
    out["verdict"] = "shape confirmed"
    out["cosets"] = [c.to_json() for c in cosets]
    return out


# ---------------------------------------------------------------------------
# built-in complexes
# ---------------------------------------------------------------------------

# Each builder returns one shared instance per parameter, so the
# per-order reductions it fills serve every later caller; the
# instances must be treated as immutable.
_builtin = lru_cache(maxsize=4)


def _var(d, i):
    return LaurentPoly.variable(d, i)


def _one(d):
    return LaurentPoly.constant(d, 1)


def circle_complex():
    return wedge_complex(1)


def torus_complex():
    return surface_complex(1)


@_builtin
def wedge_complex(n):
    n = int(n)
    if n < 1:
        raise ValueError("need at least one circle")
    d0 = [[_var(n, i) - _one(n)] for i in range(n)]
    return TwistedComplex(n, (1, n), [d0])


@_builtin
def surface_complex(g):
    """Standard one-relator presentation of the genus-g surface group.

    Variables come in pairs (a_i, b_i); the second differential is the
    row of abelianized free derivatives of the product of commutators,
    which collapses to 1 - b_i and a_i - 1 because each prefix of the
    relator abelianizes to 1.
    """
    g = int(g)
    if g < 1:
        raise ValueError("genus must be >= 1")
    d = 2 * g
    one = _one(d)
    d0 = [[_var(d, i) - one] for i in range(d)]
    row = []
    for k in range(g):
        row.append(one - _var(d, 2 * k + 1))
        row.append(_var(d, 2 * k) - one)
    return TwistedComplex(d, (1, d, 1), [d0, [row]])
