"""Truncated power series on closed polydiscs with rigorous tail bounds.

A series stores finitely many coefficients plus a tail exponent tau
guaranteeing every omitted term satisfies |a_J| rho^|J| <= p**-tau
(tau = None means the series is an exact polynomial, tail bound
infinite).  All conclusions are certificates at a stated precision:
zero counting refuses with PrecisionError whenever stored coefficient
precision or the tail bound cannot justify the answer, and never guesses.

Discs are |x_i| <= p**-m about the origin, with integer m >= 0.
"""

from fractions import Fraction

from .padic import (
    DomainError,
    PadicScalar,
    PrecisionError,
    _json_int,
    check_prime,
    exp_domain_bound,
    scalar_from_json,
)


class PolyDisc:
    __slots__ = ("p", "dim", "radius_exp")

    def __init__(self, p, dim, radius_exp):
        check_prime(p)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if radius_exp < 0:
            raise ValueError("radius exponent must be >= 0 (radius <= 1)")
        self.p = p
        self.dim = dim
        self.radius_exp = radius_exp

    def __eq__(self, other):
        if not isinstance(other, PolyDisc):
            return NotImplemented
        return (self.p, self.dim, self.radius_exp) == (other.p, other.dim, other.radius_exp)

    def __repr__(self):
        return "PolyDisc(p=%d, dim=%d, radius_exp=%d)" % (self.p, self.dim, self.radius_exp)

    def check_contains(self, point):
        """Raise unless |x_i| <= p**-radius_exp is certain for all i."""
        if len(point) != self.dim:
            raise ValueError("point arity mismatch")
        for i, x in enumerate(point):
            if x.norm_exponent() < self.radius_exp:
                if x.valuation is None:
                    raise PrecisionError(
                        "coordinate %d known only to O(p^%d), disc needs valuation >= %d"
                        % (i, x.norm_exponent(), self.radius_exp)
                    )
                raise DomainError(
                    "coordinate %d has valuation %d, outside radius exponent %d"
                    % (i, x.valuation, self.radius_exp)
                )

    @classmethod
    def from_json(cls, doc):
        if "center" in doc:
            raise ValueError("discs are centered at 0; a 'center' field is not accepted")
        return cls(*(_json_int(doc[k]) for k in ("p", "dim", "radius_exp")))


class AnalyticSeries:
    __slots__ = ("disc", "terms", "tail_exp")

    def __init__(self, disc, terms, tail_exp=None):
        self.disc = disc
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != disc.dim:
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in exp):
                raise ValueError("power series exponents must be >= 0")
            clean[exp] = coeff
        self.terms = clean
        self.tail_exp = tail_exp

    def is_polynomial(self):
        return self.tail_exp is None

    # -- norm bookkeeping --------------------------------------------------

    def _term_entries(self):
        """(exp, coeff, value_exp, exact) with value_exp a lower bound on
        the exponent of |a_J| rho^|J| and exact when the valuation is known."""
        m = self.disc.radius_exp
        out = []
        for exp, coeff in self.terms.items():
            weight = m * sum(exp)
            out.append((exp, coeff, coeff.norm_exponent() + weight, coeff.valuation is not None))
        return out

    def exact_above_tail(self):
        """(value_exp, exp) of each exact stored term above the tail."""
        tau = self.tail_exp
        return [
            (val, exp)
            for exp, _, val, exact in self._term_entries()
            if exact and (tau is None or val < tau)
        ]

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point):
        """Sum over stored terms, coarsened to the tail precision.

        The returned coset provably contains the true value of the full
        series at the point.
        """
        self.disc.check_contains(point)
        total = None
        for exp, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exp):
                if e:
                    val = val * x ** e
            total = val if total is None else total + val
        if total is None:
            if self.tail_exp is not None:
                return PadicScalar.zero_at(self.disc.p, self.tail_exp)
            # the literal zero polynomial: exactly 0, representable only as
            # a coset, so use the precision the point itself carries
            prec = max(1, min(x.abs_prec for x in point))
            return PadicScalar.zero_at(self.disc.p, prec)
        if self.tail_exp is not None and self.tail_exp < total.abs_prec:
            total = total.truncate_abs(self.tail_exp)
        return total

    # -- decoding ---------------------------------------------------------------

    @classmethod
    def from_json(cls, doc):
        disc = PolyDisc.from_json(doc["disc"])
        terms = {}
        for item in doc["terms"]:
            terms[tuple(_json_int(e) for e in item["exp"])] = scalar_from_json(item["coeff"])
        tail = doc.get("tail_exp")
        return cls(disc, terms, None if tail is None else _json_int(tail))


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------


def strassmann_count(g):
    """Zeros of a univariate series in its closed disc, with multiplicity.

    The count is the largest index attaining the Gauss norm.  Refuses with
    PrecisionError when stored precision or the tail bound leaves the
    count ambiguous; never guesses.
    """
    if g.disc.dim != 1:
        raise ValueError("zero counting needs a univariate series")
    entries = [(exp[0], coeff, val, exact) for exp, coeff, val, exact in g._term_entries()]
    known = [(n, val) for n, _, val, exact in entries if exact]
    if not known:
        raise PrecisionError("series indistinguishable from zero at this precision")
    nu = min(val for _, val in known)
    if g.tail_exp is not None and nu >= g.tail_exp:
        raise PrecisionError("series indistinguishable from zero at this precision")
    count = max(n for n, val in known if val == nu)
    for n, _, bound, exact in entries:
        if exact:
            continue
        if bound < nu:
            raise PrecisionError(
                "coefficient at index %d only bounded by p^-%d, below the Gauss norm p^-%d"
                % (n, bound, nu)
            )
        if bound == nu and n > count:
            raise PrecisionError(
                "coefficient at index %d could tie the Gauss norm beyond index %d"
                % (n, count)
            )
    return count


class NewtonPolygon:
    """Lower convex hull data of a nonzero polynomial's coefficients."""

    __slots__ = ("segments", "vanishing_order", "degree")

    def __init__(self, segments, vanishing_order, degree):
        total = sum(length for _, length in segments)
        if total != degree - vanishing_order:
            raise ValueError("segment lengths must sum to degree minus vanishing order")
        slopes = [s for s, _ in segments]
        if any(b <= a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must be strictly increasing")
        self.segments = tuple(segments)
        self.vanishing_order = vanishing_order
        self.degree = degree

    def __eq__(self, other):
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return (
            (self.segments, self.vanishing_order, self.degree)
            == (other.segments, other.vanishing_order, other.degree)
        )

    def __repr__(self):
        return "NewtonPolygon(order=%d, segments=%s)" % (
            self.vanishing_order,
            [(str(s), l) for s, l in self.segments],
        )

    def root_count_with_valuation_at_least(self, m):
        """Roots (with multiplicity) of valuation >= m, excluding 0 itself
        when m <= 0 is not meaningful; the count in |x| <= p**-m adds the
        vanishing order."""
        return self.vanishing_order + sum(
            length for slope, length in self.segments if slope <= -m
        )

    def to_json(self):
        return {
            "vanishing_order": self.vanishing_order,
            "degree": self.degree,
            "segments": [
                {"slope": str(slope), "length": length} for slope, length in self.segments
            ],
        }


def newton_polygon(f):
    """Hull of (index, valuation) over an exact univariate polynomial."""
    if f.disc.dim != 1:
        raise ValueError("newton polygon needs a univariate polynomial")
    if not f.is_polynomial():
        raise ValueError("newton polygon needs an exact polynomial, not a bounded tail")
    pts = []
    fuzzy = []
    for exp, coeff in f.terms.items():
        n = exp[0]
        if coeff.valuation is not None:
            pts.append((n, coeff.valuation))
        else:
            fuzzy.append((n, coeff.norm_exponent()))
    if not pts:
        raise ValueError("zero polynomial")
    pts.sort()
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or above the new chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    lo, hi = pts[0][0], pts[-1][0]
    for n, bound in fuzzy:
        if n < lo or n > hi:
            raise PrecisionError(
                "coefficient at index %d has unknown valuation at the hull boundary" % n
            )
        if _below_hull(hull, n, bound):
            raise PrecisionError(
                "coefficient at index %d only bounded by p^-%d, possibly below the hull"
                % (n, bound)
            )
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(segments, lo, hi)


def _below_hull(hull, x, y):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            # compare y against the chord value at x without fractions
            return (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1)
    return False


# ---------------------------------------------------------------------------
# orbit restriction and vanishing certificates
# ---------------------------------------------------------------------------


def restrict_to_orbit(f, point, weights):
    """g(beta) = f(beta**w_1 x_1, ..., beta**w_d x_d) on the unit disc.

    Exact bookkeeping: the beta**k coefficient collects a_J x**J over all
    stored J with <w, J> = k; the tail bound carries over unchanged
    because |x**J| <= rho**|J| inside the disc and the ultrametric
    collapse of each collected sum only helps.
    """
    if len(weights) != f.disc.dim or any(w < 1 or w != int(w) for w in weights):
        raise ValueError("weights must be positive integers, one per coordinate")
    f.disc.check_contains(point)
    out = {}
    for exp, coeff in f.terms.items():
        k = sum(w * e for w, e in zip(weights, exp))
        val = coeff
        for x, e in zip(point, exp):
            if e:
                val = val * x ** e
        got = out.get((k,))
        out[(k,)] = val if got is None else got + val
    return AnalyticSeries(PolyDisc(f.disc.p, 1, 0), out, f.tail_exp)


def check_scaling_unit(alpha, p):
    """The decidable stand-in for 'alpha is not a root of unity':
    alpha == 1 mod p (mod 4 when p = 2) and alpha != 1 at precision.
    Returns v(alpha - 1); raises on any failure."""
    bound = exp_domain_bound(p)
    if alpha.valuation != 0:
        raise DomainError("scaling unit must be a unit, got valuation %r" % (alpha.valuation,))
    diff = alpha - 1
    if diff.valuation is None:
        raise PrecisionError(
            "alpha = 1 to precision %d; cannot certify alpha is not a root of unity"
            % diff.norm_exponent()
        )
    if diff.valuation < bound:
        raise DomainError(
            "alpha - 1 has valuation %d < %d; the non-root-of-unity criterion fails"
            % (diff.valuation, bound)
        )
    return diff.valuation


# largest orbit a vanishing certificate walks for a witness
_ORBIT_CAP = 200000


def vanish_certificate(g, alpha, bound_k):
    """Certificate that a univariate series vanishes on its disc, read off
    the stored terms: on a closed disc the sup norm is the Gauss norm.

    With no exact term above the tail, the certificate states the least
    of the term bounds and the tail (None for no term and no tail).
    Otherwise the refusal names a witness: the Strassmann count when it
    exceeds bound_k, else the first orbit point alpha**n, n <= bound_k,
    where g is provably nonzero, else the exact term above the tail with
    the least bound.  An ambiguous count raises PrecisionError; an orbit
    of more than _ORBIT_CAP points raises ValueError.
    """
    if g.disc.dim != 1:
        raise ValueError("vanishing certificates are univariate")
    if bound_k < 0:
        raise ValueError("the point-count bound must be >= 0")
    check_scaling_unit(alpha, g.disc.p)
    above = g.exact_above_tail()
    if not above:
        bounds = [val for _, _, val, _ in g._term_entries()]
        if g.tail_exp is not None:
            bounds.append(g.tail_exp)
        return {
            "ok": True,
            "kind": "trivial",
            "points_used": 0,
            "tail_exp": min(bounds, default=None),
        }
    count = strassmann_count(g)
    if count > bound_k:
        return {
            "ok": False,
            "kind": "refusal",
            "reason": "zero count exceeds the point budget",
            "count": count,
            "bound": bound_k,
        }
    if bound_k >= _ORBIT_CAP:
        raise ValueError("orbit of %d points is over the cap of %d" % (bound_k + 1, _ORBIT_CAP))
    for n in range(bound_k + 1):
        beta = alpha ** n
        value = g.evaluate([beta])
        if value.valuation is not None:
            return {
                "ok": False,
                "kind": "refusal",
                "reason": "nonzero value on the orbit",
                "index": n,
                "point": beta.to_json(),
                "value": value.to_json(),
            }
    val, (n,) = min(above)
    return {
        "ok": False,
        "kind": "refusal",
        "reason": "coefficient above the tail precision",
        "coefficient": n,
        "valuation": val,
    }
