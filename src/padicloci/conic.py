"""Weighted scaling actions and conicity certificates.

A weighted action moves a point by x_i -> beta**w_i x_i.  A locus is
conic when it absorbs every such scaling with |beta| <= 1; since each
defining series restricts along an orbit to a one-variable series, the
Strassmann machinery turns that into a finite check.
"""

from .cyclotomic import CycNumber
from .laurent import laurent_from_json
from .padic import (
    DomainError,
    PadicScalar,
    _json_int,
    check_prime,
    embed_root_of_unity,
    scalar_from_json,
)
from .series import (
    AnalyticSeries,
    PolyDisc,
    check_scaling_unit,
    restrict_to_orbit,
    vanish_certificate,
)


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


class WeightedAction:
    """Coordinatewise scaling by beta**w_i with a pinned generator alpha.

    alpha must be a principal unit other than 1; check_scaling_unit
    certifies that (and hence that alpha is not a root of unity), and
    the resulting valuation of alpha - 1 is kept on the instance.
    """

    __slots__ = ("p", "weights", "alpha", "scaling_valuation")

    def __init__(self, p, weights, alpha):
        check_prime(p)
        weights = tuple(weights)
        if not weights or any(w != int(w) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.p = p
        self.weights = tuple(int(w) for w in weights)
        self.scaling_valuation = check_scaling_unit(alpha, p)
        self.alpha = alpha

    @property
    def dim(self):
        return len(self.weights)

    def act(self, beta, point):
        if len(point) != self.dim:
            raise ValueError("point arity mismatch")
        return tuple(beta ** w * x for w, x in zip(self.weights, point))

    def orbit_point(self, n, point):
        """The point alpha**n . x."""
        return self.act(self.alpha ** n, point)

    def to_json(self):
        return {
            "p": self.p,
            "weights": list(self.weights),
            "alpha": self.alpha.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        weights = [_json_int(w) for w in doc["weights"]]
        return cls(_json_int(doc["p"]), weights, scalar_from_json(doc["alpha"]))


# ---------------------------------------------------------------------------
# loci
# ---------------------------------------------------------------------------


def _embed_coeff(p, c, prec):
    """Realize a rational or root-of-unity coefficient inside Q_p."""
    if not isinstance(c, CycNumber):
        c = CycNumber.from_rational(c)
    if c.is_rational():
        return PadicScalar.from_fraction(p, c.rational_value(), prec)
    e = c.root_of_unity_exponent()
    if e is None:
        raise ValueError("coefficient is neither rational nor a root of unity")
    w = embed_root_of_unity(p, e, prec)
    if w.f > 1:
        raise ValueError(
            "a root of unity of order %d does not embed in Q_%d" % (e.denominator, p)
        )
    return w


class AnalyticLocus:
    """Common zero set of finitely many series on one disc.

    polynomials, when given, carries the same equations as exact data
    with cyclotomic coefficients; the exactness flag reports its
    presence and the symbolic routes below require it.
    """

    __slots__ = ("disc", "equations", "polynomials")

    def __init__(self, disc, equations, polynomials=None):
        self.disc = disc
        self.equations = tuple(equations)
        for g in self.equations:
            if g.disc != disc:
                raise ValueError("every equation must live on the locus disc")
        if polynomials is not None:
            polynomials = tuple(polynomials)
            if len(polynomials) != len(self.equations):
                raise ValueError("one exact polynomial per equation")
            for q in polynomials:
                if q.nvars != disc.dim:
                    raise ValueError("polynomial arity mismatch")
                if any(e < 0 for exp in q.terms for e in exp):
                    raise ValueError("negative exponents do not define disc functions")
        self.polynomials = polynomials

    @property
    def exact(self):
        return self.polynomials is not None

    @classmethod
    def from_polynomials(cls, disc, polys, prec):
        """Realize exact polynomials as series, prec digits per coefficient."""
        polys = tuple(polys)
        series = []
        for q in polys:
            terms = {e: _embed_coeff(disc.p, c, prec) for e, c in q.terms.items()}
            series.append(AnalyticSeries(disc, terms, tail_exp=None))
        return cls(disc, series, polynomials=polys)

    def to_json(self):
        doc = {
            "disc": self.disc.to_json(),
            "equations": [g.to_json() for g in self.equations],
        }
        if self.exact:
            doc["polynomials"] = [q.to_json() for q in self.polynomials]
        return doc

    @classmethod
    def from_json(cls, doc):
        disc = PolyDisc.from_json(doc["disc"])
        equations = [AnalyticSeries.from_json(item) for item in doc["equations"]]
        polys = doc.get("polynomials")
        if polys is not None:
            polys = [laurent_from_json(disc.dim, item) for item in polys]
        return cls(disc, equations, polynomials=polys)


# ---------------------------------------------------------------------------
# conic certificates
# ---------------------------------------------------------------------------


def conic_certificate(S, action, point, bound_k):
    """Certify that the closed orbit of a point stays inside the locus.

    Each defining series is restricted to beta -> f(beta . point) and
    handed to the one-variable vanishing certificate with a budget of
    bound_k + 1 orbit points.  Success certifies {beta . point : |beta|
    <= 1} lies in S to the stated precision; any refusal comes back
    decorated with the offending equation and, when one exists, the
    concrete orbit point where the series is provably nonzero.
    """
    if action.dim != S.disc.dim:
        raise ValueError("action arity mismatch")
    if action.p != S.disc.p:
        raise ValueError("prime mismatch")
    S.disc.check_contains(point)
    for i, f in enumerate(S.equations):
        val = f.evaluate(point)
        if val.valuation is not None:
            raise DomainError(
                "base point is not on the locus: equation %d has value of valuation %d"
                % (i, val.valuation)
            )
    certs = []
    for i, f in enumerate(S.equations):
        g = restrict_to_orbit(f, point, action.weights)
        res = vanish_certificate(g, action.alpha, bound_k)
        if not res["ok"]:
            out = dict(res)
            out["equation"] = i
            if "index" in res:
                out["orbit_point"] = [
                    c.to_json() for c in action.orbit_point(res["index"], point)
                ]
            return out
        certs.append(dict(res, equation=i))
    return {
        "ok": True,
        "kind": "conic",
        "points_used": bound_k + 1,
        "equations": certs,
    }
