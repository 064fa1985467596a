"""Weighted scaling actions and conicity certificates.

A weighted action moves a point by x_i -> beta**w_i x_i.  A locus is
conic when it absorbs every such scaling with |beta| <= 1; each
defining series restricts along an orbit to a one-variable series, whose
stored terms decide that at the tail precision.
"""

from .padic import DomainError, _json_int, check_prime, scalar_from_json
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
    certifies that (and hence that alpha is not a root of unity).
    """

    __slots__ = ("p", "weights", "alpha")

    def __init__(self, p, weights, alpha):
        check_prime(p)
        weights = tuple(weights)
        if not weights or any(w != int(w) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.p = p
        self.weights = tuple(int(w) for w in weights)
        check_scaling_unit(alpha, p)
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

    @classmethod
    def from_json(cls, doc):
        weights = [_json_int(w) for w in doc["weights"]]
        return cls(_json_int(doc["p"]), weights, scalar_from_json(doc["alpha"]))


# ---------------------------------------------------------------------------
# loci
# ---------------------------------------------------------------------------


class AnalyticLocus:
    """Common zero set of finitely many series on one disc."""

    __slots__ = ("disc", "equations")

    def __init__(self, disc, equations):
        self.disc = disc
        self.equations = tuple(equations)
        for g in self.equations:
            if g.disc != disc:
                raise ValueError("every equation must live on the locus disc")

    @classmethod
    def from_json(cls, doc):
        disc = PolyDisc.from_json(doc["disc"])
        return cls(disc, [AnalyticSeries.from_json(item) for item in doc["equations"]])


# ---------------------------------------------------------------------------
# conic certificates
# ---------------------------------------------------------------------------


def conic_certificate(S, action, point, bound_k):
    """Certify that the closed orbit of a point stays inside the locus.

    Each defining series is restricted to beta -> f(beta . point) and
    handed to the one-variable vanishing certificate, which reads the
    stored terms.  Success certifies {beta . point : |beta| <= 1} lies in
    S to each stated tail_exp; any refusal comes back decorated with the
    offending equation and, when the orbit walk found one, the concrete
    orbit point where the series is provably nonzero.
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
