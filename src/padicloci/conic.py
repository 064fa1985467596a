"""Weighted scaling actions, conicity certificates, and the linearity test.

A weighted action moves a point by x_i -> beta**w_i x_i.  A locus is
conic when it absorbs every such scaling with |beta| <= 1; since each
defining series restricts along an orbit to a one-variable series, the
Strassmann machinery turns that into a finite check.  The linearity
test compares a locus against the tangent space at the origin, using
only exact linear algebra plus sampled points, never numeric root
finding.
"""

import random

from .cyclotomic import CycNumber, cyc_to_json
from .laurent import laurent_from_json
from .linalg import kernel_basis, rank_division_free
from .padic import (
    DomainError,
    PadicScalar,
    PrecisionError,
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


def _unit_exp(dim, j):
    return tuple(1 if i == j else 0 for i in range(dim))


def _lone_index(exp):
    """Index i when exp is the i-th unit vector, else None."""
    if sum(exp) != 1:
        return None
    return exp.index(1)


def weighted_degree(q, weights):
    """Common value of <weights, exp> over the stored monomials, or None."""
    deg = None
    for exp in q.terms:
        k = sum(w * e for w, e in zip(weights, exp))
        if deg is None:
            deg = k
        elif k != deg:
            return None
    return deg


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


def orbit_differential_at_zero(action, point):
    """Velocity at beta = 0 of the orbit map beta -> beta . point.

    Coordinate i of the map is the monomial x_i beta**w_i; its formal
    derivative is w_i x_i beta**(w_i - 1), so only weight-1 slots
    survive evaluation at the origin.
    """
    if len(point) != action.dim:
        raise ValueError("point arity mismatch")
    out = []
    for w, c in zip(action.weights, point):
        dc = c * w
        if w == 1:
            out.append(dc)
        else:
            # a remaining positive power of beta evaluates to exact zero
            out.append(PadicScalar.zero_at(action.p, dc.abs_prec))
    return tuple(out)


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


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------

_CYC_ONE = CycNumber.from_rational(1)
_CYC_ZERO = CycNumber.from_rational(0)


def _jacobian_rows(polys, dim):
    """Rows of linear-term coefficients, one per nonzero polynomial."""
    rows = []
    for q in polys:
        if not q.terms:
            continue
        rows.append([q.terms.get(_unit_exp(dim, j), _CYC_ZERO) for j in range(dim)])
    return rows


def tangent_space_at_zero(S):
    """Kernel basis of the Jacobian at the origin, over the exact field.

    Requires exact polynomial data; the kernel is computed by exact
    Gaussian elimination over the cyclotomic coefficients, so the
    answer carries no precision qualifier.
    """
    if not S.exact:
        raise DomainError("the tangent space needs exact polynomial data")
    dim = S.disc.dim
    zero_exp = (0,) * dim
    for q in S.polynomials:
        if zero_exp in q.terms:
            raise DomainError("the origin does not lie on the locus")
    rows = _jacobian_rows(S.polynomials, dim)
    basis = kernel_basis(rows, dim, _CYC_ONE, _CYC_ZERO)
    return tuple(tuple(v) for v in basis)


# ---------------------------------------------------------------------------
# sampling points on graph-like loci
# ---------------------------------------------------------------------------


def _sample_points(S, count, rng):
    """Points of S obtained by solving one coordinate per equation.

    Supported only for graph-like systems: each equation must expose a
    coordinate occurring in it alone and linearly, with an invertible
    pivot.  Returns [] when no such assignment exists, rather than
    guessing.
    """
    dim = S.disc.dim
    p = S.disc.p
    pairs = []
    claimed = set()
    prec = 1
    for f in S.equations:
        for c in f.terms.values():
            prec = max(prec, c.abs_prec)
    for f in S.equations:
        if not f.terms:
            continue
        pick = None
        for exp, c in f.terms.items():
            j = _lone_index(exp)
            if j is None or j in claimed or c.valuation is None:
                continue
            if any(other != exp and other[j] for other in f.terms):
                continue
            pick = (j, exp, c)
            break
        if pick is None:
            return []
        claimed.add(pick[0])
        pairs.append((f, pick))
    free = [j for j in range(dim) if j not in claimed]
    lo = S.disc.radius_exp
    points = []
    for _ in range(count):
        coords = [None] * dim
        for j in free:
            u = rng.randrange(1, p)
            e = lo + rng.randrange(0, 3)
            coords[j] = PadicScalar.from_int(p, u * p ** e, prec)
        todo = list(pairs)
        while todo:
            progress = False
            for item in list(todo):
                f, (j, pivot_exp, pivot) = item
                needed = set()
                for exp in f.terms:
                    for i, e in enumerate(exp):
                        if e and i != j:
                            needed.add(i)
                if any(coords[i] is None for i in needed):
                    continue
                total = None
                for exp, c in f.terms.items():
                    if exp == pivot_exp:
                        continue
                    val = c
                    for i, e in enumerate(exp):
                        if e:
                            val = val * coords[i] ** e
                    total = val if total is None else total + val
                if total is None:
                    coords[j] = PadicScalar.zero_at(p, prec)
                else:
                    coords[j] = -total / pivot
                todo.remove(item)
                progress = True
            if not progress:
                return []
        point = tuple(coords)
        try:
            S.disc.check_contains(point)
        except (DomainError, PrecisionError):
            continue
        if any(f.evaluate(point).valuation is not None for f in S.equations):
            # exact arithmetic should cancel; a survivor means a bad draw
            continue
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# the linearity test
# ---------------------------------------------------------------------------


def _rank_on_columns(rows, cols):
    return rank_division_free([[row[c] for c in cols] for row in rows])


def _reduces_to_linear(polys, dim):
    """Whether zero-forcing single coordinates leaves only linear forms.

    Equations that are a lone scalar multiple of a coordinate force it
    to vanish on the locus; substituting those zeros everywhere and
    repeating either exposes the locus as an intersection of linear
    forms (so it equals a linear subspace) or stalls on a genuinely
    nonlinear equation.
    """
    work = [dict(q.terms) for q in polys if q.terms]
    forced = set()
    changed = True
    while changed:
        changed = False
        for terms in work:
            if len(terms) == 1:
                (exp,) = terms
                j = _lone_index(exp)
                if j is not None and j not in forced:
                    forced.add(j)
                    changed = True
        if changed:
            new_work = []
            for terms in work:
                kept = {
                    exp: c
                    for exp, c in terms.items()
                    if not any(exp[j] for j in forced)
                }
                if kept:
                    new_work.append(kept)
            work = new_work
    return all(sum(exp) == 1 for terms in work for exp in terms)


def linearity_check(S, action, target, samples=8, seed=0):
    """Verdict on whether the locus is cut out by its tangent space at 0.

    Runs the hypothesis checks first: smoothness of S at the origin by
    exact Jacobian rank, the weight-eigenspace splitting of the tangent
    space, stability of S under the action, and surjectivity of the
    weight-2 projection from T_0(S) onto T_0(target).  The conclusion
    S inside T_0(S) is then confirmed exactly when coordinate reduction
    leaves only linear equations, refuted by a sampled point of S where
    some tangent form is provably nonzero, and left open otherwise.

    Returns a record with verdict one of "holds", "fails at point",
    "hypotheses not met", "undetermined", plus the intermediate data.
    A decisive conclusion wins over failed hypotheses, so a concrete
    counterexample is always reported as "fails at point".
    """
    if any(w not in (1, 2) for w in action.weights):
        raise ValueError("the linearity test needs weights 1 and 2 only")
    if action.dim != S.disc.dim or action.p != S.disc.p:
        raise ValueError("action arity mismatch")
    cols2 = [j for j, w in enumerate(action.weights) if w == 2]
    cols1 = [j for j, w in enumerate(action.weights) if w == 1]
    if target.disc.dim != len(cols2) or target.disc.p != S.disc.p:
        raise ValueError("the target must live on the weight-2 factor")
    record = {
        "verdict": None,
        "hypothesis_failures": [],
        "samples_requested": samples,
    }
    if not S.exact or not target.exact:
        record["verdict"] = "undetermined"
        record["reason"] = "smoothness is decided only for exact polynomial data"
        return record
    dim = S.disc.dim
    tangent = tangent_space_at_zero(S)
    rows = _jacobian_rows(S.polynomials, dim)
    codim = len(rows)
    tdim = len(tangent)
    rank = dim - tdim
    record["jacobian_rank"] = rank
    record["codimension"] = codim
    if rank < codim:
        record["verdict"] = "hypotheses not met"
        record["reason"] = (
            "Jacobian rank %d is below the equation count %d; smoothness at 0 unverified"
            % (rank, codim)
        )
        return record
    record["tangent_dim"] = tdim
    record["tangent_basis"] = [[cyc_to_json(c) for c in vec] for vec in tangent]
    # eigenspace split: members of ker J supported on a single weight block
    t1 = len(cols1) - _rank_on_columns(rows, cols1)
    t2 = len(cols2) - _rank_on_columns(rows, cols2)
    record["split_dims"] = [t1, t2]
    splits = t1 + t2 == tdim
    record["splits"] = splits
    if not splits:
        record["hypothesis_failures"].append(
            "the tangent space does not split along the weight grading"
        )
    # stability: symbolic for weighted-homogeneous data, else sampled
    sample_points = _sample_points(S, samples, random.Random(seed))
    if all(weighted_degree(q, action.weights) is not None for q in S.polynomials):
        record["stability"] = "symbolic"
    elif not sample_points:
        record["stability"] = "unverified"
        record["hypothesis_failures"].append(
            "stability could not be checked: no sample points available"
        )
    else:
        record["stability"] = "sampled"
        for x in sample_points:
            moved = action.act(action.alpha, x)
            for i, f in enumerate(S.equations):
                val = f.evaluate(moved)
                if val.valuation is not None:
                    record["verdict"] = "hypotheses not met"
                    record["reason"] = (
                        "the locus is not stable under the action at a sampled point"
                    )
                    record["unstable_equation"] = i
                    record["unstable_point"] = [c.to_json() for c in x]
                    return record
    # the target must contain the origin and the projected samples
    try:
        target_tangent = tangent_space_at_zero(target)
    except DomainError:
        record["verdict"] = "hypotheses not met"
        record["reason"] = "the target locus misses the origin"
        return record
    record["target_tangent_dim"] = len(target_tangent)
    for x in sample_points:
        proj = tuple(x[j] for j in cols2)
        for i, f in enumerate(target.equations):
            try:
                val = f.evaluate(proj)
            except (DomainError, PrecisionError):
                record["hypothesis_failures"].append(
                    "a projected sample leaves the target disc"
                )
                break
            if val.valuation is not None:
                record["hypothesis_failures"].append(
                    "a projected sample is provably outside the target locus"
                )
                break
    # surjectivity of the projection T_0(S) -> T_0(target)
    target_rows = _jacobian_rows(target.polynomials, len(cols2))
    proj_ok = True
    for vec in tangent:
        proj = [vec[j] for j in cols2]
        for row in target_rows:
            acc = _CYC_ZERO
            for a, b in zip(row, proj):
                acc = acc + a * b
            if not acc.is_zero():
                proj_ok = False
    record["projection_in_target_tangent"] = proj_ok
    if not proj_ok:
        record["hypothesis_failures"].append(
            "a tangent vector projects outside the tangent space of the target"
        )
    image_dim = tdim - t1
    surjective = proj_ok and image_dim == len(target_tangent)
    record["surjective"] = surjective
    if not surjective:
        record["hypothesis_failures"].append(
            "the projection of T_0(S) does not cover T_0 of the target"
        )
    # conclusion: S inside its own tangent space
    if _reduces_to_linear(S.polynomials, dim):
        record["conclusion"] = "exact"
        record["verdict"] = "holds"
        return record
    record["samples_used"] = len(sample_points)
    for x in sample_points:
        for i, f in enumerate(S.equations):
            row = [f.terms.get(_unit_exp(dim, j)) for j in range(dim)]
            total = None
            for c, coord in zip(row, x):
                if c is None:
                    continue
                val = c * coord
                total = val if total is None else total + val
            if total is not None and total.valuation is not None:
                record["conclusion"] = "sampled"
                record["verdict"] = "fails at point"
                record["failing_point"] = [c.to_json() for c in x]
                record["failing_equation"] = i
                record["failing_value"] = total.to_json()
                return record
    record["conclusion"] = "sampled" if sample_points else "unavailable"
    if record["hypothesis_failures"]:
        record["verdict"] = "hypotheses not met"
        record["reason"] = record["hypothesis_failures"][0]
    else:
        record["verdict"] = "undetermined"
    return record
