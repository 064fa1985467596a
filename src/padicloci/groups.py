"""Finitely generated abelian groups and their rank-one characters.

A group is stored in its invariant-factor normal form, free rank plus a
divisibility chain, as produced by Smith reduction of a relation matrix.
Characters are continuous p-adic characters valued in unramified units.
The Teichmuller decomposition splits one into a finite-order part
and a pro-p part, and componentwise exp/log identifies the pro-p
characters near 1 with additive tangent vectors.
"""

from .intlinalg import diagonal_of, smith_normal_form
from .padic import (
    DomainError,
    PadicScalar,
    UnramifiedScalar,
    check_prime,
    coset_eq,
    padic_exp,
    padic_log,
    scalar_from_json,
    teichmuller,
)
from .series import PolyDisc


class FgAbGroup:
    """Free rank plus invariant factors m_1 | m_2 | ... (each >= 2).

    Generator order is fixed as free generators first, then one torsion
    generator per invariant factor.
    """

    __slots__ = ("rank", "invariant_factors")

    def __init__(self, rank, invariant_factors):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        factors = tuple(int(m) for m in invariant_factors)
        for i, m in enumerate(factors):
            if m < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and m % factors[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.rank = rank
        self.invariant_factors = factors

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash((self.rank, self.invariant_factors))

    def __repr__(self):
        parts = ["Z"] * self.rank + ["Z/%d" % m for m in self.invariant_factors]
        return "FgAbGroup(%s)" % (" + ".join(parts) if parts else "0")

    def to_json(self):
        return {"rank": self.rank, "invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["rank"], doc["invariant_factors"])


def smith_decompose(relations):
    """Group presented by Z^n modulo the rows of an integer matrix.

    Unit diagonal entries of the Smith form present trivial factors and
    are trimmed, zero entries contribute to the free rank.
    """
    if not relations or not relations[0]:
        raise ValueError("the relation matrix needs explicit shape; use zero rows")
    ncols = len(relations[0])
    _, d, _ = smith_normal_form(relations)
    diag = [x for x in diagonal_of(d) if x != 0]
    return FgAbGroup(ncols - len(diag), tuple(x for x in diag if x > 1))


# ---------------------------------------------------------------------------
# continuous p-adic characters
# ---------------------------------------------------------------------------


def _lift_f(x, f):
    # values are held as UnramifiedScalar, even at f = 1, so that their
    # residues lie in the residue field
    if x.f == f and not isinstance(x, PadicScalar):
        return x
    return UnramifiedScalar.from_padic(x, f)


def _unify_value(x, p, f):
    if not isinstance(x, UnramifiedScalar) or x.p != p:
        raise ValueError("character values must be scalars over the chosen prime")
    x = _lift_f(x, f)
    if x.valuation != 0:
        raise ValueError("character values must be units")
    return x


class ContinuousCharacter:
    """Unit-valued character of the group over Q_{p^f}.

    Free-generator values are arbitrary units; torsion-generator values
    must be exact roots of unity, which over an unramified ring means
    Teichmuller elements whose order divides the invariant factor.
    """

    __slots__ = ("group", "p", "f", "precision", "free_values", "torsion_values")

    def __init__(self, group, p, f, free_values, torsion_values):
        check_prime(p)
        free = tuple(_unify_value(x, p, f) for x in free_values)
        tors = tuple(_unify_value(x, p, f) for x in torsion_values)
        if len(free) != group.rank or len(tors) != len(group.invariant_factors):
            raise ValueError("value count must match the generator count")
        for x, m in zip(tors, group.invariant_factors):
            lift = teichmuller(x.residue(), x.M)
            if not coset_eq(x, lift):
                raise ValueError("torsion-generator values must be Teichmuller lifts")
            if m % x.residue().multiplicative_order() != 0:
                raise ValueError("torsion value order must divide the invariant factor")
        self.group = group
        self.p = p
        self.f = f
        self.free_values = free
        self.torsion_values = tors
        values = free + tors
        self.precision = min(x.M for x in values) if values else 0

    @property
    def values(self):
        return self.free_values + self.torsion_values

    def residue_character(self):
        """Residue of every value, in generator order."""
        return tuple(x.residue() for x in self.values)

    def has_trivial_residue(self):
        return all(r == r.one_like() for r in self.residue_character())

    def __mul__(self, other):
        if not isinstance(other, ContinuousCharacter):
            return NotImplemented
        if other.group != self.group or other.p != self.p:
            raise ValueError("characters live on different groups")
        f = max(self.f, other.f)
        return ContinuousCharacter(
            self.group,
            self.p,
            f,
            [a * b for a, b in zip(self.free_values, other.free_values)],
            [a * b for a, b in zip(self.torsion_values, other.torsion_values)],
        )

    def inverse(self):
        return char_pow(self, -1)

    def __eq__(self, other):
        if not isinstance(other, ContinuousCharacter):
            return NotImplemented
        if self.group != other.group or self.p != other.p:
            return False
        f = max(self.f, other.f)
        try:
            mine = [_lift_f(x, f) for x in self.values]
            theirs = [_lift_f(x, f) for x in other.values]
        except ValueError:
            return False
        return all(coset_eq(a, b) for a, b in zip(mine, theirs))

    __hash__ = None

    def __repr__(self):
        return "ContinuousCharacter(p=%d, f=%d, %d values)" % (
            self.p,
            self.f,
            len(self.values),
        )

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "p": self.p,
            "f": self.f,
            "free": [x.to_json() for x in self.free_values],
            "torsion": [x.to_json() for x in self.torsion_values],
        }

    @classmethod
    def from_json(cls, doc):
        group = FgAbGroup.from_json(doc["group"])
        return cls(
            group,
            doc["p"],
            doc["f"],
            [scalar_from_json(item) for item in doc["free"]],
            [scalar_from_json(item) for item in doc["torsion"]],
        )


# ---------------------------------------------------------------------------
# coordinates, powers, exp/log
# ---------------------------------------------------------------------------


def _check_pro_p(chi):
    if not chi.has_trivial_residue():
        raise DomainError("Teichmuller part nontrivial")
    for x in chi.torsion_values:
        if not coset_eq(x, UnramifiedScalar.one(chi.p, chi.f, x.M)):
            raise DomainError("a pro-p character is trivial on prime-to-p torsion")


def offset_coordinates(chi, radius_exp):
    """Coordinates chi(gamma_i) - 1 over the free generators.

    Realizes a pro-p character as a point of the polydisc of radius
    p**-radius_exp; the torsion coordinates are pinned to 1 and omitted.
    """
    _check_pro_p(chi)
    out = tuple(x - UnramifiedScalar.one(chi.p, chi.f, x.M) for x in chi.free_values)
    if out:
        PolyDisc(chi.p, len(out), radius_exp).check_contains(out)
    return out


def char_pow(chi, n):
    """The character chi**n, exact in the exponent."""
    return ContinuousCharacter(
        chi.group,
        chi.p,
        chi.f,
        [x ** n for x in chi.free_values],
        [x ** n for x in chi.torsion_values],
    )


def char_log(chi):
    """Componentwise p-adic logarithm over the free generators.

    Defined for pro-p characters whose offsets lie in the domain where
    log converges and inverts exp; torsion coordinates must be trivial
    and are dropped.
    """
    _check_pro_p(chi)
    return tuple(padic_log(x) for x in chi.free_values)


def char_exp(group, p, tangent_values, prec=None):
    """Character with free values exp(ell_i) and trivial torsion part.

    The inverse of char_log on the valid disc; tangent_values is one
    additive scalar per free generator.
    """
    tangent_values = tuple(tangent_values)
    if len(tangent_values) != group.rank:
        raise ValueError("one tangent value per free generator")
    outs = [padic_exp(x) for x in tangent_values]
    f = 1
    for x in outs:
        f = max(f, getattr(x, "f", 1))
    if prec is None:
        prec = min(x.M for x in outs) if outs else 24
    one = UnramifiedScalar.one(p, f, prec)
    return ContinuousCharacter(
        group, p, f, outs, (one,) * len(group.invariant_factors)
    )


def decompose_teichmuller(chi):
    """Split chi as the Teichmuller lift of its residue times a pro-p part.

    Returns ([chi-bar], chi_1) with the first factor of finite order
    dividing p^f - 1 and the second congruent to 1 mod p; the product
    recovers chi exactly at the working precision.
    """

    def split(x):
        t = teichmuller(x.residue(), x.M)
        return t, x * t.inverse()

    free = [split(x) for x in chi.free_values]
    tors = [split(x) for x in chi.torsion_values]
    finite = ContinuousCharacter(
        chi.group,
        chi.p,
        chi.f,
        [t for t, _ in free],
        [t for t, _ in tors],
    )
    pro_p = ContinuousCharacter(
        chi.group,
        chi.p,
        chi.f,
        [u for _, u in free],
        [u for _, u in tors],
    )
    return finite, pro_p
