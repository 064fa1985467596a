"""Laurent polynomials in several variables over cyclotomic coefficients.

Terms map integer exponent vectors (negative entries allowed) to nonzero
CycNumber coefficients.  The zero polynomial is the empty term dict.
Arithmetic is exact.  `complexes` evaluates entries at torsion
characters, where every variable is a root of unity, so negative
exponents are fine.
"""

from fractions import Fraction

from .cyclotomic import CycNumber, cyc_from_json, cyc_to_json
from .padic import _json_int


def _coerce_coeff(c):
    if isinstance(c, CycNumber):
        return c
    return CycNumber.from_rational(Fraction(c))


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError("exponent arity mismatch")
            c = _coerce_coeff(c)
            if not c.is_zero():
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, power=1):
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {tuple(exp): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(
                "t%d^%d" % (i + 1, e) for i, e in enumerate(exp) if e
            )
            c = self.terms[exp]
            bits.append("(%r)%s" % (c, "*" + mono if mono else ""))
        return "LaurentPoly(%s)" % " + ".join(bits)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            got = out.get(exp)
            out[exp] = c if got is None else got + c
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                got = out.get(exp)
                out[exp] = c if got is None else got + c
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def shift(self, exp):
        """Multiply by the monomial t**exp (a unit of the Laurent ring)."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms.items()},
        )

    def scale(self, c):
        return LaurentPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json(self):
        return [
            {"coeff": cyc_to_json(c), "exp": list(exp)} for exp, c in self.sorted_terms()
        ]


def laurent_from_json(nvars, doc):
    terms = {}
    for item in doc:
        exp = tuple(_json_int(e) for e in item["exp"])
        c = cyc_from_json(item["coeff"])
        got = terms.get(exp)
        terms[exp] = c if got is None else got + c
    return LaurentPoly(nvars, terms)


def laurent_det(rows):
    """Determinant by cofactor expansion; entries are LaurentPoly."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return rows[0][0]
    nv = rows[0][0].nvars
    total = LaurentPoly.zero(nv)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = entry * laurent_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
