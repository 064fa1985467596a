"""Exact p-adic scalars at finite relative precision.

There is one scalar type, `UnramifiedScalar`: an element of the
unramified coefficient ring Q_{p^f}, stored as p**v times a coefficient
vector relative to the basis 1, x, ..., x**(f-1) modulo a fixed monic
degree-f polynomial that is irreducible mod p.  ``modulus_poly`` pins
the deterministic choice so serialized values never need to ship the
modulus.  A nonzero scalar is the coset ``p**v * (c + p**M * O)`` for a
unit vector c (some coordinate prime to p) reduced into [0, p**M).  The
coset is tracked exactly: arithmetic here is integer arithmetic on coset
data, never floating approximation.  A quantity that cannot be
distinguished from zero is tagged "zero to absolute precision N" and
stands for the coset ``p**N * O``; it remembers N and nothing else, and
N may be any integer.  Norms follow the convention |p| = 1/p, so a
valuation-v element has norm p**(-v).

`PadicScalar` is the f = 1 face of the same type, Q_p itself: it adds
the familiar (p, v, u, rel_prec) constructor, rational inputs and the
residue as an integer.  A result is a `PadicScalar` whenever every
scalar operand is one, so Q_p data keeps its type; f = 1 data typed as
`UnramifiedScalar` (a Teichmuller lift, say) keeps that type.  Both
serialize to the same flat f = 1 JSON form.  An element of the residue
field F_{p^f} is a scalar known mod p: a unit, or the zero coset O(p).
Ramified data (fractional valuations, radii at the convergence
boundary) is rejected, not approximated.

Every product of coefficient vectors goes through one mul-mod kernel,
`_vec_mul_mod`.  `padic_exp` splits its argument into bit-burst blocks
(Brent 1976), one CPython int digit wide and then doubling, and sums
each block's series by Horner's rule in chunks of about sqrt(J) terms
(Paterson-Stockmeyer 1973), with one inverse of the factorial's unit
part for the whole product.  `padic_log` sums its series by Horner's
rule over lcm(1, ..., K-1) from a prime sieve.  Both carry p-power
guard digits, so every digit they return is exact.
"""

import math
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .linalg import rank_mod_prime


class PrecisionError(ArithmeticError):
    """Raised when stored precision cannot support the requested answer."""


class DomainError(ValueError):
    """Input lies outside the convergence region of the requested map."""


class Refusal(Exception):
    """An explicit refusal: the CLI exits 1 with {"refusal": message}."""


# deterministic Miller-Rabin: these bases decide primality below the limit
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_PRIMES_SEEN = set()


def _is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    if p in _PRIMES_SEEN:
        return p
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be a prime >= 2")
    if p >= _MR_LIMIT:
        raise ValueError("p must be below %d, where the primality test is a proof" % _MR_LIMIT)
    if not _is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    _PRIMES_SEEN.add(p)
    return p


def digit_sum(n, p):
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def int_valuation(n, p):
    """(v, unit) with n == p**v * unit, for n != 0."""
    if n == 0:
        raise ValueError("valuation of integer zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


# the most working precision, prec * f * log2 p bits, of a lift, exp or log
_PRECISION_CAP_BITS = 16384


def _check_precision(p, f, prec, error=ValueError):
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if prec * f * math.log2(p) > _PRECISION_CAP_BITS:
        raise error("precision %d is over the cap of %d bits" % (prec, _PRECISION_CAP_BITS))


def exp_domain_bound(p):
    # convergence disc of the exponential: |x| <= 1/p for odd p, 1/4 for p = 2
    return 2 if p == 2 else 1


# ---------------------------------------------------------------------------
# the polynomial mul-mod kernel, shared by the modulus search, scalars and lifts
# ---------------------------------------------------------------------------


_WORD_BITS = sys.int_info.bits_per_digit


def _word_digits(p):
    # the most base-p digits whose value fits in one CPython int digit
    return max(1, int(_WORD_BITS / math.log2(p)))


def _vec_mul_mod(a, b, h, pm):
    # a, b: little-endian coefficient vectors of length <= f, h monic of
    # degree f; the product reduced by h over Z, then once mod pm
    f = len(h) - 1
    if f == 1:
        return [a[0] * b[0] % pm]
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * f - 2, f - 1, -1):
        c = prod[k]
        if c:
            for i in range(f):
                prod[k - f + i] -= c * h[i]
    return [c % pm for c in prod[:f]]


def _vec_pow_mod(a, e, h, pm):
    f = len(h) - 1
    result = [1] + [0] * (f - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _vec_mul_mod(result, base, h, pm)
        e >>= 1
        if e:
            base = _vec_mul_mod(base, base, h, pm)
    return result


def _vec_inverse_mod(a, p, h, m):
    # inverse of a unit vector mod (h, p**m), Newton-lifted through
    # doubling precisions from the residue's inverse in F_(p^f); over
    # Q_p from a one-word inverse, since pow(a, -1, N) is quadratic
    if len(h) == 2:
        prec = min(m, _word_digits(p))
        cur = [pow(a[0], -1, p ** prec)]
    else:
        prec = 1
        cur = _vec_pow_mod([c % p for c in a], p ** (len(h) - 1) - 2, h, p)
    while prec < m:
        prec = min(2 * prec, m)
        pm = p ** prec
        two_minus = [-c % pm for c in _vec_mul_mod(a, cur, h, pm)]
        two_minus[0] = (two_minus[0] + 2) % pm
        cur = _vec_mul_mod(cur, two_minus, h, pm)
    return cur


# ---------------------------------------------------------------------------
# the deterministic modulus
# ---------------------------------------------------------------------------


def _is_irreducible(coeffs, p, f):
    # coeffs: little-endian of monic degree-f h over F_p.  h divides
    # x^(p^f) - x exactly when it is squarefree with factor degrees
    # dividing f; then Berlekamp's Q - I (row i is x^(p i) mod h minus
    # e_i) has nullity the number of factors (Berlekamp 1967).  Q is
    # the matrix of the F_p-linear Frobenius, so f products by Q take x
    # to x^(p^f) with no power of x of p^f bits
    h = list(coeffs)
    if f == 1:
        return True
    xp = _vec_pow_mod([0, 1], p, h, p)
    row, frob = [1] + [0] * (f - 1), []
    for _ in range(f):
        frob.append(row)
        row = _vec_mul_mod(row, xp, h, p)
    x = [0, 1] + [0] * (f - 2)
    y = x
    for _ in range(f):
        y = [sum(map(mul, y, col)) % p for col in zip(*frob)]
    if y != x:
        return False
    rows = [[(c - (i == j)) % p for j, c in enumerate(r)] for i, r in enumerate(frob)]
    return rank_mod_prime(rows, p) == f - 1


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_MODULUS_CACHE = {}
# the largest residue degree f.  At f = 20 the modulus search takes
# 0.005 s at p = 2 and 0.5 s at p = 101 and near the largest prime, but
# 4.9 s at p = 1181, whose first 1181 candidates are all reducible.
# Every root of unity under the residue-field cap has f <= 19
_DEGREE_CAP = 20
# the most elements of a residue field the generator search walks
_RESIDUE_FIELD_CAP = 10 ** 6


def modulus_poly(p, f):
    """Deterministic modulus for Q_{p^f}.

    The first monic degree-f polynomial, in lexicographic order of the
    little-endian coefficient tuple (a_0, ..., a_{f-1}) with entries in
    [0, p), that is irreducible over F_p (from a_0 = 1 when f > 1: x
    divides the rest); returned little-endian including the leading 1.
    This is an invented pinned convention: any fixed irreducible would
    do, determinism is what matters.  The k-th candidate is read off
    the base-p digits of p**(f-1) + k, so no range of p values is held.
    """
    check_prime(p)
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    key = (p, f)
    got = _MODULUS_CACHE.get(key)
    if got is not None:
        return got
    if f > _DEGREE_CAP:
        raise ValueError("residue degree %d is over the cap of %d" % (f, _DEGREE_CAP))
    if f == 1:
        _MODULUS_CACHE[key] = (0, 1)
        return (0, 1)
    for k in range(p ** (f - 1), p ** f):
        cand = tuple(reversed(_digits(k, p, f))) + (1,)
        if _is_irreducible(cand, p, f):
            _MODULUS_CACHE[key] = cand
            return cand
    raise AssertionError("no irreducible polynomial found; unreachable")


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


class UnramifiedScalar:
    """Element of Q_{p^f} as p**v times a unit coefficient vector.

    Coefficients share one relative precision M: the element is known
    coefficientwise modulo p**(v + M).  The valuation of an element equals
    the minimum of its coefficient valuations, which is what makes the
    unit normalization (some coefficient a unit) canonical.
    """

    __slots__ = ("p", "f", "v", "coeff", "M", "zprec")

    def __init__(self, p, f, v, coeff, rel_prec):
        check_prime(p)
        self.p = p
        self.f = f
        if rel_prec < 1:
            raise ValueError("relative precision must be >= 1")
        if len(coeff) != f:
            raise ValueError("need %d coefficients" % f)
        pm = p ** rel_prec
        coeff = tuple(c % pm for c in coeff)
        if all(c % p == 0 for c in coeff):
            raise ValueError("unit part must be a unit (some coefficient prime to p)")
        self.v = v
        self.coeff = coeff
        self.M = rel_prec
        self.zprec = None

    @classmethod
    def _new(cls, p, f, v, coeff, m):
        # trusted constructor for data already normalized: a unit vector
        # reduced mod p**m, or with v None the zero coset O(p**m)
        x = object.__new__(cls)
        x.p, x.f, x.v = p, f, v
        if v is None:
            x.coeff, x.M, x.zprec = (0,) * f, 0, m
        else:
            x.coeff, x.M, x.zprec = coeff, m, None
        return x

    @classmethod
    def _normalized(cls, p, f, coeffs, shift, n):
        # p**shift times the integer vector coeffs, known mod p**n, as p**v
        # times a unit vector mod p**(n - v), or else the zero coset O(p**n)
        k = n - shift
        if k > 0:
            pk = p ** k
            coeffs = [c % pk for c in coeffs]
            vmin = min([int_valuation(c, p)[0] for c in coeffs if c] + [k])
            if vmin < k:
                pv, pm = p ** vmin, p ** (k - vmin)
                return cls._new(p, f, shift + vmin, tuple(c // pv % pm for c in coeffs), k - vmin)
        return cls._new(p, f, None, None, n)

    @classmethod
    def _from_rational(cls, p, f, q, n):
        # the rational q in Q_{p^f}, known mod p**n
        vd, ud = int_valuation(q.denominator, p)
        unit = q.numerator * pow(ud, -1, p ** max(n + vd, 0))
        return cls._normalized(p, f, (unit,) + (0,) * (f - 1), -vd, n)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero_at(cls, p, f, abs_prec):
        return cls._new(check_prime(p), f, None, None, abs_prec)

    @classmethod
    def one(cls, p, f, rel_prec):
        return cls(p, f, 0, (1,) + (0,) * (f - 1), rel_prec)

    @classmethod
    def from_padic(cls, x, f):
        """The Q_p value x (of either class) inside Q_{p^f}."""
        if x.f != 1:
            raise ValueError("cannot mix extensions of degree %d and %d" % (x.f, f))
        m = x.zprec if x.v is None else x.M
        return cls._new(x.p, f, x.v, x.coeff + (0,) * (f - 1), m)

    # -- queries -----------------------------------------------------------

    @property
    def abs_prec(self):
        return self.zprec if self.v is None else self.v + self.M

    @property
    def valuation(self):
        # None means "only a lower bound, namely abs_prec, is known"
        return self.v

    def norm_exponent(self):
        """e with |x| = p**(-e); for a zero coset this is a lower bound."""
        return self.zprec if self.v is None else self.v

    def residue(self):
        """Image in the residue field F_{p^f} = O/pO, the scalar known mod
        p (zero is the coset O(p)); requires v >= 0."""
        if self.v is not None and self.v < 0:
            raise ValueError("residue of a non-integral scalar")
        return self.truncate_abs(1)

    def truncate_abs(self, n):
        """The same coset coarsened to absolute precision n."""
        if n > self.abs_prec:
            raise PrecisionError("cannot refine precision from %d to %d" % (self.abs_prec, n))
        return self._normalized(self.p, self.f, self.coeff, self.norm_exponent(), n)

    def __eq__(self, other):
        if not isinstance(other, UnramifiedScalar):
            return NotImplemented
        return (
            (self.p, self.f, self.v, self.coeff, self.M, self.zprec)
            == (other.p, other.f, other.v, other.coeff, other.M, other.zprec)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.v, self.coeff, self.M, self.zprec))

    def __repr__(self):
        name = type(self).__name__
        if self.v is None:
            return "%s(p=%d, f=%d, O(p^%d))" % (name, self.p, self.f, self.zprec)
        return "%s(p=%d, f=%d, p^%d * (%s + O(p^%d)))" % (
            name,
            self.p,
            self.f,
            self.v,
            list(self.coeff),
            self.M,
        )

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        """(x, y, cls): self and other over one Q_{p^f} and the class of
        their result, or None for an operand of another type.  Exact
        rationals enter at whatever absolute precision self carries."""
        p, f = self.p, self.f
        if isinstance(other, (int, Fraction)):
            return self, self._from_rational(p, f, Fraction(other), self.abs_prec), type(self)
        if not isinstance(other, UnramifiedScalar):
            return None
        if other.p != p:
            raise ValueError("mixed primes")
        cls = type(self) if type(other) is type(self) else UnramifiedScalar
        if other.f == f:
            return self, other, cls
        if other.f == 1:
            return self, UnramifiedScalar.from_padic(other, f), cls
        if f == 1:
            return UnramifiedScalar.from_padic(self, other.f), other, cls
        raise ValueError("mixed extension degrees %d and %d" % (f, other.f))

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y, cls = pair
        p, f = x.p, x.f
        n = min(x.abs_prec, y.abs_prec)
        # common shift keeps everything integral when valuations are negative;
        # a nonzero term with valuation >= n vanishes mod p**n
        shift = min([t.v for t in (x, y) if t.v is not None] + [n])
        total = [0] * f
        for t in (x, y):
            if t.v is not None:
                scale = p ** (t.v - shift)
                for i, c in enumerate(t.coeff):
                    total[i] += scale * c
        return cls._normalized(p, f, total, shift, n)

    __radd__ = __add__

    def __neg__(self):
        if self.v is None:
            return self
        pm = self.p ** self.M
        return self._new(self.p, self.f, self.v, tuple(-c % pm for c in self.coeff), self.M)

    def __sub__(self, other):
        if not isinstance(other, (UnramifiedScalar, int, Fraction)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                # exact zero has no representation here; a coset bound must do
                return self._new(self.p, self.f, None, None, self.abs_prec)
            return self.divexact_rational(1 / Fraction(other))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y, cls = pair
        p, f = x.p, x.f
        if x.v is None or y.v is None:
            return cls._new(p, f, None, None, x.norm_exponent() + y.norm_exponent())
        m = min(x.M, y.M)
        unit = _vec_mul_mod(x.coeff, y.coeff, modulus_poly(p, f), p ** m)
        return cls._new(p, f, x.v + y.v, tuple(unit), m)

    __rmul__ = __mul__

    def inverse(self):
        if self.v is None:
            raise ZeroDivisionError("not invertible at this precision")
        p, f, m = self.p, self.f, self.M
        cur = _vec_inverse_mod(self.coeff, p, modulus_poly(p, f), m)
        return self._new(p, f, -self.v, tuple(cur), m)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.divexact_rational(other)
        if not isinstance(other, UnramifiedScalar):
            return NotImplemented
        return self * other.inverse()

    def divexact_rational(self, q):
        """Exact division by a rational; no precision is lost."""
        q = Fraction(q)
        if q == 0:
            raise ZeroDivisionError
        p = self.p
        vn, un = int_valuation(q.numerator, p)
        vd, ud = int_valuation(q.denominator, p)
        scale, shift = pow(un, -1, p ** self.M) * ud, vd - vn
        coeffs = [c * scale for c in self.coeff]
        return self._normalized(p, self.f, coeffs, self.norm_exponent() + shift, self.abs_prec + shift)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if self.v is None:
            if e <= 0:
                raise ZeroDivisionError("power of zero coset with exponent <= 0")
            return self._new(self.p, self.f, None, None, self.zprec * e)
        base = self if e >= 0 else self.inverse()
        unit = _vec_pow_mod(base.coeff, abs(e), modulus_poly(self.p, self.f), self.p ** self.M)
        return self._new(self.p, self.f, base.v * abs(e), tuple(unit), self.M)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        # f = 1 is Q_p itself; serialize through the flat form so the
        # document does not depend on which class held the value
        if self.v is None:
            return {"p": self.p, "f": self.f, "v": "zero", "unit_digits": [], "rel_prec": self.zprec}
        digits = [_digits(c, self.p, self.M) for c in self.coeff]
        return {
            "p": self.p,
            "f": self.f,
            "v": self.v,
            "unit_digits": digits[0] if self.f == 1 else digits,
            "rel_prec": self.M,
        }


class PadicScalar(UnramifiedScalar):
    """Element of Q_p known exactly modulo p**(v + M): the f = 1 scalar."""

    __slots__ = ()

    def __init__(self, p, v, u, rel_prec):
        super().__init__(p, 1, v, (u,), rel_prec)

    @classmethod
    def zero_at(cls, p, abs_prec):
        return super().zero_at(p, 1, abs_prec)

    @classmethod
    def one(cls, p, rel_prec):
        return cls(p, 0, 1, rel_prec)

    @classmethod
    def from_fraction(cls, p, q, rel_prec):
        q = Fraction(q)
        if rel_prec < 1:
            raise ValueError("relative precision must be >= 1")
        check_prime(p)
        v = int_valuation(q.numerator, p)[0] - int_valuation(q.denominator, p)[0] if q else 0
        return cls._from_rational(p, 1, q, v + rel_prec)

    @classmethod
    def from_int(cls, p, n, rel_prec):
        return cls.from_fraction(p, n, rel_prec)

    def residue(self):
        """Image in F_p as an integer; requires v >= 0."""
        return super().residue().coeff[0]


def _split_words(n, base, k):
    # the k little-endian base-`base` words of 0 <= n < base**k, halving
    # the word count per division (Brent and Zimmermann, Modern Computer
    # Arithmetic, 1.7)
    if k <= 8:
        out = []
        for _ in range(k):
            n, r = divmod(n, base)
            out.append(r)
        return out
    h = k // 2
    hi, lo = divmod(n, base ** h)
    return _split_words(lo, base, h) + _split_words(hi, base, k - h)


def _join_words(words, base):
    # inverse of _split_words
    if len(words) <= 8:
        n = 0
        for x in reversed(words):
            n = n * base + x
        return n
    h = len(words) // 2
    return _join_words(words[:h], base) + _join_words(words[h:], base) * base ** h


def _digits(n, p, count):
    """The count lowest base-p digits of n, little-endian: split into
    words of w = _word_digits(p) digits, which each fit one machine
    digit, then w digits per word.  Up to 8 words, n is taken digit by
    digit as it is."""
    w = _word_digits(p)
    n %= p ** count
    if count <= 8 * w:
        words, w = [n], count
    else:
        words = _split_words(n, p ** w, -(-count // w))
    out = []
    for x in words:
        for _ in range(w):
            out.append(x % p)
            x //= p
    del out[count:]
    return out


def _undigits(ds, p):
    """The integer with little-endian base-p digits ds, each a JSON
    integer in [0, p); the inverse of `_digits`, joining words of
    _word_digits(p) digits (up to 8 words, one word of all digits)."""
    if not set(map(type, ds)) <= {int}:
        for d in ds:
            _json_int(d)
    if ds and not 0 <= min(ds) <= max(ds) < p:
        raise ValueError("digits must lie in [0, %d)" % p)
    w = _word_digits(p)
    if len(ds) <= 8 * w:
        w = max(len(ds), 1)
    words = []
    for k in range(0, len(ds), w):
        x = 0
        for d in reversed(ds[k:k + w]):
            x = x * p + d
        words.append(x)
    return _join_words(words, p ** w)


def _json_int(x):
    """x itself when it is a JSON integer; bools and every other type
    are rejected rather than truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("expected an integer, got %r" % (x,))
    return x


def scalar_from_json(doc):
    p = _json_int(doc["p"])
    f = _json_int(doc.get("f", 1))
    n = _json_int(doc["rel_prec"])
    if n < 1:
        # arithmetic may coarsen a zero coset below O(1); a document may not
        raise ValueError("relative precision must be >= 1")
    # refused before p**n is built, as an ArithmeticError: the decoders
    # pass it through, so it exits 1 like every other precision cap
    _check_precision(check_prime(p), f, n, PrecisionError)
    if doc["v"] == "zero":
        if f == 1:
            return PadicScalar.zero_at(p, n)
        return UnramifiedScalar.zero_at(p, f, n)
    v = _json_int(doc["v"])
    if f == 1:
        return PadicScalar(p, v, _undigits(doc["unit_digits"], p), n)
    coeffs = tuple(_undigits(ds, p) for ds in doc["unit_digits"])
    return UnramifiedScalar(p, f, v, coeffs, n)


def coset_eq(x, y):
    """Equality of the cosets after coarsening to the shared precision."""
    n = min(x.abs_prec, y.abs_prec)
    a, b = x.truncate_abs(n), y.truncate_abs(n)
    return a == b


# ---------------------------------------------------------------------------
# multiplicative lifts
# ---------------------------------------------------------------------------


_GENERATOR_CACHE = {}


def multiplicative_generator(p, f):
    """Lex-smallest generator of F_{p^f}^* (pinned convention), as a unit
    known mod p: the first nonzero coefficient vector g, with the last
    coordinate varying fastest, such that g^((q-1)/r) != 1 for every
    prime r dividing q - 1."""
    key = (p, f)
    got = _GENERATOR_CACHE.get(key)
    if got is not None:
        return got
    q = p ** f
    if q > _RESIDUE_FIELD_CAP:
        raise ValueError("residue field too large for the generator search (q = %d)" % q)
    h = modulus_poly(p, f)
    one = [1] + [0] * (f - 1)
    cofactors = [(q - 1) // r for r in set(_prime_factors(q - 1))]
    for k in range(1, q):
        g = tuple(reversed(_digits(k, p, f)))
        if all(_vec_pow_mod(g, c, h, p) != one for c in cofactors):
            _GENERATOR_CACHE[key] = got = UnramifiedScalar._new(p, f, 0, g, 1)
            return got
    raise AssertionError("cyclic group without generator; unreachable")


def teichmuller(xi, prec):
    """Multiplicative lift of the residue of a unit scalar xi.

    Returns the unique unit congruent to xi mod p whose (p**f - 1)-th
    power is exactly 1, to relative precision prec.  Computed by
    iterating the q-power map (q = p**f), which fixes the residue and
    gains at least f digits per step, as (1 + p**k u)**q = 1 mod
    p**(k + f).
    """
    if xi.v != 0:
        raise ValueError("zero has no multiplicative lift")
    p, f = xi.p, xi.f
    _check_precision(p, f, prec)
    h = modulus_poly(p, f)
    pm = p ** prec
    q = p ** f
    t = [c % p for c in xi.coeff]
    for _ in range(prec + 2):
        nxt = _vec_pow_mod(t, q, h, pm)
        if nxt == t:
            break
        t = nxt
    else:
        raise AssertionError("q-power iteration failed to stabilize; unreachable")
    return UnramifiedScalar(p, f, 0, tuple(t), prec)


def _residue_degree(p, n):
    """The order f of p mod n, for n prime to p: the least residue degree
    whose unit group holds the n-th roots of unity.  The search stops, with
    ValueError, once p**f passes the residue-field cap."""
    f = 1
    acc = p % n
    while acc != 1 % n and p ** f <= _RESIDUE_FIELD_CAP:
        acc = acc * p % n
        f += 1
    if p ** f > _RESIDUE_FIELD_CAP:
        raise ValueError(
            "embedding needs residue field of size at least %d^%d; refusing beyond 10^6"
            % (p, f)
        )
    return f


def embed_root_of_unity(p, frac, prec):
    """Root of unity exp-analog of a rational angle c/n, gcd(n, p) = 1.

    Picks the unramified coefficient ring Q_{p^f} with f the
    multiplicative order of p mod n, sends the angle 1/n to
    g**((p**f - 1)/n) for the pinned lex-smallest generator g of the
    residue field, and lifts multiplicatively.  Refuses a residue field
    search past 10**6 elements, and a precision over the working-precision
    cap: the trivial angle checks it at f = 1, the lift at its own f.
    """
    check_prime(p)
    frac = Fraction(frac) % 1
    if frac == 0:
        _check_precision(p, 1, prec)
        return UnramifiedScalar.one(p, 1, prec)
    n = frac.denominator
    c = frac.numerator
    if n % p == 0:
        raise ValueError("order divisible by p has no unramified root of unity")
    f = _residue_degree(p, n)
    g = multiplicative_generator(p, f)
    omega = teichmuller(g, prec)
    return omega ** ((p ** f - 1) // n * c)


# ---------------------------------------------------------------------------
# exponential and logarithm
# ---------------------------------------------------------------------------


def _exp_term_count(v, p, n):
    # least J >= 1 with j*(v*(p-1) - 1) + 1 >= n*(p-1) for every j >= J;
    # the left side is increasing in j because v > 1/(p-1) on the domain
    return max(1, -(-(n * (p - 1) - 1) // (v * (p - 1) - 1)))


def _log_term_count(w, p, n):
    k = 1
    while not (k * w >= n and p ** (k * w - n) >= k):
        k += 1
    return k


def _lcm_upto(k):
    # lcm(1, ..., k): the product of the largest power <= k of each prime
    sieve = bytearray([1]) * (k + 1)
    lcm = 1
    for q in range(2, k + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, k + 1, q)))
            qe = q
            while qe * q <= k:
                qe *= q
            lcm *= qe
    return lcm


def _exp_domain_check(x):
    bound = exp_domain_bound(x.p)
    if x.v is None:
        if x.zprec >= bound:
            return
        raise PrecisionError(
            "exp domain needs norm <= 1/p^%d; input only known to O(p^%d)" % (bound, x.zprec)
        )
    if x.v < bound:
        raise DomainError("exp domain requires valuation >= %d, got %d" % (bound, x.v))


def _exp_block(x, v, p, n, h, pn):
    """(N, u) with N / u = exp(x) mod p**n, for a coefficient vector x
    of valuation >= v and a rational unit u.

    With J terms, exp(x) = N / M for N = sum_{j<J} (J-1)!/j! x^j and
    M = (J-1)!.  Horner's rule builds the pair from (1, 1) by the steps
    (N, M) -> (x*N + t*M, t*M), t = J-1, ..., 1.  The first steps run
    one by one while the pair is still small; the rest run in chunks of
    s ~ sqrt(J) (Paterson-Stockmeyer): s steps down from t = hi take
    (N, M) to (x^s*N + a*M, P_s*M), where P_k = hi*(hi-1)*...*(hi-k+1)
    and a = sum_{k<s} P_(s-k) x^k, one small exact sum over the powers
    x^0, ..., x^s that the block computes once.  Both sides are kept mod
    p**(n + guard), guard = v_p((J-1)!), so dividing out p**guard
    leaves N mod p**n and the unit part u of (J-1)!.
    """
    f = len(x)
    j_count = _exp_term_count(v, p, n)
    guard = (j_count - 1 - digit_sum(j_count - 1, p)) // (p - 1)
    pg = p ** guard
    pm = pn * pg
    # over Q_p and below about eight words a step costs the same at any
    # width, so chunks would only add their own work: every step runs
    # one by one.  With f > 1 a step is f*f products whose reduction mod
    # h leaves full-width residues, and chunks pay at any width.
    size = j_count if f == 1 and pm >> 8 * _WORD_BITS == 0 else math.isqrt(j_count - 1) + 1
    top = (j_count - 1) // size * size
    num, den = [1] + [0] * (f - 1), 1
    for t in range(j_count - 1, top, -1):
        num = _vec_mul_mod(num, x, h, pm)
        den *= t
        num[0] += den
    if top:
        powers = [[1] + [0] * (f - 1)]
        for _ in range(size):
            powers.append(_vec_mul_mod(powers[-1], x, h, pm))
        columns = list(zip(*powers))
        for hi in range(top, 0, -size):
            steps = list(accumulate(range(hi, hi - size, -1), mul))
            m = steps[-1]
            steps.reverse()
            num = _vec_mul_mod(num, powers[size], h, pm)
            num = [(c + sum(map(mul, steps, col)) * den) % pm for c, col in zip(num, columns)]
            den = den * m % pm
    out = []
    for c in num:
        if c % pg:
            raise AssertionError("factorial guard mismatch; unreachable")
        out.append(c // pg)
    return out, den // pg


def padic_exp(x, prec=None):
    """exp on its convergence disc: valuation >= 1 (>= 2 when p = 2).

    The result is a unit congruent to 1, of the input's class; it is
    determined exactly to the input's absolute precision, so prec beyond
    that raises PrecisionError.

    The argument, reduced mod p**n, is cut into bit-burst blocks of
    base-p digits (Brent 1976): the first holds as many digits as fit
    in one CPython int digit, each later one twice as many as the one
    before, and exp(x) is the product of the blocks' exponentials.  A
    block starting at digit e needs about n/e series terms, so the wide
    blocks are short series and the long series has a one-word argument.
    """
    _exp_domain_check(x)
    p, f = x.p, x.f
    avail = x.abs_prec
    n = avail if prec is None else prec
    _check_precision(p, f, n)
    if n > avail:
        raise PrecisionError("exp target precision %d exceeds input precision %d" % (n, avail))
    if x.v is None or x.v >= n:
        return x._new(p, f, 0, (1,) + (0,) * (f - 1), n)
    v = x.v
    h = modulus_poly(p, f)
    pn = p ** n
    rep = [c * p ** v % pn for c in x.coeff]
    out, unit = None, 1
    start, width, low = 0, _word_digits(p), [0] * f
    while low != rep:
        below, low = low, [c % p ** (start + width) for c in rep]
        if low != below:
            block = [c - b for c, b in zip(low, below)]
            e, u = _exp_block(block, max(v, start), p, n, h, pn)
            out = e if out is None else _vec_mul_mod(out, e, h, pn)
            unit = unit * u % pn
        start, width = start + width, 2 * width
    w_inv = _vec_inverse_mod([unit], p, (0, 1), n)[0]
    return x._new(p, f, 0, tuple([c * w_inv % pn for c in out]), n)


def padic_log(x, prec=None):
    """log on units congruent to 1 mod p (mod 4 when p = 2); the result
    has the input's class."""
    p, f = x.p, x.f
    bound = exp_domain_bound(p)
    if x.v is None:
        raise DomainError("log needs a unit congruent to 1, got a zero coset")
    if x.v != 0:
        raise DomainError("log domain requires a unit, got valuation %d" % x.v)
    z = x - 1
    avail = x.abs_prec
    n = avail if prec is None else prec
    _check_precision(p, f, n)
    if n > avail:
        raise PrecisionError("log target precision %d exceeds input precision %d" % (n, avail))
    if z.v is None:
        if z.zprec < bound:
            raise PrecisionError(
                "log domain needs norm <= 1/p^%d below 1; input only known to O(p^%d)"
                % (bound, z.zprec)
            )
        return x._new(p, f, None, None, min(n, z.zprec))
    if z.v < bound:
        raise DomainError("log domain requires valuation >= %d below 1, got %d" % (bound, z.v))
    w = z.v
    if w >= n:
        return x._new(p, f, None, None, n)
    k_count = _log_term_count(w, p, n)
    lcm = _lcm_upto(k_count - 1)
    guard = int_valuation(lcm, p)[0] if lcm % p == 0 else 0
    pm = p ** (n + guard)
    h = modulus_poly(p, f)
    rep = [c * p ** w % pm for c in z.coeff]
    # Horner over k in [1, k_count) of (-1)^(k+1) (lcm/k) z^k
    acc = [0] * f
    for k in range(k_count - 1, 0, -1):
        acc = _vec_mul_mod(acc, rep, h, pm) if any(acc) else acc
        sign = 1 if k % 2 == 1 else -1
        acc[0] = (acc[0] + sign * (lcm // k)) % pm
    acc = _vec_mul_mod(acc, rep, h, pm)
    pg = p ** guard
    w_inv = _vec_inverse_mod([lcm // pg], p, (0, 1), n)[0]
    out_coeff = []
    for s in acc:
        if s % pg:
            raise AssertionError("lcm guard mismatch; unreachable")
        out_coeff.append(s // pg * w_inv)
    return x._normalized(p, f, out_coeff, 0, n)
