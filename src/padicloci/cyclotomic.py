"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are rational coefficient vectors modulo the m-th cyclotomic
polynomial, computed once in integers as a product and quotient of
binomials x**k - 1.  Mixed orders are reconciled by lifting both operands
into Q(zeta_lcm) along x -> x**(lcm/m), so values of different declared
orders compare and combine exactly.  Everything is Fraction arithmetic;
there is no floating point and no root-of-unity approximation anywhere.

`modular_root` and `CycNumber.mod_image` give the reduction of Z[zeta_m]
at a prime ell = 1 (mod m): zeta_m goes to a primitive m-th root of unity
in F_ell, a ring homomorphism on the elements whose denominators are
prime to ell.  Callers use it for cheap rank bounds, never for answers
that the reduction alone cannot prove.
"""

import math
from fractions import Fraction

from .padic import _MR_LIMIT, _is_prime, _json_int, _prime_factors


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b):
    # dense little-endian over Fraction; b nonzero
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    _trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, _trim(a)


_CYC_CACHE = {1: (-1, 1)}


def cyclotomic_poly(m):
    """Little-endian integer coefficients of the m-th cyclotomic polynomial.

    It is the product of (x**(m/d) - 1)**mu(d) over the divisors d of
    rad(m): the factors with mu = 1 are multiplied in first, then the
    others are divided out exactly, each in one linear pass.
    """
    got = _CYC_CACHE.get(m)
    if got is not None:
        return got
    divisors = [(1, 1)]
    for q in set(_prime_factors(m)):
        divisors += [(d * q, -mu) for d, mu in divisors]
    num = [1]
    for d, mu in sorted(divisors, key=lambda dm: -dm[1]):
        k = m // d
        if mu == 1:
            out = [0] * k + num
            for i, c in enumerate(num):
                out[i] -= c
        else:
            out = [0] * (len(num) - k)
            for i in range(len(out)):
                out[i] = (out[i - k] if i >= k else 0) - num[i]
        num = out
    _CYC_CACHE[m] = out = tuple(num)
    return out


def _mod_cyclotomic(coeffs, m):
    phi = list(cyclotomic_poly(m))
    deg = len(phi) - 1
    # Fraction(c) only for a c that is neither a Fraction nor 0: a float stays exact
    zero = Fraction(0)
    a = [c if type(c) is Fraction else Fraction(c) if c else zero for c in coeffs]
    for k in range(len(a) - 1, deg - 1, -1):
        c = a[k]
        if c:
            a[k] = zero
            for i in range(deg):
                a[k - deg + i] -= c * phi[i]
    a = a[:deg]
    a += [zero] * (deg - len(a))
    return tuple(a)


_MODULAR_FLOOR = 2 ** 31
_ROOT_CACHE = {}


def modular_root(m):
    """(ell, omega) with ell the first prime = 1 (mod m) above 2**31 and
    omega a primitive m-th root of unity mod ell, or None when that
    prime lies beyond the range where the primality test is a proof.

    omega is x**((ell - 1)/m) for the first x >= 2 whose power has no
    smaller order, which needs only m factored, never ell - 1.
    """
    if m in _ROOT_CACHE:
        return _ROOT_CACHE[m]
    ell = (_MODULAR_FLOOR // m + 1) * m + 1
    while ell < _MR_LIMIT and not _is_prime(ell):
        ell += m
    out = None
    if ell < _MR_LIMIT:
        cofactors = [m // q for q in set(_prime_factors(m))]
        x = 2
        while True:
            omega = pow(x, (ell - 1) // m, ell)
            if all(pow(omega, c, ell) != 1 for c in cofactors):
                break
            x += 1
        out = (ell, omega)
    _ROOT_CACHE[m] = out
    return out


class CycNumber:
    """Element of Q(zeta_order) with exact rational coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.coeffs = _mod_cyclotomic(coeffs, order)

    @classmethod
    def from_rational(cls, q):
        return cls(1, (Fraction(q),))

    @classmethod
    def root_of_unity(cls, frac):
        """zeta_n**c for frac = c/n, reduced mod 1."""
        frac = Fraction(frac) % 1
        return cls(frac.denominator, [0] * frac.numerator + [1])

    def lift(self, big):
        if big % self.order:
            raise ValueError("lift target must be a multiple of the order")
        if big == self.order:
            return self
        k = big // self.order
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return CycNumber(big, out)

    def _common(self, other):
        if not isinstance(other, CycNumber):
            other = CycNumber.from_rational(other)
        big = self.order * other.order // math.gcd(self.order, other.order)
        return self.lift(big), other.lift(big), big

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def mod_image(self, ell, root):
        """Image in F_ell under zeta_order -> root, or None when ell divides
        a coordinate denominator; root must be a primitive order-th root
        of unity mod ell."""
        out = 0
        w = 1
        for a in self.coeffs:
            if a:
                if a.denominator % ell == 0:
                    return None
                out += a.numerator * w * pow(a.denominator, -1, ell)
            w = w * root % ell
        return out % ell

    def is_rational(self):
        # the power basis starts at 1, so Q is exactly the first coordinate
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # a rational value hashes as its Fraction, equal across orders
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "CycNumber(order=%d, %s)" % (self.order, [str(c) for c in self.coeffs])

    def __add__(self, other):
        a, b, big = self._common(other)
        return CycNumber(big, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        return self + (-other if isinstance(other, CycNumber) else CycNumber.from_rational(-Fraction(other)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b, big = self._common(other)
        return CycNumber(big, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError
        phi = [Fraction(c) for c in cyclotomic_poly(self.order)]
        # extended Euclid over Q[x]; the modulus is irreducible so the gcd
        # with any nonzero element is a nonzero constant
        r0, r1 = phi, _trim([Fraction(c) for c in self.coeffs])
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise AssertionError("zero gcd with an irreducible modulus; unreachable")
        c = r1[0]
        inv = [x / c for x in s1]
        return CycNumber(self.order, inv)

    def root_of_unity_exponent(self):
        """Fraction e with self = zeta**e reduced mod 1, or None.

        Every root of unity in Q(zeta_m) is +-zeta_m**k with 0 <= k < m,
        and its coordinates are integers.  Under zeta_m -> omega in F_ell,
        the images +-omega**k of distinct roots are distinct, so the first
        k whose +-omega**k is the image of self gives the one candidate.
        An exact comparison confirms it in Q(zeta_m), because lifting a
        dense self to Q(zeta_2m) would cost phi(m)**2 operations.
        """
        if any(c.denominator != 1 for c in self.coeffs):
            return None
        m = self.order
        ell, omega = modular_root(m)
        image = self.mod_image(ell, omega)
        w = 1
        for k in range(m):
            if image in (w, ell - w):
                root = CycNumber.root_of_unity(Fraction(k, m))
                if image == w:
                    return Fraction(k, m) if self == root else None
                return (Fraction(k, m) + Fraction(1, 2)) % 1 if self == -root else None
            w = w * omega % ell
        return None


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyc_to_json(c):
    """Canonical coefficient form: rational, pure root, or general vector."""
    if c.is_rational():
        return str(c.rational_value())
    e = c.root_of_unity_exponent()
    if e is not None:
        return {"root": str(e)}
    return {"order": c.order, "coeffs": [str(x) for x in c.coeffs]}


# largest coefficient order a document may declare, the cap that a
# `cohomology` character's order has too
_ORDER_CAP = 200000


def cyc_from_json(doc):
    if not isinstance(doc, dict):
        return CycNumber.from_rational(Fraction(doc))
    root = Fraction(doc["root"]) if "root" in doc else None
    order = _json_int(doc["order"]) if root is None else root.denominator
    if order > _ORDER_CAP:
        raise ValueError("coefficient order %s is over the cap of %d" % (order, _ORDER_CAP))
    if root is not None:
        return CycNumber.root_of_unity(root)
    return CycNumber(order, tuple(Fraction(x) for x in doc["coeffs"]))
