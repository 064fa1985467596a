"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are rational coefficient vectors modulo the m-th cyclotomic
polynomial, computed once by iterated exact division of x**m - 1.  Mixed
orders are reconciled by lifting both operands into Q(zeta_lcm) along
x -> x**(lcm/m), so values of different declared orders compare and
combine exactly.  Everything is Fraction arithmetic; there is no floating
point and no root-of-unity approximation anywhere.

`modular_root` and `CycNumber.mod_image` give the reduction of Z[zeta_m]
at a prime ell = 1 (mod m): zeta_m goes to a primitive m-th root of unity
in F_ell, a ring homomorphism on the elements whose denominators are
prime to ell.  Callers use it for cheap rank bounds, never for answers
that the reduction alone cannot prove.
"""

import math
from fractions import Fraction

from .padic import _MR_LIMIT, _is_prime, _prime_factors


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
    """Little-endian integer coefficients of the m-th cyclotomic polynomial."""
    got = _CYC_CACHE.get(m)
    if got is not None:
        return got
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder; unreachable")
    out = tuple(int(c) for c in num)
    if any(Fraction(c) != c0 for c, c0 in zip(out, num)):
        raise AssertionError("non-integer cyclotomic coefficient; unreachable")
    _CYC_CACHE[m] = out
    return out


def _mod_cyclotomic(coeffs, m):
    phi = list(cyclotomic_poly(m))
    deg = len(phi) - 1
    a = [Fraction(c) for c in coeffs]
    for k in range(len(a) - 1, deg - 1, -1):
        c = a[k]
        if c:
            a[k] = Fraction(0)
            for i in range(deg):
                a[k - deg + i] -= c * phi[i]
    a = a[:deg]
    a += [Fraction(0)] * (deg - len(a))
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
        n = frac.denominator
        mono = [Fraction(0)] * frac.numerator + [Fraction(1)]
        return cls(n, mono)

    def lift(self, big):
        if big % self.order:
            raise ValueError("lift target must be a multiple of the order")
        if big == self.order:
            return self
        k = big // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * k + 1)
        for i, a in enumerate(self.coeffs):
            out[i * k] = a
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
            other = CycNumber.from_rational(other)
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

    def __rsub__(self, other):
        return (-self) + other

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError
            return CycNumber(self.order, tuple(c / q for c in self.coeffs))
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycNumber.from_rational(other) * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = CycNumber(self.order, (Fraction(1),))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conj_power(self, k):
        """Galois twist zeta -> zeta**k; k must be prime to the order."""
        if math.gcd(k, self.order) != 1:
            raise ValueError("conjugation exponent must be prime to the order")
        out = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs):
            out[i * k % self.order] = a
        return CycNumber(self.order, out)

    def root_of_unity_exponent(self):
        """Fraction e with self = zeta**e reduced mod 1, or None.

        The roots of unity in Q(zeta_m) form mu_N with N = m for even m
        and N = 2m for odd m; a linear scan over mu_N decides membership.
        """
        m = self.order
        n = m if m % 2 == 0 else 2 * m
        zeta = CycNumber.root_of_unity(Fraction(1, n))
        cur = CycNumber.from_rational(1).lift(n)
        target = self.lift(n)
        for j in range(n):
            if cur.coeffs == target.coeffs:
                return Fraction(j, n) % 1
            cur = cur * zeta
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


def cyc_from_json(doc):
    if not isinstance(doc, dict):
        return CycNumber.from_rational(Fraction(doc))
    if "root" in doc:
        return CycNumber.root_of_unity(Fraction(doc["root"]))
    return CycNumber(doc["order"], tuple(Fraction(x) for x in doc["coeffs"]))
