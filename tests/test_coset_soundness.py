"""Coset soundness of scalar arithmetic, checked on exact representatives.

A scalar stands for a coset of Q_{p^f}.  For any representatives a of x
and b of y, drawn here as exact Fraction coordinates over the power
basis, the true value a o b must lie in the coset x o y that the library
returns.  Negative valuations, zero cosets of any precision, mixed
degrees f in {1, 2} and exact rational operands are all drawn.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci.padic import PadicScalar, UnramifiedScalar, modulus_poly

from padic_oracles import _frac_vec_mul_mod, fraction_valuation


def _p_integral(data, p):
    # an element of Z_(p) ∩ Q: denominator prime to p
    num = data.draw(st.integers(-60, 60))
    den = data.draw(st.integers(0, 6)) * p + 1
    return Fraction(num, den)


def _rational(data, p):
    return Fraction(p) ** data.draw(st.integers(-3, 3)) * _p_integral(data, p)


def _scalar_and_rep(data, p, f):
    """A scalar of degree f and one exact representative of its coset."""
    if data.draw(st.integers(0, 4)) == 0:
        n = data.draw(st.integers(-4, 6))
        x = PadicScalar.zero_at(p, n) if f == 1 else UnramifiedScalar.zero_at(p, f, n)
        return x, [Fraction(p) ** n * _p_integral(data, p) for _ in range(f)]
    v = data.draw(st.integers(-4, 4))
    m = data.draw(st.integers(1, 5))
    coeff = [data.draw(st.integers(0, p ** m - 1)) for _ in range(f)]
    if all(c % p == 0 for c in coeff):
        coeff[0] += 1
    if f == 1 and data.draw(st.booleans()):
        x = PadicScalar(p, v, coeff[0], m)
    else:
        x = UnramifiedScalar(p, f, v, tuple(coeff), m)
    rep = [Fraction(p) ** v * (c + p ** m * _p_integral(data, p)) for c in coeff]
    return x, rep


def _pad(rep, f):
    return rep + [Fraction(0)] * (f - len(rep))


def _inverse(a, h):
    if len(a) == 1:
        return [1 / a[0]]
    # degree 2: a times its conjugate is the norm, with x**2 = -h1 x - h0
    a0, a1 = a
    h0, h1 = h[0], h[1]
    norm = a0 * a0 - h1 * a0 * a1 + h0 * a1 * a1
    return [(a0 - h1 * a1) / norm, -a1 / norm]


def _power(a, e, h):
    base = a if e >= 0 else _inverse(a, h)
    out = _pad([Fraction(1)], len(a))
    for _ in range(abs(e)):
        out = _frac_vec_mul_mod(out, base, h)
    return out


def _contains(z, rep):
    """Whether the exact coordinate vector rep lies in the coset z."""
    p = z.p
    centre = [Fraction(0)] * z.f if z.v is None else [Fraction(p) ** z.v * c for c in z.coeff]
    return all(
        r == c or fraction_valuation(r - c, p) >= z.abs_prec for r, c in zip(rep, centre)
    )


SCALAR_OPS = ("+", "-", "*", "/")
RATIONAL_OPS = ("x+q", "q-x", "x*q", "q*x", "x/q", "divexact")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scalar_operations_are_coset_sound(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    fx = data.draw(st.sampled_from((1, 2)))
    x, a = _scalar_and_rep(data, p, fx)
    op = data.draw(st.sampled_from(SCALAR_OPS + RATIONAL_OPS + ("**",)))
    if op in SCALAR_OPS:
        y, b = _scalar_and_rep(data, p, data.draw(st.sampled_from((1, 2))))
        f = max(x.f, y.f)
        h = modulus_poly(p, f)
        a, b = _pad(a, f), _pad(b, f)
        if op == "/" and y.valuation is None:
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        z = {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y, "/": lambda: x / y}[op]()
        exact = {
            "+": lambda: [s + t for s, t in zip(a, b)],
            "-": lambda: [s - t for s, t in zip(a, b)],
            "*": lambda: _frac_vec_mul_mod(a, b, h),
            "/": lambda: _frac_vec_mul_mod(a, _inverse(b, h), h),
        }[op]()
        both_qp = isinstance(x, PadicScalar) and isinstance(y, PadicScalar)
        assert isinstance(z, PadicScalar) == both_qp
    elif op == "**":
        e = data.draw(st.integers(-3, 4))
        if x.valuation is None and e <= 0:
            with pytest.raises(ZeroDivisionError):
                x ** e
            return
        f, z, exact = x.f, x ** e, _power(a, e, modulus_poly(p, x.f))
        assert type(z) is type(x)
    else:
        q = _rational(data, p)
        if q == 0 and op in ("x/q", "divexact"):
            return
        z = {
            "x+q": lambda: x + q,
            "q-x": lambda: q - x,
            "x*q": lambda: x * q,
            "q*x": lambda: q * x,
            "x/q": lambda: x / q,
            "divexact": lambda: x.divexact_rational(q),
        }[op]()
        exact = {
            "x+q": lambda: [a[0] + q] + a[1:],
            "q-x": lambda: [q - a[0]] + [-s for s in a[1:]],
            "x*q": lambda: [s * q for s in a],
            "q*x": lambda: [s * q for s in a],
            "x/q": lambda: [s / q for s in a],
            "divexact": lambda: [s / q for s in a],
        }[op]()
        f = x.f
        assert type(z) is type(x)
    assert z.f == f
    assert _contains(z, exact), (op, x, z, exact)
