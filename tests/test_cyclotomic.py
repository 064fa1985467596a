import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci.cyclotomic import (
    CycNumber,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_poly,
    modular_root,
)

from complex_oracles import power, quotient


def euler_phi(m):
    """The degree of Q(zeta_m), which fixes the length of coefficient vectors."""
    return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))


def test_euler_phi_small_table():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_pinned():
    assert tuple(cyclotomic_poly(1)) == (-1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(6)) == (1, -1, 1)
    assert tuple(cyclotomic_poly(12)) == (1, 0, -1, 0, 1)


_DIVIDED = {1: (-1, 1)}


def divided_cyclotomic(m):
    """Phi_m the slow way: x**m - 1 divided exactly by Phi_d for every
    proper divisor d of m, recursively (every Phi_d is monic)."""
    if m not in _DIVIDED:
        num = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                b = divided_cyclotomic(d)
                quo = [0] * (len(num) - len(b) + 1)
                for i in range(len(quo) - 1, -1, -1):
                    quo[i] = c = num[i + len(b) - 1]
                    for j, bj in enumerate(b):
                        num[i + j] -= c * bj
                assert not any(num)
                num = quo
        _DIVIDED[m] = tuple(num)
    return _DIVIDED[m]


def test_cyclotomic_polynomials_match_recursive_division():
    for m in range(1, 400):
        assert cyclotomic_poly(m) == divided_cyclotomic(m), m


def test_a_highly_composite_order_is_quick(time_budget):
    # Phi_5040 has degree phi(5040) = 1152 and, 5040 not being a prime
    # power, the value 1 at x = 1
    with time_budget(1):
        phi = cyclotomic_poly(5040)
    assert len(phi) == 1153 and phi[-1] == 1 and sum(phi) == 1


def test_cyclotomic_product_identity():
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 8, 12):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d:
                continue
            phi = cyclotomic_poly(d)
            out = [Fraction(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expect = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expect


def test_roots_of_unity_orders_and_arithmetic():
    z = CycNumber.root_of_unity(Fraction(1, 12))
    assert power(z, 12).is_rational() and power(z, 12).rational_value() == 1
    for k in range(1, 12):
        assert power(z, k) != CycNumber.from_rational(1)
    assert power(z, 6) == CycNumber.from_rational(-1)
    z3 = CycNumber.root_of_unity(Fraction(1, 3))
    # 1 + z3 + z3^2 = 0
    assert (CycNumber.from_rational(1) + z3 + power(z3, 2)).is_zero()


def test_mixed_order_arithmetic_uses_common_refinement():
    a = CycNumber.root_of_unity(Fraction(1, 4))
    b = CycNumber.root_of_unity(Fraction(1, 6))
    assert a * b == CycNumber.root_of_unity(Fraction(5, 12))
    assert quotient(a, b) == CycNumber.root_of_unity(Fraction(1, 12))


def test_inverse_and_division():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((3, 4, 5, 8, 12))
        coeffs = [Fraction(rng.randrange(-3, 4)) for _ in range(euler_phi(n))]
        x = CycNumber(n, coeffs)
        if x.is_zero():
            continue
        assert (x * x.inverse()) == CycNumber.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        CycNumber.from_rational(0).inverse()


def conj_power(x, k):
    """Galois twist zeta -> zeta**k of x; k must be prime to the order."""
    out = [Fraction(0)] * x.order
    for i, a in enumerate(x.coeffs):
        out[i * k % x.order] = a
    return CycNumber(x.order, out)


def test_conj_power_is_a_ring_automorphism():
    z = CycNumber.root_of_unity(Fraction(1, 5))
    x = z + 2 * power(z, 3)
    y = power(z, 2) - 1
    for k in (2, 3, 4):
        assert conj_power(x * y, k) == conj_power(x, k) * conj_power(y, k)
        assert conj_power(x + y, k) == conj_power(x, k) + conj_power(y, k)
    assert conj_power(z, 2) == power(z, 2)


def test_root_of_unity_exponent_detection():
    for num, den in ((1, 3), (5, 12), (1, 2), (0, 1), (3, 8)):
        frac = Fraction(num, den)
        assert CycNumber.root_of_unity(frac).root_of_unity_exponent() == frac % 1
    assert (CycNumber.root_of_unity(Fraction(1, 3)) * 2).root_of_unity_exponent() is None
    assert CycNumber.from_rational(0).root_of_unity_exponent() is None
    # sums of distinct roots are not roots
    mix = CycNumber.root_of_unity(Fraction(1, 4)) + CycNumber.root_of_unity(Fraction(1, 3))
    assert mix.root_of_unity_exponent() is None


def root_exponent_by_scan(x):
    """Oracle for `root_of_unity_exponent`: the roots of unity in Q(zeta_m)
    form mu_N (N = m for even m, 2m for odd m), and x is compared with
    each power of zeta_N in turn."""
    m = x.order
    n = m if m % 2 == 0 else 2 * m
    zeta = CycNumber.root_of_unity(Fraction(1, n))
    cur = CycNumber.from_rational(1).lift(n)
    target = x.lift(n)
    for j in range(n):
        if cur.coeffs == target.coeffs:
            return Fraction(j, n) % 1
        cur = cur * zeta
    return None


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 60),
    k=st.integers(0, 59),
    other=st.integers(0, 59),
    kind=st.sampled_from(
        ("root", "negative", "double", "plus one", "sum", "root plus ell", "negative plus ell")
    ),
)
def test_root_of_unity_exponent_matches_the_scan(m, k, other, kind):
    # roots and their negatives are found; 2 zeta is not a root, while
    # 1 + zeta and a sum of two roots are roots only in a few fields
    # (1 + zeta_3 = -zeta_3**2), which the scan decides.  Adding ell keeps
    # the image in F_ell of a root but not the root itself.
    z = CycNumber.root_of_unity(Fraction(k, m)).lift(m)
    ell = modular_root(m)[0]
    x = {
        "root": lambda: z,
        "negative": lambda: -z,
        "double": lambda: 2 * z,
        "plus one": lambda: z + 1,
        "sum": lambda: z + CycNumber.root_of_unity(Fraction(other, m)),
        "root plus ell": lambda: z + ell,
        "negative plus ell": lambda: -z + ell,
    }[kind]().lift(m)
    assert x.order == m
    assert x.root_of_unity_exponent() == root_exponent_by_scan(x)


def test_lift_and_equality_across_orders():
    z6 = CycNumber.root_of_unity(Fraction(1, 6))
    z12 = CycNumber.root_of_unity(Fraction(2, 12))
    assert z6 == z12
    assert z6.lift(12) == z12.lift(12)
    assert hash(z6) == hash(z12)


def test_json_round_trip():
    vals = [
        CycNumber.from_rational(Fraction(-7, 3)),
        CycNumber.root_of_unity(Fraction(5, 12)),
        CycNumber.root_of_unity(Fraction(1, 3)) + 1,
    ]
    for x in vals:
        assert cyc_from_json(cyc_to_json(x)) == x


def test_rational_detection():
    z = CycNumber.root_of_unity(Fraction(1, 8))
    assert not z.is_rational()
    w = power(z, 4)  # equals -1
    assert w.is_rational() and w.rational_value() == -1
    assert CycNumber.from_rational(Fraction(2, 5)).rational_value() == Fraction(2, 5)


_SMALL_FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 30),
    st.lists(_SMALL_FRACTIONS, min_size=1, max_size=12),
    st.booleans(),
    st.one_of(st.integers(-3, 3), _SMALL_FRACTIONS, st.none()),
)
def test_equality_with_a_rational_matches_the_lifted_comparison(order, coeffs, rational, q):
    # q None compares against the first coordinate, equal or not
    x = CycNumber(order, coeffs[:1] if rational else coeffs)
    if q is None:
        q = coeffs[0]
    assert (x == q) == (x == CycNumber.from_rational(q)) == (q == x)


def test_equal_rational_values_hash_alike_across_orders():
    z3 = CycNumber.root_of_unity(Fraction(1, 3))
    assert len({CycNumber(2, [1]), CycNumber.from_rational(1), power(z3, 3), 1}) == 1
    assert hash(CycNumber(6, [Fraction(1, 2)])) == hash(Fraction(1, 2))


def _fraction_constructions(build):
    """How many times build() enters Fraction.__new__."""
    calls = []
    code = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_coordinates_that_are_zeros_or_fractions_build_no_fraction():
    # a root of order 199999 and its lift to order 399998, a vector of
    # 399995 coordinates that are all Fractions and mostly zeros
    z = CycNumber.root_of_unity(Fraction(1, 199999))
    assert _fraction_constructions(lambda: CycNumber.root_of_unity(Fraction(1, 199999))) < 10
    assert _fraction_constructions(lambda: z.lift(2 * 199999)) < 10


def test_coordinates_stay_exact_fractions():
    # a float goes through Fraction exactly; a zero of any type is Fraction(0)
    x = CycNumber(5, [0.0, 0.5, 0, Fraction(0)])
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0))
    y = CycNumber(4, [1, 0.0, 2.5, 0])
    assert all(type(c) is Fraction for c in y.coeffs)
    assert y.coeffs == (Fraction(-3, 2), Fraction(0))
