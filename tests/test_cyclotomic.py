import math
import random
from fractions import Fraction

import pytest

from padicloci.cyclotomic import (
    CycNumber,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_poly,
)


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
    assert (z ** 12).is_rational() and (z ** 12).rational_value() == 1
    for k in range(1, 12):
        assert z ** k != CycNumber.from_rational(1)
    assert z ** 6 == CycNumber.from_rational(-1)
    z3 = CycNumber.root_of_unity(Fraction(1, 3))
    # 1 + z3 + z3^2 = 0
    assert (CycNumber.from_rational(1) + z3 + z3 ** 2).is_zero()


def test_mixed_order_arithmetic_uses_common_refinement():
    a = CycNumber.root_of_unity(Fraction(1, 4))
    b = CycNumber.root_of_unity(Fraction(1, 6))
    assert a * b == CycNumber.root_of_unity(Fraction(5, 12))
    assert (a / b) == CycNumber.root_of_unity(Fraction(1, 12))


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


def test_conj_power_is_a_ring_automorphism():
    z = CycNumber.root_of_unity(Fraction(1, 5))
    x = z + 2 * z ** 3
    y = z ** 2 - 1
    for k in (2, 3, 4):
        assert (x * y).conj_power(k) == x.conj_power(k) * y.conj_power(k)
        assert (x + y).conj_power(k) == x.conj_power(k) + y.conj_power(k)
    assert z.conj_power(2) == z ** 2


def test_root_of_unity_exponent_detection():
    for num, den in ((1, 3), (5, 12), (1, 2), (0, 1), (3, 8)):
        frac = Fraction(num, den)
        assert CycNumber.root_of_unity(frac).root_of_unity_exponent() == frac % 1
    assert (CycNumber.root_of_unity(Fraction(1, 3)) * 2).root_of_unity_exponent() is None
    assert CycNumber.from_rational(0).root_of_unity_exponent() is None
    # sums of distinct roots are not roots
    mix = CycNumber.root_of_unity(Fraction(1, 4)) + CycNumber.root_of_unity(Fraction(1, 3))
    assert mix.root_of_unity_exponent() is None


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
    w = z ** 4  # equals -1
    assert w.is_rational() and w.rational_value() == -1
    assert CycNumber.from_rational(Fraction(2, 5)).rational_value() == Fraction(2, 5)


def test_equal_rational_values_hash_alike_across_orders():
    z3 = CycNumber.root_of_unity(Fraction(1, 3))
    assert len({CycNumber(2, [1]), CycNumber.from_rational(1), z3 ** 3, 1}) == 1
    assert hash(CycNumber(6, [Fraction(1, 2)])) == hash(Fraction(1, 2))
