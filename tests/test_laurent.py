import random
from fractions import Fraction

from padicloci.cyclotomic import CycNumber
from padicloci.laurent import LaurentPoly, laurent_det, laurent_from_json
from padicloci.linalg import rank_division_free


def t(i, n=2, power=1):
    return LaurentPoly.variable(n, i, power)


def test_constructors_drop_zero_terms():
    x = LaurentPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert len(x.terms) == 1
    assert LaurentPoly.zero(3).is_zero()
    assert LaurentPoly.constant(2, 0).is_zero()
    assert (t(0) - t(0)).is_zero()


def test_ring_axioms_on_random_elements():
    rng = random.Random(12)

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(4)):
            e = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            terms[e] = Fraction(rng.randrange(-3, 4))
        return LaurentPoly(2, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - b == -(b - a)


def test_negative_exponents_and_shift():
    x = t(0, 2, -1) * t(1, 2, 2)
    assert x.shift((1, -2)) == LaurentPoly.constant(2, 1)
    assert x.scale(Fraction(3, 2)) == x * Fraction(3, 2)


def test_evaluate_at_roots_of_unity():
    f = t(0) * t(1) - 1
    z3 = CycNumber.root_of_unity(Fraction(1, 3))
    z3sq = CycNumber.root_of_unity(Fraction(2, 3))
    assert f.evaluate((z3, z3sq)).is_zero()
    assert not f.evaluate((z3, z3)).is_zero()
    g = t(0, 2, -1)  # inverse variable needs an invertible point
    assert g.evaluate((z3, z3)) == CycNumber.root_of_unity(Fraction(2, 3))


def test_sorted_terms_and_json_round_trip():
    f = t(0, 2, 2) - t(1) + LaurentPoly.constant(2, Fraction(1, 2))
    keys = [e for e, _ in f.sorted_terms()]
    assert keys == sorted(keys)
    doc = f.to_json()
    assert laurent_from_json(2, doc) == f
    # cyclotomic coefficients survive the round trip
    z = CycNumber.root_of_unity(Fraction(1, 4))
    g = LaurentPoly(1, {(0,): z, (2,): Fraction(1)})
    assert laurent_from_json(1, g.to_json()) == g


def test_laurent_det_matches_leibniz_on_small_matrices():
    rng = random.Random(4)
    from itertools import permutations

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(3)):
            e = (rng.randrange(-1, 2), rng.randrange(-1, 2))
            terms[e] = Fraction(rng.randrange(-2, 3))
        return LaurentPoly(2, terms)

    def sign(perm):
        s = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    s = -s
        return s

    for n in (1, 2, 3):
        for _ in range(8):
            m = [[rand_poly() for _ in range(n)] for _ in range(n)]
            expect = LaurentPoly.zero(2)
            for perm in permutations(range(n)):
                prod = LaurentPoly.constant(2, sign(perm))
                for i in range(n):
                    prod = prod * m[i][perm[i]]
                expect = expect + prod
            assert laurent_det(m) == expect


# -- generic linear algebra over exact fields -------------------------------


def test_rank_routines_agree_with_integer_smith_rank():
    from padicloci.intlinalg import diagonal_of, smith_normal_form

    rng = random.Random(8)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        _, d, _ = smith_normal_form(a)
        expect = sum(1 for x in diagonal_of(d) if x)
        fa = [[Fraction(x) for x in row] for row in a]
        assert rank_division_free(fa) == expect
        assert rank_division_free(a) == expect


def test_rank_over_cyclotomic_entries():
    z = CycNumber.root_of_unity(Fraction(1, 3))
    one = CycNumber.from_rational(1)
    # second row is z * first row: rank 1
    rows = [[one, z], [z, z * z]]
    assert rank_division_free(rows) == 1
    rows2 = [[one, z], [z, one]]  # det = 1 - z^2 != 0
    assert rank_division_free(rows2) == 2
