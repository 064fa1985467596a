import io
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci import padic
from padicloci.cli import main
from padicloci.linalg import rank_mod_prime
from padicloci.padic import (
    DomainError,
    PadicScalar,
    PrecisionError,
    UnramifiedScalar,
    _digits,
    _is_irreducible,
    _undigits,
    _vec_mul_mod,
    coset_eq,
    embed_root_of_unity,
    exp_domain_bound,
    modulus_poly,
    multiplicative_generator,
    padic_exp,
    padic_log,
    scalar_from_json,
    teichmuller,
)

from padic_oracles import (
    _add_hand,
    _coerce_rational_hand,
    _digits_loop,
    _divexact_rational_hand,
    _from_fraction_hand,
    _log_tail_hand,
    _truncate_abs_hand,
    _exp_reference,
    _log_reference,
    _undigits_loop,
    _vec_mul_mod_reference,
    from_residue,
    residue,
    residue_field,
    rep,
    rep_int,
    to_padic,
)


def random_fraction(rng, p):
    num = rng.randrange(-200, 201)
    den = rng.randrange(1, 50)
    while den % p == 0:
        den = rng.randrange(1, 50)
    return Fraction(num, den)


# -- PadicScalar -----------------------------------------------------------


def test_from_int_basic_coset_data():
    x = PadicScalar.from_int(5, 50, 3)
    assert x.valuation == 2
    assert rep_int(x) == 50
    assert x.abs_prec == 5
    z = PadicScalar.from_int(5, 0, 3)
    assert z.valuation is None and z.abs_prec == 3


def test_from_fraction_inverts_denominator():
    x = PadicScalar.from_fraction(5, Fraction(1, 2), 4)
    assert rep_int(x) == 313
    assert rep_int(x + x) == 1
    y = PadicScalar.from_fraction(7, Fraction(3, 7), 5)
    assert y.valuation == -1
    assert rep(y) == Fraction(3, 7)
    with pytest.raises(ValueError):
        rep_int(y)
    assert coset_eq(y * 7, PadicScalar.from_int(7, 3, 5))


def test_field_operations_agree_with_exact_rationals():
    rng = random.Random(401)
    for p in (2, 3, 5, 13):
        for _ in range(60):
            a = random_fraction(rng, p)
            b = random_fraction(rng, p)
            xa = PadicScalar.from_fraction(p, a, 8)
            xb = PadicScalar.from_fraction(p, b, 8)
            assert coset_eq(xa + xb, PadicScalar.from_fraction(p, a + b, 8))
            assert coset_eq(xa - xb, PadicScalar.from_fraction(p, a - b, 8))
            assert coset_eq(xa * xb, PadicScalar.from_fraction(p, a * b, 8))
            if b != 0:
                assert coset_eq(xa / xb, PadicScalar.from_fraction(p, a / b, 8))


def test_zero_coset_absorbing_rules():
    z = PadicScalar.zero_at(3, 4)
    x = PadicScalar.from_int(3, 2, 6)
    s = z + x
    assert s.valuation is not None
    assert s.abs_prec == 4
    prod = z * x
    assert prod.valuation is None and prod.abs_prec == 4
    assert (z + z).valuation is None


def test_truncate_refuses_to_refine():
    x = PadicScalar.from_int(5, 7, 3)
    assert rep_int(x.truncate_abs(2)) == 7
    with pytest.raises(PrecisionError):
        x.truncate_abs(10)


def test_inverse_and_powers():
    rng = random.Random(77)
    for p in (3, 7):
        for _ in range(40):
            a = random_fraction(rng, p)
            if a == 0:
                continue
            x = PadicScalar.from_fraction(p, a, 7)
            assert coset_eq(x * x.inverse(), PadicScalar.one(p, 7))
            assert coset_eq(x ** 3, x * x * x)
            assert coset_eq(x ** -2, (x * x).inverse())
    with pytest.raises(ZeroDivisionError):
        PadicScalar.zero_at(3, 2) ** -1


def test_divexact_rational_loses_no_precision():
    x = PadicScalar.from_fraction(5, Fraction(6, 7), 6)
    y = x.divexact_rational(Fraction(2, 7))
    assert y.abs_prec >= x.abs_prec
    assert coset_eq(y, PadicScalar.from_int(5, 3, 6))


def test_zero_cosets_are_not_clamped_to_positive_precision():
    # O(5) / 125 is O(5^-2), and so is O(5) times 5^-3
    z1 = PadicScalar.zero_at(5, 1)
    z2 = UnramifiedScalar.zero_at(5, 2, 1)
    assert z1.divexact_rational(125) == PadicScalar.zero_at(5, -2)
    assert z2.divexact_rational(125) == UnramifiedScalar.zero_at(5, 2, -2)
    x1 = PadicScalar.from_fraction(5, Fraction(2, 125), 4)
    x2 = from_residue(residue(5, (1, 3)), 4).divexact_rational(125)
    assert z1 * x1 == PadicScalar.zero_at(5, -2)
    assert x2 * z2 == UnramifiedScalar.zero_at(5, 2, -2)


def test_cancellation_below_precision_one_is_the_zero_coset():
    # 5^-3 + O(5^-2) minus itself
    x1 = PadicScalar.from_fraction(5, Fraction(1, 125), 1)
    x2 = from_residue(residue(5, (2, 1)), 1).divexact_rational(125)
    assert x1 - x1 == PadicScalar.zero_at(5, -2)
    assert isinstance(x1 - x1, PadicScalar)
    assert x2 - x2 == UnramifiedScalar.zero_at(5, 2, -2)


def test_rational_operands_multiply_exactly_in_every_degree():
    x = from_residue(residue(5, (2, 3)), 10)
    y = x * 5
    assert (y.v, y.M) == (1, 10)
    assert y / 5 == x
    assert x * Fraction(3, 25) == x.divexact_rational(Fraction(25, 3))


def test_result_class_follows_the_operands():
    a = PadicScalar.from_int(7, 3, 5)
    w = teichmuller(residue(7, (3,)), 5)
    assert type(w) is UnramifiedScalar and w.f == 1
    for r in (a + a, a - 1, 2 * a, a / a, a ** -2, a.divexact_rational(7)):
        assert type(r) is PadicScalar
    for r in (a * w, w * a, a + w, w - a, a / w):
        assert type(r) is UnramifiedScalar
    assert (a * w).residue() == residue(7, (2,))
    assert a == UnramifiedScalar.from_padic(a, 1) and hash(a) == hash(to_padic(a))


def test_json_input_needs_positive_precision():
    for doc in (
        {"p": 5, "v": "zero", "unit_digits": [], "rel_prec": 0},
        {"p": 5, "f": 2, "v": "zero", "unit_digits": [], "rel_prec": -1},
        {"p": 5, "v": 0, "unit_digits": [], "rel_prec": 0},
    ):
        with pytest.raises(ValueError):
            scalar_from_json(doc)


def test_residue_rules():
    assert PadicScalar.from_int(7, 10, 3).residue() == 3
    assert PadicScalar.from_int(7, 14, 3).residue() == 0
    with pytest.raises(ValueError):
        PadicScalar.from_fraction(7, Fraction(1, 7), 3).residue()


def test_scalar_json_round_trip():
    for x in (
        PadicScalar.from_fraction(5, Fraction(3, 4), 5),
        PadicScalar.from_fraction(3, Fraction(-7, 2), 4),
        PadicScalar.zero_at(7, 6),
    ):
        assert scalar_from_json(x.to_json()) == x


# -- residue fields and the unramified extension ---------------------------


def _poly_rem(a, g, p):
    # remainder of a by the monic g over F_p, little-endian
    a = list(a)
    n = len(g) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] % p
        if c:
            for i, gi in enumerate(g):
                a[k - n + i] -= c * gi
    return tuple(x % p for x in a[:n])


def _mul_mod(a, b, h, p):
    if len(h) == 2:
        return (a[0] * b[0] % p,)
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_rem(prod, h, p)


def brute_irreducible(h, p):
    # no monic factor of degree 1 .. f/2, by trial division
    f = len(h) - 1
    return all(
        any(_poly_rem(h, tail + (1,), p))
        for d in range(1, f // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


def brute_lex_smallest_modulus(p, f):
    for tail in product(range(p), repeat=f):
        if brute_irreducible(tail + (1,), p):
            return tail + (1,)
    raise AssertionError("no irreducible polynomial found")


def brute_lex_smallest_generator(p, h):
    # the first nonzero g whose powers walk all p^f - 1 units before 1
    f = len(h) - 1
    one = (1,) + (0,) * (f - 1)
    for g in product(range(p), repeat=f):
        if any(g):
            x, order = g, 1
            while x != one:
                x, order = _mul_mod(x, g, h, p), order + 1
            if order == p ** f - 1:
                return g
    raise AssertionError("cyclic group without generator")


def prime_powers_upto(bound):
    for p in range(2, bound + 1):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            f = 1
            while p ** f <= bound:
                yield p, f
                f += 1


def test_modulus_and_generator_match_brute_force_up_to_5000(monkeypatch):
    monkeypatch.setattr(padic, "_MODULUS_CACHE", {})
    monkeypatch.setattr(padic, "_GENERATOR_CACHE", {})
    pairs = list(prime_powers_upto(5000))
    assert len(pairs) == 711 and pairs[-1] == (4999, 1)
    for p, f in pairs:
        h = brute_lex_smallest_modulus(p, f)
        assert modulus_poly(p, f) == h
        assert multiplicative_generator(p, f).coeff == brute_lex_smallest_generator(p, h)


def test_modulus_poly_matches_brute_force_lex_search():
    for p, f in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (13, 2), (5, 3), (3, 4)):
        assert modulus_poly(p, f) == brute_lex_smallest_modulus(p, f)


def _order_walk(xi):
    # multiplicative order of a nonzero residue element by repeated products
    one = UnramifiedScalar.one(xi.p, xi.f, 1)
    x, n = xi, 1
    while x != one:
        x, n = x * xi, n + 1
    return n, one


def test_residue_element_orders_partition_the_unit_group():
    for p, f in ((3, 2), (5, 2), (2, 3)):
        q = p ** f
        seen = {}
        for xi in residue_field(p, f):
            if xi.v is None:
                continue
            n, one = _order_walk(xi)
            assert (xi ** n) == one
            assert (q - 1) % n == 0
            seen[n] = seen.get(n, 0) + 1
        assert sum(seen.values()) == q - 1
        # cyclic group: phi(d) elements of each order d | q-1
        for d, count in seen.items():
            assert count == sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        assert seen[q - 1] >= 1
    g = multiplicative_generator(5, 2)
    assert _order_walk(g)[0] == 24


def test_is_irreducible_matches_trial_division():
    for p, top in ((2, 7), (3, 4), (5, 3), (7, 2)):
        for f in range(1, top + 1):
            for tail in product(range(p), repeat=f):
                h = tail + (1,)
                assert _is_irreducible(h, p, f) == brute_irreducible(h, p), h


def test_is_irreducible_needs_the_squarefree_test():
    # (x^2 + x + 1)^2 and (x + 1)^4 over F_2 have one distinct factor
    # each, so Berlekamp's Q - I (row i is x^(2 i) mod h minus e_i) has
    # nullity 1 on them: only the test that h divides x^16 - x rejects them
    for h in ((1, 0, 1, 0, 1), (1, 0, 0, 0, 1)):
        rows, row = [], (1, 0, 0, 0)
        for i in range(4):
            rows.append([(c - (i == j)) % 2 for j, c in enumerate(row)])
            row = _mul_mod(row, (0, 0, 1, 0), h, 2)
        assert rank_mod_prime(rows, 2) == 3
        assert not _is_irreducible(h, 2, 4)
    assert _is_irreducible((1, 1, 0, 0, 1), 2, 4)


def test_modulus_search_at_a_large_prime_is_prompt(monkeypatch, capsys, time_budget):
    # every candidate with a_0 = 0 is divisible by x; the search must not
    # spend p^(f-1) irreducibility tests on them first
    monkeypatch.setattr(padic, "_MODULUS_CACHE", {})
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"p": 10007, "xi": [1, 2, 3], "prec": 4}'))
    with time_budget(2):
        assert modulus_poly(10007, 2) == (1, 0, 1)
        assert main(["teichmuller"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f"] == 3 and [d[0] for d in out["value"]["unit_digits"]] == [1, 2, 3]


def test_modulus_search_holds_no_range_of_the_prime(monkeypatch, time_budget):
    # candidates are read off one integer each, so a 61-bit p (where a
    # tuple of every residue could never be allocated) searches at once
    monkeypatch.setattr(padic, "_MODULUS_CACHE", {})
    p = 2 ** 61 - 1
    with time_budget(2):
        h = modulus_poly(p, 2)
        w = teichmuller(residue(p, (1, 1)), 3)
    assert h == (1, 0, 1) and _is_irreducible(h, p, 2)
    assert w ** (p * p - 1) == UnramifiedScalar.one(p, 2, 3)


def test_unramified_round_trips():
    xi = residue(5, (2, 3))
    x = from_residue(xi, 6)
    assert x.residue() == xi
    assert x.coeff[0] % 5 == 2
    flat = PadicScalar.from_fraction(5, Fraction(4, 3), 6)
    emb = UnramifiedScalar.from_padic(flat, 2)
    assert to_padic(emb) == flat
    with pytest.raises(ValueError):
        to_padic(x * x)  # genuinely quadratic element


def test_unramified_field_axioms_sampled():
    rng = random.Random(19)
    p, f, prec = 3, 2, 6
    def rand_unit():
        c = (rng.randrange(1, p), rng.randrange(p))
        return from_residue(residue(p, c), prec) + (
            UnramifiedScalar.one(p, f, prec) * rng.randrange(p ** 3)
        )
    for _ in range(30):
        a, b, c = rand_unit(), rand_unit(), rand_unit()
        assert coset_eq(a * (b + c), a * b + a * c)
        assert coset_eq((a * b) * c, a * (b * c))
        assert coset_eq(a * a.inverse(), UnramifiedScalar.one(p, f, prec))


def test_unramified_json_round_trip_and_flat_dispatch():
    xi = residue(3, (1, 2))
    x = from_residue(xi, 5)
    doc = x.to_json()
    assert doc["f"] == 2
    assert scalar_from_json(doc) == x
    flat = UnramifiedScalar.from_padic(PadicScalar.from_int(3, 7, 5), 1)
    assert scalar_from_json(flat.to_json()) == to_padic(flat)


# -- Teichmuller lifts ------------------------------------------------------


def test_teichmuller_known_value_and_defining_properties():
    om = teichmuller(residue(5, (2,)), 4)
    assert rep_int(to_padic(om)) == 182
    for p, f in ((2, 3), (3, 2), (7, 1), (13, 1)):
        q = p ** f
        for c in range(1, min(q, 9)):
            xi = residue(p, (c,) if f == 1 else tuple((c + i) % p for i in range(f)))
            if xi.v is None:
                continue
            om = teichmuller(xi, 6)
            assert om.residue() == xi
            assert om ** (q - 1) == UnramifiedScalar.one(p, f, 6)


def test_teichmuller_is_multiplicative():
    p, f = 3, 2
    elems = [x for x in residue_field(p, f) if x.v is not None]
    for a in elems:
        for b in elems:
            assert teichmuller(a, 5) * teichmuller(b, 5) == teichmuller(a * b, 5)


def test_teichmuller_reads_only_the_residue_of_a_unit():
    xi = residue(5, (2, 3))
    deep = from_residue(xi, 8) + UnramifiedScalar.one(5, 2, 8) * 35
    assert deep.residue() == xi and deep.residue() == deep.truncate_abs(1)
    assert teichmuller(deep, 6) == teichmuller(xi, 6)
    for bad in (residue(5, (0, 5)), xi * 5, xi.divexact_rational(5)):
        with pytest.raises(ValueError, match="zero has no multiplicative lift"):
            teichmuller(bad, 6)


def test_embed_root_of_unity_orders():
    z = embed_root_of_unity(5, Fraction(1, 3), 6)
    assert z.f == 2
    assert z ** 3 == UnramifiedScalar.one(5, 2, 6)
    assert z != UnramifiedScalar.one(5, 2, 6)
    one = embed_root_of_unity(7, Fraction(0), 5)
    assert one == UnramifiedScalar.one(7, 1, 5)
    # angle arithmetic: z(1/6)**2 = z(1/3) inside the same field
    z6 = embed_root_of_unity(5, Fraction(1, 6), 6)
    assert z6 * z6 == embed_root_of_unity(5, Fraction(1, 3), 6)
    with pytest.raises(ValueError):
        embed_root_of_unity(5, Fraction(1, 10), 4)


# -- exp and log ------------------------------------------------------------


def test_exp_domain_gates():
    assert exp_domain_bound(3) == 1 and exp_domain_bound(2) == 2
    with pytest.raises(DomainError):
        padic_exp(PadicScalar.from_int(3, 1, 5))
    with pytest.raises(DomainError):
        padic_exp(PadicScalar.from_int(2, 2, 5))
    with pytest.raises(DomainError):
        padic_log(PadicScalar.from_int(5, 5, 4))
    # zero coset known deep enough is fine, shallow is a precision failure
    assert rep_int(padic_exp(PadicScalar.zero_at(3, 4))) == 1
    with pytest.raises(PrecisionError):
        padic_exp(PadicScalar.zero_at(2, 1))


def test_exp_known_value():
    x = padic_exp(PadicScalar.from_int(5, 5, 3))
    assert rep_int(x) % 5 ** 4 == 456


def test_exp_log_match_reference_series():
    rng = random.Random(23)
    for p in (2, 3, 5):
        b = exp_domain_bound(p)
        for _ in range(25):
            c = rng.randrange(1, p ** 4)
            x = PadicScalar.from_int(p, p ** b * c, 8)
            fast = padic_exp(x)
            slow = _exp_reference(x)
            assert coset_eq(fast, slow)
            assert coset_eq(padic_log(fast), _log_reference(fast))
            assert coset_eq(padic_log(fast), x)


def test_exp_is_a_homomorphism_and_log_inverts_it():
    rng = random.Random(31)
    p, b = 7, 1
    for _ in range(40):
        x = PadicScalar.from_int(p, p ** b * rng.randrange(1, p ** 5), 9)
        y = PadicScalar.from_int(p, p ** b * rng.randrange(1, p ** 5), 9)
        assert coset_eq(padic_exp(x + y), padic_exp(x) * padic_exp(y))
        assert coset_eq(padic_log(padic_exp(x)), x)
        assert coset_eq(padic_exp(padic_log(padic_exp(y))), padic_exp(y))


def test_exp_log_on_quadratic_extension():
    p, f = 3, 2
    xi = residue(p, (1, 1))
    x = from_residue(xi, 6) * p
    assert x.v == 1
    e = padic_exp(x)
    assert e.v == 0 and e.residue() == residue(p, (1, 0))
    assert coset_eq(padic_log(e), x)
    assert coset_eq(e, _exp_reference(x))


def test_log_requires_principal_units():
    om = teichmuller(residue(7, (3,)), 6)
    u = padic_exp(PadicScalar.from_int(7, 7, 6))
    mixed = om * UnramifiedScalar.from_padic(u, 1)
    with pytest.raises(DomainError):
        padic_log(mixed)
    # dividing out the multiplicative lift of the residue restores the domain
    fixed = mixed * teichmuller(mixed.residue(), 6).inverse()
    assert coset_eq(to_padic(padic_log(fixed)), padic_log(u))


# -- the one normalizer ------------------------------------------------------


@st.composite
def _scalars(draw, p, f):
    """A scalar of Q_{p^f}: a zero coset (at any absolute precision,
    negative too) or p**v times a unit vector, as either class at f = 1."""
    cls = PadicScalar if f == 1 and draw(st.booleans()) else UnramifiedScalar
    if draw(st.integers(0, 3)) == 0:
        return cls._new(p, f, None, None, draw(st.integers(-6, 8)))
    m = draw(st.integers(1, 6))
    coeff = draw(st.lists(st.integers(0, p ** m - 1), min_size=f, max_size=f))
    if all(c % p == 0 for c in coeff):
        coeff[draw(st.integers(0, f - 1))] += 1
    return cls._new(p, f, draw(st.integers(-5, 5)), tuple(coeff), m)


_NORMALIZER_FRACTIONS = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 400))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_normalizer_matches_the_hand_written_formulas(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    f = data.draw(st.integers(1, 3), label="f")
    x = data.draw(_scalars(p, f), label="x")
    y = data.draw(_scalars(p, f), label="y")
    q = data.draw(_NORMALIZER_FRACTIONS, label="q")

    def same(got, want):
        assert got == want and type(got) is type(want)

    cls = type(x) if type(x) is type(y) else UnramifiedScalar
    same(x + y, _add_hand(x, y, cls))
    same(x - y, _add_hand(x, -y, cls))
    same(x._coerce(q)[1], _coerce_rational_hand(x, q))
    same(x + q, _add_hand(x, _coerce_rational_hand(x, q), type(x)))
    same(q - x, _add_hand(-x, _coerce_rational_hand(-x, q), type(x)))
    n = data.draw(st.integers(x.abs_prec - 8, x.abs_prec), label="n")
    same(x.truncate_abs(n), _truncate_abs_hand(x, n))
    if q:
        same(x.divexact_rational(q), _divexact_rational_hand(x, q))
        same(x / q, _divexact_rational_hand(x, q))
        same(x * q, _divexact_rational_hand(x, 1 / q))
    rel = data.draw(st.integers(1, 8), label="rel_prec")
    same(PadicScalar.from_fraction(p, q, rel), _from_fraction_hand(p, q, rel))
    vec = data.draw(st.lists(st.integers(-(p ** 12), p ** 12), min_size=f, max_size=f), label="vec")
    n = data.draw(st.integers(1, 10), label="log n")
    same(x._normalized(p, f, vec, 0, n), _log_tail_hand(x, vec, n))


# -- the working-precision cap ------------------------------------------------

# x**2 = 1 at p = 5: the component through the trivial character
_TRIVIAL_TORSION = {
    "system": {"dim": 1, "equations": [{"exponents": [2], "rhs": "0"}]},
    "action": {
        "p": 5,
        "weights": [1],
        "alpha": {"p": 5, "f": 1, "v": 0, "unit_digits": [1, 1], "rel_prec": 2},
    },
    "automorphism": [[1]],
}


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("teichmuller", {"p": 5, "xi": 2, "prec": 20000}),
        ("exp", {"p": 5, "x": 5, "precision": 20000}),
        ("log", {"p": 5, "x": 6, "precision": 20000}),
        ("teichmuller", {"p": 5, "xi": [1, 2, 3], "prec": 2400}),
        # refused before the input scalar or the trivial root is built
        ("exp", {"p": 5, "x": 5, "precision": 10 ** 7}),
        ("exp", {"p": 5, "x": 5, "precision": 10 ** 8}),
        ("log", {"p": 5, "x": "6/11", "precision": 10 ** 7}),
        ("log", {"p": 5, "x": 6, "precision": 10 ** 8}),
        ("find-torsion", dict(_TRIVIAL_TORSION, precision=10 ** 8)),
    ],
    ids=[
        "teichmuller", "exp", "log", "teichmuller-f3",
        "exp-1e7", "exp-1e8", "log-1e7", "log-1e8", "find-torsion-1e8",
    ],
)
def test_a_precision_over_the_cap_exits_one_at_once(cmd, doc, monkeypatch, capsys, time_budget):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    with time_budget(1):
        code = main([cmd])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "over the cap of 16384 bits" in captured.err


def test_the_precision_cap_counts_bits():
    # 7056 digits of Z_5 are 16383.4 bits, 7057 are 16385.7
    for prec in (7057, 20000):
        with pytest.raises(ValueError, match="cap of 16384 bits"):
            teichmuller(residue(5, (2,)), prec)
    with pytest.raises(ValueError, match="cap of 16384 bits"):
        padic_exp(PadicScalar.from_int(2, 4, 16400), 16385)
    padic._check_precision(5, 1, 7056)
    padic._check_precision(2, 1, 16384)


def test_the_heaviest_benchmark_exp_is_under_the_cap(monkeypatch, capsys):
    # p = 5, f = 3 at precision 800 is about 5600 bits
    x = {"p": 5, "f": 3, "v": 1, "unit_digits": [[1], [2], [3]], "rel_prec": 800}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"p": 5, "x": x, "precision": 800})))
    assert main(["exp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"]["f"] == 3 and out["value"]["rel_prec"] == 800


# -- the mul-mod kernel -----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vec_mul_mod_matches_the_schoolbook_reference(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 13)), label="p")
    f = data.draw(st.sampled_from((1, 2, 3, 6)), label="f")
    pm = p ** data.draw(st.integers(1, 40), label="n")
    if data.draw(st.booleans(), label="pinned modulus"):
        h = modulus_poly(p, f)
    else:
        h = tuple(data.draw(st.lists(st.integers(-p, p), min_size=f, max_size=f))) + (1,)
    # negative and over-wide coefficients, as the kernel's callers pass them
    coeff = st.integers(-3 * pm, 3 * pm)
    a = data.draw(st.lists(coeff, min_size=f, max_size=f), label="a")
    b = data.draw(st.lists(coeff, min_size=f, max_size=f), label="b")
    assert _vec_mul_mod(a, b, h, pm) == _vec_mul_mod_reference(a, b, h, pm)


# -- digit conversion -------------------------------------------------------

_DIGIT_PRIMES = st.sampled_from([2, 3, 5, 7, 13, 101, 65537, 2 ** 31 - 1, 2 ** 61 - 1])


@settings(max_examples=300, deadline=None)
@given(_DIGIT_PRIMES, st.integers(0, 700), st.data())
def test_word_digits_match_the_digit_loop(p, count, data):
    # n runs past p**count, where only the count lowest digits are kept,
    # and below 0, where the digits are those of n mod p**count
    n = data.draw(
        st.one_of(
            st.just(0),
            st.just(p ** count - 1),
            st.integers(0, p ** count),
            st.integers(-(p ** (count + 2)), p ** (count + 2)),
        )
    )
    ds = _digits(n, p, count)
    assert ds == _digits_loop(n, p, count)
    assert _undigits(ds, p) == _undigits_loop(ds, p) == n % p ** count


@pytest.mark.parametrize("ds", [[5], [0, 5, 1], [-1], [1, -1], [6, -1]])
def test_undigits_rejects_a_digit_outside_the_range(ds):
    with pytest.raises(ValueError):
        _undigits(ds, 5)


def test_word_digits_of_a_long_expansion():
    n = random.Random(5).getrandbits(100000)
    assert _digits(n, 2, 100000) == [int(b) for b in reversed(format(n, "0100000b"))]
    assert _undigits(_digits(n, 3, 70000), 3) == n % 3 ** 70000
