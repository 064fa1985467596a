import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicloci.padic import DomainError, PadicScalar, PrecisionError, exp_domain_bound
from padicloci.series import (
    AnalyticSeries,
    NewtonPolygon,
    PolyDisc,
    check_scaling_unit,
    newton_polygon,
    restrict_to_orbit,
    strassmann_count,
    vanish_certificate,
)


def poly_series(p, coeffs, prec=20, radius_exp=0):
    disc = PolyDisc(p, 1, radius_exp)
    terms = {}
    for n, c in enumerate(coeffs):
        if c:
            terms[(n,)] = PadicScalar.from_fraction(p, Fraction(c), prec)
    return AnalyticSeries(disc, terms)


# -- disc and series basics --------------------------------------------------


def test_disc_validations():
    with pytest.raises(ValueError):
        PolyDisc(5, 0, 0)
    with pytest.raises(ValueError):
        PolyDisc(5, 1, -1)
    d = PolyDisc(5, 2, 1)
    d.check_contains((PadicScalar.from_int(5, 5, 6), PadicScalar.zero_at(5, 3)))
    with pytest.raises(DomainError):
        d.check_contains((PadicScalar.from_int(5, 1, 6), PadicScalar.from_int(5, 5, 6)))


def test_series_keeps_zero_coset_coefficients():
    disc = PolyDisc(5, 1, 0)
    z = PadicScalar.zero_at(5, 4)
    f = AnalyticSeries(disc, {(1,): z})
    assert (1,) in f.terms
    with pytest.raises(ValueError):
        AnalyticSeries(disc, {(-1,): PadicScalar.one(5, 4)})


def test_series_json_round_trip():
    f = poly_series(7, [2, 0, -3], prec=6)
    terms = [
        {"exp": [n], "coeff": PadicScalar.from_int(7, c, 6).to_json()} for n, c in ((0, 2), (2, -3))
    ]
    doc = {"disc": {"p": 7, "dim": 1, "radius_exp": 0}, "terms": terms, "tail_exp": None}
    g = AnalyticSeries.from_json(doc)
    assert g.disc == f.disc and g.terms == f.terms and g.tail_exp is None
    h = AnalyticSeries.from_json(dict(doc, disc=dict(doc["disc"], radius_exp=1), tail_exp=9))
    assert h.disc == PolyDisc(7, 1, 1) and h.terms == f.terms and h.tail_exp == 9


# -- zero counting ------------------------------------------------------------


def test_strassmann_pinned_counts():
    assert strassmann_count(poly_series(5, [125, 5, 0, 1])) == 3
    assert strassmann_count(poly_series(5, [-5, 0, 1])) == 2
    assert strassmann_count(poly_series(5, [25, 5])) == 1
    assert strassmann_count(poly_series(5, [1, 5])) == 0
    assert strassmann_count(poly_series(3, [0, 9, 1])) == 2


def test_strassmann_refuses_ambiguity():
    disc = PolyDisc(5, 1, 0)
    allzero = AnalyticSeries(disc, {(0,): PadicScalar.zero_at(5, 3)})
    with pytest.raises(PrecisionError):
        strassmann_count(allzero)
    # an imprecise high coefficient that could tie the Gauss norm
    mixed = AnalyticSeries(
        disc, {(0,): PadicScalar.from_int(5, 5, 6), (2,): PadicScalar.zero_at(5, 1)}
    )
    with pytest.raises(PrecisionError):
        strassmann_count(mixed)
    # same coefficient known one digit deeper is harmless
    ok = AnalyticSeries(
        disc, {(0,): PadicScalar.from_int(5, 5, 6), (2,): PadicScalar.zero_at(5, 2)}
    )
    assert strassmann_count(ok) == 0


def test_newton_polygon_pinned():
    np1 = newton_polygon(poly_series(5, [125, 5, 0, 1]))
    assert np1.vanishing_order == 0 and np1.degree == 3
    assert np1.segments == ((Fraction(-2), 1), (Fraction(-1, 2), 2))
    np2 = newton_polygon(poly_series(5, [0, 0, -5, 1]))
    assert np2.vanishing_order == 2
    assert np2.segments == ((Fraction(-1), 1),)
    assert np2.root_count_with_valuation_at_least(1) == 3
    assert np2.root_count_with_valuation_at_least(2) == 2


def test_newton_polygon_zero_coset_paths():
    disc, z = PolyDisc(5, 1, 0), PadicScalar.zero_at
    five, one = PadicScalar.from_int(5, 5, 6), PadicScalar.one(5, 6)
    # 1 + O(5) T + T^2: the coset lies above the slope-0 segment
    above = AnalyticSeries(disc, {(0,): one, (1,): z(5, 1), (2,): one})
    assert newton_polygon(above).segments == ((Fraction(0), 2),)
    assert strassmann_count(above) == 2
    # 5 + O(1) T + 5 T^2: the coset may dip below the chord at height 1
    below = AnalyticSeries(disc, {(0,): five, (1,): z(5, 0), (2,): five})
    with pytest.raises(PrecisionError, match="possibly below the hull"):
        newton_polygon(below)
    # 5 + 5 T^2 + O(5) T^3: no hull point bounds a coset past the last exact term
    past = AnalyticSeries(disc, {(0,): five, (2,): five, (3,): z(5, 1)})
    with pytest.raises(PrecisionError, match="unknown valuation at the hull boundary"):
        newton_polygon(past)


def test_newton_polygon_constructor_invariants():
    with pytest.raises(ValueError):
        NewtonPolygon(((Fraction(-1), 1), (Fraction(-2), 1)), 0, 2)
    with pytest.raises(ValueError):
        NewtonPolygon(((Fraction(-1), 1),), 0, 3)


def hull_count_at_least_zero(p, coeffs):
    """Independent oracle: unit-disc root count from the lower hull of
    (index, valuation), computed directly over the integers."""

    def val(c):
        if c == 0:
            return None
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        return v

    pts = [(n, val(c)) for n, c in enumerate(coeffs) if val(c) is not None]
    order = pts[0][0]
    count = order
    cur = pts[0]
    while cur != pts[-1]:
        # steepest available slope from the current vertex
        best = None
        for q in pts:
            if q[0] <= cur[0]:
                continue
            s = Fraction(q[1] - cur[1], q[0] - cur[0])
            if best is None or s < best[0] or (s == best[0] and q[0] > best[1][0]):
                if best is not None and s == best[0] and q[0] < best[1][0]:
                    continue
                best = (s, q)
        s, q = best
        if s <= 0:
            count += q[0] - cur[0]
        cur = q
    return count


def test_strassmann_matches_independent_hull_oracle():
    rng = random.Random(99)
    for p in (3, 5):
        for _ in range(120):
            deg = rng.randrange(1, 7)
            coeffs = [rng.randrange(-p ** 4, p ** 4 + 1) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs):
                continue
            f = poly_series(p, coeffs, prec=30)
            expect = hull_count_at_least_zero(p, coeffs)
            assert strassmann_count(f) == expect
            assert newton_polygon(f).root_count_with_valuation_at_least(0) == expect


# -- orbit restriction and vanishing ------------------------------------------


def test_restrict_to_orbit_collects_weighted_degrees():
    p, prec = 5, 12
    disc = PolyDisc(p, 2, 0)
    c = PadicScalar.from_int(p, 2, prec)
    f = AnalyticSeries(
        disc,
        {(0, 1): PadicScalar.one(p, prec), (2, 0): -PadicScalar.one(p, prec)},
    )
    g = restrict_to_orbit(f, (c, c * c), (1, 2))
    assert set(g.terms) == {(2,)}
    assert g.terms[(2,)].valuation is None
    # a non-point of the locus leaves a genuine nonzero coefficient
    h = restrict_to_orbit(f, (c, c), (1, 2))
    assert h.terms[(2,)].valuation is not None


def test_check_scaling_unit_gates():
    assert check_scaling_unit(PadicScalar.from_int(5, 6, 8), 5) == 1
    assert check_scaling_unit(PadicScalar.from_int(2, 5, 8), 2) == 2
    with pytest.raises(DomainError):
        check_scaling_unit(PadicScalar.from_int(5, 2, 8), 5)
    with pytest.raises(DomainError):
        check_scaling_unit(PadicScalar.from_int(5, 5, 8), 5)
    with pytest.raises(DomainError):
        check_scaling_unit(PadicScalar.from_int(2, 3, 8), 2)
    with pytest.raises(PrecisionError):
        check_scaling_unit(PadicScalar.one(5, 8), 5)


def test_vanish_certificate_trivial_route():
    p, prec = 5, 12
    disc = PolyDisc(p, 2, 0)
    c = PadicScalar.from_int(p, 2, prec)
    f = AnalyticSeries(
        disc,
        {(0, 1): PadicScalar.one(p, prec), (2, 0): -PadicScalar.one(p, prec)},
    )
    g = restrict_to_orbit(f, (c, c * c), (1, 2))
    res = vanish_certificate(g, PadicScalar.from_int(p, 6, prec), 2)
    assert res["ok"] and res["kind"] == "trivial" and res["points_used"] == 0


def test_vanish_certificate_refusal_carries_the_witness():
    p, prec = 5, 12
    g = poly_series(p, [0, 1], prec)  # the identity function
    alpha = PadicScalar.from_int(p, 6, prec)
    res = vanish_certificate(g, alpha, 3)
    assert not res["ok"]
    assert res["reason"] == "nonzero value on the orbit"
    assert res["index"] == 0
    assert "point" in res and "value" in res


def test_vanish_certificate_refuses_an_orbit_over_the_cap():
    g = poly_series(5, [0, 1], 12)
    with pytest.raises(ValueError, match="over the cap"):
        vanish_certificate(g, PadicScalar.from_int(5, 6, 12), 10 ** 9)


def test_vanish_certificate_budget_refusal():
    p, prec = 5, 12
    g = poly_series(p, [-1, 0, 1], prec)  # two unit roots
    res = vanish_certificate(g, PadicScalar.from_int(p, 6, prec), 1)
    assert not res["ok"]
    assert res["reason"] == "zero count exceeds the point budget"
    assert res["count"] == 2 and res["bound"] == 1


def test_vanish_certificate_with_tail_bound_succeeds():
    p, prec = 5, 14
    disc = PolyDisc(p, 1, 0)
    z = PadicScalar.zero_at(p, 10)
    g = AnalyticSeries(disc, {(0,): z, (1,): z}, tail_exp=10)
    res = vanish_certificate(g, PadicScalar.from_int(p, 6, prec), 2)
    assert res["ok"] and res["points_used"] == 0 and res["tail_exp"] == 10


def test_vanish_certificate_never_certifies_exact_vanishing_numerically():
    p = 5
    # 1 - T at one digit of precision: every sampled value is a zero coset,
    # yet exact vanishing is false; the stored terms refuse, naming the
    # exact term that no orbit value could show nonzero
    one = PadicScalar.one(p, 1)
    g = AnalyticSeries(PolyDisc(p, 1, 0), {(0,): one, (1,): -one})
    alpha = PadicScalar.from_int(p, 6, 2)
    assert vanish_certificate(g, alpha, 1) == {
        "ok": False,
        "kind": "refusal",
        "reason": "coefficient above the tail precision",
        "coefficient": 0,
        "valuation": 0,
    }


def test_vanish_certificate_mixed_terms_are_trivial_at_the_least_bound():
    # exact terms at or below the tail and a zero coset above it: the
    # series is zero to the coset's bound, which strassmann_count refuses
    p = 5
    g = AnalyticSeries(
        PolyDisc(p, 1, 0),
        {(0,): PadicScalar.from_int(p, 125, 6), (1,): PadicScalar.zero_at(p, 2)},
        tail_exp=3,
    )
    with pytest.raises(PrecisionError):
        strassmann_count(g)
    res = vanish_certificate(g, PadicScalar.from_int(p, 6, 8), 2)
    assert res == {"ok": True, "kind": "trivial", "points_used": 0, "tail_exp": 2}


@st.composite
def orbit_cases(draw):
    """A series on the unit disc with exact and zero-coset coefficients, a
    random or null tail, alpha = 1 mod p^s, and a point budget.  The exact
    part may be made to vanish at 1, so that every orbit value can lie
    below the tail while exact terms lie above it."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    exact, terms = {}, {}
    n = 0
    for n in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("exact", "coset", "absent")))
        if kind == "exact":
            exact[n] = draw(st.integers(-p, p).filter(bool))
        elif kind == "coset":
            terms[(n,)] = PadicScalar.zero_at(p, draw(st.integers(0, 6)))
    if sum(exact.values()) and draw(st.booleans()):
        exact[n + 1] = -sum(exact.values())
    terms.update({(n,): PadicScalar.from_int(p, c, 12) for n, c in exact.items()})
    tail = draw(st.none() | st.integers(0, 6))
    s = draw(st.integers(exp_domain_bound(p), 4))
    alpha = PadicScalar.from_int(p, 1 + p ** s * draw(st.integers(1, p)), 12)
    return AnalyticSeries(PolyDisc(p, 1, 0), terms, tail), alpha, draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(orbit_cases())
@example(  # x - 1 = O(5^3) along alpha = 1 + 5^3: every orbit value is below the tail
    (
        AnalyticSeries(PolyDisc(5, 1, 0), poly_series(5, [-1, 1], 10).terms, tail_exp=3),
        PadicScalar.from_int(5, 126, 10),
        8,
    )
)
def test_vanish_certificate_is_decided_by_the_stored_terms(case):
    g, alpha, bound_k = case
    tau = g.tail_exp
    bounds = [c.norm_exponent() for c in g.terms.values()]
    exact_above = [
        c for c in g.terms.values() if c.valuation is not None and (tau is None or c.valuation < tau)
    ]
    try:
        res = vanish_certificate(g, alpha, bound_k)
    except PrecisionError:
        assert exact_above  # only an ambiguous zero count of a nonzero series raises
        return
    if res["ok"]:
        assert not exact_above and res["kind"] == "trivial"
        stated = res["tail_exp"]
        if stated is None:
            assert not bounds and tau is None
        else:
            assert all(b >= stated for b in bounds) and (tau is None or tau >= stated)
    else:
        assert exact_above and res["kind"] == "refusal"
