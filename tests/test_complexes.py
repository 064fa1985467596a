from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicloci.complexes import (
    TwistedComplex,
    _binomial_equation,
    _normalize_associate,
    _reduction,
    circle_complex,
    fitting_locus,
    scan_torsion,
    shape_check,
    specialize,
    specialize_exact,
    surface_complex,
    torus_complex,
    wedge_complex,
)
from padicloci.cosets import TorsionCoset, enumerate_torsion
from padicloci.cyclotomic import CycNumber, modular_root
from padicloci.laurent import LaurentPoly
from padicloci.padic import Refusal

from complex_oracles import (
    binomial_equation_by_division,
    evaluate,
    scan_reference,
    specialize_exact_reference,
)

F = Fraction


# -- cohomology at a character ------------------------------------------------


def test_circle_betti_numbers():
    circ = circle_complex()
    assert specialize(circ, (F(0),)) == (1, 1)
    assert specialize(circ, (F(1, 3),)) == (0, 0)
    assert specialize(circ, (F(1, 2),)) == (0, 0)


def test_torus_betti_numbers():
    tor = torus_complex()
    assert specialize(tor, (F(0), F(0))) == (1, 2, 1)
    assert specialize(tor, (F(1, 2), F(0))) == (0, 0, 0)
    assert specialize(tor, (F(1, 6), F(5, 6))) == (0, 0, 0)


def test_specialization_is_galois_invariant():
    tor = torus_complex()
    assert specialize(tor, (F(1, 6), F(1, 3))) == specialize(
        tor, (F(5, 6), F(5, 3) % 1)
    )


def test_wedge_cohomology():
    w3 = wedge_complex(3)
    assert specialize(w3, (F(0), F(0), F(0))) == (1, 3)
    assert specialize(w3, (F(1, 2), F(0), F(0))) == (0, 2)


def test_surface_cohomology_and_euler_characteristic():
    sur = surface_complex(2)
    assert specialize(sur, (F(0),) * 4) == (1, 4, 1)
    h = specialize(sur, (F(1, 3), F(0), F(0), F(0)))
    assert h[0] == 0 and h[2] == 0
    assert h[0] - h[1] + h[2] == -2


def test_euler_characteristic_is_constant_across_characters():
    for cplx, chi in ((torus_complex(), 0), (wedge_complex(4), -3), (surface_complex(3), -4)):
        n = cplx.nvars
        for k in range(6):
            char = tuple(F(k * (i + 1) % 6, 6) for i in range(n))
            h = specialize(cplx, char)
            signed = sum((-1) ** i * x for i, x in enumerate(h))
            assert signed == chi


# -- modular fast path against the exact oracle --------------------------------


@pytest.mark.parametrize(
    "cplx, m",
    [
        (circle_complex(), 30),
        (torus_complex(), 12),
        (wedge_complex(2), 8),
        (wedge_complex(3), 4),
        (surface_complex(2), 3),
    ],
)
def test_fast_path_equals_the_exact_oracle_on_every_character(cplx, m):
    for tup in product(range(m), repeat=cplx.nvars):
        char = tuple(F(a, m) for a in tup)
        assert specialize(cplx, char) == specialize_exact(cplx, char), char


def test_rank_lost_mod_ell_falls_back_to_the_exact_path():
    # the entry ell vanishes mod ell, so the modular rank 0 is below the
    # upper bound 1 and only the exact elimination can decide
    ell = modular_root(3)[0]
    cplx = TwistedComplex(1, (1, 1), [[[LaurentPoly.constant(1, ell)]]])
    assert specialize(cplx, (F(1, 3),)) == (0, 0)


def test_denominator_divisible_by_ell_forces_the_exact_path():
    ell = modular_root(3)[0]
    assert CycNumber.from_rational(F(1, ell)).mod_image(ell, 1) is None
    cplx = TwistedComplex(1, (1, 1), [[[LaurentPoly.constant(1, F(1, ell))]]])
    assert specialize(cplx, (F(1, 3),)) == (0, 0)


@pytest.mark.parametrize(
    "cell",
    [
        # t - zeta_3, with -zeta_3 written as zeta_6^5
        [{"coeff": "1", "exp": [1]}, {"coeff": {"root": "5/6"}, "exp": [0]}],
        # zeta_3 - t, the same differential up to sign
        [{"coeff": {"root": "1/3"}, "exp": [0]}, {"coeff": "-1", "exp": [1]}],
    ],
)
def test_root_of_unity_coefficient_jumps_only_at_its_root(cell):
    cplx = TwistedComplex.from_json({"vars": 1, "dims": [1, 1], "matrices": [[[cell]]]})
    for a in range(6):
        expect = (1, 1) if a == 2 else (0, 0)
        assert specialize(cplx, (F(a, 6),)) == expect
        assert specialize_exact(cplx, (F(a, 6),)) == expect


def test_modular_root_is_a_primitive_root_at_a_prime_one_mod_m():
    for m in range(1, 25):
        ell, omega = modular_root(m)
        assert ell > 2 ** 31 and (ell - 1) % m == 0
        assert all(ell % d for d in range(2, 50000))
        assert pow(omega, m, ell) == 1
        assert all(pow(omega, k, ell) != 1 for k in range(1, m))


# -- one mod-ell reduction per character order --------------------------------


def _count_mod_images(monkeypatch):
    calls = [0]
    image = CycNumber.mod_image

    def counted(self, ell, root):
        calls[0] += 1
        return image(self, ell, root)

    monkeypatch.setattr(CycNumber, "mod_image", counted)
    return calls


@pytest.mark.parametrize(
    "build, m, most",
    [
        # 6 orders dividing 12, 8 terms
        (torus_complex, 12, 48),
        # 4 orders dividing 10, 16 terms
        (lambda: surface_complex(2), 10, 64),
    ],
)
def test_a_scan_reduces_each_term_once_per_character_order(build, m, most, monkeypatch):
    # a fresh instance: the shared builtin may hold reductions already
    cplx = build()
    cplx = TwistedComplex(cplx.nvars, cplx.dims, cplx.mats)
    calls = _count_mod_images(monkeypatch)
    scan_torsion(cplx, 1, 2, m)
    assert calls[0] <= most


_RATIONALS = st.one_of(
    st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 2)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
_COEFFICIENTS = st.one_of(
    _RATIONALS,
    st.builds(
        lambda a, n, q: CycNumber.root_of_unity(F(a, n)) * q,
        st.integers(0, 5),
        st.sampled_from([2, 3, 4, 6]),
        _RATIONALS,
    ),
)


def _laurent(data, nvars):
    exps = st.tuples(*[st.integers(-1, 3)] * nvars)
    if data.draw(st.booleans()):
        # c (t^u - zeta t^w), which vanishes on a union of torsion cosets
        u, w = data.draw(st.lists(exps, min_size=2, max_size=2, unique=True))
        c, zeta = data.draw(_RATIONALS), CycNumber.root_of_unity(F(data.draw(st.integers(0, 3)), 4))
        return LaurentPoly(nvars, {u: c, w: -zeta * c})
    terms = data.draw(st.lists(exps, min_size=1, max_size=3, unique=True))
    return LaurentPoly(nvars, {e: data.draw(_COEFFICIENTS) for e in terms})


def _small_complex(data):
    nvars = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        rows, cols = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        mat = [[_laurent(data, nvars) for _ in range(cols)] for _ in range(rows)]
        return TwistedComplex(nvars, (cols, rows), [mat])
    # the Koszul complex of (f, g), whose composite -g f + f g vanishes
    f, g = _laurent(data, nvars), _laurent(data, nvars)
    return TwistedComplex(nvars, (1, 2, 1), [[[f], [g]], [[-g, f]]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_instance_answers_every_order_as_a_fresh_one_does(data):
    # one shared complex queried across orders 1-12 in shuffled order:
    # a reduction kept for one order must never answer for another
    cplx = _small_complex(data)
    chars = []
    for n in range(1, 13):
        if cplx.nvars == 1:
            chars += [(F(a, n),) for a in range(n)]
        else:
            pick = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            chars += [(F(a, n), F(b, n)) for a, b in data.draw(st.lists(pick, min_size=1, max_size=3))]
    for char in data.draw(st.permutations(chars)):
        fresh = TwistedComplex(cplx.nvars, cplx.dims, cplx.mats)
        got = specialize(cplx, char)
        assert got == specialize_exact(fresh, char) == specialize(fresh, char), char


_BUILTINS = (circle_complex, torus_complex, lambda: wedge_complex(3), lambda: surface_complex(2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fast_path_matches_the_exact_path_at_random_characters(data):
    # the builtins, and random complexes whose monomials repeat across
    # cells, with cells of several terms and root-of-unity coefficients.
    # A poisoned complex has 1/ell in every cell of its first map, with
    # ell the prime that `modular_root` picks for characters of exact
    # order m, so those characters have no reduction.  Small grids are
    # walked whole, so that the points where a random cell vanishes are
    # met.
    if data.draw(st.integers(0, 3)) == 0:
        cplx = data.draw(st.sampled_from(_BUILTINS))()
    else:
        cplx = _small_complex(data)
    # the random binomial cells vanish at points of order 4 or 12
    m = data.draw(st.one_of(st.sampled_from((4, 12)), st.integers(1, 12)))
    poisoned = data.draw(st.booleans())
    if poisoned:
        orders = [c.order for mat in cplx.mats for row in mat for e in row for c in e.terms.values()]
        q = F(1, modular_root(lcm(m, *orders))[0])
        first = [[e.scale(q) for e in row] for row in cplx.mats[0]]
        cplx = TwistedComplex(cplx.nvars, cplx.dims, [first, *cplx.mats[1:]])
    if m ** cplx.nvars <= 150:
        chars = list(product(range(m), repeat=cplx.nvars))
    else:
        chars = data.draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * cplx.nvars), max_size=10))
    # one character of exact order m, written with numerators off [0, m)
    chars.append((1 - m,) + data.draw(st.tuples(*[st.integers(-m, 2 * m)] * (cplx.nvars - 1))))
    for a in chars:
        want = specialize_exact(cplx, a, m)
        assert specialize(cplx, a, m) == specialize(cplx, [F(x, m) for x in a]) == want, a
    assert (_reduction(cplx, m) is None) == poisoned


def test_a_complex_keeps_a_bounded_number_of_reductions(monkeypatch):
    from padicloci import complexes

    monkeypatch.setattr(complexes, "_REDUCTIONS_KEPT", 3)
    tor = torus_complex()
    tor = TwistedComplex(tor.nvars, tor.dims, tor.mats)
    for n in list(range(5, 13)) * 2:
        char = (F(1, n), F(n - 2, n))
        assert specialize(tor, char) == specialize_exact(tor, char) == (0, 0, 0)
        assert len(tor._reductions) <= 3
    assert list(tor._reductions) == [10, 11, 12]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_path_matches_the_root_of_unity_oracle_in_both_forms(data):
    cplx = _small_complex(data)
    m = data.draw(st.integers(1, 12))
    a = data.draw(st.tuples(*[st.integers(0, m - 1)] * cplx.nvars))
    char = tuple(F(x, m) for x in a)
    want = specialize_exact_reference(cplx, char)
    assert specialize_exact(cplx, char) == want
    # Q/Z values off [0, 1), and as strings
    shifts = data.draw(st.tuples(*[st.integers(-2, 2)] * cplx.nvars))
    assert specialize_exact(cplx, [str(q + s) for q, s in zip(char, shifts)]) == want
    # integer numerators neither reduced nor in [0, order)
    k = data.draw(st.integers(1, 4))
    b = [k * (x + m * s) for x, s in zip(a, shifts)]
    assert specialize_exact(cplx, b, k * m) == want
    assert specialize(cplx, b, k * m) == want


def test_non_reduced_numerators_name_the_same_character():
    # t1 - zeta_3 and t2 - zeta_3^2 both vanish at (1/3, 2/3) only
    t1, t2 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    z3 = CycNumber.root_of_unity(F(1, 3))
    cplx = TwistedComplex(2, (1, 2), [[[t1 - z3], [t2 - z3 * z3]]])
    frac = (F(1, 3), F(2, 3))
    assert specialize_exact_reference(cplx, frac) == (1, 2)
    for fn in (specialize, specialize_exact):
        assert fn(cplx, frac) == fn(cplx, (2, 4), 6) == fn(cplx, (-8, 20), 12) == (1, 2)
        assert fn(cplx, (4, 2), 6) == (0, 1)


@pytest.mark.parametrize("fn", [specialize, specialize_exact])
def test_a_character_of_the_wrong_arity_is_refused_in_both_forms(fn):
    tor = torus_complex()
    with pytest.raises(ValueError, match="character arity mismatch"):
        fn(tor, (F(1, 2),))
    with pytest.raises(ValueError, match="character arity mismatch"):
        fn(tor, (1, 2, 3), 6)


# -- torsion scans ------------------------------------------------------------


def test_torus_scan_hits_only_the_trivial_character():
    s = scan_torsion(torus_complex(), 1, 0, 6)
    assert s.scanned == 36
    assert s.hits == ((F(0), F(0)),)
    assert s.order_bound == 6 and s.i == 1 and s.j == 0


def test_wedge_scan_thresholds():
    w3 = wedge_complex(3)
    s2 = scan_torsion(w3, 1, 2, 2)
    assert s2.hits == ((F(0), F(0), F(0)),) and s2.scanned == 8
    assert scan_torsion(w3, 1, 3, 2).hits == ()


def _t_minus_zeta3():
    # t - zeta_3, with -zeta_3 written as zeta_6^5
    cell = [{"coeff": "1", "exp": [1]}, {"coeff": {"root": "5/6"}, "exp": [0]}]
    return TwistedComplex.from_json({"vars": 1, "dims": [1, 1], "matrices": [[[cell]]]})


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize(
    "build, i, j",
    [
        (circle_complex, 0, 0),
        (torus_complex, 1, 0),
        (lambda: wedge_complex(2), 1, 1),
        (lambda: wedge_complex(3), 1, 2),
        (lambda: surface_complex(1), 1, 0),
        (lambda: surface_complex(2), 1, 2),
        # hits only 1/3, whose numerator 2 at order 6 is not reduced
        (_t_minus_zeta3, 0, 0),
    ],
    ids=["circle", "torus", "wedge2", "wedge3", "surface1", "surface2", "t-zeta3"],
)
def test_scan_matches_the_fraction_grid_oracle(build, i, j, m):
    got, want = scan_torsion(build(), i, j, m), scan_reference(build(), i, j, m)
    assert got.hits == want.hits and got.scanned == want.scanned


def test_scan_json_shape():
    s = scan_torsion(circle_complex(), 0, 0, 4)
    doc = s.to_json()
    assert doc["scanned"] == 4
    assert doc["hits"] == [["0"]]
    assert doc["i"] == 0 and doc["j"] == 0 and doc["order_bound"] == 4


# -- determinantal loci -------------------------------------------------------


def test_circle_jumping_locus_is_a_single_binomial():
    f1 = fitting_locus(circle_complex(), 0, 0)
    assert len(f1) == 1
    assert set(f1[0].terms) == {(0,), (1,)}


def test_torus_jumping_locus_dedupes_to_two_binomials():
    f2 = fitting_locus(torus_complex(), 1, 0)
    assert len(f2) == 2
    exps = sorted(tuple(sorted(g.terms)) for g in f2)
    assert exps == [((0, 0), (0, 1)), ((0, 0), (1, 0))]


def test_fitting_trivial_threshold_and_h0():
    tor = torus_complex()
    f3 = fitting_locus(tor, 1, 2)
    assert len(f3) == 1 and len(f3[0].terms) == 1
    assert len(fitting_locus(tor, 0, 0)) == 2


def test_fitting_generators_vanish_exactly_on_the_jump_set():
    # dual route: a 12-torsion character is a hit of the scan exactly when
    # every generator of the fitting ideal vanishes at it
    tor = torus_complex()
    gens = fitting_locus(tor, 1, 0)
    scan = scan_torsion(tor, 1, 0, 12)
    hits = set(scan.hits)
    for char in product([F(a, 12) for a in range(12)], repeat=2):
        point = tuple(CycNumber.root_of_unity(c) for c in char)
        vanish = all(evaluate(g, point).is_zero() for g in gens)
        assert vanish == (char in hits)


def test_fitting_size_cap():
    t = LaurentPoly.variable(1, 0)
    entry = t - LaurentPoly.constant(1, 1)
    big = TwistedComplex(1, (7, 7), [[[entry] * 7 for _ in range(7)]])
    with pytest.raises(Refusal, match="^size limit exceeded$"):
        fitting_locus(big, 0, 0)
    # a 6 x 6 map at h^0 > 4: 36 entries times 225 distinct 2-minors,
    # none a unit, is over the 5000-generator product cap
    mat = [[t - LaurentPoly.constant(1, (r + 2) ** (c + 1)) for c in range(6)] for r in range(6)]
    with pytest.raises(Refusal, match="^size limit exceeded$"):
        fitting_locus(TwistedComplex(1, (6, 6), [mat]), 0, 4)


# -- shape checks -------------------------------------------------------------


def test_shape_confirms_the_torus_trivial_point():
    gens = fitting_locus(torus_complex(), 1, 0)
    v = shape_check(gens)
    assert v["verdict"] == "shape confirmed"
    assert len(v["cosets"]) == 1
    c0 = TorsionCoset.from_json(v["cosets"][0])
    assert c0.dim == 0 and c0.contains((F(0), F(0)))
    # the coset points are exactly the scan hits
    pts = set(enumerate_torsion(c0, 6))
    assert pts == set(scan_torsion(torus_complex(), 1, 0, 6).hits)


def test_shape_confirms_a_positive_dimensional_coset():
    tt = LaurentPoly(2, {(1, 1): 1, (0, 0): -1})
    v = shape_check([tt])
    assert v["verdict"] == "shape confirmed"
    assert TorsionCoset.from_json(v["cosets"][0]).dim == 1


def test_shape_undetermined_for_non_binomial_generators():
    bad = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -2})
    assert shape_check([bad])["verdict"] == "shape undetermined: non-binomial generators"


def test_shape_unit_generator_means_empty_locus():
    v = shape_check([LaurentPoly.constant(2, 1)])
    assert v["verdict"] == "shape confirmed" and v["cosets"] == []


def test_shape_with_root_of_unity_ratio():
    g = LaurentPoly(1, {(2,): 1, (0,): -CycNumber.root_of_unity(F(1, 3))})
    v = shape_check([g])
    assert v["verdict"] == "shape confirmed"
    assert len(v["cosets"]) == 2
    membership = {TorsionCoset.from_json(d).contains((F(1, 6),)) for d in v["cosets"]}
    assert membership == {True, False}


@st.composite
def _coefficients(draw):
    """A nonzero rational, a root of unity times a rational, or a general
    element of a small cyclotomic field."""
    kind = draw(st.sampled_from(("rational", "root", "general")))
    if kind == "rational":
        num = draw(st.integers(-5, 5).filter(bool))
        return CycNumber.from_rational(F(num, draw(st.integers(1, 5))))
    if kind == "root":
        n = draw(st.integers(1, 30))
        z = CycNumber.root_of_unity(F(draw(st.integers(0, n - 1)), n))
        return z * draw(st.sampled_from((1, -1, F(1, 2), -2)))
    n = draw(st.integers(1, 16))
    c = CycNumber(n, draw(st.lists(st.integers(-3, 3), min_size=1, max_size=n)))
    assume(not c.is_zero())
    return c


_EXPONENTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(_coefficients(), _coefficients(), _EXPONENTS, _EXPONENTS)
def test_binomial_roots_match_the_division_route(c0, c1, e0, e1):
    assume(e0 != e1)
    g = LaurentPoly(2, {e0: c0, e1: c1})
    assert _binomial_equation(_normalize_associate(g)) == binomial_equation_by_division(g)


def test_binomial_roots_of_roots_of_unity_are_found():
    # t**2 - zeta_3: the root 1/3; 2 t + zeta_5: zeta_5 / 2 is no root of unity
    z3, z5 = CycNumber.root_of_unity(F(1, 3)), CycNumber.root_of_unity(F(1, 5))
    g = _normalize_associate(LaurentPoly(1, {(2,): 1, (0,): -z3}))
    assert _binomial_equation(g) == ((2,), F(1, 3))
    assert _binomial_equation(_normalize_associate(LaurentPoly(1, {(1,): 2, (0,): z5}))) is None


# -- complex construction and serialization -----------------------------------


def test_complex_rejects_non_composing_differentials():
    t = LaurentPoly.variable(1, 0)
    with pytest.raises(ValueError) as info:
        TwistedComplex(1, (1, 1, 1), [[[t]], [[t]]])
    assert "compose" in str(info.value)


def test_complex_rejects_shape_mismatches():
    t = LaurentPoly.variable(1, 0)
    with pytest.raises(ValueError):
        TwistedComplex(1, (1, 2), [[[t]]])
    with pytest.raises(ValueError):
        TwistedComplex(1, (0, 1), [[[t]]])


def _binomial_cell(plus, minus):
    return [{"coeff": "1", "exp": plus}, {"coeff": "-1", "exp": minus}]


def test_complex_json_round_trip():
    t1, t2, one = [1, 0], [0, 1], [0, 0]
    doc = {
        "vars": 2,
        "dims": [1, 2, 1],
        "matrices": [
            [[_binomial_cell(t1, one)], [_binomial_cell(t2, one)]],
            [[_binomial_cell(one, t2), _binomial_cell(t1, one)]],
        ],
    }
    back = TwistedComplex.from_json(doc)
    tor = torus_complex()
    assert (back.nvars, back.dims, back.mats) == (tor.nvars, tor.dims, tor.mats)
    assert specialize(back, (F(1, 3), F(2, 3))) == (0, 0, 0)
    # without dims, the module ranks are read off the matrix shapes
    doc = {"vars": 2, "matrices": [[[_binomial_cell(t1, one)], [_binomial_cell(t2, one)]]]}
    w = wedge_complex(2)
    back = TwistedComplex.from_json(doc)
    assert (back.dims, back.mats) == (w.dims, w.mats)


def test_circle_and_torus_are_the_genus_one_builtins():
    assert circle_complex() is wedge_complex(1)
    assert torus_complex() is surface_complex(1)
