import math
import random
from fractions import Fraction
from itertools import islice, product
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicloci.conic import WeightedAction
from padicloci.cosets import (
    BinomialSystem,
    TorsionCoset,
    enumerate_torsion,
    sigma_stable,
    solve_binomial,
    torsion_certificate_pipeline,
    torsion_walk,
)
from padicloci.intlinalg import (
    hermite_normal_form,
    identity_matrix,
    mat_vec,
    vec_mat,
)
from padicloci.padic import PadicScalar
from int_oracles import diagonal_of, smith_normal_form
from test_intlinalg import lattice_solve

F = Fraction

IDENT = [[1, 0], [0, 1]]
SWAP = [[0, 1], [1, 0]]


def action(p=5, weights=(1, 2), prec=30):
    return WeightedAction(p, weights, PadicScalar.from_int(p, 1 + p, prec))


# -- solving ------------------------------------------------------------------


def test_square_equation_splits_into_two_cosets():
    cs = solve_binomial(BinomialSystem(2, [((2, 0), 0)]))
    assert len(cs) == 2
    assert all(c.basis == ((1, 0),) for c in cs)
    assert sorted(c.translate for c in cs) == [(F(0),), (F(1, 2),)]
    assert all(c.dim == 1 for c in cs)


def test_mixed_binomial_gives_one_component():
    cs = solve_binomial(BinomialSystem(2, [((2, 1), 0)]))
    assert len(cs) == 1
    assert cs[0].dim == 1
    assert cs[0].basis == ((2, 1),) and cs[0].translate == (F(0),)


def test_empty_system_is_the_whole_torus():
    cs = solve_binomial(BinomialSystem(3, []))
    assert len(cs) == 1 and cs[0].dim == 3 and cs[0].basis == ()


def test_inconsistent_system_has_no_components():
    bad = BinomialSystem(1, [((1,), F(1, 2)), ((1,), 0)])
    assert solve_binomial(bad) == []


def test_solutions_match_brute_force_on_twelve_torsion():
    rng = random.Random(7)
    M = 12
    for _ in range(60):
        d = rng.randrange(1, 4)
        eqs = []
        for _ in range(rng.randrange(0, 3)):
            v = [0] * d
            while not any(v):
                v = [rng.randrange(-3, 4) for _ in range(d)]
            eqs.append((v, F(rng.randrange(0, M), M)))
        system = BinomialSystem(d, eqs)
        comps = solve_binomial(system)
        grid = product([F(a, M) for a in range(M)], repeat=d)
        brute = {
            t
            for t in grid
            if all(
                sum(c * x for c, x in zip(v, t)) % 1 == e
                for v, e in system.equations
            )
        }
        covered = set()
        for comp in comps:
            pts = set(enumerate_torsion(comp, M))
            assert not (pts & covered), "components overlap"
            assert pts <= brute
            covered |= pts
            # saturated lattice: either empty or the full product count
            assert len(pts) in (0, M ** comp.dim)
        assert covered == brute


def test_membership_test_agrees_with_enumeration():
    cs = solve_binomial(BinomialSystem(2, [((2, 1), F(1, 2))]))
    points = [p for c in cs for p in enumerate_torsion(c, 4)]
    for t in product([F(a, 4) for a in range(4)], repeat=2):
        assert any(c.contains(t) for c in cs) == (t in points)


# -- torsion enumeration ------------------------------------------------------


def test_enumerate_torsion_examples():
    whole = TorsionCoset(1, (), ())
    assert enumerate_torsion(whole, 2) == [(F(0),), (F(1, 2),)]
    comp = solve_binomial(BinomialSystem(2, [((2, 1), 0)]))[0]
    assert enumerate_torsion(comp, 2) == [(F(0), F(0)), (F(1, 2), F(0))]
    half = TorsionCoset(1, [(1,)], [F(1, 2)])
    assert enumerate_torsion(half, 2) == [(F(1, 2),)]
    # the translate is not 3-torsion, so no 3-torsion points exist
    assert enumerate_torsion(half, 3) == []


def coset_walk(coset, m):
    return torsion_walk(coset.ambient, list(zip(coset.basis, coset.translate)), m)


@st.composite
def cosets(draw):
    """A component of a random binomial system of rank <= 3; no equations
    gives the whole torus (no pinned characters)."""
    d = draw(st.integers(1, 3), label="rank")
    vec = st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)
    rhs = st.builds(F, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6)))
    eqs = draw(st.lists(st.tuples(vec, rhs), max_size=3), label="equations")
    comps = solve_binomial(BinomialSystem(d, eqs))
    if not comps:
        return TorsionCoset(d, (), ())
    return draw(st.sampled_from(comps), label="component")


@settings(max_examples=300, deadline=None)
@given(coset=cosets(), m=st.integers(1, 12))
def test_torsion_walk_matches_a_brute_force_filter(coset, m):
    # orders that miss a translate denominator give empty walks; the
    # integer numerators a at order m and the Q/Z point a / m read alike
    brute = []
    for a in product(range(m), repeat=coset.ambient):
        member = coset.contains(tuple(F(x, m) for x in a))
        assert coset.contains(a, m) == member
        if member:
            brute.append(a)
    assert list(coset_walk(coset, m)) == brute
    assert enumerate_torsion(coset, m) == [tuple(F(x, m) for x in a) for a in brute]


@st.composite
def pin_systems(draw):
    """Up to four pins on a torus of rank <= 3 with rows that need not be
    saturated, independent or even nonzero; a pin is sometimes repeated
    or summed with another under a fresh right side, which is most often
    inconsistent with them."""
    d = draw(st.integers(1, 3), label="rank")
    row = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    rhs = st.builds(F, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6, 12)))
    pins = draw(st.lists(st.tuples(row, rhs), max_size=3), label="pins")
    if pins and draw(st.booleans()):
        (v, _), (w, _) = draw(st.sampled_from(pins)), draw(st.sampled_from(pins))
        pins.append(([x + y for x, y in zip(v, w)], draw(rhs)))
    return d, pins


@settings(max_examples=400, deadline=None)
@given(system=pin_systems(), m=st.integers(1, 12))
@example(system=(1, [([2], F(0)), ([2], F(1, 2))]), m=4)
def test_torsion_walk_of_any_pins_matches_a_brute_force_filter(system, m):
    # each pin reads <v, a> = m * e mod m, with no solution when m * e is
    # not an integer; an inconsistent system walks no point
    d, pins = system
    brute = [
        a
        for a in product(range(m), repeat=d)
        if all((sum(map(mul, v, a)) - m * e) % m == 0 for v, e in pins)
    ]
    assert list(torsion_walk(d, pins, m)) == brute


def smith_walk(coset, order):
    """The walk torsion_walk made before it read the pins' own Hermite
    form: a Smith transform W of the pins (on the columns they use) gives
    one solution, and the rest differ by the lattice of W's free columns,
    the unused axes and order * Z^d, whose row Hermite basis is upper
    triangular with h_ii dividing order."""
    m = int(order)
    d = coset.ambient
    target = [v * m for v in coset.translate]
    if any(t.denominator != 1 for t in target):
        return
    used = [j for j in range(d) if any(row[j] for row in coset.basis)]
    r, s = len(coset.basis), len(used)
    u, _, w = smith_normal_form([[row[j] for j in used] for row in coset.basis])
    part = mat_vec(w, mat_vec(u, [int(t) for t in target]) + [0] * (s - r))
    free = [[row[j] for row in w] for j in range(r, s)]
    hnf, _, _ = hermite_normal_form(free + [[m * x for x in e] for e in identity_matrix(s)])
    start, step, moves = [0] * d, [1] * d, [()] * d
    for k, j in enumerate(used):
        start[j], step[j] = part[k] % m, hnf[k][k]
        moves[j] = [(used[l], hnf[k][l]) for l in range(k + 1, s) if hnf[k][l]]
    for ks in product(*(range(m // h) for h in step)):
        res, pt = list(start), []
        for i, k in enumerate(ks):
            a = res[i] % step[i] + k * step[i]
            c = (a - res[i]) // step[i]
            for j, y in moves[i]:
                res[j] = (res[j] + c * y) % m
            pt.append(a)
        yield tuple(pt)


@st.composite
def wide_cosets(draw):
    """A component of one to three random pins on a random subset of the
    columns of a torus of rank 4 to 8, with an order that often clears the
    translate's denominators."""
    d = draw(st.integers(4, 8), label="rank")
    cols = draw(st.sets(st.integers(0, d - 1), min_size=1), label="columns")
    vec = st.lists(st.integers(-5, 5), min_size=d, max_size=d).map(
        lambda v: [c if j in cols else 0 for j, c in enumerate(v)]
    )
    rhs = st.builds(F, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6)))
    eqs = draw(st.lists(st.tuples(vec.filter(any), rhs), min_size=1, max_size=3))
    comps = solve_binomial(BinomialSystem(d, eqs))
    assume(comps)
    coset = draw(st.sampled_from(comps), label="component")
    den = math.lcm(*(t.denominator for t in coset.translate))
    if den <= 30 and draw(st.booleans()):
        m = den * draw(st.integers(1, 30 // den))
    else:
        m = draw(st.integers(1, 30))
    return coset, m


@settings(max_examples=300, deadline=None)
@given(case=wide_cosets())
def test_torsion_walk_matches_the_smith_walk(case):
    # past brute force: the whole walk up to 20000 points, else its head
    coset, m = case
    n = None if m ** coset.dim <= 20000 else 2000
    assert list(islice(coset_walk(coset, m), n)) == list(islice(smith_walk(coset, m), n))


# -- stability under automorphisms -------------------------------------------


def transform_coset(coset, auto):
    """The coset pinned by the transported characters v A, which
    sigma_stable compares with the coset itself."""
    rows = [vec_mat(list(row), auto) for row in coset.basis]
    return TorsionCoset(coset.ambient, rows, coset.translate)


def sigma_stable_by_solving(coset, auto):
    """The route sigma_stable took before it compared canonical cosets:
    each transported basis character v A is solved over the Hermite
    basis, and the value it carries there must be zeta(v)."""
    for row, val in zip(coset.basis, coset.translate):
        coeffs = lattice_solve(coset.basis, vec_mat(list(row), auto))
        if coeffs is None or sum(c * t for c, t in zip(coeffs, coset.translate)) % 1 != val:
            return False
    return True


def random_unimodular(rng, d):
    """A product of a few swaps, sign flips and elementary row additions."""
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(rng.randrange(0, 4)):
        i, j = rng.randrange(d), rng.randrange(d)
        move = rng.randrange(3)
        if move == 0:
            a[i], a[j] = a[j], a[i]
        elif move == 1:
            a[i] = [-x for x in a[i]]
        elif i != j:
            c = rng.choice((-1, 1))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def test_sigma_stable_examples_and_dual_route():
    line = TorsionCoset(2, [(1, 0)], [F(0)])
    diag = TorsionCoset(2, [(1, 0), (0, 1)], [F(0), F(0)])
    assert sigma_stable(line, IDENT)
    assert not sigma_stable(line, SWAP)
    assert sigma_stable(diag, SWAP)
    assert transform_coset(line, IDENT) == line
    assert transform_coset(line, SWAP) != line
    assert transform_coset(diag, SWAP) == diag


def test_sigma_stable_checks_carried_values():
    anti = TorsionCoset(2, [(1, 1)], [F(1, 3)])
    assert sigma_stable(anti, SWAP)
    # swap negates (1, -1), so the value 1/3 would have to equal -1/3
    anti2 = TorsionCoset(2, [(1, -1)], [F(1, 3)])
    assert not sigma_stable(anti2, SWAP)
    # 1/2 = -1/2 mod 1: stable again
    anti3 = TorsionCoset(2, [(1, -1)], [F(1, 2)])
    assert sigma_stable(anti3, SWAP)


def test_transform_coset_carries_the_characters():
    # rows move by v -> v A, so a point s lies on the transform exactly
    # when A s lies on the original coset
    rng = random.Random(31)
    autos = [SWAP, [[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[0, -1], [1, 0]]]
    grid = list(product([F(a, 6) for a in range(6)], repeat=2))
    for _ in range(20):
        eqs = [(
            [rng.randrange(-2, 3) or 1, rng.randrange(-2, 3)],
            F(rng.randrange(0, 6), 6),
        )]
        comps = solve_binomial(BinomialSystem(2, eqs))
        auto = autos[rng.randrange(len(autos))]
        for comp in comps:
            moved = transform_coset(comp, auto)
            for s in grid:
                image = tuple(
                    sum(a * x for a, x in zip(row, s)) % 1 for row in auto
                )
                assert moved.contains(s) == comp.contains(image)


def test_sigma_stable_agrees_with_the_transformed_coset():
    rng = random.Random(47)
    outcomes = set()
    for _ in range(2000):
        d = rng.randrange(1, 4)
        rows = [[rng.randrange(-2, 3) for _ in range(d)] for _ in range(d)]
        eqs = [
            (v, F(rng.randrange(0, 6), 6))
            for v in rows[: rng.randrange(0, d + 1)]
            if any(v)
        ]
        for comp in solve_binomial(BinomialSystem(d, eqs)):
            auto = random_unimodular(rng, d)
            stable = sigma_stable(comp, auto)
            assert stable == sigma_stable_by_solving(comp, auto)
            outcomes.add(stable)
    assert outcomes == {True, False}


def test_sigma_stable_rejects_non_unimodular_maps():
    line = TorsionCoset(2, [(1, 0)], [F(0)])
    with pytest.raises(ValueError) as info:
        sigma_stable(line, [[2, 0], [0, 1]])
    assert "unimodular" in str(info.value)


# -- certificate pipeline -----------------------------------------------------


def test_pipeline_identity_component():
    system = BinomialSystem(2, [((2, 1), 0)])
    certs = torsion_certificate_pipeline(system, action(weights=(1, 1)), IDENT, 20)
    assert len(certs) == 1
    c0 = certs[0]
    assert c0["status"] == "ok"
    assert c0["p"] == 5
    assert c0["torsion_point"] == ["0", "0"] and c0["order"] == 1
    assert c0["sigma_power"] == 1
    assert c0["contraction_exponent"] == 0
    assert c0["conic"]["ok"] is True
    assert c0["residue_character"]["f"] == 1
    assert c0["translation"]["coset_through_identity"]["translate"] == ["0"]


def test_pipeline_two_torsion_at_odd_p():
    system = BinomialSystem(2, [((2, 0), 0)])
    certs = torsion_certificate_pipeline(system, action(), IDENT, 20)
    assert len(certs) == 2
    assert {c["order"] for c in certs} == {1, 2}
    nontriv = next(c for c in certs if c["order"] == 2)
    assert nontriv["status"] == "ok"
    assert nontriv["torsion_point"] == ["1/2", "0"]
    # the residue character genuinely sees the sign
    assert nontriv["residue_character"]["coeffs"][0] != [1]


def test_pipeline_unavailable_branch_at_p_dividing_the_order():
    system = BinomialSystem(2, [((2, 0), 0)])
    act2 = WeightedAction(2, (1, 2), PadicScalar.from_int(2, 5, 30))
    certs = torsion_certificate_pipeline(system, act2, IDENT, 20)
    stats = sorted(c["status"] for c in certs)
    assert stats == [
        "certificate unavailable at p, torsion point still emitted exactly",
        "ok",
    ]
    unav = next(c for c in certs if c["status"] != "ok")
    assert unav["torsion_point"] == ["1/2", "0"] and unav["order"] == 2
    assert "conic" not in unav


def test_pipeline_rejects_unstable_actions():
    system = BinomialSystem(2, [((2, 0), 0)])
    with pytest.raises(ValueError) as info:
        torsion_certificate_pipeline(system, action(), SWAP, 20)
    assert str(info.value) == "hypothesis violation"


def test_pipeline_rejects_lattices_that_mix_weight_blocks():
    system = BinomialSystem(2, [((1, 1), 0)])
    with pytest.raises(ValueError) as info:
        torsion_certificate_pipeline(system, action(), IDENT, 20)
    assert str(info.value) == "hypothesis violation"
    # the same lattice is graded once the weights agree
    certs = torsion_certificate_pipeline(system, action(weights=(1, 1)), IDENT, 20)
    assert certs[0]["status"] == "ok"


def test_pipeline_with_a_genuine_sigma_power():
    system = BinomialSystem(2, [((1, 1), F(1, 3))])
    comp = solve_binomial(system)[0]
    assert sigma_stable(comp, SWAP)
    certs = torsion_certificate_pipeline(system, action(weights=(1, 1)), SWAP, 20)
    assert len(certs) == 1
    c0 = certs[0]
    assert c0["status"] == "ok"
    assert c0["torsion_point"] == ["0", "1/3"]
    assert c0["order"] == 3
    assert c0["sigma_power"] == 2
    # order 3 forces the quadratic unramified extension of Q_5
    assert c0["residue_character"]["f"] == 2


def test_json_round_trips():
    system = BinomialSystem.from_json({"dim": 2, "equations": [{"exponents": [2, 1], "rhs": "0"}]})
    assert system.dim == 2 and system.equations == (((2, 1), 0),)
    comp = solve_binomial(system)[0]
    assert TorsionCoset.from_json(comp.to_json()) == comp


def test_coset_constructor_normalizes_and_validates():
    # dependent generator rows collapse; inconsistent carried values refuse
    c = TorsionCoset(2, [(1, 0), (2, 0)], [F(0), F(0)])
    assert c.basis == ((1, 0),)
    with pytest.raises(ValueError):
        TorsionCoset(2, [(1, 0), (2, 0)], [F(0), F(1, 3)])
    with pytest.raises(ValueError):
        TorsionCoset(2, [(2, 0)], [F(0)])  # non-saturated lattice

@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=d
        )
    )
)
def test_saturation_check_matches_the_smith_diagonal(rows):
    basis = hermite_normal_form(rows)[0]
    saturated = not basis or all(x == 1 for x in diagonal_of(smith_normal_form(basis)[1]))
    try:
        TorsionCoset(len(rows[0]), rows, [F(0)] * len(rows))
    except ValueError as e:
        assert not saturated and "not saturated" in str(e)
    else:
        assert saturated


@pytest.mark.parametrize(
    "row",
    [[1] * 4000, [6, 10, 15] + [0] * 3997, [2] * 3999 + [3]],
    ids=["all-ones", "coprime-head", "coprime-tail"],
)
def test_one_row_coset_at_high_rank_is_prompt(row, time_budget):
    with time_budget(0.25):
        c = TorsionCoset(len(row), [row], [F(1, 2)])
    assert c.dim == len(row) - 1
