import random
from fractions import Fraction

import pytest

from padicloci.conic import AnalyticLocus, WeightedAction, conic_certificate
from padicloci.laurent import LaurentPoly
from padicloci.padic import DomainError, PadicScalar, coset_eq
from padicloci.series import PolyDisc, check_scaling_unit

from rational_loci import rational_locus

P = 5
PREC = 16


def action(weights=(1, 2), p=P, prec=PREC):
    return WeightedAction(p, weights, PadicScalar.from_int(p, 1 + p, prec))


def locus(polys, dim=2, radius_exp=0, p=P, prec=PREC):
    return rational_locus(PolyDisc(p, dim, radius_exp), polys, prec)


def x_var(i, dim=2, power=1):
    return LaurentPoly.variable(dim, i, power)


GRAPH = x_var(1) - x_var(0, power=2)  # x2 = x1**2, weighted degree 2 under (1, 2)
LINE = x_var(1) - x_var(0)  # x2 = x1, not weighted-homogeneous


def test_weighted_action_basics():
    a = action()
    assert a.dim == 2
    assert check_scaling_unit(a.alpha, P) == 1
    c = PadicScalar.from_int(P, 3, PREC)
    beta = PadicScalar.from_int(P, 11, PREC)
    moved = a.act(beta, (c, c))
    assert coset_eq(moved[0], beta * c)
    assert coset_eq(moved[1], beta * beta * c)
    assert coset_eq(a.orbit_point(2, (c, c))[0], a.alpha ** 2 * c)
    doc = {"p": P, "weights": [1, 2], "alpha": a.alpha.to_json()}
    b = WeightedAction.from_json(doc)
    assert b.weights == a.weights and b.alpha == a.alpha and b.p == a.p


def test_weighted_action_rejects_bad_generators():
    with pytest.raises(ValueError):
        WeightedAction(P, (), PadicScalar.from_int(P, 6, PREC))
    with pytest.raises(ValueError):
        WeightedAction(P, (1, 0), PadicScalar.from_int(P, 6, PREC))
    with pytest.raises(DomainError):
        WeightedAction(P, (1, 2), PadicScalar.from_int(P, 2, PREC))


def test_locus_construction_and_json():
    S = locus([GRAPH])
    disc = {"p": P, "dim": 2, "radius_exp": 0}
    one, minus_one = (PadicScalar.from_int(P, c, PREC).to_json() for c in (1, -1))
    graph = {
        "disc": disc,
        "terms": [{"exp": [0, 1], "coeff": one}, {"exp": [2, 0], "coeff": minus_one}],
    }
    back = AnalyticLocus.from_json({"disc": disc, "equations": [graph]})
    assert back.disc == S.disc
    assert [g.terms for g in back.equations] == [g.terms for g in S.equations]
    with pytest.raises(ValueError):
        AnalyticLocus(PolyDisc(P, 2, 1), S.equations)


def test_weighted_homogeneous_scaling_identity_sampled():
    rng = random.Random(17)
    a = action()
    for _ in range(25):
        k = rng.randrange(1, 5)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e1 = rng.randrange(0, k + 1)
            rest = k - e1
            if rest % 2:
                continue
            terms[(e1, rest // 2)] = Fraction(rng.randrange(-4, 5))
        q = LaurentPoly(2, terms)
        if q.is_zero():
            continue
        S = locus([q])
        f = S.equations[0]
        x = (
            PadicScalar.from_int(P, rng.randrange(1, P ** 3), PREC),
            PadicScalar.from_int(P, rng.randrange(1, P ** 3), PREC),
        )
        beta = PadicScalar.from_int(P, rng.randrange(1, P ** 4), PREC)
        assert coset_eq(f.evaluate(a.act(beta, x)), beta ** k * f.evaluate(x))


def test_conic_certificate_accepts_the_invariant_graph():
    a = action()
    c = PadicScalar.from_int(P, 2, PREC)
    S = locus([GRAPH])
    res = conic_certificate(S, a, (c, c * c), 2)
    assert res["ok"] and res["kind"] == "conic"
    assert res["points_used"] == 3
    assert [e["equation"] for e in res["equations"]] == [0]


def test_conic_certificate_refuses_with_a_concrete_orbit_point():
    a = action()
    c = PadicScalar.from_int(P, 2, PREC)
    S = locus([LINE])
    res = conic_certificate(S, a, (c, c), 4)
    assert not res["ok"]
    assert res["reason"] == "nonzero value on the orbit"
    assert res["equation"] == 0
    assert res["index"] >= 1
    assert len(res["orbit_point"]) == 2
    # the witness is checkable: the recorded value is provably nonzero
    from padicloci.padic import scalar_from_json

    assert scalar_from_json(res["value"]).valuation is not None


def test_conic_certificate_gates_the_base_point():
    a = action()
    c = PadicScalar.from_int(P, 2, PREC)
    S = locus([GRAPH])
    with pytest.raises(DomainError):
        conic_certificate(S, a, (c, c), 2)
    # a zero-coset coordinate passes the gate: not provably off the locus
    z = PadicScalar.zero_at(P, PREC)
    res = conic_certificate(S, a, (z, z), 2)
    assert res["ok"]
