import random
from fractions import Fraction

import pytest

from padicloci.conic import (
    AnalyticLocus,
    WeightedAction,
    conic_certificate,
    linearity_check,
    orbit_differential_at_zero,
    tangent_space_at_zero,
    weighted_degree,
)
from padicloci.cyclotomic import CycNumber
from padicloci.laurent import LaurentPoly
from padicloci.padic import DomainError, PadicScalar, coset_eq
from padicloci.series import PolyDisc

P = 5
PREC = 16


def action(weights=(1, 2), p=P, prec=PREC):
    return WeightedAction(p, weights, PadicScalar.from_int(p, 1 + p, prec))


def locus(polys, dim=2, radius_exp=0, p=P, prec=PREC):
    return AnalyticLocus.from_polynomials(PolyDisc(p, dim, radius_exp), polys, prec)


def x_var(i, dim=2, power=1):
    return LaurentPoly.variable(dim, i, power)


GRAPH = x_var(1) - x_var(0, power=2)  # x2 = x1**2, weighted degree 2 under (1, 2)
LINE = x_var(1) - x_var(0)  # x2 = x1, not weighted-homogeneous


def test_weighted_action_basics():
    a = action()
    assert a.dim == 2
    assert a.scaling_valuation == 1
    c = PadicScalar.from_int(P, 3, PREC)
    beta = PadicScalar.from_int(P, 11, PREC)
    moved = a.act(beta, (c, c))
    assert coset_eq(moved[0], beta * c)
    assert coset_eq(moved[1], beta * beta * c)
    assert coset_eq(a.orbit_point(2, (c, c))[0], a.alpha ** 2 * c)
    b = WeightedAction.from_json(a.to_json())
    assert b.weights == a.weights and b.alpha == a.alpha and b.p == a.p


def test_weighted_action_rejects_bad_generators():
    with pytest.raises(ValueError):
        WeightedAction(P, (), PadicScalar.from_int(P, 6, PREC))
    with pytest.raises(ValueError):
        WeightedAction(P, (1, 0), PadicScalar.from_int(P, 6, PREC))
    with pytest.raises(DomainError):
        WeightedAction(P, (1, 2), PadicScalar.from_int(P, 2, PREC))


def test_weighted_degree_values():
    assert weighted_degree(GRAPH, (1, 2)) == 2
    assert weighted_degree(LINE, (1, 2)) is None
    assert weighted_degree(LaurentPoly.zero(2), (1, 2)) is None
    assert weighted_degree(LaurentPoly.constant(2, 3), (1, 2)) == 0


def test_orbit_differential_keeps_only_weight_one_slots():
    a = action()
    c = PadicScalar.from_int(P, 7, PREC)
    d = orbit_differential_at_zero(a, (c, c))
    assert coset_eq(d[0], c)
    assert d[1].is_zero_coset


def test_locus_construction_and_json():
    S = locus([GRAPH])
    assert S.exact
    back = AnalyticLocus.from_json(S.to_json())
    assert back.exact and back.disc == S.disc
    assert back.polynomials == S.polynomials
    loose = AnalyticLocus(S.disc, S.equations)
    assert not loose.exact
    assert not AnalyticLocus.from_json(loose.to_json()).exact


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
        kk = weighted_degree(q, a.weights)
        S = locus([q])
        f = S.equations[0]
        x = (
            PadicScalar.from_int(P, rng.randrange(1, P ** 3), PREC),
            PadicScalar.from_int(P, rng.randrange(1, P ** 3), PREC),
        )
        beta = PadicScalar.from_int(P, rng.randrange(1, P ** 4), PREC)
        assert coset_eq(f.evaluate(a.act(beta, x)), beta ** kk * f.evaluate(x))


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


def test_tangent_space_pinned_cases():
    one = CycNumber.from_rational(1)
    zero = CycNumber.from_rational(0)
    assert tangent_space_at_zero(locus([GRAPH])) == ((one, zero),)
    assert tangent_space_at_zero(locus([])) == ((one, zero), (zero, one))
    both = locus([x_var(0), x_var(1)])
    assert tangent_space_at_zero(both) == ()
    with pytest.raises(DomainError):
        tangent_space_at_zero(locus([x_var(0) + 1]))
    with pytest.raises(DomainError):
        tangent_space_at_zero(AnalyticLocus(PolyDisc(P, 2, 0), []))


def target_locus(polys, prec=PREC):
    return AnalyticLocus.from_polynomials(PolyDisc(P, 1, 0), polys, prec)


def test_linearity_holds_for_a_coordinate_subspace():
    rec = linearity_check(locus([x_var(1)]), action(), target_locus([x_var(0, dim=1)]))
    assert rec["verdict"] == "holds"
    assert rec["conclusion"] == "exact"
    assert rec["splits"] and rec["surjective"]


def test_linearity_holds_for_the_weight_one_axis():
    rec = linearity_check(locus([x_var(0)]), action(), target_locus([]))
    assert rec["verdict"] == "holds"
    assert rec["tangent_dim"] == 1 and rec["split_dims"] == [0, 1]


def test_linearity_fails_at_a_concrete_point_on_the_graph():
    rec = linearity_check(locus([GRAPH]), action(), target_locus([]), samples=6, seed=3)
    assert rec["verdict"] == "fails at point"
    assert rec["failing_equation"] == 0
    assert "failing_point" in rec and "failing_value" in rec


def test_linearity_hypothesis_failures_and_degenerate_inputs():
    singular = locus([x_var(0) * x_var(1)])
    rec = linearity_check(singular, action(), target_locus([]))
    assert rec["verdict"] == "hypotheses not met"
    assert "jacobian_rank" in rec and rec["jacobian_rank"] == 0
    loose = AnalyticLocus(PolyDisc(P, 2, 0), locus([GRAPH]).equations)
    rec2 = linearity_check(loose, action(), target_locus([]))
    assert rec2["verdict"] == "undetermined"
    with pytest.raises(ValueError):
        linearity_check(locus([x_var(1)]), action(weights=(1, 3)), target_locus([]))
    with pytest.raises(DomainError, match="the origin does not lie on the locus"):
        linearity_check(locus([x_var(0) + 1]), action(), target_locus([]))
