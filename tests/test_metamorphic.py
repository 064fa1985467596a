"""Relations between CLI answers that need no oracle for the answer itself.

Precision: at two working precisions n' < n, a `teichmuller` lift at n'
is the truncation of the lift at n, and `find-torsion` finds the same
components, torsion points, orders, automorphism powers and residue
characters, since those are exact and only the p-adic digits depend on
the precision.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci.padic import PadicScalar, exp_domain_bound
from test_acceptance import run_command

PRIMES = (2, 3, 5, 7, 13)


@st.composite
def two_precisions(draw, least=1, most=60):
    low = draw(st.integers(least, most - 1))
    return low, draw(st.integers(low + 1, most))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    f=st.integers(1, 3),
    data=st.data(),
    precs=two_precisions(),
)
def test_teichmuller_at_less_precision_is_a_truncation(p, f, data, precs):
    xi = data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f))
    (lo_code, lo), (hi_code, hi) = (
        run_command(["teichmuller"], {"p": p, "xi": xi, "prec": n}) for n in precs
    )
    if not any(xi):
        assert lo_code == hi_code == 1  # zero has no multiplicative lift
        return
    assert lo_code == hi_code == 0
    lo, hi = lo["value"], hi["value"]
    assert lo["rel_prec"] == precs[0] and hi["rel_prec"] == precs[1]
    assert lo["v"] == hi["v"] == 0
    lo_digits, hi_digits = lo["unit_digits"], hi["unit_digits"]
    if f == 1:
        lo_digits, hi_digits = [lo_digits], [hi_digits]
    assert [d[: precs[0]] for d in hi_digits] == lo_digits


@st.composite
def echelon_systems(draw):
    """A binomial system whose component orders divide 24 (unit pivots,
    right-hand sides in (1/12)Z), on a torus of rank 1 to 3."""
    d = draw(st.integers(1, 3))
    pivots = sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))
    eqs = []
    for col in pivots:
        v = [0] * d
        v[col] = draw(st.integers(1, 2)) if len(pivots) == 1 else 1
        for j in range(col + 1, d):
            v[j] = draw(st.integers(-3, 3))
        eqs.append({"exponents": v, "rhs": "%d/12" % draw(st.integers(0, 11))})
    return {"dim": d, "equations": eqs}


EXACT_FIELDS = (
    "status",
    "component",
    "torsion_point",
    "order",
    "sigma_power",
    "residue_character",
)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), system=echelon_systems(), data=st.data())
def test_find_torsion_exact_fields_do_not_depend_on_precision(p, system, data):
    bound = exp_domain_bound(p)
    precs = data.draw(two_precisions(least=bound + 1, most=40))
    d = system["dim"]
    alpha = PadicScalar.from_int(p, 1 + p ** bound, 24).to_json()
    doc = {
        "system": system,
        "action": {"p": p, "weights": [1] * d, "alpha": alpha},
        "automorphism": [[int(i == j) for j in range(d)] for i in range(d)],
    }
    (lo_code, lo), (hi_code, hi) = (
        run_command(["find-torsion"], dict(doc, precision=n)) for n in precs
    )
    assert lo_code == hi_code
    if lo is None:
        assert hi is None
        return
    lo, hi = lo["certificates"], hi["certificates"]
    assert len(lo) == len(hi) > 0
    for a, b in zip(lo, hi):
        assert [a.get(k) for k in EXACT_FIELDS] == [b.get(k) for k in EXACT_FIELDS]
        if a["status"] == "ok":
            assert (a["precision"], b["precision"]) == precs
