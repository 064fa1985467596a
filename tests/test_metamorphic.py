"""Relations between CLI answers that need no oracle for the answer itself.

Precision: at two working precisions n' < n, a `teichmuller` lift at n'
is the truncation of the lift at n, an `exp` or `log` answer at n' is
the truncation of the answer at n or a zero coset that contains it, and
`find-torsion` finds the same components, torsion points, orders,
automorphism powers and residue characters, since those are exact and
only the p-adic digits depend on the precision.

Coordinates: permuting the variables of a written-out complex permutes
the `jumping-scan` hits in the same way.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicloci.padic import PadicScalar, exp_domain_bound, scalar_from_json
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


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    cmd=st.sampled_from(("exp", "log")),
    k=st.integers(0, 5),
    u=st.integers(1, 10 ** 6),
    as_document=st.booleans(),
    precs=two_precisions(most=40),
)
def test_exp_and_log_at_less_precision_are_truncations(p, cmd, k, u, as_document, precs):
    # x = p^k u for exp and 1 + p^k u for log, exact or a document known
    # to the working precision; k = 0 draws the domain refusals too
    x = p ** k * u + (cmd == "log")
    (lo_code, lo), (hi_code, hi) = (
        run_command(
            [cmd],
            {"p": p, "x": PadicScalar.from_int(p, x, n).to_json() if as_document else x, "precision": n},
        )
        for n in precs
    )
    # fewer digits may leave x - 1 a zero coset too coarse for log's
    # domain gate, but more digits never turn an answer into a refusal
    assert lo_code or not hi_code
    if lo_code or hi_code:
        return
    lo, hi = (scalar_from_json(a["value"]) for a in (lo, hi))
    assert lo.abs_prec <= hi.abs_prec
    if lo.valuation is None:  # a zero coset holds every value its precision cannot tell apart
        assert hi.norm_exponent() >= lo.abs_prec
    else:
        assert hi.truncate_abs(lo.abs_prec) == lo


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


@st.composite
def binomials(draw, nvars):
    """t^u + i^k t^w as a JSON cell, and its negative."""
    exps = st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)
    u, w, k = draw(exps), draw(exps), draw(st.integers(0, 3))
    cell = [{"coeff": "1", "exp": u}, {"coeff": {"root": "%d/4" % k}, "exp": w}]
    return cell, [{"coeff": "-1", "exp": u}, {"coeff": {"root": "%d/4" % (k + 2)}, "exp": w}]


@st.composite
def written_complexes(draw):
    """A jumping-scan document on a written-out complex in 3 or 4
    variables with binomial entries: one column map, or the Koszul
    complex of two binomials f and g."""
    nvars = draw(st.integers(3, 4))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 3))
        column = [[draw(binomials(nvars))[0]] for _ in range(rows)]
        dims, matrices = [1, rows], [column]
    else:
        (f, _), (g, minus_g) = draw(binomials(nvars)), draw(binomials(nvars))
        dims, matrices = [1, 2, 1], [[[f], [g]], [[minus_g, f]]]
    i = draw(st.integers(0, len(dims) - 1))
    return {
        "complex": {"vars": nvars, "dims": dims, "matrices": matrices},
        "i": i,
        "j": draw(st.integers(0, dims[i] - 1)),
        "order_bound": draw(st.integers(2, 4 if nvars == 3 else 3)),
    }


def _moved(exp, perm):
    """exp with coordinate k moved to perm[k]."""
    out = [None] * len(exp)
    for k, e in enumerate(exp):
        out[perm[k]] = e
    return out


def _permuted(doc, perm):
    """The document with variable k renamed perm[k]."""
    cplx = doc["complex"]
    matrices = [
        [[[dict(t, exp=_moved(t["exp"], perm)) for t in cell] for cell in row] for row in m]
        for m in cplx["matrices"]
    ]
    return dict(doc, complex=dict(cplx, matrices=matrices))


# t_1 - 1 on a rank-3 torus: its hits are the characters with a_1 = 0
_LINE = [{"coeff": "1", "exp": [1, 0, 0]}, {"coeff": "-1", "exp": [0, 0, 0]}]


@settings(max_examples=100, deadline=None)
@given(doc=written_complexes(), data=st.data())
@example(
    doc={
        "complex": {"vars": 3, "dims": [1, 1], "matrices": [[[_LINE]]]},
        "i": 0,
        "j": 0,
        "order_bound": 2,
    },
    data=None,
)
def test_permuting_the_variables_permutes_the_scan_hits(doc, data):
    nvars = doc["complex"]["vars"]
    # a 3-cycle, which commutes with no transposition of two coordinates
    perm = [1, 2, 0] if data is None else data.draw(st.permutations(range(nvars)))
    (code, scan), (moved_code, moved) = (
        run_command(["jumping-scan"], d) for d in (doc, _permuted(doc, perm))
    )
    assert code == moved_code == 0 and scan["scanned"] == moved["scanned"]
    assume(scan["hits"])
    assert sorted(_moved(h, perm) for h in scan["hits"]) == sorted(moved["hits"])
