"""One document per documented exit-1 cap (README's list), at its edge.

Each cap has the least document over it, which must be refused at once,
and, where the largest document under it answers quickly, that one too,
so that a slow path at a cap shows as a blown time budget rather than
being found by hand.  One edge is left out until its path is fast: a
Teichmuller lift at the working-precision cap (the q-power loop takes
about 17 s at p = 5, precision 7056).
"""

import io
import json
import sys

import pytest

from padicloci import padic
from padicloci.cli import main
from padicloci.padic import PadicScalar

CAP = 200000


def _scalar(p, n):
    return PadicScalar.from_int(p, n, 24).to_json()


# the graph y = x**2 at p = 5 through (2, 4), moved by weights (1, 1): its
# orbit leaves the locus, so a certificate has to walk the orbit
_DISC = {"p": 5, "dim": 2, "radius_exp": 0}
_GRAPH = {
    "disc": _DISC,
    "terms": [
        {"exp": [0, 1], "coeff": _scalar(5, 1)},
        {"exp": [2, 0], "coeff": _scalar(5, -1)},
    ],
    "tail_exp": None,
}
_CONIC = {
    "locus": {"disc": _DISC, "equations": [_GRAPH]},
    "action": {"p": 5, "weights": [1, 1], "alpha": _scalar(5, 6)},
    "point": [_scalar(5, 2), _scalar(5, 4)],
}


_ONE_7057 = {"p": 5, "f": 1, "v": 0, "unit_digits": [1], "rel_prec": 7057}


def _torsion_point(p, order):
    # x = 1/order on a rank-1 torus, certified at p
    return {
        "system": {"dim": 1, "equations": [{"exponents": [1], "rhs": "1/%d" % order}]},
        "action": {"p": p, "weights": [1], "alpha": _scalar(p, p + 1)},
        "automorphism": [[1]],
        "precision": 4,
    }


def _line(precision):
    return {
        "system": {"dim": 2, "equations": [{"exponents": [1, 0], "rhs": "0"}]},
        "action": {"p": 5, "weights": [1, 1], "alpha": _scalar(5, 6)},
        "automorphism": [[1, 0], [0, 1]],
        "precision": precision,
    }


def _line_certificate(out):
    [cert] = out["certificates"]
    return (cert["status"], cert["precision"], cert["contraction_exponent"]) == ("ok", 7056, 0)


def _exp_of_digits(rel_prec):
    # exp of 5 * (1 + O(5^rel_prec)) at precision 6
    x = {"p": 5, "f": 1, "v": 1, "unit_digits": [1] + [0] * (rel_prec - 1), "rel_prec": rel_prec}
    return {"p": 5, "x": x, "precision": 6}


_SIZE_LIMIT = {"refusal": "size limit exceeded"}


def _over_cap(prec):
    return "precision %d is over the cap of 16384 bits" % prec


def _scan(cplx):
    # h^1 against h^0 at order 1
    return {"complex": cplx, "i": 1, "j": 0, "order_bound": 1}


def _all_zero_point(out):
    return out["count"] == 1 and out["points"] == [["0"] * CAP]


def _one_ok_certificate(out):
    [cert] = out["certificates"]
    return cert["status"] == "ok" and cert["residue_character"]["f"] == 2


def _dense_pin(d):
    # x_1 * ... * x_d = 1 on a rank-d torus
    return {"lattice_basis": [[1] * d], "translate": ["0"], "dim": d - 1}


def _diagonal(rank):
    # x_i = zeta_3 for every i on a rank-`rank` torus
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return {"dim": rank, "equations": [{"exponents": r, "rhs": "1/3"} for r in rows]}


def _column(rows):
    # h^0 of a map with `rows` rows, each the cell t - 1
    cell = [{"coeff": "1", "exp": [1]}, {"coeff": "-1", "exp": [0]}]
    return {"complex": {"vars": 1, "dims": [1, rows], "matrices": [[[cell]] * rows]}, "i": 0, "j": 0}


def _trivial_hit(out):
    return out["hits"] == [["0"] * len(out["hits"][0])]


# (cmd, document, exit code, expected): a dict is the whole stdout, a
# string a part of stderr (with nothing on stdout), a function a check
# of the stdout document.  A refusal has 1 s, an answer 2 s, unless
# BUDGETS names a tighter one
EDGES = {
    # a scan or verification grid of more than 200000 characters
    "scan-grid-448^2": (
        "jumping-scan",
        {"complex": {"builtin": "torus"}, "i": 1, "j": 0, "order_bound": 448},
        1,
        {"refusal": "scan grid too large"},
    ),
    "verification-grid-448^2": (
        "verify",
        {
            "kind": "solve",
            "system": {"dim": 2, "equations": []},
            "components": [],
            "order_bound": 448,
        },
        1,
        {"refusal": "verification grid too large"},
    ),
    # a cohomology character of order above 200000
    "character-order-200001": (
        "cohomology",
        {"complex": {"builtin": "circle"}, "character": ["1/%d" % (CAP + 1)]},
        1,
        {"refusal": "character order too large"},
    ),
    "character-order-200000": (
        "cohomology",
        {"complex": {"builtin": "circle"}, "character": ["1/%d" % CAP]},
        0,
        {"h": [0, 0]},
    ),
    # an enumerate-torsion grid of more than 200000 points
    "torsion-grid-200001": (
        "enumerate-torsion",
        {"coset": {"dim": 1, "lattice_basis": [[1, 0]], "translate": ["0"]}, "order": CAP + 1},
        1,
        {"refusal": "torsion grid too large"},
    ),
    # a torsion coset of rank above 200000 even at order 1
    "torsion-rank-200001": (
        "enumerate-torsion",
        {"coset": {"dim": CAP + 1, "lattice_basis": [], "translate": []}, "order": 1},
        1,
        {"refusal": "torsion grid too large"},
    ),
    "torsion-rank-200000": (
        "enumerate-torsion",
        {"coset": {"dim": CAP, "lattice_basis": [], "translate": []}, "order": 1},
        0,
        _all_zero_point,
    ),
    # a torsion coset whose pins use more than 1000 coordinates: the walk's
    # Hermite form is quadratic in them (a Smith transform of the one dense
    # pin on 1000 coordinates took 275 s)
    "pinned-coordinates-1001": (
        "enumerate-torsion",
        {"coset": _dense_pin(1001), "order": 1},
        1,
        "pins on 1001 coordinates are over the cap of 1000",
    ),
    "pinned-coordinates-1000": (
        "enumerate-torsion",
        {"coset": _dense_pin(1000), "order": 1},
        0,
        {"count": 1, "points": [["0"] * 1000]},
    ),
    # one equation on a rank-4000 torus: the components come off the
    # Hermite form of the one row and its column span, with no
    # 4000 x 4000 transform (a Smith W took 1.9 s and 142 MB)
    "solve-rank-4000": (
        "solve-binomial",
        {"dim": 4000, "equations": [{"exponents": [2 * j for j in range(1000, 5000)], "rhs": "1/3"}]},
        0,
        {
            "count": 2,
            "components": [
                {"dim": 3999, "lattice_basis": [list(range(1000, 5000))], "translate": [t]}
                for t in ("1/6", "2/3")
            ],
        },
    ),
    # a binomial system whose exponent rows have rank above 1000: its
    # components are walked like pins on that many coordinates, so it is
    # refused once the Hermite form of its rows is known
    "solve-rank-1001": (
        "solve-binomial",
        _diagonal(1001),
        1,
        "exponent rows of rank 1001 are over the cap of 1000",
    ),
    "solve-rank-1000": (
        "solve-binomial",
        _diagonal(1000),
        0,
        {
            "count": 1,
            "components": [
                {
                    "dim": 0,
                    "lattice_basis": [e["exponents"] for e in _diagonal(1000)["equations"]],
                    "translate": ["1/3"] * 1000,
                }
            ],
        },
    ),
    # a binomial system with more than 200000 components
    "components-200001": (
        "solve-binomial",
        {"dim": 1, "equations": [{"exponents": [CAP + 1], "rhs": "0"}]},
        1,
        "200001 components are over the cap of 200000",
    ),
    # an orbit certificate over more than 200000 points, or one that
    # verify kind=conic is asked to walk
    "orbit-200001": (
        "conic-check",
        dict(_CONIC, bound_k=CAP),
        1,
        "orbit of 200001 points is over the cap of 200000",
    ),
    "verified-orbit-200001": (
        "verify",
        dict(_CONIC, kind="conic", certificate={"ok": True, "points_used": CAP + 1}),
        1,
        {"refusal": "orbit too large"},
    ),
    # a root of unity that needs a residue field of more than 10^6 elements
    "residue-field-1009^2": (
        "find-torsion", _torsion_point(1009, 1010), 1, "refusing beyond 10^6"
    ),
    "residue-field-997^2": ("find-torsion", _torsion_point(997, 998), 0, _one_ok_certificate),
    # a working precision over 16384 bits: 7056 digits of Z_5 are under it
    "teichmuller-precision-7057": (
        "teichmuller",
        {"p": 5, "xi": 2, "prec": 7057},
        1,
        _over_cap(7057),
    ),
    "exp-precision-7057": (
        "exp",
        {"p": 5, "x": 5, "precision": 7057},
        1,
        _over_cap(7057),
    ),
    "exp-precision-7056": (
        "exp",
        {"p": 5, "x": 5, "precision": 7056},
        0,
        lambda out: out["value"]["rel_prec"] == 7056,
    ),
    "log-precision-7056": (
        "log",
        {"p": 5, "x": 6, "precision": 7056},
        0,
        lambda out: out["value"]["v"] == 1,
    ),
    # the component x_1 = 0 of a rank-2 torus at the trivial point, whose
    # sample tangent vector has valuation 1: no exp of it is taken, so
    # precision 7056 answers
    "find-torsion-precision-7057": ("find-torsion", _line(7057), 1, _over_cap(7057)),
    "find-torsion-precision-7056": ("find-torsion", _line(7056), 0, _line_certificate),
    # a complex with more than 256 character variables
    "vars-257": (
        "jumping-scan",
        _scan({"vars": 257, "dims": [1, 1], "matrices": [[[[]]]]}),
        1,
        _SIZE_LIMIT,
    ),
    "wedge-257": ("jumping-scan", _scan({"builtin": "wedge", "n": 257}), 1, _SIZE_LIMIT),
    "wedge-256": ("jumping-scan", _scan({"builtin": "wedge", "n": 256}), 0, _trivial_hit),
    "surface-129": ("jumping-scan", _scan({"builtin": "surface", "genus": 129}), 1, _SIZE_LIMIT),
    "surface-128": ("jumping-scan", _scan({"builtin": "surface", "genus": 128}), 0, _trivial_hit),
    # a map with more than 6 rows or columns, whose minors `fitting` takes
    "fitting-rows-7": ("fitting", _column(7), 1, _SIZE_LIMIT),
    "fitting-rows-6": (
        "fitting",
        _column(6),
        0,
        {"count": 1, "generators": [[{"coeff": "1", "exp": [0]}, {"coeff": "-1", "exp": [1]}]]},
    ),
    # a residue degree above 20 (the 320 took 49.6 s in the modulus search)
    "residue-degree-21": (
        "teichmuller",
        {"p": 2, "xi": [1] + [0] * 20, "prec": 1},
        1,
        "residue degree 21 is over the cap of 20",
    ),
    "residue-degree-320": (
        "teichmuller",
        {"p": 2, "xi": [1] + [0] * 319, "prec": 1},
        1,
        "residue degree 320 is over the cap of 20",
    ),
    # at p = 101 the modulus search walks 149 candidates
    "residue-degree-20": (
        "teichmuller",
        {"p": 101, "xi": [1] + [0] * 19, "prec": 1},
        0,
        lambda out: out["f"] == 20 and out["value"]["rel_prec"] == 1,
    ),
    # a scalar document whose rel_prec is over 16384 bits, refused before
    # any power of p is built (10^8 ran past 20 s)
    "rel-prec-7057": ("exp", _exp_of_digits(7057), 1, _over_cap(7057)),
    "rel-prec-10^8": (
        "exp",
        {
            "p": 5,
            "x": {"p": 5, "f": 1, "v": 0, "unit_digits": [1, 1], "rel_prec": 10 ** 8},
            "precision": 6,
        },
        1,
        _over_cap(10 ** 8),
    ),
    "rel-prec-7056": ("exp", _exp_of_digits(7056), 0, lambda out: out["value"]["rel_prec"] == 6),
    # the same cap on the other decode paths: a series coefficient and an
    # action's alpha
    "rel-prec-7057-coefficient": (
        "strassmann",
        {"series": dict(_GRAPH, terms=[{"exp": [0, 0], "coeff": _ONE_7057}])},
        1,
        _over_cap(7057),
    ),
    "rel-prec-7057-alpha": (
        "conic-check",
        dict(_CONIC, action=dict(_CONIC["action"], alpha=_ONE_7057), bound_k=2),
        1,
        _over_cap(7057),
    ),
}


BUDGETS = {"solve-rank-4000": 0.5}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_a_document_at_a_cap_edge_is_decided_within_its_budget(
    edge, monkeypatch, capsys, time_budget
):
    cmd, doc, code, expected = EDGES[edge]
    # time the modulus search itself, not a cached result
    monkeypatch.setattr(padic, "_MODULUS_CACHE", {})
    monkeypatch.setattr(padic, "_GENERATOR_CACHE", {})
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    with time_budget(BUDGETS.get(edge, 1 if code else 2)):
        got = main([cmd])
    captured = capsys.readouterr()
    assert got == code, captured.err
    if isinstance(expected, str):
        assert captured.out == "" and expected in captured.err
    else:
        out = json.loads(captured.out)
        assert out == expected if isinstance(expected, dict) else expected(out)
