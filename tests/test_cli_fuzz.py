"""Type-mutation fuzz of the CLI exit-code contract.

Every single mutation of a small seed document runs through `cli.main`
in-process: at every JSON path (following at most the first three items
of each list) the value becomes 1.5, true, "x", "1/0", null, [v],
{"a": v}, -1 or 0, or its key is dropped; a "prec" or "precision" also
becomes 10**7 and 10**8, far over the working-precision cap.  Each run
must end in exit 0, 1 or 2 with no escaping exception, inside a 2 s
budget.  The enumeration is deterministic.
"""

import contextlib
import io
import json
import sys

import pytest

from padicloci.cli import main


def _scalar(digits, v=0):
    return {"p": 5, "f": 1, "v": v, "unit_digits": digits, "rel_prec": len(digits)}


SERIES = {
    "disc": {"p": 5, "dim": 1, "radius_exp": 0},
    "terms": [
        {"exp": [0], "coeff": _scalar([1, 0, 0], v=3)},
        {"exp": [1], "coeff": _scalar([1, 0, 0], v=1)},
        {"exp": [3], "coeff": _scalar([1, 0, 0])},
    ],
    "tail_exp": None,
}
SYSTEM = {"dim": 1, "equations": [{"exponents": [2], "rhs": "0"}]}
ACTION = {"p": 5, "weights": [1], "alpha": _scalar([1, 1])}
# the graph y = x^2 on the closed unit bidisc over Q_5
GRAPH = {
    "disc": {"p": 5, "dim": 2, "radius_exp": 0},
    "equations": [
        {
            "disc": {"p": 5, "dim": 2, "radius_exp": 0},
            "terms": [
                {"exp": [0, 1], "coeff": _scalar([1, 0, 0])},
                {"exp": [2, 0], "coeff": _scalar([4, 4, 4])},
            ],
            "tail_exp": None,
        }
    ],
    "polynomials": [[{"coeff": "1", "exp": [0, 1]}, {"coeff": "-1", "exp": [2, 0]}]],
}
CONIC = {
    "locus": GRAPH,
    "action": {"p": 5, "weights": [1, 2], "alpha": _scalar([1, 1, 0])},
    "point": [_scalar([2, 0, 0]), _scalar([4, 0, 0])],
    "bound_k": 2,
}
T_MINUS_ONE = [{"coeff": "1", "exp": [1]}, {"coeff": "-1", "exp": [0]}]
# the point x = 1/2 of the circle, as a coset
POINT = {"lattice_basis": [[1]], "translate": ["1/2"], "dim": 0}

SEEDS = [
    # the README examples
    ("teichmuller", {"p": 5, "xi": 2, "prec": 8}),
    ("strassmann", {"series": SERIES}),
    ("newton", {"series": SERIES}),
    ("solve-binomial", {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}),
    ("find-torsion", {"system": SYSTEM, "action": ACTION, "automorphism": [[1]], "precision": 12}),
    ("cohomology", {"complex": {"builtin": "torus"}, "character": ["1/2", "0"]}),
    # one small document per remaining command and verify kind
    ("teichmuller", {"p": 3, "xi": [1, 1], "prec": 4}),
    ("exp", {"p": 5, "x": 5, "precision": 6}),
    ("log", {"p": 5, "x": _scalar([1, 1, 0]), "precision": 6}),
    ("conic-check", CONIC),
    ("enumerate-torsion", {"coset": dict(POINT, lattice_basis=[[1, 0]], dim=1), "order": 4}),
    ("jumping-scan", {"complex": {"builtin": "wedge", "n": 2}, "i": 1, "j": 0, "order_bound": 3}),
    (
        "fitting",
        {"complex": {"vars": 1, "dims": [1, 1], "matrices": [[[T_MINUS_ONE]]]}, "i": 0, "j": 0},
    ),
    ("shape-check", {"vars": 1, "generators": [T_MINUS_ONE]}),
    ("shape-check", {"complex": {"builtin": "circle"}, "i": 1, "j": 0, "order_bound": 4}),
    (
        "verify",
        {
            "kind": "solve",
            "system": SYSTEM,
            "components": [dict(POINT, translate=["0"]), POINT],
            "order_bound": 4,
        },
    ),
    (
        "verify",
        {
            "kind": "certificates",
            "system": SYSTEM,
            "automorphism": [[1]],
            "certificates": [
                {
                    "status": "ok",
                    "p": 5,
                    "component": POINT,
                    "torsion_point": ["1/2"],
                    "order": 2,
                    "precision": 12,
                    "sigma_power": 1,
                    "contraction_exponent": 0,
                    "contraction_target_exp": 1,
                    "translation": {"coset_through_identity": dict(POINT, translate=["0"])},
                    "conic": {"ok": True},
                }
            ],
        },
    ),
    ("verify", dict(CONIC, kind="conic", certificate={"ok": True, "points_used": 2})),
    ("verify", {"kind": "counts", "series": SERIES, "count": 3}),
]

_SENTINEL = object()
_PRECISION_KEYS = ("prec", "precision")


def mutants(node, key=None):
    """Every single mutation of node, stored under key, in a fixed order;
    _SENTINEL stands for a dropped key."""
    yield from [1.5, True, "x", "1/0", None, [node], {"a": node}, -1, 0]
    if key in _PRECISION_KEYS:
        yield from [10 ** 7, 10 ** 8]
    if isinstance(node, dict):
        for key, child in node.items():
            for new in [_SENTINEL, *mutants(child, key)]:
                out = dict(node)
                if new is _SENTINEL:
                    del out[key]
                else:
                    out[key] = new
                yield out
    elif isinstance(node, list):
        for i, child in enumerate(node[:3]):
            for new in mutants(child):
                yield node[:i] + [new] + node[i + 1 :]


def run_main(cmd, doc):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main([cmd])
    finally:
        sys.stdin = old_stdin


@pytest.mark.parametrize(
    "cmd, seed",
    SEEDS,
    ids=["%s-%d" % (cmd, k) for k, (cmd, _) in enumerate(SEEDS)],
)
def test_every_single_mutation_ends_in_an_exit_code(cmd, seed, time_budget):
    assert run_main(cmd, seed) in (0, 1)
    failures = []
    for doc in mutants(seed):
        try:
            with time_budget(2):
                code = run_main(cmd, doc)
        except Exception as e:
            failures.append((doc, "%s: %s" % (type(e).__name__, e)))
            continue
        if code not in (0, 1, 2):
            failures.append((doc, "exit %r" % (code,)))
    assert not failures, "%d mutants failed, first: %r" % (len(failures), failures[0])
