import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci import cli, complexes, padic
from padicloci.cli import _VERIFY_GRID_CAP, _build_parser, main
from padicloci.cosets import BinomialSystem, solve_binomial
from padicloci.cyclotomic import CycNumber
from padicloci.padic import PadicScalar
from padicloci.series import _ORBIT_CAP


def run_cli(argv, payload=None, monkeypatch=None, capsys=None):
    if payload is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    return code, out, captured.err


def series_doc(p, coeffs, prec=30):
    terms = []
    for n, c in enumerate(coeffs):
        if c:
            terms.append(
                {"exp": [n], "coeff": PadicScalar.from_int(p, c, prec).to_json()}
            )
    return {
        "disc": {"p": p, "dim": 1, "radius_exp": 0},
        "terms": terms,
        "tail_exp": None,
    }


def teich_digits_oracle(p, c, prec):
    # independent route: iterate the p-power map on plain integers
    t = c % p ** prec
    for _ in range(prec + 2):
        t = pow(t, p, p ** prec)
    digits = []
    for _ in range(prec):
        digits.append(t % p)
        t //= p
    return digits


def test_teichmuller_command_matches_the_integer_iteration(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["teichmuller"], {"p": 5, "xi": 2, "prec": 8}, monkeypatch, capsys
    )
    assert code == 0
    assert out["p"] == 5 and out["f"] == 1
    assert out["value_digits"] == teich_digits_oracle(5, 2, 8)


def test_exp_log_round_trip_through_json(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["exp", "--precision", "12"], {"p": 7, "x": 7}, monkeypatch, capsys
    )
    assert code == 0
    code2, out2, _ = run_cli(
        ["log", "--precision", "12"], {"p": 7, "x": out["value"]}, monkeypatch, capsys
    )
    assert code2 == 0
    assert out2["value"]["v"] == 1
    assert out2["value"]["unit_digits"][0] == 1


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["strassmann", "--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad input" in captured.err


def test_missing_field_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(["teichmuller"], {"p": 5}, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "prec" in err or "precision" in err


def test_bad_flag_value_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(
        ["exp", "--precision", "abc"], {"p": 5, "x": 5}, monkeypatch, capsys
    )
    assert code == 2 and out is None
    assert "--precision" in err


def test_domain_error_exits_one(monkeypatch, capsys):
    code, out, err = run_cli(
        ["log", "--precision", "8"], {"p": 5, "x": 10}, monkeypatch, capsys
    )
    assert code == 1 and out is None
    assert "unit" in err


def test_strassmann_and_newton_commands(monkeypatch, capsys):
    doc = {"series": series_doc(5, [125, 5, 0, 1])}
    code, out, _ = run_cli(["strassmann"], doc, monkeypatch, capsys)
    assert code == 0 and out == {"count": 3}
    code, out, _ = run_cli(["newton"], doc, monkeypatch, capsys)
    assert code == 0
    assert out["vanishing_order"] == 0 and out["degree"] == 3
    assert out["segments"][0] == {"slope": "-2", "length": 1}


def test_solve_binomial_and_inconsistent_system(monkeypatch, capsys):
    doc = {"system": {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}}
    code, out, _ = run_cli(["solve-binomial"], doc, monkeypatch, capsys)
    assert code == 0 and out["count"] == 2
    bad = {
        "system": {
            "dim": 1,
            "equations": [
                {"exponents": [1], "rhs": "1/2"},
                {"exponents": [1], "rhs": "0"},
            ],
        }
    }
    code, out, _ = run_cli(["solve-binomial"], bad, monkeypatch, capsys)
    assert code == 0 and out == {"count": 0, "components": []}


def test_enumerate_torsion_takes_order_from_environment(monkeypatch, capsys):
    coset = {"lattice_basis": [[1, 0]], "translate": ["0"], "dim": 1}
    monkeypatch.setenv("PADICLOCI_ORDER_BOUND", "4")
    code, out, _ = run_cli(["enumerate-torsion"], {"coset": coset}, monkeypatch, capsys)
    assert code == 0
    assert out["count"] == 4
    assert out["points"][0] == ["0", "0"]


def test_each_call_reads_the_environment_as_it_is_then(monkeypatch, capsys):
    coset = {"lattice_basis": [[1, 0]], "translate": ["0"], "dim": 1}
    for order in (4, 3):
        monkeypatch.setenv("PADICLOCI_ORDER_BOUND", str(order))
        code, out, _ = run_cli(["enumerate-torsion"], {"coset": coset}, monkeypatch, capsys)
        assert code == 0 and out["count"] == order


def test_find_torsion_pipeline_and_verification(monkeypatch, capsys):
    system = {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}
    alpha = PadicScalar.from_int(5, 6, 24).to_json()
    doc = {
        "system": system,
        "action": {"p": 5, "weights": [1, 2], "alpha": alpha},
        "automorphism": [[1, 0], [0, 1]],
        "precision": 16,
    }
    code, out, _ = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 0
    assert {c["order"] for c in out["certificates"]} == {1, 2}
    vdoc = {
        "kind": "certificates",
        "system": system,
        "automorphism": [[1, 0], [0, 1]],
        "certificates": out["certificates"],
    }
    code, vout, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 0 and vout["verified"] is True
    # a corrupted torsion point must be caught
    broken = json.loads(json.dumps(vdoc))
    broken["certificates"][0]["torsion_point"] = ["1/3", "0"]
    code, vout, _ = run_cli(["verify"], broken, monkeypatch, capsys)
    assert code == 1 and vout["verified"] is False


def test_find_torsion_hypothesis_violation_exits_one(monkeypatch, capsys):
    doc = {
        "system": {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]},
        "action": {
            "p": 5,
            "weights": [1, 2],
            "alpha": PadicScalar.from_int(5, 6, 24).to_json(),
        },
        "automorphism": [[0, 1], [1, 0]],
        "precision": 16,
    }
    code, out, err = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 1 and out is None
    assert "hypothesis violation" in err


def test_verify_solve_catches_bad_components(monkeypatch, capsys):
    system = {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}
    code, solved, _ = run_cli(["solve-binomial"], {"system": system}, monkeypatch, capsys)
    assert code == 0
    vdoc = {
        "kind": "solve",
        "system": system,
        "components": solved["components"],
        "order_bound": 6,
    }
    code, out, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 0 and out["verified"] is True and out["points_checked"] == 36
    vdoc["components"] = solved["components"][:1]
    code, out, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 1 and out["verified"] is False


def test_verify_solve_refuses_an_oversized_rank_at_order_one(monkeypatch, capsys):
    # the grid has one point, but that point has cap + 1 coordinates
    vdoc = {
        "kind": "solve",
        "system": {"dim": _VERIFY_GRID_CAP + 1, "equations": []},
        "components": [],
        "order_bound": 1,
    }
    code, out, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 1 and out == {"refusal": "verification grid too large"}


@pytest.mark.parametrize(
    "order, exponents, rhs, count",
    [(58, [1, 2, 3], "1/2", 1), (447, [2, -4], "2/3", 2)],
    ids=["rank-3-one-component", "rank-2-two-components"],
)
def test_verify_solve_walks_a_near_cap_grid_quickly(
    order, exponents, rhs, count, monkeypatch, capsys, time_budget
):
    # 58**3 and 447**2 are just under the grid cap; each point is one
    # membership test per component
    system_doc = {"dim": len(exponents), "equations": [{"exponents": exponents, "rhs": rhs}]}
    system = BinomialSystem.from_json(system_doc)
    comps = solve_binomial(system)
    assert len(comps) == count and order ** system.dim <= _VERIFY_GRID_CAP
    vdoc = {
        "kind": "solve",
        "system": system_doc,
        "components": [c.to_json() for c in comps],
        "order_bound": order,
    }
    with time_budget(1):
        code, out, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 0 and out == {"verified": True, "points_checked": order ** system.dim}


def verify_solve_oracle(system, comps, order):
    """`verify kind=solve` in Q/Z: every point t of ((1/order) Z / Z)^d, in
    increasing order, against each equation and each component's pins."""

    def pinned(pins, t):
        return all(sum(c * x for c, x in zip(v, t)) % 1 == e for v, e in pins)

    for t in product([Fraction(a, order) for a in range(order)], repeat=system.dim):
        satisfied = pinned(system.equations, t)
        holders = sum(1 for c in comps if pinned(zip(c.basis, c.translate), t))
        if satisfied and holders != 1:
            reason = "solution covered %d times" % holders
        elif holders and not satisfied:
            reason = "non-solution claimed by a component"
        else:
            continue
        return 1, {"verified": False, "point": [str(q) for q in t], "reason": reason}
    return 0, {"verified": True, "points_checked": order ** system.dim}


def stdout_of(argv, doc):
    """Exit code and stdout text of one in-process CLI run."""
    out, old_stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


@st.composite
def binomial_system_docs(draw, d, sizes=(0, 2)):
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    rhs = st.builds("{}/{}".format, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6)))
    eq = st.fixed_dictionaries({"exponents": vec, "rhs": rhs})
    return {"dim": d, "equations": draw(st.lists(eq, min_size=sizes[0], max_size=sizes[1]))}


# most grid points one example walks, so 150 examples of the Fraction
# oracle take a few seconds: orders up to 24 at ranks 1 and 2, 20 at rank
# 3 and 9 at rank 4
ORACLE_GRID = 8000


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_solve_matches_the_fraction_grid(data):
    # the solved list verifies; a dropped, duplicated or foreign component
    # is caught at the first failing point, as the Q/Z grid finds it.  Rank
    # 1 walks the empty head, and an order the rhs denominator does not
    # divide leaves a pin with no integer target.
    order = data.draw(st.integers(1, 24), label="order")
    top = max(k for k in range(1, 5) if order ** k <= ORACLE_GRID)
    d = data.draw(st.integers(1, top), label="rank")
    kind = data.draw(st.sampled_from(("solved", "dropped", "duplicated", "foreign")))
    # a foreign component is mostly off the solutions of a pinned system
    sizes = (1, 2) if kind == "foreign" else (0, 2)
    system_doc = data.draw(binomial_system_docs(d, sizes), label="system")
    system = BinomialSystem.from_json(system_doc)
    comps = solve_binomial(system)
    if kind == "dropped" and comps:
        del comps[data.draw(st.integers(0, len(comps) - 1))]
    elif kind == "duplicated" and comps:
        comps.append(comps[data.draw(st.integers(0, len(comps) - 1))])
    elif kind == "foreign":
        other_doc = data.draw(binomial_system_docs(d, (1, 1)), label="foreign system")
        other = solve_binomial(BinomialSystem.from_json(other_doc))
        if other:
            comps.append(data.draw(st.sampled_from(other), label="foreign component"))
    doc = {
        "kind": "solve",
        "system": system_doc,
        "components": [c.to_json() for c in comps],
        "order_bound": order,
    }
    code, out = verify_solve_oracle(system, comps, order)
    expected = json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
    assert stdout_of(["verify"], doc) == (code, expected)


def test_verify_counts(monkeypatch, capsys):
    doc = {"kind": "counts", "series": series_doc(5, [125, 5, 0, 1]), "count": 3}
    code, out, _ = run_cli(["verify"], doc, monkeypatch, capsys)
    assert code == 0 and out == {"verified": True, "count": 3}
    doc["count"] = 2
    code, out, _ = run_cli(["verify"], doc, monkeypatch, capsys)
    assert code == 1 and out["verified"] is False


def certified_conic(monkeypatch, capsys):
    """A verify kind=conic document for the graph y = x^2, with the
    certificate that conic-check issued for it."""
    disc = {"p": 5, "dim": 2, "radius_exp": 0}
    one, minus_one = (PadicScalar.from_int(5, c, 24).to_json() for c in (1, -1))
    graph = {
        "disc": disc,
        "terms": [{"exp": [0, 1], "coeff": one}, {"exp": [2, 0], "coeff": minus_one}],
        "tail_exp": None,
    }
    c = PadicScalar.from_int(5, 2, 24)
    doc = {
        "locus": {"disc": disc, "equations": [graph]},
        "action": {
            "p": 5,
            "weights": [1, 2],
            "alpha": PadicScalar.from_int(5, 6, 24).to_json(),
        },
        "point": [c.to_json(), (c * c).to_json()],
        "bound_k": 2,
    }
    code, cert, _ = run_cli(["conic-check"], doc, monkeypatch, capsys)
    assert code == 0 and cert["ok"]
    return dict(doc, kind="conic", certificate=cert)


def test_verify_conic_round_trip(monkeypatch, capsys):
    vdoc = certified_conic(monkeypatch, capsys)
    code, out, _ = run_cli(["verify"], vdoc, monkeypatch, capsys)
    assert code == 0 and out["verified"] is True


@pytest.mark.parametrize(
    "cmd, kind",
    [
        ("strassmann", "counts"),
        ("newton", "counts"),
        ("verify", "counts"),
        ("conic-check", "conic"),
        ("verify", "conic"),
    ],
)
def test_a_disc_with_a_center_exits_two(cmd, kind, monkeypatch, capsys):
    # discs are centered at 0: a center field is malformed input, never ignored
    if kind == "conic":
        doc = certified_conic(monkeypatch, capsys)
        owner = doc["locus"]
    else:
        doc = {"kind": "counts", "series": series_doc(5, [125, 5, 0, 1]), "count": 3}
        owner = doc["series"]
    five = PadicScalar.from_int(5, 5, 24).to_json()
    owner["disc"] = dict(owner["disc"], center=[five] * owner["disc"]["dim"])
    code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "center" in err


@pytest.mark.parametrize(
    "used, code, out",
    [(-5, 2, None), (_ORBIT_CAP + 1, 1, {"refusal": "orbit too large"})],
)
def test_verify_conic_bounds_the_claimed_orbit(used, code, out, monkeypatch, capsys):
    from padicloci.conic import WeightedAction

    vdoc = certified_conic(monkeypatch, capsys)
    vdoc["certificate"] = dict(vdoc["certificate"], points_used=used)

    def no_orbit(self, n, point):
        raise AssertionError("orbit point %d computed for a rejected document" % n)

    monkeypatch.setattr(WeightedAction, "orbit_point", no_orbit)
    assert run_cli(["verify"], vdoc, monkeypatch, capsys)[:2] == (code, out)


def test_shape_check_exit_codes(monkeypatch, capsys):
    good = {
        "vars": 2,
        "generators": [
            [{"coeff": "1", "exp": [1, 1]}, {"coeff": "-1", "exp": [0, 0]}]
        ],
    }
    code, out, _ = run_cli(["shape-check"], good, monkeypatch, capsys)
    assert code == 0 and out["verdict"] == "shape confirmed"
    bad = {
        "vars": 2,
        "generators": [
            [
                {"coeff": "1", "exp": [1, 0]},
                {"coeff": "1", "exp": [0, 1]},
                {"coeff": "-2", "exp": [0, 0]},
            ]
        ],
    }
    code, out, _ = run_cli(["shape-check"], bad, monkeypatch, capsys)
    assert code == 1
    assert out["verdict"].startswith("shape undetermined")


def test_shape_check_divides_no_cyclotomic_number(monkeypatch, capsys):
    # each binomial is normalized to a first coefficient 1, so its root is
    # read off the second coefficient with no quotient in Q(zeta_n), and
    # CycNumber defines no division for it to take
    assert not any(hasattr(CycNumber, op) for op in ("__truediv__", "__rtruediv__"))
    z = CycNumber.root_of_unity(Fraction(1, 3))
    for a, b in ((z, z), (z, 2), (1, z)):
        with pytest.raises(TypeError):
            a / b
    root_pair = [{"coeff": {"root": "1/3"}, "exp": [0, 0]}, {"coeff": {"root": "1/4"}, "exp": [1, 2]}]
    general = [{"coeff": {"order": 5, "coeffs": ["1", "2"]}, "exp": [0, 0]}, {"coeff": "3", "exp": [0, 1]}]
    docs = [
        {"vars": 2, "generators": [root_pair]},
        {"vars": 2, "generators": [root_pair, general]},
        {"complex": {"builtin": "torus"}, "i": 1, "j": 0},
    ]
    assert [run_cli(["shape-check"], doc, monkeypatch, capsys)[0] for doc in docs] == [0, 1, 0]


def test_cohomology_scan_and_fitting_commands(monkeypatch, capsys):
    torus = {"complex": {"builtin": "torus"}}
    code, out, _ = run_cli(
        ["cohomology"], dict(torus, character=["0", "0"]), monkeypatch, capsys
    )
    assert code == 0 and out == {"h": [1, 2, 1]}
    code, out, _ = run_cli(
        ["jumping-scan"], dict(torus, i=1, j=0, order_bound=6), monkeypatch, capsys
    )
    assert code == 0 and out["hits"] == [["0", "0"]] and out["scanned"] == 36
    code, out, _ = run_cli(["fitting"], dict(torus, i=1, j=0), monkeypatch, capsys)
    assert code == 0 and out["count"] == 2


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("jumping-scan", {"i": 1, "j": 2, "order_bound": 1000}),
        ("shape-check", {"i": 1, "j": 2, "order_bound": 1000}),
    ],
)
def test_oversized_scan_grid_is_refused(cmd, doc, monkeypatch, capsys):
    # 1000**4 characters of the genus-2 surface
    doc = dict(doc, complex={"builtin": "surface", "genus": 2})
    code, out, _ = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 1 and out == {"refusal": "scan grid too large"}


@pytest.mark.parametrize(
    "dim, order", [(3, 1000), (10 ** 9, 3), (_VERIFY_GRID_CAP + 1, 1)]
)
def test_oversized_torsion_grid_is_refused(dim, order, monkeypatch, capsys):
    coset = {"lattice_basis": [], "translate": [], "dim": dim}
    code, out, _ = run_cli(
        ["enumerate-torsion"], {"coset": coset, "order": order}, monkeypatch, capsys
    )
    assert code == 1 and out == {"refusal": "torsion grid too large"}


def test_high_rank_torsion_walk_builds_no_square_matrix(monkeypatch, capsys, time_budget):
    # only the coordinates the pins use enter the Hermite form, so the
    # unpinned rank-3000 torus at order 1 is one point, at once
    coset = {"lattice_basis": [], "translate": [], "dim": 3000}
    with time_budget(2):
        code, out, _ = run_cli(
            ["enumerate-torsion"], {"coset": coset, "order": 1}, monkeypatch, capsys
        )
    assert code == 0 and out["count"] == 1 and out["points"][0] == ["0"] * 3000


def test_oversized_component_count_is_refused(monkeypatch, capsys):
    # x**1000000 = 1 on a rank-2 torus has a million components
    system = {"dim": 2, "equations": [{"exponents": [1000000, 0], "rhs": "0"}]}
    code, out, err = run_cli(["solve-binomial"], {"system": system}, monkeypatch, capsys)
    assert code == 1 and out is None
    assert "1000000 components are over the cap" in err


def test_huge_residue_degree_is_refused_promptly(monkeypatch, capsys):
    system = {"dim": 1, "equations": [{"exponents": [1], "rhs": "1/1000000000039"}]}
    action = {"p": 5, "weights": [1], "alpha": PadicScalar.from_int(5, 6, 24).to_json()}
    doc = {"system": system, "action": action, "automorphism": [[1]]}
    start = time.perf_counter()
    code, out, err = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 1 and out is None and "refusing beyond 10^6" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "rhs, auto",
    [
        ("1/1001", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("1/100003", [[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
    ],
    ids=["million-point-grid", "long-orbit"],
)
def test_oversized_residue_field_is_refused_before_any_walk(
    rhs, auto, monkeypatch, capsys, time_budget
):
    # the least torsion point comes without its 1001^2-point grid, and the
    # residue field is refused before the 100003-point automorphism orbit
    system = {"dim": 3, "equations": [{"exponents": [1, 0, 0], "rhs": rhs}]}
    action = {"p": 5, "weights": [1, 1, 1], "alpha": PadicScalar.from_int(5, 6, 24).to_json()}
    doc = {"system": system, "action": action, "automorphism": auto, "precision": 16}
    with time_budget(1):
        code, out, err = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 1 and out is None and "refusing beyond 10^6" in err


def test_long_automorphism_orbit_is_walked_in_integers(monkeypatch, capsys, time_budget):
    # the base point (1/100002, 0) returns to itself after 100002 steps of
    # [[1, 0], [1, 1]], one integer image and one membership test per step
    p = 100003
    system = {"dim": 2, "equations": [{"exponents": [1, 0], "rhs": "1/100002"}]}
    action = {"p": p, "weights": [1, 1], "alpha": PadicScalar.from_int(p, 1 + p, 24).to_json()}
    doc = {"system": system, "action": action, "automorphism": [[1, 0], [1, 1]], "precision": 16}
    with time_budget(3):
        code, out, _ = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 0
    [cert] = out["certificates"]
    assert cert["status"] == "ok" and cert["sigma_power"] == 100002
    assert cert["torsion_point"] == ["1/100002", "0"] and cert["order"] == 100002


@pytest.mark.parametrize(
    "p, code",
    [(2 ** 61 - 1, 0), (1000000007 * 998244353, 2), (2 ** 89 - 1, 2)],
    ids=["mersenne-61", "semiprime", "beyond-the-proof-range"],
)
def test_large_primes_are_decided_promptly(p, code, monkeypatch, capsys):
    got, out, _ = run_cli(["teichmuller"], {"p": p, "xi": 2, "prec": 3}, monkeypatch, capsys)
    assert got == code
    if code == 0:
        assert out["value_digits"] == teich_digits_oracle(p, 2, 3)


TORUS = {"builtin": "torus"}
LINE = {"lattice_basis": [[1, 0]], "translate": ["0"], "dim": 1}
EMPTY_SYSTEM = {"dim": 1, "equations": []}
SCALAR = {"p": 5, "v": 1, "unit_digits": [1, 0, 0], "rel_prec": 3}


def one_equation(exponents, dim=1):
    return {"dim": dim, "equations": [{"exponents": exponents, "rhs": "0"}]}


def _conic_with(**action):
    alpha = PadicScalar.from_int(5, 6, 4).to_json()
    return {
        "locus": {"disc": {"p": 5, "dim": 1, "radius_exp": 1}, "equations": []},
        "action": dict({"p": 5, "weights": [1], "alpha": alpha}, **action),
        "point": [5],
    }


def _series_with(**changes):
    return {"series": dict(series_doc(5, [125, 5, 0, 1]), **changes)}


def _disc_with(**changes):
    doc = series_doc(5, [125, 5, 0, 1])
    return {"series": dict(doc, disc=dict(doc["disc"], **changes))}


def _twisted(exp=1, coeff="1", **changes):
    cplx = dict({"vars": 1, "matrices": [[[[{"coeff": coeff, "exp": [exp]}]]]]}, **changes)
    return {"complex": cplx, "character": ["1/2"]}


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("exp", {"p": 5, "x": dict(SCALAR, v=1.5)}),
        ("exp", {"p": 5, "x": dict(SCALAR, unit_digits=[1.5, 0, 0])}),
        ("exp", {"p": 5, "x": dict(SCALAR, rel_prec=True)}),
        ("solve-binomial", {"system": one_equation([2.7])}),
        ("solve-binomial", {"system": one_equation([True])}),
        ("solve-binomial", {"system": one_equation([2], dim=1.0)}),
        ("enumerate-torsion", {"coset": dict(LINE, dim=1.9), "order": 2}),
        ("enumerate-torsion", {"coset": dict(LINE, lattice_basis=[[1.5, 0]]), "order": 2}),
        ("teichmuller", {"p": 5, "xi": [2.5], "prec": 4}),
        ("cohomology", _twisted(exp=1.7)),
        ("cohomology", _twisted(vars=1.9)),
        ("cohomology", _twisted(dims=[1, 1.0])),
        ("cohomology", _twisted(coeff={"order": True, "coeffs": ["1", "1"]})),
        ("cohomology", _twisted(coeff={"order": 2.0, "coeffs": ["1", "1"]})),
        ("shape-check", {"vars": 1, "generators": [[{"coeff": "1", "exp": [True]}]]}),
        ("strassmann", _series_with(terms=[{"exp": [1.5], "coeff": SCALAR}])),
        ("strassmann", _series_with(tail_exp="x")),
        ("strassmann", _series_with(tail_exp=2.5)),
        ("newton", _disc_with(radius_exp=0.5)),
        ("newton", _disc_with(dim=1.0)),
        ("newton", _disc_with(p=5.0)),
        ("conic-check", _conic_with(p=True)),
        ("conic-check", _conic_with(weights=[True])),
    ],
    ids=[
        "scalar-v",
        "scalar-digits",
        "scalar-rel-prec",
        "exponent-float",
        "exponent-bool",
        "system-dim",
        "coset-dim",
        "coset-basis",
        "xi-float",
        "laurent-exponent-float",
        "complex-vars-float",
        "complex-dims-float",
        "coefficient-order-bool",
        "coefficient-order-float",
        "laurent-exponent-bool",
        "series-exponent-float",
        "tail-exp-string",
        "tail-exp-float",
        "radius-exp-float",
        "disc-dim-float",
        "disc-p-float",
        "action-p-bool",
        "action-weight-bool",
    ],
)
def test_non_integer_numbers_in_documents_exit_two(cmd, doc, monkeypatch, capsys, time_budget):
    with time_budget(2):
        code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "expected an integer" in err


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("strassmann", _series_with(disc=5)),
        ("solve-binomial", 5),
        ("conic-check", _conic_with(p=-1)),
        ("conic-check", _conic_with(p=6)),
    ],
    ids=[
        "disc-not-an-object",
        "document-a-number",
        "action-p-negative",
        "action-p-composite",
    ],
)
def test_non_objects_and_non_primes_exit_two(cmd, doc, monkeypatch, capsys, time_budget):
    with time_budget(2):
        code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert err.startswith("padicloci:")


@pytest.mark.parametrize(
    "cmd, doc, field",
    [
        ("jumping-scan", {"complex": TORUS, "i": 1, "j": 0, "order_bound": 0}, "order_bound"),
        ("shape-check", {"complex": TORUS, "i": 1, "j": 0, "order_bound": -2}, "order_bound"),
        (
            "verify",
            {"kind": "solve", "system": EMPTY_SYSTEM, "components": [], "order_bound": -1},
            "order_bound",
        ),
        ("enumerate-torsion", {"coset": LINE, "order": 0}, "order"),
        ("teichmuller", {"p": 5, "xi": 2, "prec": 0}, "prec"),
        ("exp", {"p": 5, "x": 5, "precision": 0}, "precision"),
        ("log", {"p": 5, "x": 6, "precision": -1}, "precision"),
        ("shape-check", {"vars": 0, "generators": []}, "vars"),
        ("shape-check", {"vars": -2, "generators": []}, "vars"),
    ],
)
def test_out_of_range_numbers_exit_two(cmd, doc, field, monkeypatch, capsys, time_budget):
    with time_budget(2):
        code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "'%s' must be >= 1" % field in err


def test_output_flag_writes_the_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.json"
    doc = {"series": series_doc(5, [125, 5, 0, 1])}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["strassmann", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    assert json.loads(target.read_text(encoding="utf-8")) == {"count": 3}


def test_demo_is_deterministic_across_job_counts():
    runs = []
    for jobs in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "padicloci.cli", "demo", "--jobs", jobs],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["betti"] == {"h": [1, 2, 1]}
    assert doc["certificates_verified"]["verified"] is True


def test_demo_reads_no_input(monkeypatch, capsys):
    # demo must not consume stdin
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("this would break json parsing")
    )
    code = main(["demo"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["strassmann"] == {"count": 3}


SQUARE_SYSTEM = {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}
IDENTITY = [[1, 0], [0, 1]]
ACTION = {"p": 5, "weights": [1, 2], "alpha": PadicScalar.from_int(5, 6, 24).to_json()}


def certificates_doc(monkeypatch, capsys, **changes):
    """A verify kind=certificates document for x_1^2 = 1, with its first
    ok certificate changed by `changes`."""
    doc = {"system": SQUARE_SYSTEM, "action": ACTION, "automorphism": IDENTITY, "precision": 16}
    code, out, _ = run_cli(["find-torsion"], doc, monkeypatch, capsys)
    assert code == 0
    ok = next(c for c in out["certificates"] if c["status"] == "ok")
    ok.update(changes)
    return {
        "kind": "certificates",
        "system": SQUARE_SYSTEM,
        "automorphism": IDENTITY,
        "certificates": out["certificates"],
    }


@pytest.mark.parametrize(
    "cmd, build",
    [
        (
            "verify",
            lambda mp, cs: {"kind": "solve", "system": SQUARE_SYSTEM, "components": [{"foo": 1}]},
        ),
        ("verify", lambda mp, cs: {"kind": "solve", "system": SQUARE_SYSTEM, "components": [5]}),
        ("verify", lambda mp, cs: certificates_doc(mp, cs, component={"x": 1})),
        (
            "find-torsion",
            lambda mp, cs: {
                "system": SQUARE_SYSTEM,
                "action": ACTION,
                "automorphism": [[None]],
                "precision": 16,
            },
        ),
        ("verify", lambda mp, cs: certificates_doc(mp, cs, conic=[1])),
    ],
    ids=["solve-key", "solve-type", "certificate-component", "automorphism-null", "conic-list"],
)
def test_malformed_verify_and_find_torsion_inputs_end_in_an_exit_code(
    cmd, build, monkeypatch, capsys
):
    doc = build(monkeypatch, capsys)
    code, out, _ = run_cli([cmd], doc, monkeypatch, capsys)
    assert code in (1, 2)
    if code == 2:
        assert out is None


# a line on the rank-3 torus, offered to systems on the rank-2 torus
RANK_3_LINE = {"lattice_basis": [[1, 0, 0]], "translate": ["0"], "dim": 2}


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda mp, cs: {
                "kind": "solve",
                "system": SQUARE_SYSTEM,
                "components": [RANK_3_LINE],
                "order_bound": 3,
            },
            "component of rank 3 on a torus of rank 2",
        ),
        (
            lambda mp, cs: certificates_doc(mp, cs, component=RANK_3_LINE),
            "component of rank 3 on a torus of rank 2",
        ),
        (
            lambda mp, cs: certificates_doc(mp, cs, torsion_point=["1/2", "0", "0"]),
            "character needs 2 coordinates",
        ),
    ],
    ids=["solve", "certificates", "certificate-point"],
)
def test_verify_rejects_a_rank_other_than_the_systems(build, message, monkeypatch, capsys):
    code, out, err = run_cli(["verify"], build(monkeypatch, capsys), monkeypatch, capsys)
    assert code == 2 and out is None
    assert err == "padicloci: %s\n" % message


FIND_DOC = {"system": SQUARE_SYSTEM, "action": ACTION, "automorphism": IDENTITY, "precision": 16}
IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "cmd, build, message",
    [
        (
            "find-torsion",
            lambda mp, cs: dict(FIND_DOC, automorphism=IDENTITY_3),
            "automorphism shape mismatch",
        ),
        ("find-torsion", lambda mp, cs: dict(FIND_DOC, automorphism=[[1]]), "automorphism shape mismatch"),
        (
            "find-torsion",
            lambda mp, cs: dict(FIND_DOC, action=dict(ACTION, weights=[1])),
            "action arity mismatch",
        ),
        (
            "verify",
            lambda mp, cs: dict(certificates_doc(mp, cs), automorphism=IDENTITY_3),
            "automorphism shape mismatch",
        ),
    ],
    ids=["find-automorphism-3x3", "find-automorphism-1x1", "find-weights", "certificates-automorphism"],
)
def test_sizes_other_than_the_systems_dim_exit_two(cmd, build, message, monkeypatch, capsys):
    code, out, err = run_cli([cmd], build(monkeypatch, capsys), monkeypatch, capsys)
    assert code == 2 and out is None
    assert err == "padicloci: %s\n" % message


@pytest.mark.parametrize("order", [2 ** 64 + 13, 2 ** 127 + 1], ids=["2^64+13", "128-bit"])
def test_cohomology_refuses_a_character_order_over_the_cap(order, monkeypatch, capsys, time_budget):
    doc = {"complex": {"builtin": "torus"}, "character": ["1/%d" % order, "0"]}
    with time_budget(2):
        code, out, _ = run_cli(["cohomology"], doc, monkeypatch, capsys)
    assert code == 1 and out == {"refusal": "character order too large"}


def test_cohomology_takes_a_character_order_at_the_cap(monkeypatch, capsys):
    # the README example, and the largest order a one-variable scan visits
    torus = {"complex": {"builtin": "torus"}}
    code, out, _ = run_cli(["cohomology"], dict(torus, character=["1/2", "0"]), monkeypatch, capsys)
    assert code == 0 and out == {"h": [0, 0, 0]}
    char = ["1/%d" % _VERIFY_GRID_CAP, "0"]
    code, out, _ = run_cli(["cohomology"], dict(torus, character=char), monkeypatch, capsys)
    assert code == 0 and out == {"h": [0, 0, 0]}


def test_cohomology_at_a_large_order_holds_memory_in_proportion_to_the_terms(monkeypatch, capsys):
    # the reduction kept on the shared builtin for the character's order
    # holds one image per term and one root; a table of root powers
    # indexed by the order would hold megabytes at this order
    complexes.surface_complex.cache_clear()
    doc = {"complex": {"builtin": "torus"}, "character": ["1/199999", "0"]}
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["cohomology"], doc, monkeypatch, capsys)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out == {"h": [0, 0, 0]}
    assert held < 256 * 1024


def test_cohomology_at_a_highly_composite_order_is_quick(monkeypatch, capsys, time_budget):
    # t1 - 1 vanishes at (0, 1/2520), so both groups survive; the
    # character's values live in Q(zeta_2520), which needs Phi_2520
    entry = [{"coeff": "1", "exp": [1, 0]}, {"coeff": "-1", "exp": [0, 0]}]
    doc = {
        "complex": {"vars": 2, "dims": [1, 1], "matrices": [[[entry]]]},
        "character": ["0", "1/2520"],
    }
    with time_budget(2):
        code, out, _ = run_cli(["cohomology"], doc, monkeypatch, capsys)
    assert code == 0 and out == {"h": [1, 1]}


def _root_minus_t(coeff):
    """The 1x1 complex [[c - t]] in one variable."""
    entry = [{"coeff": coeff, "exp": [0]}, {"coeff": "-1", "exp": [1]}]
    return {"vars": 1, "dims": [1, 1], "matrices": [[[entry]]]}


BIG_ORDER = 18446744073709551629


@pytest.mark.parametrize(
    "coeff",
    [{"root": "1/%d" % BIG_ORDER}, {"order": BIG_ORDER, "coeffs": ["0", "1"]}],
    ids=["root", "order"],
)
@pytest.mark.parametrize("cmd", ["cohomology", "jumping-scan"])
def test_a_coefficient_order_over_the_cap_exits_two(cmd, coeff, monkeypatch, capsys, time_budget):
    doc = {"complex": _root_minus_t(coeff), "character": ["0"], "i": 1, "j": 0}
    with time_budget(2):
        code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "coefficient order %d is over the cap of 200000" % BIG_ORDER in err


@pytest.mark.parametrize(
    "coeff", [{"root": "1/200000"}, {"order": 200000, "coeffs": ["0", "1"]}], ids=["root", "order"]
)
def test_a_coefficient_order_at_the_cap_is_decoded(coeff, monkeypatch, capsys, time_budget):
    doc = {"complex": _root_minus_t(coeff), "character": ["0"]}
    with time_budget(2):
        code, out, _ = run_cli(["cohomology"], doc, monkeypatch, capsys)
    assert code == 0 and out == {"h": [0, 0]}


@pytest.mark.parametrize(
    "cmd, doc",
    [
        ("cohomology", {"complex": _root_minus_t("1/0"), "character": ["0"]}),
        ("cohomology", {"complex": _root_minus_t({"root": "1/0"}), "character": ["0"]}),
        ("shape-check", {"vars": 1, "generators": [[{"coeff": "1/0", "exp": [1]}]]}),
    ],
    ids=["cohomology-coeff", "cohomology-root", "shape-check-generator"],
)
def test_a_zero_denominator_exits_two(cmd, doc, monkeypatch, capsys, time_budget):
    with time_budget(2):
        code, out, err = run_cli([cmd], doc, monkeypatch, capsys)
    assert code == 2 and out is None
    assert err.startswith("padicloci: bad ")


def test_a_root_coefficient_near_the_cap_at_its_own_root_is_quick(monkeypatch, capsys, time_budget):
    # zeta_199999 - t vanishes at 1/199999, so the exact path decides; at
    # 2/199999 the fast path does.  Either way the reduction at order
    # 199999 keeps one power of its root per monomial, not a table of all
    # 199999 powers
    doc = {"complex": _root_minus_t({"root": "1/199999"})}
    with time_budget(1):
        for char, h in (("1/199999", [1, 1]), ("2/199999", [0, 0])):
            code, out, _ = run_cli(["cohomology"], dict(doc, character=[char]), monkeypatch, capsys)
            assert code == 0 and out == {"h": h}


def test_exact_cells_are_evaluated_in_their_own_field_not_the_characters(
    monkeypatch, capsys, time_budget
):
    # every t1 - 1 is 0 at (0, 1/199999), which needs no root of order
    # 199999; lifting each cell to the character's order takes far longer
    entry = [{"coeff": "1", "exp": [1, 0]}, {"coeff": "-1", "exp": [0, 0]}]
    doc = {
        "complex": {"vars": 2, "dims": [1, 3], "matrices": [[[entry], [entry], [entry]]]},
        "character": ["0", "1/199999"],
    }
    with time_budget(0.5):
        code, out, _ = run_cli(["cohomology"], doc, monkeypatch, capsys)
    assert code == 0 and out == {"h": [1, 3]}


def test_teichmuller_of_no_residue_coefficient_exits_two(monkeypatch, capsys, time_budget):
    with time_budget(2):
        code, out, err = run_cli(["teichmuller"], {"p": 5, "xi": [], "prec": 4}, monkeypatch, capsys)
    assert code == 2 and out is None
    assert err == "padicloci: xi needs at least one coefficient\n"


def test_plain_number_laurent_coefficient(monkeypatch, capsys):
    # a 1x1 complex with the single entry t, given as {"coeff": 1}
    cplx = {"vars": 1, "matrices": [[[[{"coeff": 1, "exp": [1]}]]]]}
    code, out, _ = run_cli(
        ["cohomology"], {"complex": cplx, "character": ["1/2"]}, monkeypatch, capsys
    )
    assert code == 0 and out == {"h": [0, 0]}


def test_readme_flag_table_names_exactly_the_parser_flags():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    documented = {line.split()[0] for line in block.splitlines() if line.startswith("--")}
    parser = _build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
    assert documented == flags - {"--help"}


def test_fitting_lists_a_generator_once_whatever_order_its_coefficients_carry(
    monkeypatch, capsys
):
    # both entries of the 2x1 map are t - 1, the second written with
    # roots of unity of orders 2 and 1, so its value carries order 2
    first = [{"coeff": "1", "exp": [1]}, {"coeff": "-1", "exp": [0]}]
    second = [{"coeff": {"root": "1/2"}, "exp": [0]}, {"coeff": {"root": "0"}, "exp": [1]}]
    doc = {"complex": {"vars": 1, "matrices": [[[first], [second]]]}, "i": 0, "j": 0}
    code, out, _ = run_cli(["fitting"], doc, monkeypatch, capsys)
    assert code == 0 and out["count"] == 1


def test_fitting_names_a_root_of_a_large_order_quickly(monkeypatch, capsys, time_budget):
    # the generator of [zeta_1601 - t] is 1 - zeta_1601**-1 t, whose
    # coefficient -zeta_1601**1600 has 1600 nonzero coordinates
    cell = [{"coeff": {"root": "1/1601"}, "exp": [0]}, {"coeff": "-1", "exp": [1]}]
    doc = {"complex": {"vars": 1, "dims": [1, 1], "matrices": [[[cell]]]}, "i": 0, "j": 0}
    with time_budget(2):
        code, out, _ = run_cli(["fitting"], doc, monkeypatch, capsys)
    generator = [{"coeff": "1", "exp": [0]}, {"coeff": {"root": "1599/3202"}, "exp": [1]}]
    assert code == 0 and out == {"count": 1, "generators": [generator]}


# -- builtin complexes: built once per process, and capped --------------------


@pytest.mark.parametrize(
    "builtin, code",
    [
        ({"builtin": "wedge", "n": 256}, 0),
        ({"builtin": "wedge", "n": 257}, 1),
        ({"builtin": "surface", "genus": 128}, 0),
        ({"builtin": "surface", "genus": 129}, 1),
    ],
)
def test_a_builtin_with_more_than_256_variables_is_refused(
    builtin, code, monkeypatch, capsys
):
    doc = {"complex": builtin, "i": 1, "j": 0, "order_bound": 1}
    got, out, _ = run_cli(["jumping-scan"], doc, monkeypatch, capsys)
    assert got == code
    if code:
        assert out == {"refusal": "size limit exceeded"}
    else:
        assert out["scanned"] == 1


@pytest.mark.parametrize("nvars, code", [(256, 0), (257, 1), (4000000, 1)])
def test_a_written_complex_with_more_than_256_variables_is_refused(
    nvars, code, monkeypatch, capsys
):
    # refused before any cell becomes a Laurent polynomial
    if code:
        monkeypatch.setattr(complexes, "laurent_from_json", None)
    doc = {"complex": {"vars": nvars, "dims": [1, 1], "matrices": [[[[]]]]}, "i": 0, "j": 5}
    got, out, _ = run_cli(["fitting"], doc, monkeypatch, capsys)
    assert got == code
    if code:
        assert out == {"refusal": "size limit exceeded"}
    else:
        assert out == {"count": 1, "generators": [[{"coeff": "1", "exp": [0] * 256}]]}


def test_an_out_of_range_unit_digit_exits_two(monkeypatch, capsys):
    x = {"p": 5, "v": 1, "unit_digits": [6, -1], "rel_prec": 2}
    code, out, err = run_cli(["exp"], {"p": 5, "x": x}, monkeypatch, capsys)
    assert code == 2 and out is None
    assert "[0, 5)" in err


def _cli_bytes(cmd, doc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main([cmd])
    return code, capsys.readouterr().out


def test_find_torsion_lifts_one_root_per_distinct_order(monkeypatch, capsys):
    # x**24 = 1 at p = 5: 24 components of orders 1, 2, 3, 4, 6, 8, 12, 24
    lifts = [0]
    lift = padic.teichmuller

    def counted(xi, prec):
        lifts[0] += 1
        return lift(xi, prec)

    monkeypatch.setattr(padic, "teichmuller", counted)
    doc = {
        "system": {"dim": 1, "equations": [{"exponents": [24], "rhs": "0"}]},
        "action": {"p": 5, "weights": [1], "alpha": PadicScalar.from_int(5, 6, 24).to_json()},
        "automorphism": [[1]],
        "precision": 24,
    }
    code, out = _cli_bytes("find-torsion", doc, monkeypatch, capsys)
    certs = json.loads(out)["certificates"]
    assert code == 0 and len(certs) == 24
    assert lifts[0] == len({c["order"] for c in certs} - {1}) == 7
    # the bytes of the one-lift-per-component pipeline
    digest = "4af83afcf2a5e4e16097d81a9f2de9e22665538eff5a2f5327af1451d7fe31b7"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_two_documents_on_one_builtin_share_one_instance(monkeypatch, capsys):
    complexes.surface_complex.cache_clear()
    checks = [0]
    check = complexes.TwistedComplex._check_composite

    def counted(upper, lower, i):
        checks[0] += 1
        return check(upper, lower, i)

    monkeypatch.setattr(complexes.TwistedComplex, "_check_composite", staticmethod(counted))
    seen = []
    spec = complexes.specialize
    monkeypatch.setattr(
        complexes, "specialize", lambda cplx, char: seen.append(cplx) or spec(cplx, char)
    )
    for char in (["1/5", "0"], ["1/7", "2/7"]):
        doc = {"complex": {"builtin": "torus"}, "character": char}
        assert _cli_bytes("cohomology", doc, monkeypatch, capsys)[0] == 0
    assert len(seen) == 2 and seen[0] is seen[1]
    assert checks[0] == 1


@pytest.mark.parametrize(
    "builtin",
    [{"builtin": "torus"}, {"builtin": "wedge", "n": 3}, {"builtin": "surface", "genus": 2}],
)
def test_interleaved_documents_on_a_kept_builtin_match_fresh_instances(
    builtin, monkeypatch, capsys
):
    nvars = {"torus": 2, "wedge": 3, "surface": 4}[builtin["builtin"]]
    docs = []
    for m in range(5, 13):
        char = ["%d/%d" % (k * (m - 1) % m + 1, m) for k in range(nvars)]
        docs.append(("cohomology", {"complex": builtin, "character": char}))
        order = 3 if nvars > 2 else m % 4 + 3
        docs.append(("jumping-scan", {"complex": builtin, "i": 1, "j": m % 3, "order_bound": order}))
    kept = [_cli_bytes(cmd, doc, monkeypatch, capsys) for cmd, doc in docs]
    build = cli._builtin_complex

    def fresh(c):
        cplx = build(c)
        return complexes.TwistedComplex(cplx.nvars, cplx.dims, cplx.mats)

    monkeypatch.setattr(cli, "_builtin_complex", fresh)
    assert kept == [_cli_bytes(cmd, doc, monkeypatch, capsys) for cmd, doc in docs]
    assert all(code == 0 for code, _ in kept)


def test_demo_in_a_warm_process_matches_a_fresh_process(monkeypatch, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "padicloci.cli", "demo"], capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    for _ in range(2):
        code, out = _cli_bytes("demo", {}, monkeypatch, capsys)
        assert code == 0 and out.encode() == proc.stdout
