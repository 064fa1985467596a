"""End-to-end acceptance suite.

Each test covers one numbered criterion and registers a one-line verdict
printed in the terminal summary.  Time budgets are asserted inside the
tests that carry one.
"""

import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

from padicloci.conic import WeightedAction, conic_certificate
from padicloci.cosets import (
    BinomialSystem,
    sigma_stable,
    solve_binomial,
    torsion_certificate_pipeline,
)
from padicloci.complexes import (
    fitting_locus,
    scan_torsion,
    shape_check,
    specialize,
    torus_complex,
    wedge_complex,
)
from padicloci.cosets import TorsionCoset, enumerate_torsion
from padicloci.intlinalg import integer_kernel
from padicloci.laurent import LaurentPoly
from padicloci.padic import (
    PadicScalar,
    UnramifiedScalar,
    coset_eq,
    exp_domain_bound,
    padic_exp,
    padic_log,
    teichmuller,
)
from padicloci.series import (
    AnalyticSeries,
    PolyDisc,
    newton_polygon,
    strassmann_count,
)

from padic_oracles import rep, residue_field
from rational_loci import rational_locus

F = Fraction


@pytest.fixture
def criterion(record_property):
    start = time.perf_counter()

    def describe(n, label, budget=None):
        record_property("criterion", n)
        record_property("label", label)

        def finish():
            elapsed = time.perf_counter() - start
            record_property("elapsed", elapsed)
            if budget is not None:
                assert elapsed < budget, "ran %.2fs, budget %ds" % (elapsed, budget)
            return elapsed

        return finish

    return describe


def run_command(argv, payload):
    """Drive the CLI in-process and return (exit code, parsed stdout)."""
    from padicloci import cli

    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    text = buf.getvalue()
    return code, json.loads(text) if text else None


def test_criterion_1_teichmuller_lifts(criterion):
    finish = criterion(
        1, "Teichmuller lifts: defining identities and multiplicativity", budget=5
    )
    prec = 40
    for p in (2, 3, 5, 7, 13):
        for f in (1, 2):
            q = p ** f
            one = UnramifiedScalar.one(p, f, prec)
            lifts = {}
            for xi in residue_field(p, f):
                if xi.v is None:
                    continue
                w = teichmuller(xi, prec)
                assert w ** (q - 1) == one
                assert w.residue() == xi
                lifts[xi.coeff] = w
            assert len(lifts) == q - 1
            if q <= 49:
                elems = [xi for xi in residue_field(p, f) if xi.v is not None]
                for a in elems:
                    for b in elems:
                        assert lifts[a.coeff] * lifts[b.coeff] == lifts[(a * b).coeff]
    finish()


def test_criterion_2_exp_log_inverse_pair(criterion):
    finish = criterion(
        2, "exp/log: round trip and homomorphism identity at precision 60", budget=10
    )
    prec = 60
    rng = random.Random(60601)
    for p in (3, 5, 7):
        b = exp_domain_bound(p)
        xs = []
        for _ in range(1000):
            v = b + rng.randrange(0, 4)
            u = rng.randrange(1, p ** 8)
            while u % p == 0:
                u = rng.randrange(1, p ** 8)
            xs.append(PadicScalar.from_int(p, p ** v * u, prec))
        for x in xs:
            assert coset_eq(padic_log(padic_exp(x)), x)
        for x, y in zip(xs[0::2], xs[1::2]):
            assert coset_eq(padic_exp(x + y), padic_exp(x) * padic_exp(y))
    pinned = padic_exp(PadicScalar.from_int(5, 5, 3))
    assert rep(pinned) % 5 ** 4 == 456
    finish()


def test_criterion_3_newton_strassmann_cross_oracle(criterion):
    finish = criterion(
        3, "unit-disc zero count: Newton polygon equals Strassmann bound", budget=5
    )
    rng = random.Random(3501)
    for p in (3, 5):
        done = 0
        while done < 500:
            deg = rng.randrange(0, 7)
            coeffs = {}
            for n in range(deg + 1):
                c = rng.randrange(-p ** 5, p ** 5 + 1)
                if c:
                    coeffs[(n,)] = PadicScalar.from_int(p, c, 40)
            if not coeffs:
                continue
            g = AnalyticSeries(PolyDisc(p, 1, 0), coeffs)
            assert (
                newton_polygon(g).root_count_with_valuation_at_least(0)
                == strassmann_count(g)
            )
            done += 1
    finish()


def _point_on_binomial(p, e1, e2, prec):
    """Unit point x with x**e1 = x**e2, built along the kernel of e1 - e2."""
    d = len(e1)
    v = [a - b for a, b in zip(e1, e2)]
    kernel = integer_kernel([v], ncols=d)
    t = PadicScalar.from_int(p, 2 + p, prec)
    coords = []
    for i in range(d):
        e = sum(k[i] for k in kernel)
        coords.append(t ** e)
    return tuple(coords)


def test_criterion_4_conic_certificates(criterion):
    finish = criterion(
        4, "conic certificates: invariant loci accept, skew loci refuse with witness"
    )
    rng = random.Random(404)
    p, prec = 5, 30
    alpha = PadicScalar.from_int(p, 1 + p, prec)

    def random_exponents(d, weights, homogeneous):
        while True:
            e1 = tuple(rng.randrange(0, 4) for _ in range(d))
            e2 = tuple(rng.randrange(0, 4) for _ in range(d))
            if e1 == e2:
                continue
            k1 = sum(w * e for w, e in zip(weights, e1))
            k2 = sum(w * e for w, e in zip(weights, e2))
            if homogeneous and k1 == k2:
                return e1, e2
            if not homogeneous and k1 != k2:
                return e1, e2

    accepted = refused = 0
    for _ in range(50):
        d = rng.randrange(2, 4)
        weights = tuple(rng.randrange(1, 4) for _ in range(d))
        e1, e2 = random_exponents(d, weights, True)
        q = LaurentPoly(d, {tuple(e1): 1}) - LaurentPoly(d, {tuple(e2): 1})
        S = rational_locus(PolyDisc(p, d, 0), [q], prec)
        action = WeightedAction(p, weights, alpha)
        x = _point_on_binomial(p, e1, e2, prec)
        res = conic_certificate(S, action, x, max(weights) * 4)
        assert res["ok"] is True, res
        accepted += 1
    for _ in range(20):
        d = rng.randrange(2, 4)
        weights = tuple(rng.randrange(1, 4) for _ in range(d))
        e1, e2 = random_exponents(d, weights, False)
        q = LaurentPoly(d, {tuple(e1): 1}) - LaurentPoly(d, {tuple(e2): 1})
        S = rational_locus(PolyDisc(p, d, 0), [q], prec)
        action = WeightedAction(p, weights, alpha)
        x = _point_on_binomial(p, e1, e2, prec)
        bound = max(
            sum(w * e for w, e in zip(weights, e1)),
            sum(w * e for w, e in zip(weights, e2)),
        )
        res = conic_certificate(S, action, x, bound + 1)
        assert res["ok"] is False, res
        assert res["reason"] == "nonzero value on the orbit"
        assert "orbit_point" in res and res["index"] >= 1
        refused += 1
    assert accepted == 50 and refused == 20
    finish()


def test_criterion_5_binomial_solver_completeness(criterion):
    finish = criterion(
        5, "binomial solver: coset membership matches the 12-torsion grid", budget=60
    )
    rng = random.Random(1728)
    M = 12
    for _ in range(200):
        d = rng.randrange(1, 4)
        eqs = []
        for _ in range(rng.randrange(0, 4)):
            v = [0] * d
            while not any(v):
                v = [rng.randrange(-3, 4) for _ in range(d)]
            eqs.append((v, F(rng.randrange(0, M), M)))
        system = BinomialSystem(d, eqs)
        comps = solve_binomial(system)
        for t in product([F(a, M) for a in range(M)], repeat=d):
            satisfied = all(
                sum(c * x for c, x in zip(v, t)) % 1 == e for v, e in system.equations
            )
            assert satisfied == any(c.contains(t) for c in comps)
    finish()


def _echelon_system(rng, d):
    """Document of a random system whose component orders divide 24.

    Unit pivots keep back substitution from inflating denominators, so
    every torsion point stays within reach of an order-2 residue field.
    """
    m = rng.randrange(0, d + 1)
    pivots = sorted(rng.sample(range(d), m))
    eqs = []
    for col in pivots:
        v = [0] * d
        v[col] = rng.randrange(1, 3) if m == 1 else 1
        for j in range(col + 1, d):
            v[j] = rng.randrange(-3, 4)
        eqs.append({"exponents": v, "rhs": "%d/12" % rng.randrange(0, 12)})
    return {"dim": d, "equations": eqs}


def test_criterion_6_torsion_certificates_verify(criterion):
    finish = criterion(
        6, "torsion pipeline: every component certified and independently verified"
    )
    rng = random.Random(5050)
    p, prec = 5, 24
    alpha = PadicScalar.from_int(p, 1 + p, prec)
    systems_done = 0
    total_components = 0
    nontrivial_orders = 0
    while systems_done < 50:
        d = rng.randrange(1, 4)
        system_doc = _echelon_system(rng, d)
        system = BinomialSystem.from_json(system_doc)
        comps = solve_binomial(system)
        if rng.randrange(4) == 0 and d == 2:
            auto = [[0, 1], [1, 0]]
            if not all(sigma_stable(c, auto) for c in comps):
                auto = [[1, 0], [0, 1]]
        else:
            auto = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        action = WeightedAction(p, (1,) * d, alpha)
        certs = torsion_certificate_pipeline(system, action, auto, prec)
        assert len(certs) == len(comps)
        for cert in certs:
            assert cert["status"] == "ok", cert
            point = tuple(F(s) for s in cert["torsion_point"])
            for v, e in system.equations:
                assert sum(c * x for c, x in zip(v, point)) % 1 == e
            total_components += 1
            if cert["order"] > 1:
                nontrivial_orders += 1
        code, out = run_command(
            ["verify"],
            {
                "kind": "certificates",
                "system": system_doc,
                "automorphism": auto,
                "certificates": certs,
            },
        )
        assert code == 0 and out["verified"] is True
        assert out["certificates_checked"] == len(comps)
        systems_done += 1
    assert total_components >= 50
    assert nontrivial_orders >= 10
    finish()


def test_criterion_7_torus_jumping_locus(criterion):
    finish = criterion(
        7, "torus local systems: jump set is the single trivial character"
    )
    tor = torus_complex()
    scan = scan_torsion(tor, 1, 0, 6)
    assert scan.scanned == 36
    assert scan.hits == ((F(0), F(0)),)
    for char in product([F(a, 6) for a in range(6)], repeat=2):
        h = specialize(tor, char)
        if char == (F(0), F(0)):
            assert h == (1, 2, 1)
        else:
            assert h == (0, 0, 0)
    verdict = shape_check(fitting_locus(tor, 1, 0), nvars=2, scan=scan)
    assert verdict["verdict"] == "shape confirmed"
    assert len(verdict["cosets"]) == 1
    coset = TorsionCoset.from_json(verdict["cosets"][0])
    assert coset.dim == 0
    assert enumerate_torsion(coset, 6) == [(F(0), F(0))]
    finish()


def test_criterion_8_wedge_jumping_locus(criterion):
    finish = criterion(
        8, "wedge of three circles: h1 drops from 3 to 2 off the trivial character"
    )
    w3 = wedge_complex(3)
    chars = list(product([F(a, 6) for a in range(6)], repeat=3))
    assert len(chars) == 216
    for char in chars:
        h0, h1 = specialize(w3, char)
        if all(c == 0 for c in char):
            assert (h0, h1) == (1, 3)
        else:
            assert (h0, h1) == (0, 2)
        assert h0 - h1 == -2
    finish()


def test_criterion_9_demo_determinism(criterion):
    finish = criterion(
        9, "demo output is byte-identical across different --jobs values"
    )
    runs = []
    for jobs in ("1", "7"):
        proc = subprocess.run(
            [sys.executable, "-m", "padicloci.cli", "demo", "--jobs", jobs],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].endswith(b"\n")
    finish()
