"""Seeded document generators for the benchmark workloads.

Every workload is a list of blocks.  A block holds a fixed multiset of
*slots* (command plus the size parameters that set its cost: complex
and order bound, prime/degree/precision, torus rank and number of
equations); the seed draws everything that does not change the cost:
characters, indices and thresholds within a hit class, residues, unit
digits, exponents and right-hand sides, and the order of the documents
inside the block.  Blocks therefore carry nearly equal work, which keeps
the per-block rates comparable and the figures steady from seed to seed.

The generator imports nothing from the program.  Documents that consume
another command's answer (`verify` of a solve or of certificates) are
completed by `complete_dependent_docs`, which runs the prerequisite
command once, untimed, before any measurement starts.
"""

import random
from fractions import Fraction

# Pinned moduli of Q_{p^f} (padicloci.padic.modulus_poly: the first monic
# irreducible in lexicographic order), little-endian with the leading 1.
# The generator uses them to draw residues whose lifts do real work, and
# the output checks use them as an independent ring for w**(q-1) == 1.
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1),
}


def modulus(p, f):
    return (0, 1) if f == 1 else MODULI[(p, f)]


def vec_mul_mod(a, b, h, pm):
    """Product of coefficient vectors modulo the monic h and pm."""
    f = len(h) - 1
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * f - 2, f - 1, -1):
        c = prod[k]
        for i in range(f):
            prod[k - f + i] -= c * h[i]
    return [c % pm for c in prod[:f]]


def vec_pow_mod(a, e, h, pm):
    out = [1] + [0] * (len(h) - 2)
    while e:
        if e & 1:
            out = vec_mul_mod(out, a, h, pm)
        e >>= 1
        if e:
            a = vec_mul_mod(a, a, h, pm)
    return out


def exp_domain_bound(p):
    return 2 if p == 2 else 1


def _digits(n, p, count):
    out = []
    for _ in range(count):
        out.append(n % p)
        n //= p
    return out


def _scalar_doc(p, f, v, coeffs, prec):
    """Scalar document in the CLI's serialized form."""
    if f == 1:
        return {"p": p, "f": 1, "v": v, "unit_digits": _digits(coeffs[0], p, prec), "rel_prec": prec}
    return {
        "p": p,
        "f": f,
        "v": v,
        "unit_digits": [_digits(c, p, prec) for c in coeffs],
        "rel_prec": prec,
    }


# ---------------------------------------------------------------------------
# jumping_scan
# ---------------------------------------------------------------------------

COMPLEXES = {
    "torus": ({"builtin": "torus"}, 2, (1, 2, 1), (0, 0, 0)),
    "wedge2": ({"builtin": "wedge", "n": 2}, 2, (1, 2), (0, 1)),
    "wedge3": ({"builtin": "wedge", "n": 3}, 3, (1, 3), (0, 2)),
    "surface2": ({"builtin": "surface", "genus": 2}, 4, (1, 4, 1), (0, 2, 0)),
}


def _thresholds(name, cls):
    """(i, j) pairs whose scan hits only the trivial character or nothing
    ("few"), or every character ("all"); re-verification doubles the
    cost of the second class, so the class is part of the slot."""
    _, _, trivial, generic = COMPLEXES[name]
    out = []
    for i, h in enumerate(trivial):
        for j in range(h + 1):
            hits_all = generic[i] > j
            if (cls == "all") == hits_all:
                out.append((i, j))
    return out


# (complex, order bound, hit class).  With the 8 cohomology, 1 fitting
# and 2 shape-check documents a block has 26 documents in four cost
# tiers: 10 of a few ms, 6 order-6 torus scans (the shape check scans
# too), 5 mid-size scans and 5 genus-2 scans.  Each tier at a
# percentile is one slot repeated, so the median falls among copies of
# the order-6 torus scan and the 90th percentile among the genus-2
# scans, never in a gap between tiers of different cost.
SCAN_SLOTS = (("torus", 6, "few"),) * 5 + (
    ("surface2", 2, "all"),
    ("wedge3", 3, "all"),
    ("wedge2", 8, "few"),
    ("wedge3", 4, "few"),
    ("torus", 8, "few"),
) + (("surface2", 3, "few"),) * 5
# (character order, complex) for single-character cohomology
COHOMOLOGY_SLOTS = tuple(zip(range(5, 13), ("torus", "wedge2", "wedge3", "surface2") * 2))


def _coprime_to(m, rng):
    while True:
        a = rng.randrange(1, m)
        if Fraction(a, m).denominator == m:
            return a


def _jumping_block(rng):
    docs = []
    for name, m, cls in SCAN_SLOTS:
        i, j = rng.choice(_thresholds(name, cls))
        cplx = COMPLEXES[name][0]
        docs.append(("jumping-scan", {"complex": cplx, "i": i, "j": j, "order_bound": m}))
    for m, name in COHOMOLOGY_SLOTS:
        cplx, nvars = COMPLEXES[name][:2]
        char = ["%d/%d" % (_coprime_to(m, rng), m)]
        char += ["%d/%d" % (rng.randrange(m), m) for _ in range(nvars - 1)]
        rng.shuffle(char)
        docs.append(("cohomology", {"complex": cplx, "character": char}))
    name = rng.choice(sorted(COMPLEXES))
    i = rng.randrange(len(COMPLEXES[name][2]))
    j = rng.randrange(COMPLEXES[name][2][i] + 1)
    docs.append(("fitting", {"complex": COMPLEXES[name][0], "i": i, "j": j}))
    name = rng.choice(sorted(COMPLEXES))
    i, j = rng.choice(_thresholds(name, "few"))
    docs.append(("shape-check", {"complex": COMPLEXES[name][0], "i": i, "j": j}))
    i, j = rng.choice(_thresholds("torus", "few"))
    docs.append(
        ("shape-check", {"complex": COMPLEXES["torus"][0], "i": i, "j": j, "order_bound": 6})
    )
    rng.shuffle(docs)
    return docs


def _jumping_warm():
    # one character of every cyclotomic order the scans and the
    # cohomology slots reach fills the per-order modulus cache
    docs = []
    for m in range(1, 13):
        docs.append(("cohomology", {"complex": {"builtin": "torus"}, "character": ["1/%d" % m, "0"]}))
    return docs


# ---------------------------------------------------------------------------
# padic_highprec
# ---------------------------------------------------------------------------

# (p, f, prec) per slot.  A block has 25 documents in four cost tiers:
# 10 small exp/log/lift documents, 5 exp at prec 1600 (p = 5, 7), 5
# mid-size documents and 5 lifts of about the same cost.  The median
# falls among the prec-1600 exps and the 90th percentile among the
# heaviest lifts, never in a gap between tiers.
TEICHMULLER_SLOTS = (
    (13, 3, 100),
    (7, 1, 400),
    (3, 3, 400),
    (3, 2, 800),
    (13, 2, 400),
    (2, 3, 1200),
    (5, 1, 1200),
    (7, 2, 700),
    (5, 3, 500),
    (13, 1, 800),
    (7, 1, 1000),
)
EXP_SLOTS = ((7, 1, 400), (3, 1, 800), (2, 1, 1600)) + ((5, 1, 1600),) * 3 + ((7, 1, 1600),) * 2 + ((5, 3, 800),)
LOG_SLOTS = ((2, 1, 800), (5, 1, 400), (7, 2, 200), (13, 1, 800), (3, 1, 1600))


def _generic_residue(p, f, rng):
    """Nonzero residue whose integer lift is not already a (q-1)-th root
    of unity mod p**2, so the lift iteration runs through every digit."""
    h, q = modulus(p, f), p ** f
    while True:
        xi = [rng.randrange(p) for _ in range(f)]
        if any(xi) and vec_pow_mod(xi, q, h, p * p) != [c % (p * p) for c in xi]:
            return xi


def _random_unit(p, f, rng, digits=60):
    coeffs = [rng.randrange(p ** digits) for _ in range(f)]
    while coeffs[0] % p == 0:
        coeffs[0] = rng.randrange(p ** digits)
    return coeffs


def _padic_block(rng):
    docs = []
    for p, f, prec in TEICHMULLER_SLOTS:
        xi = _generic_residue(p, f, rng)
        docs.append(("teichmuller", {"p": p, "xi": xi[0] if f == 1 else xi, "prec": prec}))
    for p, f, prec in EXP_SLOTS:
        v = exp_domain_bound(p)
        u = _random_unit(p, f, rng)
        x = p ** v * u[0] if f == 1 else _scalar_doc(p, f, v, u, prec)
        docs.append(("exp", {"p": p, "x": x, "precision": prec}))
    for p, f, prec in LOG_SLOTS:
        w = exp_domain_bound(p)
        u = _random_unit(p, f, rng)
        if f == 1:
            x = 1 + p ** w * u[0]
        else:
            coeffs = [(1 if k == 0 else 0) + p ** w * c for k, c in enumerate(u)]
            x = _scalar_doc(p, f, 0, coeffs, prec)
        docs.append(("log", {"p": p, "x": x, "precision": prec}))
    rng.shuffle(docs)
    return docs


def _padic_warm():
    # one small lift per (p, f) fills the pinned-modulus cache
    keys = sorted({(p, f) for p, f, _ in TEICHMULLER_SLOTS + EXP_SLOTS + LOG_SLOTS})
    docs = []
    for p, f in keys:
        docs.append(("teichmuller", {"p": p, "xi": 1 if f == 1 else [1] + [0] * (f - 1), "prec": 4}))
    return docs


# ---------------------------------------------------------------------------
# torsion_certify
# ---------------------------------------------------------------------------


def echelon_system(rng, d, m, lead=1, order12=False):
    """Binomial system in echelon form with m equations on a rank-d torus.

    Pivots with coefficient 1 (or `lead` for a single equation) keep
    every component order a divisor of 24, like the acceptance suite's
    certificate systems.  With order12 every right-hand side has exact
    order 12, which fixes the residue degree of the certificate's
    Teichmuller lifts and so the document's cost.
    """
    pivots = sorted(rng.sample(range(d), m))
    eqs = []
    for col in pivots:
        v = [0] * d
        v[col] = lead if m == 1 else 1
        for j in range(col + 1, d):
            v[j] = rng.randrange(-3, 4)
        k = rng.choice((1, 5, 7, 11)) if order12 else rng.randrange(12)
        eqs.append({"exponents": v, "rhs": str(Fraction(k, 12))})
    return {"dim": d, "equations": eqs}


def _action(p, d):
    alpha = _scalar_doc(p, 1, 0, [1 + p], 24)
    return {"p": p, "weights": [1] * d, "alpha": alpha}


def _identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _conic_doc(rng, p, d):
    """Weighted-homogeneous binomial locus x**e1 = x**e2 and a unit point on it."""
    weights = [rng.randrange(1, 4) for _ in range(d)]

    def degree(e):
        return sum(w * x for w, x in zip(weights, e))

    while True:
        e1 = [rng.randrange(4) for _ in range(d)]
        e2 = [rng.randrange(4) for _ in range(d)]
        if e1 != e2 and degree(e1) == degree(e2):
            break
    v = [a - b for a, b in zip(e1, e2)]
    # an integer vector k with v . k = 0; the point is t**k for a unit t
    nz = [i for i, c in enumerate(v) if c]
    k = [0] * d
    if len(nz) == 1:
        k = [0 if i == nz[0] else 1 for i in range(d)]
    else:
        a, b = nz[0], nz[1]
        k[a], k[b] = v[b], -v[a]
    t = 2 + p
    point = [str(Fraction(t) ** e) for e in k]
    prec = 24
    one = _scalar_doc(p, 1, 0, [1], prec)
    minus_one = _scalar_doc(p, 1, 0, [p ** prec - 1], prec)
    disc = {"p": p, "dim": d, "radius_exp": 0}
    series = {
        "disc": disc,
        "terms": [{"exp": e1, "coeff": one}, {"exp": e2, "coeff": minus_one}],
        "tail_exp": None,
    }
    locus = {
        "disc": disc,
        "equations": [series],
        "polynomials": [[{"coeff": "1", "exp": e1}, {"coeff": "-1", "exp": e2}]],
    }
    return {
        "locus": locus,
        "action": {"p": p, "weights": weights, "alpha": _scalar_doc(p, 1, 0, [1 + p], 30)},
        "point": point,
        "bound_k": max(weights) * 4,
    }


# Slots per block: (d, m, lead) for solve-binomial and for verify
# kind=solve over the 12-torsion grid, (d, m, order) for
# enumerate-torsion over a solved coset, (d, m, p, precision) for
# find-torsion and for verify kind=certificates, (p, d) for conic-check.
# A block has 17 documents in three cost tiers: 5 small ones, 7
# find-torsion and 5 grid verifications (1728 points each on the rank-3
# torus).  The median falls among the find-torsion documents and the
# 90th percentile among the rank-3 grids, never in a gap between tiers.
SOLVE_SLOTS = ((3, 2, 1),)
VERIFY_SOLVE_SLOTS = ((2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 2, 1), (3, 3, 1), (3, 3, 1))
ENUMERATE_SLOTS = ((3, 2, 24),)
FIND_SLOTS = ((3, 1, 5, 200), (3, 1, 7, 200)) * 3 + ((3, 2, 5, 120),)
VERIFY_CERT_SLOTS = ((2, 1, 5, 60),)
CONIC_SLOTS = ((7, 3),)


def _torsion_block(rng):
    docs = []
    for d, m, lead in SOLVE_SLOTS:
        docs.append(("solve-binomial", {"system": echelon_system(rng, d, m, lead)}))
    for d, m, lead in VERIFY_SOLVE_SLOTS:
        system = echelon_system(rng, d, m, lead)
        docs.append(
            ("verify", {"kind": "solve", "system": system, "order_bound": 12, "components": None})
        )
    for d, m, order in ENUMERATE_SLOTS:
        system = echelon_system(rng, d, m)
        docs.append(("enumerate-torsion", {"coset": None, "order": order, "_system": system}))
    for d, m, p, prec in FIND_SLOTS:
        system = echelon_system(rng, d, m, order12=True)
        docs.append(
            (
                "find-torsion",
                {"system": system, "action": _action(p, d), "automorphism": _identity(d), "precision": prec},
            )
        )
    for d, m, p, prec in VERIFY_CERT_SLOTS:
        system = echelon_system(rng, d, m)
        docs.append(
            (
                "verify",
                {
                    "kind": "certificates",
                    "system": system,
                    "automorphism": _identity(d),
                    "certificates": None,
                    "_request": {"action": _action(p, d), "precision": prec},
                },
            )
        )
    for p, d in CONIC_SLOTS:
        docs.append(("conic-check", _conic_doc(rng, p, d)))
    rng.shuffle(docs)
    return docs


def _torsion_warm():
    # x**24 = 1 at each prime reaches every (p, f) of the pinned-modulus
    # and generator caches that orders dividing 24 need
    docs = []
    for p in (5, 7):
        system = {"dim": 1, "equations": [{"exponents": [24], "rhs": "0"}]}
        docs.append(
            ("find-torsion", {"system": system, "action": _action(p, 1), "automorphism": [[1]], "precision": 24})
        )
    return docs


def complete_dependent_docs(docs, answer):
    """Fill the documents that carry another command's answer.

    `answer(cmd, payload)` runs one command and returns its parsed
    output; it runs before any timing, and each prerequisite is a fresh
    request of its own.
    """
    for cmd, payload in docs:
        if cmd == "verify" and payload["kind"] == "solve":
            payload["components"] = answer("solve-binomial", {"system": payload["system"]})["components"]
        elif cmd == "enumerate-torsion":
            comps = answer("solve-binomial", {"system": payload.pop("_system")})["components"]
            payload["coset"] = comps[0]
        elif cmd == "verify" and payload["kind"] == "certificates":
            req = payload.pop("_request")
            req = dict(req, system=payload["system"], automorphism=payload["automorphism"])
            payload["certificates"] = answer("find-torsion", req)["certificates"]
    return docs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, mix, block, warm, blocks, traced_blocks):
        self.name = name
        self.mix = mix
        self.block = block
        self.warm = warm
        self.blocks = blocks
        self.traced_blocks = traced_blocks

    def documents(self, seed):
        """Blocks of (command, payload) pairs drawn from the seed."""
        rng = random.Random("%s:%d" % (self.name, seed))
        return [self.block(rng) for _ in range(self.blocks)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jumping_scan",
            "per block: 15 jumping-scan (five torus m=6; torus m=8; wedge n=2 m=8; wedge n=3 m=3,4; "
            "surface genus 2 m=2 and five at m=3), 8 cohomology (one character of each order 5..12), "
            "1 fitting, 2 shape-check (one with an order-6 scan)",
            _jumping_block,
            _jumping_warm,
            blocks=16,
            traced_blocks=2,
        ),
        Workload(
            "padic_highprec",
            "per block: 11 teichmuller (p in 2,3,5,7,13; f in 1,2,3; prec 100..1200), "
            "9 exp and 5 log (prec 200..1600, f=1 plus one f=3 exp and one f=2 log)",
            _padic_block,
            _padic_warm,
            blocks=6,
            traced_blocks=2,
        ),
        Workload(
            "torsion_certify",
            "per block: 1 solve-binomial, 6 verify kind=solve (12-torsion grid, rank 2 and 3), 1 enumerate-torsion, "
            "7 find-torsion (p=5,7; precision 120..200), 1 verify kind=certificates, 1 conic-check; "
            "echelon systems of rank <= 3 with orders dividing 24",
            _torsion_block,
            _torsion_warm,
            blocks=24,
            traced_blocks=4,
        ),
    )
}
