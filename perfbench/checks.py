"""Output checks, run after the timed region.

Every answer must exit 0 and be one canonical JSON document (sorted
keys, no whitespace, trailing newline).  On top of that each command
gets an independent check:

* teichmuller: w**(q-1) == 1 in the pinned ring, computed here with
  plain integers, and w reduces to the requested residue;
* exp / log: log(exp(x)) == x and exp(log(x)) == x as cosets;
* jumping-scan: every hit re-specializes to h^i > j, and the hit set is
  the one the known Betti numbers of the builtin complex predict;
* cohomology: the Betti vector is the known one for the builtin;
* solve-binomial: the components pass `verify kind=solve`;
* find-torsion: the certificates pass `verify kind=certificates`;
* conic-check: the certificate passes `verify kind=conic`;
* verify: it verified, over the whole grid or certificate list;
* enumerate-torsion: order**dim distinct points, all on the coset.

For the default seed the sha256 of every answer and its exit code must
also match the digests captured for this workload (`digests/`).
"""

import hashlib
import json
import os
from fractions import Fraction

import workloads

DEFAULT_SEED = 0
DIGEST_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests")


def digest(code, text):
    return "%d:%s" % (code, hashlib.sha256(text.encode("utf-8")).hexdigest())


def digest_path(workload):
    return os.path.join(DIGEST_DIR, "%s.json" % workload)


def load_digests(workload):
    with open(digest_path(workload), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _canonical(text):
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return None
    if json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n" != text:
        return None
    return out


def _undigits(ds, p):
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def _builtin(spec):
    from padicloci import complexes

    name = spec["builtin"]
    if name == "torus":
        return complexes.torus_complex()
    if name == "wedge":
        return complexes.wedge_complex(spec["n"])
    return complexes.surface_complex(spec["genus"])


def _name(spec):
    for name, (cplx, _, _, _) in workloads.COMPLEXES.items():
        if cplx == spec:
            return name
    raise KeyError(spec)


def _check_teichmuller(doc, out):
    p, prec = doc["p"], doc["prec"]
    xi = doc["xi"] if isinstance(doc["xi"], list) else [doc["xi"]]
    f = len(xi)
    val = out["value"]
    if val["v"] != 0 or val["rel_prec"] != prec:
        return "lift is not a unit at the requested precision"
    digits = val["unit_digits"] if f > 1 else [val["unit_digits"]]
    coeffs = [_undigits(ds, p) for ds in digits]
    if [c % p for c in coeffs] != [c % p for c in xi]:
        return "lift does not reduce to its residue"
    pm = p ** prec
    one = [1] + [0] * (f - 1)
    if workloads.vec_pow_mod(coeffs, p ** f - 1, workloads.modulus(p, f), pm) != one:
        return "w**(q-1) != 1"
    return None


def _scalar_in(val, p, prec):
    from padicloci.padic import PadicScalar, scalar_from_json

    if isinstance(val, dict):
        return scalar_from_json(val)
    return PadicScalar.from_int(p, val, prec)


def _check_exp_log(cmd, doc, out):
    from padicloci.padic import coset_eq, padic_exp, padic_log, scalar_from_json

    x = _scalar_in(doc["x"], doc["p"], doc["precision"])
    y = scalar_from_json(out["value"])
    back = padic_log(y) if cmd == "exp" else padic_exp(y)
    if not coset_eq(back, x):
        return "%s does not invert" % cmd
    return None


def _check_scan(doc, out):
    from padicloci.complexes import specialize

    i, j, m = doc["i"], doc["j"], doc["order_bound"]
    _, nvars, trivial, generic = workloads.COMPLEXES[_name(doc["complex"])]
    if out["scanned"] != m ** nvars:
        return "scanned %d characters, grid has %d" % (out["scanned"], m ** nvars)
    hits = [tuple(Fraction(s) for s in h) for h in out["hits"]]
    if hits != sorted(set(hits)):
        return "hits are not sorted and distinct"
    if generic[i] > j:
        expected = m ** nvars
    else:
        expected = 1 if trivial[i] > j else 0
    if len(hits) != expected:
        return "%d hits, Betti numbers predict %d" % (len(hits), expected)
    cplx = _builtin(doc["complex"])
    for h in hits:
        if specialize(cplx, h)[i] <= j:
            return "hit %s fails re-specialization" % (h,)
    return None


def _check_cohomology(doc, out):
    _, _, trivial, generic = workloads.COMPLEXES[_name(doc["complex"])]
    want = trivial if all(Fraction(c) % 1 == 0 for c in doc["character"]) else generic
    if tuple(out["h"]) != want:
        return "Betti vector %s, expected %s" % (out["h"], want)
    return None


def _on_coset(coset, point):
    return all(
        sum(c * x for c, x in zip(row, point)) % 1 == Fraction(val)
        for row, val in zip(coset["lattice_basis"], coset["translate"])
    )


def _check_enumerate(doc, out):
    coset, order = doc["coset"], doc["order"]
    pts = [tuple(Fraction(s) for s in pt) for pt in out["points"]]
    if out["count"] != len(pts) or len(set(pts)) != len(pts):
        return "point count mismatch or repeated points"
    if len(pts) != order ** coset["dim"]:
        return "%d points, expected %d" % (len(pts), order ** coset["dim"])
    if not all(_on_coset(coset, pt) and all((order * x).denominator == 1 for x in pt) for pt in pts):
        return "a point is off the coset or of the wrong order"
    return None


def check_document(cmd, doc, code, text, answer):
    """None when the answer passes, else the reason it fails.

    answer(cmd, payload) -> (code, text) runs a follow-up verification.
    """
    if code != 0:
        return "exit code %s" % code
    out = _canonical(text)
    if out is None:
        return "output is not one canonical JSON document"
    if cmd == "teichmuller":
        return _check_teichmuller(doc, out)
    if cmd in ("exp", "log"):
        return _check_exp_log(cmd, doc, out)
    if cmd == "jumping-scan":
        return _check_scan(doc, out)
    if cmd == "cohomology":
        return _check_cohomology(doc, out)
    if cmd == "enumerate-torsion":
        return _check_enumerate(doc, out)
    if cmd == "fitting":
        return None if out["count"] == len(out["generators"]) else "generator count mismatch"
    if cmd == "verify":
        if out.get("verified") is not True:
            return "verification failed: %s" % out
        if doc["kind"] == "solve":
            if out["points_checked"] != doc["order_bound"] ** doc["system"]["dim"]:
                return "grid not covered"
        elif out["certificates_checked"] != len(doc["certificates"]):
            return "certificates not all checked"
        return None
    if cmd == "solve-binomial":
        if out["count"] != len(out["components"]):
            return "component count mismatch"
        follow = {"kind": "solve", "system": doc["system"], "components": out["components"], "order_bound": 12}
    elif cmd == "find-torsion":
        if not all(c["status"] == "ok" for c in out["certificates"]):
            return "a component is not certified"
        follow = {
            "kind": "certificates",
            "system": doc["system"],
            "automorphism": doc["automorphism"],
            "certificates": out["certificates"],
        }
    elif cmd == "conic-check":
        if out.get("ok") is not True or out["points_used"] != doc["bound_k"] + 1:
            return "conic certificate refused or short"
        follow = {"kind": "conic", "locus": doc["locus"], "action": doc["action"], "point": doc["point"], "certificate": out}
    else:
        return None
    vcode, vtext = answer("verify", follow)
    vout = _canonical(vtext) if vcode == 0 else None
    if vout is None or vout.get("verified") is not True:
        return "independent verify rejected the answer"
    return None
