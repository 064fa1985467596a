"""Batch command line front end.

One flat parser takes the command name and the flags --input, --output,
--precision, --order-bound and --jobs.  Every command reads one JSON
document (from --input or stdin), writes one canonical JSON report
(sorted keys, reduced fractions, no whitespace) to --output or stdout,
and says nothing else on the output stream.  Exit code 0 is success, 1
is a property violation or an explicit refusal, 2 is malformed input.
Diagnostics go to stderr.

Flags can also be set through environment variables with the
PADICLOCI_ prefix (PADICLOCI_PRECISION and so on); explicit flags win.
The --jobs flag is accepted for interface stability: scans and sample
loops are order-independent merges, so worker count never changes a
byte of output, and the implementation keeps the single-threaded
deterministic facade.

Each handler imports the modules it runs when it runs, so a process
answering one command compiles only those; `padic`, which nearly every
command decodes through, is imported here.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product

from .padic import (
    PadicScalar,
    UnramifiedScalar,
    _check_precision,
    _json_int,
    check_prime,
    scalar_from_json,
    padic_exp,
    padic_log,
    teichmuller,
)

ENV_PREFIX = "PADICLOCI_"
INPUT_FREE = {"demo"}
# largest character grid a scan or a verification may walk, and so the
# largest character order `cohomology` takes (a one-variable scan's)
_VERIFY_GRID_CAP = 200000
# most character variables a complex may have (a written-out complex's
# vars, wedge n, surface 2 * genus)
_VARS_CAP = 256


class SchemaError(Exception):
    """Input document fails the command schema."""


class Refusal(Exception):
    """An explicit refusal: exit 1 with {"refusal": message}."""


def _need(doc, key, kinds=None):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError("missing field '%s'" % key)
    val = doc[key]
    if kinds is not None and not isinstance(val, kinds):
        raise SchemaError("field '%s' has the wrong type" % key)
    return val


def _int_field(doc, key, default=None):
    if default is not None and key not in doc:
        return default
    return _decode("field '%s'" % key, _json_int, _need(doc, key))


def _positive_field(doc, key, default=None):
    val = _int_field(doc, key, default)
    if val < 1:
        raise SchemaError("field '%s' must be >= 1" % key)
    return val


def _prime_field(doc):
    p = _int_field(doc, "p")
    try:
        check_prime(p)
    except ValueError as e:
        raise SchemaError(str(e))
    return p


def _fraction(x, what):
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError("%s is not a fraction" % what)


def _int_matrix(doc, key):
    rows = _need(doc, key, list)
    for r in rows:
        if not isinstance(r, list) or any(isinstance(c, bool) or not isinstance(c, int) for c in r):
            raise SchemaError("field '%s' must be a list of integer rows" % key)
    return rows


def _automorphism_in(doc, dim):
    auto = _int_matrix(doc, "automorphism")
    if len(auto) != dim or any(len(r) != dim for r in auto):
        raise SchemaError("automorphism shape mismatch")
    return auto


def _decode(what, fn, *args):
    """fn(*args), with the decoders' KeyError/TypeError/ValueError, the
    AttributeError of a non-object sub-document and the
    ZeroDivisionError of a number such as "1/0" as a schema error."""
    try:
        return fn(*args)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise SchemaError("bad %s: %s" % (what, e))


def _over_cap(order, dim):
    """Whether the ambient rank or the order**dim grid is over the cap,
    without raising a huge order to a huge power (2**18 is already over
    it).  The rank counts at order 1 too: the one grid point still has
    dim coordinates."""
    return dim > _VERIFY_GRID_CAP or (
        order > 1
        and (dim >= _VERIFY_GRID_CAP.bit_length() or order ** dim > _VERIFY_GRID_CAP)
    )


def _grid_order(doc, args, nvars):
    """The scan order bound, or None when its character grid is over the cap."""
    order = _positive_field(doc, "order_bound", args.order_bound or 6)
    return None if _over_cap(order, nvars) else order


def _precision(doc, args, default):
    if args.precision is not None:
        return args.precision
    if "precision" in doc:
        return _positive_field(doc, "precision")
    return default


def _scalar_in(val, p, prec):
    if isinstance(val, bool):
        raise SchemaError("scalar must be a number, string, or document")
    if isinstance(val, int):
        return PadicScalar.from_int(p, val, prec)
    if isinstance(val, str):
        return PadicScalar.from_fraction(p, _fraction(val, "scalar"), prec)
    if isinstance(val, dict):
        x = _decode("scalar", scalar_from_json, val)
        if x.p != p:
            raise SchemaError("scalar document is at a different prime")
        return x
    raise SchemaError("scalar must be a number, string, or document")


def _builtin_complex(c):
    from .complexes import (
        SIZE_LIMIT_MESSAGE,
        circle_complex,
        surface_complex,
        torus_complex,
        wedge_complex,
    )
    name = c["builtin"]
    if name == "circle":
        return circle_complex()
    if name == "torus":
        return torus_complex()
    if name == "wedge":
        n = _int_field(c, "n")
        if n > _VARS_CAP:
            raise Refusal(SIZE_LIMIT_MESSAGE)
        return wedge_complex(n)
    if name == "surface":
        g = _int_field(c, "genus")
        if 2 * g > _VARS_CAP:
            raise Refusal(SIZE_LIMIT_MESSAGE)
        return surface_complex(g)
    raise SchemaError("unknown builtin complex '%s'" % name)


def _complex_in(doc):
    from .complexes import SIZE_LIMIT_MESSAGE, TwistedComplex
    c = _need(doc, "complex", dict)
    if "builtin" in c:
        return _decode("complex", _builtin_complex, c)
    if _int_field(c, "vars") > _VARS_CAP:
        raise Refusal(SIZE_LIMIT_MESSAGE)
    return _decode("complex", TwistedComplex.from_json, c)


def _character_in(doc, key, nvars):
    vals = _need(doc, key, list)
    if len(vals) != nvars:
        raise SchemaError("character needs %d coordinates" % nvars)
    return tuple(_fraction(v, "character value") % 1 for v in vals)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_teichmuller(doc, args):
    p = _prime_field(doc)
    prec = _precision(doc, args, None)
    if prec is None:
        prec = _positive_field(doc, "prec")
    xi = _need(doc, "xi")
    coeffs = xi if isinstance(xi, list) else [xi]
    if not coeffs:
        raise SchemaError("xi needs at least one coefficient")
    f = len(coeffs)
    # the residue: xi known mod p, or the zero coset O(p)
    xi = UnramifiedScalar._normalized(p, f, [_decode("xi", _json_int, c) for c in coeffs], 0, 1)
    w = teichmuller(xi, prec)
    out = {"p": p, "f": f, "value": w.to_json()}
    if f == 1:
        out["value_digits"] = list(out["value"].get("unit_digits", []))
    return 0, out


def _cmd_exp(doc, args):
    p = _prime_field(doc)
    prec = _precision(doc, args, 24)
    _check_precision(p, 1, prec)
    x = _scalar_in(_need(doc, "x"), p, prec)
    return 0, {"value": padic_exp(x, prec).to_json()}


def _cmd_log(doc, args):
    p = _prime_field(doc)
    prec = _precision(doc, args, 24)
    _check_precision(p, 1, prec)
    x = _scalar_in(_need(doc, "x"), p, prec)
    return 0, {"value": padic_log(x, prec).to_json()}


def _series_in(doc, key="series"):
    from .series import AnalyticSeries
    return _decode("series", AnalyticSeries.from_json, _need(doc, key, dict))


def _cmd_strassmann(doc, args):
    from .series import strassmann_count
    g = _series_in(doc)
    return 0, {"count": strassmann_count(g)}


def _cmd_newton(doc, args):
    from .series import newton_polygon
    g = _series_in(doc)
    return 0, newton_polygon(g).to_json()


def _conic_in(doc):
    """(locus, action, point) of a conic certificate request."""
    from .conic import AnalyticLocus, WeightedAction
    locus = _decode("locus or action", AnalyticLocus.from_json, _need(doc, "locus", dict))
    action = _decode("locus or action", WeightedAction.from_json, _need(doc, "action", dict))
    point = tuple(_scalar_in(v, action.p, 24) for v in _need(doc, "point", list))
    return locus, action, point


def _cmd_conic_check(doc, args):
    from .conic import conic_certificate
    locus, action, point = _conic_in(doc)
    bound = _int_field(doc, "bound_k", args.order_bound or 8)
    res = conic_certificate(locus, action, point, bound)
    return (0 if res.get("ok") else 1), res


def _system_in(doc, key="system"):
    from .cosets import BinomialSystem
    return _decode("binomial system", BinomialSystem.from_json, _need(doc, key, dict))


def _cmd_solve_binomial(doc, args):
    from .cosets import solve_binomial
    system = _system_in(doc) if "system" in doc else _system_in({"system": doc})
    comps = solve_binomial(system)
    return 0, {"count": len(comps), "components": [c.to_json() for c in comps]}


def _cmd_enumerate_torsion(doc, args):
    from .cosets import TorsionCoset, enumerate_torsion
    coset = _decode("coset", TorsionCoset.from_json, _need(doc, "coset", dict))
    order = _positive_field(doc, "order", args.order_bound)
    if _over_cap(order, coset.dim):
        return 1, {"refusal": "torsion grid too large"}
    pts = enumerate_torsion(coset, order)
    return 0, {"count": len(pts), "points": [[str(q) for q in t] for t in pts]}


def _cmd_find_torsion(doc, args):
    from .conic import WeightedAction
    from .cosets import torsion_certificate_pipeline
    system = _system_in(doc)
    action = _decode("action", WeightedAction.from_json, _need(doc, "action", dict))
    if action.dim != system.dim:
        raise SchemaError("action arity mismatch")
    auto = _automorphism_in(doc, system.dim)
    prec = _precision(doc, args, 24)
    certs = torsion_certificate_pipeline(system, action, auto, prec)
    code = 0 if all(c["status"] == "ok" for c in certs) else 1
    return code, {"certificates": certs}


def _cmd_cohomology(doc, args):
    from .complexes import specialize
    cplx = _complex_in(doc)
    char = _character_in(doc, "character", cplx.nvars)
    if math.lcm(*(q.denominator for q in char)) > _VERIFY_GRID_CAP:
        return 1, {"refusal": "character order too large"}
    return 0, {"h": list(specialize(cplx, char))}


def _cmd_jumping_scan(doc, args):
    from .complexes import scan_torsion
    cplx = _complex_in(doc)
    i = _int_field(doc, "i")
    j = _int_field(doc, "j")
    order = _grid_order(doc, args, cplx.nvars)
    if order is None:
        return 1, {"refusal": "scan grid too large"}
    return 0, scan_torsion(cplx, i, j, order).to_json()


def _cmd_fitting(doc, args):
    from .complexes import SIZE_LIMIT_MESSAGE, fitting_locus
    cplx = _complex_in(doc)
    i = _int_field(doc, "i")
    j = _int_field(doc, "j")
    gens = fitting_locus(cplx, i, j)
    if gens == SIZE_LIMIT_MESSAGE:
        return 1, {"refusal": SIZE_LIMIT_MESSAGE}
    return 0, {"count": len(gens), "generators": [g.to_json() for g in gens]}


def _cmd_shape_check(doc, args):
    from .complexes import SIZE_LIMIT_MESSAGE, fitting_locus, scan_torsion, shape_check
    from .laurent import laurent_from_json
    if "generators" in doc:
        nvars = _positive_field(doc, "vars")
        gens = [
            _decode("generators", laurent_from_json, nvars, g)
            for g in _need(doc, "generators", list)
        ]
        verdict = shape_check(gens, nvars=nvars)
    else:
        cplx = _complex_in(doc)
        i = _int_field(doc, "i")
        j = _int_field(doc, "j")
        order = None
        if "order_bound" in doc or args.order_bound:
            order = _grid_order(doc, args, cplx.nvars)
            if order is None:
                return 1, {"refusal": "scan grid too large"}
        gens = fitting_locus(cplx, i, j)
        if gens == SIZE_LIMIT_MESSAGE:
            return 1, {"refusal": SIZE_LIMIT_MESSAGE}
        scan = None if order is None else scan_torsion(cplx, i, j, order)
        verdict = shape_check(gens, nvars=cplx.nvars, scan=scan)
    code = 0 if verdict["verdict"] == "shape confirmed" else 1
    return code, verdict


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------


def _component_in(doc, dim):
    from .cosets import TorsionCoset
    comp = _decode("component", TorsionCoset.from_json, doc)
    if comp.ambient != dim:
        raise SchemaError("component of rank %d on a torus of rank %d" % (comp.ambient, dim))
    return comp


def _verify_solve(doc, args):
    system = _system_in(doc)
    comps = [_component_in(c, system.dim) for c in _need(doc, "components", list)]
    order = _grid_order(doc, args, system.dim)
    if order is None:
        return 1, {"refusal": "verification grid too large"}
    # each pin's target order * e as an integer, or -1, met by no residue, when it is not one
    pins = [
        (v, order // e.denominator * e.numerator if order % e.denominator == 0 else -1)
        for v, e in system.equations
    ]
    # each pin's residue at the head, then advanced along the last coordinate
    for head in product(range(order), repeat=system.dim - 1):
        met = [True] * order
        for v, t in pins:
            r, step = sum(c * x for c, x in zip(v, head)), v[-1]
            met = [m and (r + step * x) % order == t for m, x in zip(met, range(order))]
        for x, satisfied in enumerate(met):
            a = head + (x,)
            holders = sum([c.contains(a, order) for c in comps])
            if holders == satisfied:  # a solution is held once, a non-solution never
                continue
            reason = "non-solution claimed by a component"
            if satisfied:
                reason = "solution covered %d times" % holders
            point = [str(Fraction(y, order)) for y in a]
            return 1, {"verified": False, "point": point, "reason": reason}
    return 0, {"verified": True, "points_checked": order ** system.dim}


def _verify_certificates(doc, args):
    from .cosets import TorsionCoset, sigma_stable
    system = _system_in(doc)
    auto = _automorphism_in(doc, system.dim)
    certs = _need(doc, "certificates", list)
    for k, cert in enumerate(certs):
        comp = _component_in(_need(cert, "component", dict), system.dim)
        point = _character_in(cert, "torsion_point", system.dim)
        if not comp.contains(point):
            return 1, {"verified": False, "index": k, "reason": "point off its component"}
        if not sigma_stable(comp, auto):
            return 1, {"verified": False, "index": k, "reason": "component not stable"}
        for v, e in system.equations:
            if sum(c * x for c, x in zip(v, point)) % 1 != e:
                return 1, {"verified": False, "index": k, "reason": "equation fails at the point"}
        order = math.lcm(1, *(q.denominator for q in point))
        if order != _int_field(cert, "order"):
            return 1, {"verified": False, "index": k, "reason": "order mismatch"}
        if cert.get("status") == "ok":
            p = _int_field(cert, "p")
            if math.gcd(order, p) != 1:
                return 1, {"verified": False, "index": k, "reason": "order shares a factor with p"}
            through = _need(_need(cert, "translation", dict), "coset_through_identity", dict)
            shifted = _decode("component", TorsionCoset.from_json, through)
            if shifted.basis != comp.basis or any(shifted.translate):
                return 1, {"verified": False, "index": k, "reason": "translation witness broken"}
            conic = cert.get("conic")
            if not (isinstance(conic, dict) and conic.get("ok")):
                return 1, {"verified": False, "index": k, "reason": "conic certificate missing"}
    return 0, {"verified": True, "certificates_checked": len(certs)}


def _verify_conic(doc, args):
    from .series import _ORBIT_CAP
    locus, action, point = _conic_in(doc)
    cert = _need(doc, "certificate", dict)
    if not cert.get("ok"):
        return 1, {"verified": False, "reason": "certificate is a refusal"}
    used = _int_field(cert, "points_used")
    if used < 0:
        raise SchemaError("field 'points_used' must be >= 0")
    if used > _ORBIT_CAP:
        return 1, {"refusal": "orbit too large"}
    for n in range(used):
        moved = action.orbit_point(n, point)
        for i, g in enumerate(locus.equations):
            val = g.evaluate(list(moved))
            if val.valuation is not None:
                return 1, {
                    "verified": False,
                    "reason": "equation %d provably nonzero at orbit index %d" % (i, n),
                }
    return 0, {"verified": True, "points_checked": used}


def _verify_counts(doc, args):
    from .series import newton_polygon, strassmann_count
    g = _series_in(doc)
    count = strassmann_count(g)
    poly = newton_polygon(g)
    alt = poly.root_count_with_valuation_at_least(0)
    claimed = _int_field(doc, "count", count)
    if count != alt or claimed != count:
        return 1, {
            "verified": False,
            "strassmann": count,
            "newton": alt,
            "claimed": claimed,
        }
    return 0, {"verified": True, "count": count}


_VERIFY = {
    "solve": _verify_solve,
    "certificates": _verify_certificates,
    "conic": _verify_conic,
    "counts": _verify_counts,
}


def _cmd_verify(doc, args):
    kind = _need(doc, "kind", str)
    handler = _VERIFY.get(kind)
    if handler is None:
        raise SchemaError("unknown verification kind '%s'" % kind)
    return handler(doc, args)


# ---------------------------------------------------------------------------
# demo suite
# ---------------------------------------------------------------------------


def _cmd_demo(doc, args):
    """Fixed cross-module pipeline; byte-identical output every run."""
    out = {}

    _, out["teichmuller"] = _cmd_teichmuller({"p": 5, "xi": 2, "prec": 8}, args)

    x = PadicScalar.from_int(5, 5, 20)
    e = padic_exp(x, 20)
    out["exp_log"] = {
        "exp": e.to_json(),
        "log_back": padic_log(e, 20).to_json(),
    }

    disc = {"p": 5, "dim": 1, "radius_exp": 0}
    series = {
        "disc": disc,
        "terms": [
            {"exp": [0], "coeff": PadicScalar.from_int(5, 125, 30).to_json()},
            {"exp": [1], "coeff": PadicScalar.from_int(5, 5, 30).to_json()},
            {"exp": [3], "coeff": PadicScalar.from_int(5, 1, 30).to_json()},
        ],
        "tail_exp": None,
    }
    _, out["strassmann"] = _cmd_strassmann({"series": series}, args)
    _, out["newton"] = _cmd_newton({"series": series}, args)

    system = {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "0"}]}
    _, out["solve"] = _cmd_solve_binomial({"system": system}, args)
    _, out["torsion_points"] = _cmd_enumerate_torsion(
        {"coset": out["solve"]["components"][0], "order": 4}, args
    )
    alpha = PadicScalar.from_int(5, 6, 24)
    action = {"p": 5, "weights": [1, 2], "alpha": alpha.to_json()}
    code, certs = _cmd_find_torsion(
        {
            "system": system,
            "action": action,
            "automorphism": [[1, 0], [0, 1]],
            "precision": 16,
        },
        args,
    )
    out["certificates"] = certs
    _, out["certificates_verified"] = _verify_certificates(
        {
            "system": system,
            "automorphism": [[1, 0], [0, 1]],
            "certificates": certs["certificates"],
        },
        args,
    )

    torus = {"complex": {"builtin": "torus"}}
    _, out["betti"] = _cmd_cohomology(dict(torus, character=["0", "0"]), args)
    _, out["scan"] = _cmd_jumping_scan(dict(torus, i=1, j=0, order_bound=6), args)
    _, out["fitting"] = _cmd_fitting(dict(torus, i=1, j=0), args)
    _, out["shape"] = _cmd_shape_check(dict(torus, i=1, j=0, order_bound=6), args)

    return 0, out


_DISPATCH = {
    "teichmuller": _cmd_teichmuller,
    "exp": _cmd_exp,
    "log": _cmd_log,
    "strassmann": _cmd_strassmann,
    "newton": _cmd_newton,
    "conic-check": _cmd_conic_check,
    "solve-binomial": _cmd_solve_binomial,
    "enumerate-torsion": _cmd_enumerate_torsion,
    "find-torsion": _cmd_find_torsion,
    "cohomology": _cmd_cohomology,
    "jumping-scan": _cmd_jumping_scan,
    "fitting": _cmd_fitting,
    "shape-check": _cmd_shape_check,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def _env_default(name):
    return os.environ.get(ENV_PREFIX + name)


def _build_parser():
    parser = argparse.ArgumentParser(prog="padicloci")
    parser.add_argument("cmd", choices=sorted(_DISPATCH))
    parser.add_argument("--input", metavar="FILE")
    parser.add_argument("--output", metavar="FILE")
    parser.add_argument("--precision", metavar="N")
    parser.add_argument("--order-bound", metavar="M")
    parser.add_argument("--jobs", metavar="K")
    return parser


_PARSER = _build_parser()


def _parse_args(argv):
    args = _PARSER.parse_args(argv)
    # a flag left out falls back to the environment as it is at this call
    for attr in ("input", "output", "precision", "order_bound"):
        if getattr(args, attr) is None:
            setattr(args, attr, _env_default(attr.upper()))
    if args.jobs is None:
        args.jobs = _env_default("JOBS") or "1"
    return args


def _coerce_int(args, attr):
    val = getattr(args, attr)
    if val is None:
        return
    flag = "--" + attr.replace("_", "-")
    try:
        val = int(val)
    except (TypeError, ValueError):
        raise SchemaError("flag %s must be an integer" % flag)
    if val < 1:
        raise SchemaError("flag %s must be >= 1" % flag)
    setattr(args, attr, val)


def _load_input(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return json.loads(text)


def _emit(out, args):
    text = json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = _parse_args(argv)
    try:
        for attr in ("precision", "order_bound", "jobs"):
            _coerce_int(args, attr)
    except SchemaError as e:
        print("padicloci: %s" % e, file=sys.stderr)
        return 2
    doc = None
    if args.cmd not in INPUT_FREE:
        try:
            doc = _load_input(args)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            print("padicloci: bad input: %s" % e, file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print("padicloci: bad input: the document must be a JSON object", file=sys.stderr)
            return 2
    try:
        code, out = _DISPATCH[args.cmd](doc, args)
    except SchemaError as e:
        print("padicloci: %s" % e, file=sys.stderr)
        return 2
    except Refusal as e:
        code, out = 1, {"refusal": str(e)}
    except (ArithmeticError, ValueError) as e:
        print("padicloci: %s" % e, file=sys.stderr)
        return 1
    _emit(out, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
