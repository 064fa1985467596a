"""Torsion cosets of a split torus cut out by binomial equations.

A binomial equation pins one character of the torus to a root of
unity.  Writing characters additively, an equation is a pair (v, e)
with v a nonzero integer vector and e in Q/Z, and it constrains a
point x by x ** v = zeta_e.  The solution set of finitely many such
equations is a finite union of torsion cosets; each coset is stored
by the sublattice L of pinned characters together with the pinned
values, so

    coset = {x : x ** v = zeta(v) for all v in L}

with L saturated (the quotient of the character lattice by L is
torsion free) and zeta additive on a Hermite basis of L.  A torsion point
a / m is held as integer numerators a with the order m; each pin reads
<v, a> = m * zeta(v) mod m, and the points are walked in lexicographic
order off the Hermite form of the pins over m * I, their Howell form mod m.
Everything is exact, and p-adic data enters only when a point is embedded.
"""

import math
from fractions import Fraction
from itertools import product
from operator import mul

from .conic import AnalyticLocus, conic_certificate
from .intlinalg import (
    column_lattice,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    mat_vec,
    transpose,
    vec_mat,
)
from .padic import (
    DomainError,
    PadicScalar,
    _json_int,
    coset_eq,
    embed_root_of_unity,
    exp_domain_bound,
)
from .series import AnalyticSeries, PolyDisc

# most components solve_binomial lists
_COMPONENT_CAP = 200000
# most coordinates the pins of a walked coset may use
_PIN_CAP = 1000


class BinomialSystem:
    """Finite list of equations x ** v = zeta_e on a torus of rank dim."""

    __slots__ = ("dim", "equations")

    def __init__(self, dim, equations):
        dim = int(dim)
        if dim < 1:
            raise ValueError("torus rank must be >= 1")
        eqs = []
        for v, e in equations:
            v = tuple(int(c) for c in v)
            if len(v) != dim:
                raise ValueError("exponent arity mismatch")
            if not any(v):
                raise ValueError("zero exponent vector is not an equation")
            eqs.append((v, Fraction(e) % 1))
        self.dim = dim
        self.equations = tuple(eqs)

    @classmethod
    def from_json(cls, doc):
        eqs = [
            ([_json_int(c) for c in item["exponents"]], Fraction(item["rhs"]))
            for item in doc["equations"]
        ]
        return cls(_json_int(doc["dim"]), eqs)


class TorsionCoset:
    """One torsion coset in canonical form.

    The constructor normalizes: the lattice basis goes to Hermite
    normal form with the pinned values carried through the same row
    operations, values are reduced mod 1, and dependent input rows must
    carry value 0 mod 1 or the pins were contradictory.  The r basis rows
    span a saturated lattice exactly when their columns span Z^r, so
    equal cosets compare equal.
    """

    __slots__ = ("ambient", "basis", "translate", "_pins")

    def __init__(self, ambient, basis, translate):
        ambient = int(ambient)
        if ambient < 1:
            raise ValueError("ambient rank must be >= 1")
        rows = [[int(c) for c in r] for r in basis]
        for r in rows:
            if len(r) != ambient:
                raise ValueError("basis arity mismatch")
        vals = [Fraction(v) for v in translate]
        if len(vals) != len(rows):
            raise ValueError("one pinned value per basis row")
        hnf, carried, leftover = hermite_normal_form(rows, vals)
        for lv in leftover:
            if lv % 1:
                raise ValueError("pinned values are inconsistent")
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in hnf)
        self.translate = tuple(v % 1 for v in carried)
        self._pins = tuple((r, v.numerator, v.denominator) for r, v in zip(hnf, self.translate))
        if column_lattice(hnf) != identity_matrix(len(hnf)):
            raise ValueError("character lattice is not saturated")

    @property
    def dim(self):
        return self.ambient - len(self.basis)

    def contains(self, point, order=1):
        """Exact membership of the point a / order, for a sequence a of
        integers or Fractions: each pin reads <row, a> = order * value
        mod order.  A Q/Z point of Fractions is read at order 1."""
        if len(point) != self.ambient:
            raise ValueError("point arity mismatch")
        for row, num, den in self._pins:
            if sum(map(mul, row, point)) % order * den != num * order:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TorsionCoset):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.basis == other.basis
            and self.translate == other.translate
        )

    def __hash__(self):
        return hash((self.ambient, self.basis, self.translate))

    def to_json(self):
        return {
            "lattice_basis": [list(r) for r in self.basis],
            "translate": [str(v) for v in self.translate],
            "dim": self.dim,
        }

    @classmethod
    def from_json(cls, doc):
        basis = [[_json_int(c) for c in r] for r in doc["lattice_basis"]]
        vals = [Fraction(s) for s in doc["translate"]]
        return cls(_json_int(doc["dim"]) + len(basis), basis, vals)


def solve_binomial(system):
    """All solution components of a binomial system, as sorted cosets.

    The Hermite form H of the exponent rows carries the right sides c,
    and a dependent row left with a right side other than 0 mod 1 means
    there is no solution: the empty list, never an error.  The columns of
    H span a lattice with Hermite basis G, so H = G^T S with S integral,
    and the columns of S span Z^r: S pins the saturation of the row
    lattice.  Each solution of G^T zeta = c in (Q/Z)^r is one component
    {x : S x = zeta}, |det G| of them, all of order dividing |det G| times
    the denominators of c.  A rank r over _PIN_CAP, the walk's cap, raises
    ValueError once H is known, as do over _COMPONENT_CAP components.
    """
    d = system.dim
    hnf, values, leftover = hermite_normal_form(
        [list(v) for v, _ in system.equations], [e for _, e in system.equations]
    )
    if any(v % 1 for v in leftover):
        return []
    if len(hnf) > _PIN_CAP:
        raise ValueError("exponent rows of rank %d are over the cap of %d" % (len(hnf), _PIN_CAP))
    g = column_lattice(hnf)
    count = math.prod(g[i][i] for i in range(len(g)))
    if count > _COMPONENT_CAP:
        raise ValueError("%d components are over the cap of %d" % (count, _COMPONENT_CAP))
    if count == 1:
        # G = I: S = H, and zeta = c is the one component
        return [TorsionCoset(d, hnf, values)]
    # forward substitution through the lower triangular G^T, exact
    basis = []
    for i, row in enumerate(hnf):
        for j, prev in enumerate(basis):
            row = [x - g[j][i] * y for x, y in zip(row, prev)]
        basis.append([x // g[i][i] for x in row])
    order = count * math.lcm(1, *(v.denominator for v in values))
    out = [
        TorsionCoset(d, basis, [Fraction(a, order) for a in pt])
        for pt in torsion_walk(len(g), list(zip(transpose(g), values)), order)
    ]
    # the components share their basis and differ in the translate
    out.sort(key=lambda c: c.translate)
    return out


def torsion_walk(ambient, pins, order):
    """Integer vectors a in [0, order)^ambient with <v, a> = order * e
    mod order for every pin (v, e), in increasing lexicographic order;
    none when some order * e is not an integer.  Pins on over _PIN_CAP
    coordinates raise ValueError.  The row Hermite form of the rows v on
    the s columns they use, last to first, over order * I_s (carrying
    order * e, then 0) is their Howell form mod order (Howell 1986): the
    pins are solvable exactly when every row it drops carries 0 mod
    order, and then row k gives coordinate used[s - 1 - k] h values
    order / h apart, h | order, once the earlier coordinates are fixed,
    and every earlier choice extends.
    """
    m = int(order)
    if m < 1:
        raise ValueError("order bound must be >= 1")
    used = [j for j in range(ambient) if any(v[j] for v, _ in pins)]
    s = len(used)
    if s > _PIN_CAP:
        raise ValueError("pins on %d coordinates are over the cap of %d" % (s, _PIN_CAP))
    target = [e * m for _, e in pins]
    if any(t.denominator != 1 for t in target):
        return
    rows = [[v[j] for j in reversed(used)] for v, _ in pins]
    rows += [[m * x for x in e] for e in identity_matrix(s)]
    hnf, vals, leftover = hermite_normal_form(rows, [int(t) for t in target] + [0] * s)
    if any(v % m for v in leftover):
        return
    count, res, moves = [m] * ambient, [0] * ambient, [()] * ambient
    for k, j in enumerate(reversed(used)):
        count[j], res[j] = hnf[k][k], vals[k]
        moves[j] = [(used[~l], hnf[l][k]) for l in range(k) if hnf[l][k]]
    for ks in product(*map(range, count)):
        left, pt = list(res), []
        for i, k in enumerate(ks):
            a = (left[i] % m + k * m) // count[i]
            for j, y in moves[i]:
                left[j] -= a * y
            pt.append(a)
        yield tuple(pt)


def enumerate_torsion(coset, order):
    """All points of order dividing ``order`` on the coset, sorted."""
    m = int(order)
    fracs = [Fraction(a, m) for a in range(m)]
    pins = list(zip(coset.basis, coset.translate))
    return [tuple(fracs[a] for a in pt) for pt in torsion_walk(coset.ambient, pins, m)]


def _check_unimodular(auto, d):
    rows = [[int(c) for c in r] for r in auto]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError("automorphism shape mismatch")
    # unimodular exactly when the rows span Z^d
    if hermite_normal_form(rows)[0] != identity_matrix(d):
        raise ValueError("automorphism must be unimodular")
    return rows


def sigma_stable(coset, auto):
    """Whether the monomial map with character action v -> v A fixes the coset.

    The transported pins (v A, zeta(v)) cut out the image coset, still
    saturated because A is unimodular, and cosets in canonical form are
    equal exactly when they are the same set.
    """
    a = _check_unimodular(auto, coset.ambient)
    moved = [vec_mat(list(row), a) for row in coset.basis]
    return TorsionCoset(coset.ambient, moved, coset.translate) == coset


# ---------------------------------------------------------------------------
# certificate pipeline
# ---------------------------------------------------------------------------


def _graded_basis(basis, weights):
    """Weight-pure basis rows of the lattice, or None when it has none.

    The lattice splits along the weight blocks exactly when the ranks
    of its blockwise slices add up to its rank; for a saturated lattice
    the slices are saturated in their blocks, so rank equality already
    forces the direct sum to exhaust the lattice.
    """
    rows = [list(r) for r in basis]
    r = len(rows)
    out = []
    for w in sorted(set(weights)):
        other = [j for j, wj in enumerate(weights) if wj != w]
        block = [[row[j] for j in other] for row in rows]
        for c in integer_kernel(transpose(block), ncols=r):
            out.append(vec_mat(c, rows))
    if len(out) != r:
        return None
    return out


def _character_value(values, v):
    out = None
    for c, x in zip(v, values):
        if c == 0:
            continue
        part = x ** int(c)
        out = part if out is None else out * part
    if out is None:
        raise ValueError("zero exponent vector")
    return out


def _certify_component(system, comp, graded, action, auto_rows, prec, roots):
    p = action.p
    d = comp.ambient
    full_order = math.lcm(1, *(v.denominator for v in comp.translate))
    a = next(torsion_walk(d, list(zip(comp.basis, comp.translate)), full_order))
    t_order = full_order // math.gcd(full_order, *a)
    point = [str(Fraction(x, full_order)) for x in a]
    if t_order % p == 0:
        return {
            "status": "certificate unavailable at p, torsion point still emitted exactly",
            "p": p,
            "component": comp.to_json(),
            "torsion_point": point,
            "order": t_order,
        }

    # embed the base point through one Teichmuller lift omega of order
    # t_order before the orbit walk, so an oversized residue field is
    # refused first; every original equation is re-checked below.  The
    # lift is made once per order and kept in `roots` for the document
    omega = roots.get(t_order)
    if omega is None:
        omega = roots[t_order] = embed_root_of_unity(p, Fraction(1, t_order) % 1, prec)

    # least automorphism power fixing the base point; the orbit stays in
    # the finite set of full_order-torsion points of the component
    m = 1
    cur = tuple(x % full_order for x in mat_vec(auto_rows, a))
    cap = full_order ** d + 1
    while cur != a:
        if not comp.contains(cur, full_order):
            raise AssertionError("stable component lost its torsion orbit")
        cur = tuple(x % full_order for x in mat_vec(auto_rows, cur))
        m += 1
        if m > cap:
            raise AssertionError("torsion orbit failed to close")

    values = [omega ** (x * t_order // full_order) for x in a]
    for v, e in system.equations:
        rhs = omega ** (int(e * t_order) % t_order)
        if not coset_eq(_character_value(values, v), rhs):
            raise AssertionError("embedded torsion point fails an equation")

    # translating by the base point must kill every pin exactly
    if not comp.contains(a, full_order):
        raise AssertionError("translation failed to reach the identity component")
    through = dict(comp.to_json(), translate=["0"] * len(comp.basis))

    # a sample tangent vector along the subtorus directions; each entry
    # is p**bound * c, and exp maps p**bound * Z_p into 1 + p**bound * Z_p,
    # so the sample pro-p character is already within p**-bound of 1:
    # its contraction exponent is 0
    bound = exp_domain_bound(p)
    kernel = integer_kernel([list(r) for r in comp.basis], ncols=d)
    direction = [sum(col) for col in zip(*kernel)] if kernel else [0] * d
    tangent = [PadicScalar.from_int(p, (p ** bound) * c, prec) for c in direction]

    # the translated component in logarithm coordinates is the common
    # kernel of weight-pure linear forms, so the orbit of the sample
    # tangent vector admits a conic certificate
    disc = PolyDisc(p, d, bound)
    units = [tuple(e) for e in identity_matrix(d)]
    forms = []
    for row in graded:
        terms = {units[i]: PadicScalar.from_int(p, c, prec) for i, c in enumerate(row) if c}
        forms.append(AnalyticSeries(disc, terms))
    locus = AnalyticLocus(disc, forms)
    conic = conic_certificate(locus, action, tuple(tangent), max(action.weights))
    if not conic.get("ok"):
        raise AssertionError("conic step refused a certified subtorus")

    return {
        "status": "ok",
        "p": p,
        "precision": prec,
        "component": comp.to_json(),
        "torsion_point": point,
        "order": t_order,
        "sigma_power": m,
        "residue_character": {
            "f": omega.f,
            "coeffs": [list(w.residue().coeff) for w in values],
        },
        "translation": {"coset_through_identity": through},
        "contraction_exponent": 0,
        "contraction_target_exp": bound,
        "conic": conic,
    }


def torsion_certificate_pipeline(system, action, auto, precision):
    """Solve the system and certify every component at p = action.p.

    The lattice automorphism ``auto`` must fix each component and the
    action weights must grade each component lattice; either failure is
    reported as a hypothesis violation before any p-adic work starts.
    Components whose pinned values force p-power torsion get their
    torsion point emitted exactly with an unavailability notice instead
    of a p-adic certificate.  Every emitted certificate is re-validated
    from its serialized form through exact membership and stability.
    """
    p = action.p
    if action.dim != system.dim:
        raise ValueError("action arity mismatch")
    prec = int(precision)
    if prec <= exp_domain_bound(p):
        raise ValueError("precision must exceed the exp domain bound")
    comps = solve_binomial(system)
    if not comps:
        raise DomainError("the system has no solutions; nothing to certify")
    auto_rows = _check_unimodular(auto, system.dim)
    graded = [_graded_basis(c.basis, action.weights) for c in comps]
    if None in graded or not all(sigma_stable(c, auto_rows) for c in comps):
        raise ValueError("hypothesis violation")
    roots = {}
    certs = [
        _certify_component(system, c, g, action, auto_rows, prec, roots)
        for c, g in zip(comps, graded)
    ]
    for cert in certs:
        comp = TorsionCoset.from_json(cert["component"])
        point = tuple(Fraction(s) for s in cert["torsion_point"])
        if not comp.contains(point):
            raise AssertionError("certificate point left its component")
        if not sigma_stable(comp, auto_rows):
            raise AssertionError("certificate component lost stability")
    return certs
