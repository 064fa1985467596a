"""Slow references for the p-adic kernels.

`_exp_reference` and `_log_reference` keep every value as an exact
Fraction vector over the power basis of Q_{p^f}; nothing is truncated
until the final coset is assembled, so they share no arithmetic with
the library's scalar and vector kernels.  `_vec_mul_mod_reference` is
the mul-mod kernel's oracle: the exact product reduced by a table of
powers of x rather than by long division.  `_exp_horner` is the plain
Horner exponential the library used before its blocked one: one series
over the whole argument, three reductions per term, and the unit part
of (J-1)! from a second loop.  `_digits_loop` and `_undigits_loop`
are the one-digit-at-a-time base-p conversions the library used before
its word-wise divide and conquer.  `_add_hand`, `_truncate_abs_hand`,
`_coerce_rational_hand`, `_divexact_rational_hand`, `_from_fraction_hand`
and `_log_tail_hand` are the six normalizations the scalar type wrote out
by hand before they all went through `UnramifiedScalar._normalized`.
`rep`, `rep_int`, `residue`, `residue_field`, `from_residue` and
`to_padic` are scalar conveniences that only tests need.
"""

from fractions import Fraction
from itertools import product

from padicloci.padic import (
    DomainError,
    PadicScalar,
    PrecisionError,
    UnramifiedScalar,
    _exp_domain_check,
    _exp_term_count,
    _log_term_count,
    _vec_mul_mod,
    digit_sum,
    exp_domain_bound,
    int_valuation,
    modulus_poly,
)


def rep(x):
    """The canonical rational representative of a Q_p scalar's coset."""
    if x.v is None:
        return Fraction(0)
    if x.v >= 0:
        return Fraction((x.p ** x.v * x.coeff[0]) % x.p ** x.abs_prec)
    return Fraction(x.coeff[0], x.p ** (-x.v))


def rep_int(x):
    """The integer representative of a scalar of valuation >= 0."""
    r = rep(x)
    if r.denominator != 1:
        raise ValueError("negative valuation has no integer representative")
    return r.numerator


def residue(p, coeffs):
    """The element of F_{p^f} with these coefficients: the scalar known
    mod p, or the zero coset O(p)."""
    return UnramifiedScalar._normalized(p, len(coeffs), list(coeffs), 0, 1)


def residue_field(p, f):
    """Every element of F_{p^f}, in lexicographic coefficient order."""
    for coeffs in product(range(p), repeat=f):
        yield residue(p, coeffs)


def from_residue(xi, rel_prec):
    """The unit of Q_{p^f} whose coefficients are the residue's, lifted."""
    return UnramifiedScalar(xi.p, xi.f, 0, xi.coeff, rel_prec)


def to_padic(x):
    """x as a PadicScalar; ValueError when x does not lie in Q_p."""
    if any(x.coeff[1:]):
        raise ValueError("element does not lie in Q_p")
    m = x.zprec if x.v is None else x.M
    return PadicScalar._new(x.p, 1, x.v, x.coeff[:1], m)


def _digits_loop(n, p, count):
    out = []
    for _ in range(count):
        out.append(n % p)
        n //= p
    return out


def _undigits_loop(ds, p):
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def fraction_valuation(q, p):
    return int_valuation(q.numerator, p)[0] - int_valuation(q.denominator, p)[0]


def _fraction_vector(xu):
    if xu.v is None:
        return [Fraction(0)] * xu.f
    scale = Fraction(xu.p) ** xu.v
    return [scale * c for c in xu.coeff]


def unramified_from_fractions(p, f, qs, abs_prec):
    """Assemble a scalar from exact power-basis coordinates, truncated."""
    qs = [Fraction(q) for q in qs]
    if all(q == 0 for q in qs):
        return UnramifiedScalar.zero_at(p, f, abs_prec)
    v = min(fraction_valuation(q, p) for q in qs if q != 0)
    if v >= abs_prec:
        return UnramifiedScalar.zero_at(p, f, abs_prec)
    m = abs_prec - v
    pm = p ** m
    coeffs = []
    for q in qs:
        q = q / Fraction(p) ** v
        den = q.denominator
        if den % p == 0:
            raise AssertionError("denominator kept a p factor after scaling; unreachable")
        coeffs.append(q.numerator % pm * pow(den, -1, pm) % pm)
    return UnramifiedScalar(p, f, v, tuple(coeffs), m)


def _frac_vec_mul_mod(a, b, h):
    f = len(h) - 1
    if f == 1:
        return [a[0] * b[0]]
    prod = [Fraction(0)] * (2 * f - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * f - 2, f - 1, -1):
        c = prod[k]
        if c:
            prod[k] = Fraction(0)
            for i in range(f):
                prod[k - f + i] -= c * h[i]
    return prod[:f]


def _vec_mul_mod_reference(a, b, h, pm):
    """Schoolbook product of coefficient vectors, reduced by the monic h
    through a table of x^k mod h over the integers, then mod pm."""
    f = len(h) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    power = [1] + [0] * (f - 1)
    out = [0] * f
    for c in prod:
        out = [o + c * x for o, x in zip(out, power)]
        # multiply the power by x and replace x^f by -(h_0 + ... + h_(f-1) x^(f-1))
        top = power[-1]
        power = [0] + power[:-1]
        power = [x - top * hi for x, hi in zip(power, h)]
    return [c % pm for c in out]


def _exp_reference(x, prec=None):
    """Term-by-term exact-Fraction exponential; test oracle for padic_exp."""
    _exp_domain_check(x)
    p, f = x.p, x.f
    avail = x.abs_prec
    n = avail if prec is None else prec
    if n > avail:
        raise PrecisionError("exp target precision %d exceeds input precision %d" % (n, avail))
    if x.v is None or x.v >= n:
        return UnramifiedScalar(p, f, 0, (1,) + (0,) * (f - 1), n)
    j_count = _exp_term_count(x.v, p, n)
    h = modulus_poly(p, f)
    rep = _fraction_vector(x)
    total = [Fraction(0)] * f
    total[0] = Fraction(1)
    power = [Fraction(0)] * f
    power[0] = Fraction(1)
    fact = 1
    for j in range(1, j_count):
        power = _frac_vec_mul_mod(power, rep, h)
        fact *= j
        for i in range(f):
            total[i] += power[i] / fact
    return unramified_from_fractions(p, f, total, n)


def _log_reference(x, prec=None):
    """Term-by-term exact-Fraction logarithm; test oracle for padic_log."""
    p, f = x.p, x.f
    bound = exp_domain_bound(p)
    if x.v != 0:
        raise DomainError("log domain requires a unit")
    z = x - 1
    avail = x.abs_prec
    n = avail if prec is None else prec
    if z.v is None:
        return UnramifiedScalar.zero_at(p, f, min(n, z.zprec))
    if z.v < bound:
        raise DomainError("log domain requires valuation >= %d below 1" % bound)
    if z.v >= n:
        return UnramifiedScalar.zero_at(p, f, n)
    k_count = _log_term_count(z.v, p, n)
    h = modulus_poly(p, f)
    rep = _fraction_vector(z)
    total = [Fraction(0)] * f
    power = [Fraction(0)] * f
    power[0] = Fraction(1)
    for k in range(1, k_count):
        power = _frac_vec_mul_mod(power, rep, h)
        sign = 1 if k % 2 == 1 else -1
        for i in range(f):
            total[i] += Fraction(sign, k) * power[i]
    return unramified_from_fractions(p, f, total, n)


def _exp_term_count_loop(v, p, n):
    # least J with j*(v*(p-1) - 1) + 1 >= n*(p-1), found by counting up
    step = v * (p - 1) - 1
    j = 0
    while j * step + 1 < n * (p - 1):
        j += 1
    return max(j, 1)


def _exp_horner(x, prec=None):
    """Horner exponential over the whole argument; test oracle for padic_exp."""
    _exp_domain_check(x)
    p, f = x.p, x.f
    avail = x.abs_prec
    n = avail if prec is None else prec
    if n > avail:
        raise PrecisionError("exp target precision %d exceeds input precision %d" % (n, avail))
    if x.v is None or x.v >= n:
        return x._new(p, f, 0, (1,) + (0,) * (f - 1), n)
    v = x.v
    j_count = _exp_term_count_loop(v, p, n)
    guard = (j_count - 1 - digit_sum(j_count - 1, p)) // (p - 1)
    pm = p ** (n + guard)
    h = modulus_poly(p, f)
    rep = [c * p ** v % pm for c in x.coeff]
    # Horner over j < j_count of ((j_count-1)!/j!) x^j, with the factorial
    # guard p**guard divided back out at the end
    acc = [1] + [0] * (f - 1)
    c = 1
    for j in range(j_count - 1, 0, -1):
        c = c * j % pm
        acc = _vec_mul_mod(acc, rep, h, pm)
        acc[0] = (acc[0] + c) % pm
    w_unit = 1
    pn = p ** n
    for j in range(2, j_count):
        jj = j
        while jj % p == 0:
            jj //= p
        w_unit = w_unit * jj % pn
    w_inv = pow(w_unit, -1, pn)
    pg = p ** guard
    out_coeff = []
    for s in acc:
        if s % pg:
            raise AssertionError("factorial guard mismatch; unreachable")
        out_coeff.append(s // pg * w_inv % pn)
    return x._new(p, f, 0, tuple(out_coeff), n)


# -- the hand-written normalizations -----------------------------------------


def _add_hand(x, y, cls):
    """x + y for scalars over one Q_{p^f}, of the result class cls."""
    p, f = x.p, x.f
    n = min(x.abs_prec, y.abs_prec)
    shift = min([t.v for t in (x, y) if t.v is not None] + [n])
    total = [0] * f
    for t in (x, y):
        if t.v is not None:
            scale = p ** (t.v - shift)
            for i, c in enumerate(t.coeff):
                total[i] += scale * c
    pn = p ** (n - shift)
    total = [c % pn for c in total]
    vmin = min([int_valuation(c, p)[0] for c in total if c] + [n - shift])
    v = vmin + shift
    if v >= n:
        return cls._new(p, f, None, None, n)
    pm = p ** (n - v)
    return cls._new(p, f, v, tuple((c // p ** vmin) % pm for c in total), n - v)


def _truncate_abs_hand(x, n):
    if n > x.abs_prec:
        raise PrecisionError("cannot refine precision from %d to %d" % (x.abs_prec, n))
    if x.v is None or x.v >= n:
        return x._new(x.p, x.f, None, None, n)
    pm = x.p ** (n - x.v)
    return x._new(x.p, x.f, x.v, tuple(c % pm for c in x.coeff), n - x.v)


def _coerce_rational_hand(x, other):
    """The rational other at the absolute precision x carries."""
    p, f = x.p, x.f
    q, n = Fraction(other), x.abs_prec
    if q:
        vn, un = int_valuation(q.numerator, p)
        vd, ud = int_valuation(q.denominator, p)
        m = n - vn + vd
        if m > 0:
            pm = p ** m
            unit = (un * pow(ud, -1, pm) % pm,) + (0,) * (f - 1)
            return x._new(p, f, vn - vd, unit, m)
    return x._new(p, f, None, None, n)


def _divexact_rational_hand(x, q):
    q = Fraction(q)
    if q == 0:
        raise ZeroDivisionError
    p = x.p
    vn, un = int_valuation(q.numerator, p)
    vd, ud = int_valuation(q.denominator, p)
    if x.v is None:
        return x._new(p, x.f, None, None, x.zprec - vn + vd)
    pm = p ** x.M
    scale = (pow(un, -1, pm) * ud) % pm
    unit = tuple((c * scale) % pm for c in x.coeff)
    return x._new(p, x.f, x.v - vn + vd, unit, x.M)


def _from_fraction_hand(p, q, rel_prec):
    q = Fraction(q)
    if rel_prec < 1:
        raise ValueError("relative precision must be >= 1")
    if q == 0:
        return PadicScalar.zero_at(p, rel_prec)
    vn, un = int_valuation(q.numerator, p)
    vd, ud = int_valuation(q.denominator, p)
    return PadicScalar(p, vn - vd, un * pow(ud, -1, p ** rel_prec), rel_prec)


def _log_tail_hand(x, out_coeff, n):
    """The log's integer coefficient vector, reduced mod p**n, as a scalar
    of x's class."""
    p, f = x.p, x.f
    pn = p ** n
    out_coeff = [c % pn for c in out_coeff]
    vmin = min([int_valuation(c, p)[0] for c in out_coeff if c] + [n])
    if vmin >= n:
        return x._new(p, f, None, None, n)
    pmv = p ** (n - vmin)
    return x._new(p, f, vmin, tuple(c // p ** vmin % pmv for c in out_coeff), n - vmin)
