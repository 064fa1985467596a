"""The blocked p-adic exponential and the sieve-lcm logarithm against
their oracles.

`padic_exp` cuts its argument into bit-burst blocks and sums each
block's series in Paterson-Stockmeyer chunks.  Here it must give the
same document, or the same error, as the plain Horner exponential over
the whole argument (`_exp_horner`) and as the exact-Fraction series
(`_exp_reference`).  `padic_log` must match `_log_reference`.  The draws
cover small primes, a five-digit prime (two base-p digits to a CPython
int digit), f in {1, 2, 3}, valuations from the domain bound to past the
target precision, units of one word, of 60 digits and of full precision,
targets below the input's absolute precision, and zero cosets.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from padicloci.padic import (
    PadicScalar,
    UnramifiedScalar,
    _exp_term_count,
    _lcm_upto,
    exp_domain_bound,
    padic_exp,
    padic_log,
)

from padic_oracles import _exp_horner, _exp_reference, _exp_term_count_loop, _log_reference

PRIMES = (2, 3, 5, 7, 13, 10007)


def _field(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    f = data.draw(st.sampled_from((1, 2, 3)), label="f")
    return p, f


def _outcome(fn, x, prec):
    try:
        y = fn(x, prec)
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__
    return y.to_json()


def _unit_coefficients(data, p, f, m):
    # one word, 60 digits, or every digit the relative precision holds
    kind = data.draw(st.sampled_from(("word", "60 digits", "full")))
    limit = min(p ** m, {"word": 2 ** 30, "60 digits": p ** 60, "full": p ** m}[kind])
    coeff = [data.draw(st.integers(0, limit - 1)) for _ in range(f)]
    if all(c % p == 0 for c in coeff):
        coeff[0] = coeff[0] - 1 if coeff[0] else 1
    return coeff


def _scalar(data, p, f, v, m, coeff):
    if f == 1 and data.draw(st.booleans()):
        return PadicScalar(p, v, coeff[0], m)
    return UnramifiedScalar(p, f, v, tuple(coeff), m)


def _exp_argument(data, max_prec):
    """(x, prec): x on or near the exp disc, prec None or below abs_prec."""
    p, f = _field(data)
    bound = exp_domain_bound(p)
    low = data.draw(st.sampled_from((1, max_prec // 2)))
    n = data.draw(st.integers(low, low + max_prec // 2), label="n")
    if data.draw(st.sampled_from(("unit",) * 5 + ("zero",))) == "zero":
        abs_prec = data.draw(st.integers(bound - 1, n + 2))
        x = PadicScalar.zero_at(p, abs_prec) if f == 1 else UnramifiedScalar.zero_at(p, f, abs_prec)
    else:
        v = data.draw(st.one_of(st.just(bound), st.integers(bound, n + 2)), label="v")
        m = max(1, n - v + data.draw(st.integers(0, 3)))
        x = _scalar(data, p, f, v, m, _unit_coefficients(data, p, f, m))
    prec = data.draw(st.one_of(st.none(), st.integers(1, max(1, x.abs_prec))), label="prec")
    return x, prec


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exp_matches_the_horner_exponential(data):
    x, prec = _exp_argument(data, 240)
    assert _outcome(padic_exp, x, prec) == _outcome(_exp_horner, x, prec)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exp_matches_the_exact_series(data):
    x, prec = _exp_argument(data, 40)
    assert _outcome(padic_exp, x, prec) == _outcome(_exp_reference, x, prec)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_log_matches_the_exact_series(data):
    p, f = _field(data)
    bound = exp_domain_bound(p)
    n = data.draw(st.integers(1, 40), label="n")
    w = data.draw(st.one_of(st.just(bound), st.integers(bound, n + 2)), label="w")
    # known at least to O(p^bound), so that the offset from 1 is on the
    # log disc even where it is a zero coset
    m = max(bound, n + data.draw(st.integers(0, 3)))
    if data.draw(st.sampled_from(("unit",) * 5 + ("zero",))) == "zero":
        coeff = [1] + [0] * (f - 1)
    else:
        z = _unit_coefficients(data, p, f, m)
        coeff = [(1 if i == 0 else 0) + p ** w * c for i, c in enumerate(z)]
    x = _scalar(data, p, f, 0, m, coeff)
    prec = data.draw(st.one_of(st.none(), st.integers(1, x.abs_prec)), label="prec")
    assert _outcome(padic_log, x, prec) == _outcome(_log_reference, x, prec)


def test_exp_term_count_closed_form_matches_the_count_up():
    for p in PRIMES:
        for v in range(exp_domain_bound(p), 8):
            for n in range(1, 120):
                assert _exp_term_count(v, p, n) == _exp_term_count_loop(v, p, n)


def test_sieve_lcm_matches_the_gcd_fold():
    for k in range(0, 400):
        assert _lcm_upto(k) == math.lcm(*range(1, k + 1))
