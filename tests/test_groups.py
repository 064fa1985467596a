
import pytest

from padicloci.groups import (
    ContinuousCharacter,
    FgAbGroup,
    char_exp,
    char_log,
    char_pow,
    decompose_teichmuller,
    offset_coordinates,
    smith_decompose,
)
from padicloci.padic import (
    DomainError,
    PadicScalar,
    UnramifiedScalar,
    coset_eq,
)

P = 5
PREC = 6


def free_rank_two():
    return FgAbGroup(2, ())


def principal_char(u1):
    one = PadicScalar.one(P, PREC)
    return ContinuousCharacter(
        free_rank_two(), P, 1, (PadicScalar.from_int(P, u1, PREC), one), ()
    )


def test_smith_decompose_pinned():
    g = smith_decompose([[2, 0], [0, 3]])
    assert g.rank == 0 and g.invariant_factors == (6,)
    g = smith_decompose([[0, 0], [0, 0]])
    assert g.rank == 2 and g.invariant_factors == ()
    g = smith_decompose([[2, 4], [4, 8]])
    assert g.rank == 1 and g.invariant_factors == (2,)


def test_continuous_character_residue_and_precision():
    chi = principal_char(1 + P)
    assert chi.has_trivial_residue()
    assert chi.precision == PREC
    assert chi.p == P and chi.f == 1


def test_char_exp_pinned_offset():
    x = PadicScalar.from_int(P, P, 4)
    chx = char_exp(free_rank_two(), P, (x, PadicScalar.zero_at(P, 5)))
    coords = offset_coordinates(chx, 1)
    assert coords[0].to_padic().rep() % P ** 4 == 455
    second = coords[1]
    assert second.is_zero_coset or second.valuation >= 4


def test_char_log_inverts_char_exp():
    x = PadicScalar.from_int(P, P, 4)
    chx = char_exp(free_rank_two(), P, (x, PadicScalar.zero_at(P, 5)))
    back = char_log(chx)
    assert coset_eq(back[0].to_padic(), x)


def test_character_product_in_offset_coordinates():
    chi, chi2 = principal_char(1 + P), principal_char(1 + 2 * P)
    prod = chi * chi2
    a = offset_coordinates(chi, 1)[0]
    b = offset_coordinates(chi2, 1)[0]
    ab = offset_coordinates(prod, 1)[0]
    # multiplicative offsets: (1+a)(1+b) = 1 + (a + b + ab)
    assert coset_eq(ab, a + b + a * b)


def test_char_pow_deepens_the_offset_and_composes():
    chi = principal_char(1 + P)
    off5 = offset_coordinates(char_pow(chi, P), 1)[0]
    assert off5.valuation == 2
    assert char_pow(char_pow(chi, P), P) == char_pow(chi, P * P)


def test_decompose_teichmuller():
    one2 = PadicScalar.one(P, 2)
    chd = ContinuousCharacter(
        free_rank_two(), P, 1, (PadicScalar.from_int(P, 2, 2), one2), ()
    )
    finite, pro_p = decompose_teichmuller(chd)
    assert finite.free_values[0].to_padic().rep() % 25 == 7
    assert pro_p.has_trivial_residue()
    assert finite * pro_p == chd
    # idempotent: the principal part has no further finite component
    f2, _ = decompose_teichmuller(pro_p)
    assert all(coset_eq(a, UnramifiedScalar.one(P, 1, a.M)) for a in f2.values)


def test_continuous_characters_form_a_group():
    chi, chi2 = principal_char(1 + P), principal_char(1 + 2 * P)
    got = chi * chi2
    assert all(
        coset_eq(g, a * b) for g, a, b in zip(got.values, chi.values, chi2.values)
    )
    idc = chi * chi.inverse()
    assert all(coset_eq(c, UnramifiedScalar.one(P, 1, c.M)) for c in idc.values)
    assert char_pow(chi, 3) == chi * chi * chi


def test_offset_coordinates_require_trivial_residue():
    one2 = PadicScalar.one(P, 2)
    chd = ContinuousCharacter(
        free_rank_two(), P, 1, (PadicScalar.from_int(P, 2, 2), one2), ()
    )
    with pytest.raises(DomainError) as info:
        offset_coordinates(chd, 1)
    assert str(info.value) == "Teichmuller part nontrivial"


def test_offset_coordinates_check_the_disc_as_polydisc_does():
    chi = principal_char(6)  # offsets 5 and 0
    assert offset_coordinates(chi, 1)[0].valuation == 1
    with pytest.raises(DomainError, match="coordinate 0 has valuation 1, outside radius exponent 2"):
        offset_coordinates(chi, 2)
    with pytest.raises(ValueError, match="radius exponent must be >= 0"):
        offset_coordinates(chi, -1)


def test_continuous_character_json_round_trip():
    chi = principal_char(1 + P)
    assert ContinuousCharacter.from_json(chi.to_json()) == chi
