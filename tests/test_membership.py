import random

import pytest

from onerelator import words
from onerelator.errors import UnknownGenerator
from onerelator.oracles import psl2_eval, random_reduced_word
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, Verdict, magnus_membership
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))

Z2 = make_presentation(AB, (1, 2, -1, -2))
BS12 = make_presentation(AB, (1, 2, -1, -2, -2))
ABCREL = make_presentation(ABC, (1, 2, 3))


def check_witness(pres, w, subset, res, solver=None):
    """A Member verdict must come with a witness over the subset that equals
    w in the group."""
    assert res.member
    assert words.support(res.witness) <= subset
    solver = solver or Solver()
    diff = words.multiply(w, words.invert(res.witness))
    assert solver.word_problem(pres, diff) is Verdict.TRIVIAL


def test_full_subset_is_identity_map():
    w = (1, 2, -1)
    res = magnus_membership(Z2, w, {0, 1})
    assert res.member and res.witness == w


def test_empty_word_always_member():
    res = magnus_membership(Z2, (), {0})
    assert res.member and res.witness == ()


def test_subset_validation():
    with pytest.raises(UnknownGenerator):
        magnus_membership(Z2, (1,), {0, 5})


def test_abc_relator_eliminates_c():
    # in <a,b,c | abc>: c equals b^-1 a^-1, a member of <a,b>
    res = magnus_membership(ABCREL, (3,), {0, 1})
    check_witness(ABCREL, (3,), {0, 1}, res)
    assert res.witness == (-2, -1)


def test_magnus_subgroup_is_free_basis():
    # the subgroup <a,b> of <a,b,c | abc> is free: a b a^-1 b^-1 is a
    # member (itself) but stays nontrivial
    w = (1, 2, -1, -2)
    res = magnus_membership(ABCREL, w, {0, 1})
    check_witness(ABCREL, w, {0, 1}, res)
    assert Solver().word_problem(ABCREL, w) is Verdict.NONTRIVIAL


def test_z2_membership():
    # in Z^2, b is not in <a>
    assert not magnus_membership(Z2, (2,), {0}).member
    # but a b a^-1 is b, and b is in <b>
    res = magnus_membership(Z2, (1, 2, -1), {1})
    check_witness(Z2, (1, 2, -1), {1}, res)
    assert res.witness == (2,)


def test_bs12_membership_powers_of_b():
    # a b a^-1 = b^2 lies in <b>
    res = magnus_membership(BS12, (1, 2, -1), {1})
    check_witness(BS12, (1, 2, -1), {1}, res)
    assert res.witness == (2, 2)
    # a^-1 b a is a square root of b, so it is not itself a b-power
    assert not magnus_membership(BS12, (-1, 2, 1), {1}).member


def test_bs12_membership_with_stable_letter():
    # <a> contains a^3 but not b
    res = magnus_membership(BS12, (1, 1, 1), {0})
    check_witness(BS12, (1, 1, 1), {0}, res)
    assert not magnus_membership(BS12, (2,), {0}).member


def test_membership_with_free_factor():
    # <a,b,c | a^2>: is c b c^-1 in <b,c>? plainly, as itself
    p = make_presentation(ABC, (1, 1))
    w = (3, 2, -3)
    res = magnus_membership(p, w, {1, 2})
    check_witness(p, w, {1, 2}, res)
    # a^2 is trivial hence a member of anything, with empty witness
    res = magnus_membership(p, (1, 1), {1})
    check_witness(p, (1, 1), {1}, res)
    # a alone is not in <b,c>
    assert not magnus_membership(p, (1,), {1, 2}).member


def test_membership_nonzero_two_omitted():
    # <a,b,c | abc>, subset {a}: b is not in <a>, but a trivially is
    assert not magnus_membership(ABCREL, (2,), {0}).member
    res = magnus_membership(ABCREL, (1,), {0})
    check_witness(ABCREL, (1,), {0}, res)


def test_membership_omit_one_x_vanishes_non_member():
    # <a,b,c | ababc>, subset {b,c}: a -> y x^-2, b -> x^2 drops x from the
    # image relator.  a is not in <b,c>: b, c and the relator all have
    # a-exponent sum divisible by 2, and a has 1
    p = make_presentation(ABC, (1, 2, 1, 2, 3))
    assert words.exponent_sum(p.relator, 0) == 2
    assert not magnus_membership(p, (1,), {1, 2}).member


def test_membership_omit_one_x_present_non_member():
    # <a,b | a^2 b^-3>, subset {a}: b -> y x^-2, a -> x^-3 keeps x in the
    # image relator.  b a b^-1 abelianizes to a, and a^n = a modulo
    # (2,-3) only for n = 1, so a is the only candidate; but
    # b a b^-1 a^-1 survives in the PSL2(Z) quotient a^2 = b^3 = 1
    p = make_presentation(AB, (1, 1, -2, -2, -2))
    assert psl2_eval(p.relator).is_identity()
    assert not psl2_eval((2, 1, -2, -1)).is_identity()
    assert not magnus_membership(p, (2, 1, -2), {0}).member


def test_membership_torsion_quotient():
    # <a,b | (ab)^2>, subset {a}: b a b is a^-1 modulo the relator
    p = make_presentation(AB, (1, 2, 1, 2))
    res = magnus_membership(p, (2, 1, 2), {0})
    check_witness(p, (2, 1, 2), {0}, res)
    assert res.witness == (-1,)


def test_random_witnesses_are_valid():
    """Seeded sweep: every Member verdict passes the witness contract and
    every Not-member verdict is consistent with an oracle re-check on the
    witness side (membership of w*witness^-1 never contradicts wp)."""
    rng = random.Random(42)
    solver = Solver()
    pool = [
        (Z2, {0}), (Z2, {1}), (BS12, {0}), (BS12, {1}),
        (ABCREL, {0, 1}), (ABCREL, {1, 2}), (ABCREL, {2}),
    ]
    members = 0
    for pres, subset in pool:
        for _ in range(30):
            w = random_reduced_word(rng, pres.alphabet.size,
                                    rng.randint(0, 8))
            res = solver.magnus_membership(pres, w, subset)
            if res.member:
                members += 1
                check_witness(pres, w, subset, res, solver=solver)
            else:
                # sanity: words spelled inside the subset are always members
                assert not words.support(w) <= subset
    assert members > 20  # the sweep actually exercises the member path
