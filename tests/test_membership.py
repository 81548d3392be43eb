import random

import pytest

from onerelator import words
from onerelator.errors import UnknownGenerator
from onerelator.oracles import psl2_eval, random_reduced_word
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, SolverLimits, Verdict
from onerelator.textio import parse_presentation, parse_word
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
    res = Solver().magnus_membership(Z2, w, {0, 1})
    assert res.member and res.witness == w


def test_empty_word_always_member():
    res = Solver().magnus_membership(Z2, (), {0})
    assert res.member and res.witness == ()


def test_subset_validation():
    with pytest.raises(UnknownGenerator):
        Solver().magnus_membership(Z2, (1,), {0, 5})


def test_abc_relator_eliminates_c():
    # in <a,b,c | abc>: c equals b^-1 a^-1, a member of <a,b>
    res = Solver().magnus_membership(ABCREL, (3,), {0, 1})
    check_witness(ABCREL, (3,), {0, 1}, res)
    assert res.witness == (-2, -1)


def test_readme_example_is_one_tietze_move():
    # c occurs once in abc and is omitted from the subset: c = b^-1 a^-1
    solver = Solver()
    res = solver.magnus_membership(ABCREL, (3,), {0, 1})
    assert res.witness == (-2, -1)
    assert solver.stats["eliminations"] == solver.stats["nodes"] == 1


def test_tietze_member_and_non_member():
    # <a,b,c | a b a b^-1 c^-1>: c = a b a b^-1 occurs once
    p = make_presentation(ABC, (1, 2, 1, -2, -3))
    solver = Solver()
    w = (3, 2, 1)
    res = solver.magnus_membership(p, w, {0, 1})
    check_witness(p, w, {0, 1}, res)
    assert res.witness == (1, 2, 1, 1)
    # c b a has b-sum 1 and the relator 0, so the abelian test refuses it
    # before any substitution
    assert not solver.magnus_membership(p, w, {0}).member
    assert solver.stats["eliminations"] == 1


def test_tietze_subset_holding_the_once_occurring_generator():
    # c is the only once-occurring generator and lies in the subset: the
    # group is still free on a, b, so an image over the subset is the
    # witness and decides the node, and any other image falls through
    p = make_presentation(ABC, (1, 2, 1, -2, -3))
    solver = Solver()
    # a b a b^-1 is its own image, so the query falls through to the
    # hierarchy: a b a b^-1 = c
    w = (1, 2, 1, -2)
    res = solver.magnus_membership(p, w, {2})
    check_witness(p, w, {2}, res)
    assert res.witness == (3,)
    assert solver.stats["nodes"] > 1
    assert not solver.magnus_membership(p, (1,), {2}).member
    # decided at the top node: the relator's image is empty, so is that of
    # b a^3 b a^-2 in <a,b | a b^2>, by a = b^-2, and c b a^-1 b^-1 maps to
    # a, over {a, c}
    for pres, subset, w, witness in (
            (p, {2}, p.relator, ()),
            (parse_presentation("a,b | ab^2"), {0}, parse_word("ba^3bA^2", AB),
             ()),
            (p, {0, 2}, parse_word("cbAB", ABC), (1,))):
        solver = Solver()
        res = solver.magnus_membership(pres, w, subset)
        assert res.member and res.witness == witness
        assert solver.stats["eliminations"] == solver.stats["nodes"] == 1
    # b occurs once in AcaBaC^2 and lies in the subset; the image of
    # AB^2CBc overruns 12 letters, which decides nothing, and the hierarchy
    # refuses the word within the budget
    p = parse_presentation("a,b,c | AcaBaC^2")
    solver = Solver(SolverLimits(max_word_len=12))
    res = solver.magnus_membership(p, parse_word("AB^2CBc", ABC), {1, 2})
    assert not res.member


def test_subset_holding_the_relator_is_settled_at_the_entry():
    # {a, b} holds every letter of a b^2, so it is not free: the free split
    # asks the word problem of <a,b | ab^2> for each syllable over a, b,
    # drops the trivial ones and keeps the others as their own witnesses.
    # The abelian test runs first, so cab^2, whose c-sum is 1 where the
    # relator's is 0, is refused at the top node
    p = parse_presentation("a,b,c | ab^2")
    for text, witness in (("cab^2C", ()), ("abA", (1, 2, -1)),
                          ("caC", None), ("cab^2", None)):
        w = parse_word(text, p.alphabet)
        solver = Solver()
        assert solver.magnus_membership(p, w, {0, 1}).witness == witness
    assert solver.stats["nodes"] == 1


def test_magnus_subgroup_is_free_basis():
    # the subgroup <a,b> of <a,b,c | abc> is free: a b a^-1 b^-1 is a
    # member (itself) but stays nontrivial
    w = (1, 2, -1, -2)
    res = Solver().magnus_membership(ABCREL, w, {0, 1})
    check_witness(ABCREL, w, {0, 1}, res)
    assert Solver().word_problem(ABCREL, w) is Verdict.NONTRIVIAL


def test_z2_membership():
    # in Z^2, b is not in <a>
    assert not Solver().magnus_membership(Z2, (2,), {0}).member
    # but a b a^-1 is b, and b is in <b>
    res = Solver().magnus_membership(Z2, (1, 2, -1), {1})
    check_witness(Z2, (1, 2, -1), {1}, res)
    assert res.witness == (2,)


def test_bs12_membership_powers_of_b():
    # a b a^-1 = b^2 lies in <b>
    res = Solver().magnus_membership(BS12, (1, 2, -1), {1})
    check_witness(BS12, (1, 2, -1), {1}, res)
    assert res.witness == (2, 2)
    # a^-1 b a is a square root of b, so it is not itself a b-power
    assert not Solver().magnus_membership(BS12, (-1, 2, 1), {1}).member


def test_bs12_membership_with_stable_letter():
    # <a> contains a^3 but not b
    res = Solver().magnus_membership(BS12, (1, 1, 1), {0})
    check_witness(BS12, (1, 1, 1), {0}, res)
    assert not Solver().magnus_membership(BS12, (2,), {0}).member


def test_membership_with_free_factor():
    # <a,b,c | a^2>: is c b c^-1 in <b,c>? plainly, as itself
    p = make_presentation(ABC, (1, 1))
    w = (3, 2, -3)
    res = Solver().magnus_membership(p, w, {1, 2})
    check_witness(p, w, {1, 2}, res)
    # a^2 is trivial hence a member of anything, with empty witness
    res = Solver().magnus_membership(p, (1, 1), {1})
    check_witness(p, (1, 1), {1}, res)
    # a alone is not in <b,c>
    assert not Solver().magnus_membership(p, (1,), {1, 2}).member
    # <a,b,c | abAB> is Z^2 * <c>; each active syllable of a^2 c b a b^-1
    # is asked once, and b a b^-1 = a
    p = parse_presentation("a,b,c | abAB")
    solver = Solver()
    res = solver.magnus_membership(p, parse_word("a^2cbaB", p.alphabet),
                                   {0, 2})
    assert res.witness == parse_word("a^2ca", p.alphabet)
    assert solver.stats["nodes"] == 4
    # b is no member of <a>, but the syllables between b and b^-1 vanish
    # and so does the whole word
    w = parse_word("bcabABCB", p.alphabet)
    res = Solver().magnus_membership(p, w, {0})
    assert res.member and res.witness == ()
    # in <a,b,c,d | abAB> the subset <a,b,c> holds the whole active factor,
    # which is not free: the syllable a b a^-1 b^-1 is asked the word
    # problem, found trivial and dropped, so c and c^-1 cancel
    q = parse_presentation("a,b,c,d | abAB")
    res = Solver().magnus_membership(q, parse_word("cabABC", q.alphabet),
                                     {0, 1, 2})
    assert res.member and res.witness == ()
    # a^-1 c a is no member of <c>, so the syllable c a^-1 c a^-1 c after
    # it is asked only the word problem; its membership overruns 12 letters
    p = parse_presentation("a,b,c | CaCacAcaC")
    w = parse_word("BAcab^2CACAC", p.alphabet)
    solver = Solver(SolverLimits(max_word_len=12))
    assert not solver.magnus_membership(p, w, {1, 2}).member


def test_membership_nonzero_two_omitted():
    # <a,b,c | abc>, subset {a}: b is not in <a>, but a trivially is
    assert not Solver().magnus_membership(ABCREL, (2,), {0}).member
    res = Solver().magnus_membership(ABCREL, (1,), {0})
    check_witness(ABCREL, (1,), {0}, res)


def test_membership_nonzero_two_omitted_without_elimination():
    # <a,b,c | a^2 b^2 c^2>: no generator occurs once, so subset {c} takes
    # the embedding that fixes c; a^2 b^2 = c^-2
    p = make_presentation(ABC, (1, 1, 2, 2, 3, 3))
    res = Solver().magnus_membership(p, (1, 1, 2, 2, 3), {2})
    check_witness(p, (1, 1, 2, 2, 3), {2}, res)
    assert res.witness == (-3,)
    assert not Solver().magnus_membership(p, (1,), {2}).member
    # <a,b,c | a^2 b^2>, subset {a,c}: the active syllable b is not in <a>,
    # and for subset {a} the free syllable c is not in it either
    p = make_presentation(ABC, (1, 1, 2, 2))
    assert not Solver().magnus_membership(p, (2, 3), {0, 2}).member
    assert not Solver().magnus_membership(p, (1, 3), {0}).member
    res = Solver().magnus_membership(p, (2, 2, 3), {0, 2})
    check_witness(p, (2, 2, 3), {0, 2}, res)
    assert res.witness == (-1, -1, 3)


def test_membership_omit_one_x_vanishes_non_member():
    # <a,b,c | ababc>, subset {b,c}: a -> y x^-2, b -> x^2 drops x from the
    # image relator.  a^2 has a-exponent sum 2, once the relator's, so the
    # abelian test at the top node passes it and the query reaches the
    # x-vanished image.  a^2 is not in <b,c>: the relator gives c = BABA,
    # so in F(a,b) the subgroup is <b, abab>, whose Stallings fold does not
    # read a^2
    p = make_presentation(ABC, (1, 2, 1, 2, 3))
    assert words.exponent_sum(p.relator, 0) == 2
    solver = Solver()
    assert not solver.magnus_membership(p, (1, 1), {1, 2}).member
    assert solver.stats["nodes"] > 1


def test_membership_omit_one_x_present_non_member():
    # <a,b | a^2 b^-3>, subset {a}: b -> y x^-2, a -> x^-3 keeps x in the
    # image relator.  b a b^-1 abelianizes to a, and a^n = a modulo
    # (2,-3) only for n = 1, so a is the only candidate; but
    # b a b^-1 a^-1 survives in the PSL2(Z) quotient a^2 = b^3 = 1
    p = make_presentation(AB, (1, 1, -2, -2, -2))
    assert psl2_eval(p.relator).is_identity()
    assert not psl2_eval((2, 1, -2, -1)).is_identity()
    assert not Solver().magnus_membership(p, (2, 1, -2), {0}).member


@pytest.mark.parametrize("text, subset, w, witness", [
    # <a,b,c | ababc>, subset {b,c}: a -> y x^-2, b -> x^2 drops x from the
    # image relator, so the witness comes from the free split off <x>
    ("a,b,c | ababc", {1, 2}, "baba", "bCB"),
    ("a,b,c | ababc", {1, 2}, "b^2abaB", "b^2CB^2"),
    # <a,b | a^2 b^-3>, subset {a}: b -> y x^-2, a -> x^-3 keeps x in the
    # image relator, so the witness comes from the zero case with t = x
    ("a,b | a^2B^3", {0}, "b^3", "a^2"),
    ("a,b | a^2B^3", {0}, "B^3ab^3", "a"),
    ("a,b | a^2B^3", {0}, "b^6a", "a^5"),
    # <a,b,c | a^2 b^2 c^2>, subset {c}: a and b are both omitted, so the
    # embedding fixes c and the image's witness has no x letters
    ("a,b,c | a^2b^2c^2", {2}, "a^2b^2", "C^2"),
])
def test_membership_nonzero_pulls_back_witness(text, subset, w, witness):
    """Each maximal x^(alpha j) run of the image's witness pulls back to
    b^j (alpha = 2 and alpha = -3 here), each fixed letter to itself."""
    p = parse_presentation(text)
    w = parse_word(w, p.alphabet)
    res = Solver().magnus_membership(p, w, subset)
    check_witness(p, w, subset, res)
    assert res.witness == parse_word(witness, p.alphabet)


def test_nonzero_image_runs_at_the_nodes_depth():
    """A nonzero node asks its image at its own depth, whether x survives
    in the image relator or vanishes from it (then the image splits off
    <x> as a free factor)."""
    p = parse_presentation("a,b,c | ababc")
    w = parse_word("baba", p.alphabet)
    res = Solver(SolverLimits(max_depth=1)).magnus_membership(p, w, {1, 2})
    assert res.witness == parse_word("bCB", p.alphabet)


def test_membership_torsion_quotient():
    # <a,b | (ab)^2>, subset {a}: b a b is a^-1 modulo the relator
    p = make_presentation(AB, (1, 2, 1, 2))
    res = Solver().magnus_membership(p, (2, 1, 2), {0})
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


def test_word_problem_is_membership_in_the_trivial_subgroup():
    """On fresh solvers the word problem and membership in the subgroup on
    no generators reach the same verdict through the same nodes."""
    rng = random.Random(7)
    pool = [BS12, ABCREL,
            make_presentation(AB, (1, 1, 2, 2, 2)),             # nonzero
            make_presentation(AB, (1, 2, 1, 1, 2, 2)),
            make_presentation(ABC, (1, 2, -1, -2, -2))]         # free part
    trivial = 0
    for pres in pool:
        size = pres.alphabet.size
        for _ in range(40):
            w = random_reduced_word(rng, size, rng.randint(0, 8))
            if rng.random() < 0.5:
                c = random_reduced_word(rng, size, rng.randint(0, 3))
                w = words.multiply(w, words.concat(
                    [c, pres.relator, words.invert(c), words.invert(w)]))
            wp_solver, member_solver = Solver(), Solver()
            verdict = wp_solver.word_problem(pres, w)
            res = member_solver.magnus_membership(pres, w, set())
            assert res.member == (verdict is Verdict.TRIVIAL), (pres, w)
            assert not res.member or res.witness == ()
            assert (wp_solver.stats["nodes"]
                    == member_solver.stats["nodes"]), (pres, w)
            trivial += res.member
    assert trivial > 50
