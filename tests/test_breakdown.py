import pytest

from onerelator import breakdown, words
from onerelator.breakdown import (
    base_presentation,
    classify,
    embed_nonzero_case,
    hnn_syllables,
    rewrite_word_to_subscripted,
    rewrite_zero_case,
    sub_alphabet_for,
    substitute_back,
    sword_invert,
    sword_multiply,
    sword_pairs,
    sword_reduce,
    sword_shift,
    sword_subscript_span,
)
from onerelator.errors import PreconditionViolated
from onerelator.presentations import make_presentation
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def test_sword_algebra():
    u = ((1, 0, 1), (1, 0, -1), (0, 2, 1))
    assert sword_reduce(u) == ((0, 2, 1),)
    assert sword_multiply(((0, 2, 1),), ((0, 2, -1),)) == ()
    assert sword_invert(((0, 1, 1), (1, 0, -1))) == ((1, 0, 1), (0, 1, -1))
    assert sword_shift(((0, 1, 1),), -3) == ((0, -2, 1),)
    assert sword_pairs(((0, 1, 1), (0, 1, -1), (1, 0, 1))) == \
        {(0, 1), (1, 0)}
    assert sword_subscript_span(((0, -2, 1), (1, 5, 1))) == 7
    assert sword_subscript_span(()) == 0


def test_sub_alphabet_naming():
    alphabet, index, ordered = sub_alphabet_for({(1, 0), (1, 1)}, AB)
    assert alphabet.names == ("b_0", "b_1")
    assert index[(1, 0)] == 0
    assert ordered == ((1, 0), (1, 1))


def test_classify_cases():
    assert classify(make_presentation(AB, (1, 2, -1, -2))).kind == "zero"
    assert classify(make_presentation(Alphabet(("a",)), (1, 1, 1))).order == 3
    assert classify(make_presentation(AB, (1, 1, 2))).kind == "nonzero"
    with pytest.raises(PreconditionViolated):
        classify(make_presentation(AB, (1, 1)))


def test_classify_picks_least_zero_generator():
    # sigma_a = 0 and sigma_b = 0: the stable letter is a
    step = classify(make_presentation(AB, (1, 2, -1, -2)))
    assert step.zero.stable == 0


def test_rewrite_zero_case_bs12():
    # a b a^-1 b^-2 with t = a rewrites to b_1 b_0^-2
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    zd = rewrite_zero_case(p, 0)
    assert zd.rewritten_relator == ((1, 1, 1), (1, 0, -1), (1, 0, -1))
    assert zd.ranges == {1: (0, 1)}
    assert zd.pivot == 1
    assert zd.pivot_range() == (0, 1)


def test_rewrite_zero_case_round_trip():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    zd = rewrite_zero_case(p, 0)
    back = substitute_back(zd.rewritten_relator, 0)
    # the sword spells a conjugate of (a cyclic shift of) the relator
    _, core = words.cyclic_reduce(back)
    assert words.cyclically_equal_up_to_inversion(core, p.relator)


def test_rewrite_zero_case_preconditions():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    with pytest.raises(PreconditionViolated):
        rewrite_zero_case(p, 1)  # sigma_b = -1
    with pytest.raises(PreconditionViolated):
        rewrite_zero_case(make_presentation(AB, (1, 2, -1, -2)), 0, pivot=0)


def test_rewrite_word_to_subscripted():
    # w = a b a^-1: one b at height 1 and a zero t-exponent
    t_exp, sw = rewrite_word_to_subscripted((1, 2, -1), 0)
    assert t_exp == 0
    assert sw == ((1, 1, 1),)
    # w = b a: the a survives as the stable tail
    t_exp, sw = rewrite_word_to_subscripted((2, 1), 0)
    assert t_exp == 1
    assert sw == ((1, 0, 1),)


def test_substitute_back_inverts_rewrite():
    for w in [(2, 1, 2, -1), (1, 1, 2, -1, -1, -2), (2, 2, -1, 2, 1)]:
        t_exp, sw = rewrite_word_to_subscripted(w, 0)
        rebuilt = words.multiply(substitute_back(sw, 0),
                                 words.power((1,), t_exp))
        assert rebuilt == words.reduce(w)


def test_hnn_syllables():
    items = hnn_syllables((2, 1, 2, -1, -2), 0)
    assert items == [((1, 0, 1),), 1, ((1, 0, 1),), -1, ((1, 0, -1),)]
    assert hnn_syllables((2, 2), 0) == [((1, 0, 1), (1, 0, 1))]


def test_fresh_names_avoid_collisions():
    assert breakdown.fresh_names(AB, 2) == ["x", "y"]
    assert breakdown.fresh_names(Alphabet(("x", "y")), 2) == ["z", "w"]


def test_embed_nonzero_case():
    p = make_presentation(AB, (1, 1, 2, 2, 2))  # alpha=2, beta=3
    emb = embed_nonzero_case(p, 0, 1)
    assert emb.alpha == 2 and emb.beta == 3
    img = emb.image_presentation
    assert img.alphabet.names[:2] == ("x", "y")
    # sigma_x of the image relator must vanish
    assert words.exponent_sum(img.relator, emb.x_gen) == 0
    # translating the relator itself gives a trivial image
    _, core = words.cyclic_reduce(emb.translate(p.relator))
    assert words.cyclically_equal_up_to_inversion(core, img.relator) or \
        core == ()


def test_embed_nonzero_preserves_other_generators():
    p = make_presentation(ABC, (1, 2, 3))
    emb = embed_nonzero_case(p, 0, 1)
    assert emb.gen_map == {2: 2}
    assert emb.translate((3,)) == (3,)


def test_embed_nonzero_preconditions():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    with pytest.raises(PreconditionViolated):
        embed_nonzero_case(p, 0, 1)  # alpha = 0


def test_zero_case_presentation():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    zd = rewrite_zero_case(p, 0)
    base, word, ordered = base_presentation(p, zd)
    assert base.alphabet.names == ("b_0", "b_1")
    assert base.relator == (2, -1, -1)
    assert word == ()
    assert ordered == ((1, 0), (1, 1))
    # a residue and extra pairs widen the alphabet; the relator is renamed
    base, word, ordered = base_presentation(p, zd, ((1, 2, -1),), [(1, -1)])
    assert base.alphabet.names == ("b_-1", "b_0", "b_1", "b_2")
    assert base.relator == (3, -2, -2)
    assert word == (-4,)
    assert ordered == ((1, -1), (1, 0), (1, 1), (1, 2))


def exhaustive_relators(max_len):
    out = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for lt in (1, -1, 2, -2):
                if w and w[-1] == -lt:
                    continue
                nxt.append(w + (lt,))
        out.extend(v for v in nxt if words.is_cyclically_reduced(v)
                   and words.support(v) == {0, 1})
        frontier = nxt
    return out


def test_zero_case_strict_descent_exhaustive():
    """Every zero-case rewrite over {a,b} up to length 6 strictly shortens
    the relator and round-trips back to a conjugate of it."""
    for r in exhaustive_relators(6):
        p = make_presentation(AB, r)
        if len(p.relator) < len(r):
            continue  # cyclic reduction aliases another pool entry
        step = classify(p)
        if step.kind != "zero":
            continue
        zd = step.zero
        assert len(zd.rewritten_relator) < len(r)
        assert len(zd.rewritten_relator) == len(r) - sum(
            1 for lt in r if words.letter_gen(lt) == zd.stable)
        back = substitute_back(zd.rewritten_relator, zd.stable)
        _, core = words.cyclic_reduce(back)
        assert words.cyclically_equal_up_to_inversion(core, r)
