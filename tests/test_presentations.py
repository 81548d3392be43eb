import pytest

from onerelator import words
from onerelator.errors import EmptyRelator, UnknownGenerator
from onerelator.presentations import (
    abelian_obstruction,
    make_presentation,
    map_word,
    restrict_to_subalphabet,
)
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))


def test_make_presentation_normalizes():
    # a (abAB) a^-1 stores the cyclically reduced core
    p = make_presentation(AB, (1, 1, 2, -1, -2, -1))
    assert p.relator == (1, 2, -1, -2)


def test_make_presentation_rejects_bad_relators():
    with pytest.raises(EmptyRelator):
        make_presentation(AB, (1, -1))
    with pytest.raises(UnknownGenerator):
        make_presentation(AB, (3,))


def test_repr_round_trips_through_grammar():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    assert repr(p) == "<a,b | abAB^2>"


def test_abelian_obstruction():
    def obstructs(rank, relator, w, subset=frozenset()):
        return abelian_obstruction(
            rank, words.exponent_vector(relator, rank), w, subset)

    z2 = (1, 2, -1, -2)
    assert obstructs(2, z2, (1,))
    assert not obstructs(2, z2, ())
    q = (1, 1, 2)
    # (2, 1) is the relator vector itself: no obstruction
    assert not obstructs(2, q, (1, 1, 2))
    assert obstructs(2, q, (1,))
    # outside the subset only: Z^2 mod <a> keeps the b-sum
    assert obstructs(2, z2, (2,), {0})
    assert not obstructs(2, z2, (1, 1, 1), {0})
    # ababc mod <b, c>: the a-sum must be a multiple of 2
    ababc = (1, 2, 1, 2, 3)
    assert obstructs(3, ababc, (1,), {1, 2})
    assert not obstructs(3, ababc, (2, 3), {1, 2})
    # a vector shorter than the rank: the later relator sums are 0
    assert not abelian_obstruction(3, (2,), (1, 1, 3, -3))
    assert abelian_obstruction(3, (2,), (1, 1, 3))


def test_restrict_to_subalphabet():
    r = (2, 3, -2, -3)
    sub, old_to_new = restrict_to_subalphabet(r, {2, 1})
    assert sub == (1, 2, -1, -2)
    assert old_to_new == {1: 0, 2: 1}
    assert map_word((2, -3), old_to_new) == (1, -2)
    with pytest.raises(UnknownGenerator):
        restrict_to_subalphabet(r, (0, 1))


def test_presentation_hashable_for_memo_keys():
    p = make_presentation(AB, (1, 2))
    q = make_presentation(AB, (1, 2))
    assert p == q
    # the solver's memo keys on (rank, relator): renaming the generators
    # keeps the key
    x = make_presentation(Alphabet(("x", "y")), (1, 2))
    assert p != x
    assert hash((p.alphabet.size, p.relator)) == \
        hash((x.alphabet.size, x.relator))
