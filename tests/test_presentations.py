import pytest

from onerelator.errors import EmptyRelator, UnknownGenerator
from onerelator.presentations import (
    abelian_obstruction,
    make_presentation,
    map_word,
    restrict_to_subalphabet,
    split_free_factor,
)
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


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


def test_split_free_factor():
    p = make_presentation(ABC, (1, 1))
    split = split_free_factor(p)
    assert split.active == (0,)
    assert split.free_part == (1, 2)
    p2 = make_presentation(ABC, (1, 2, 3))
    assert split_free_factor(p2).free_part == ()


def test_abelian_obstruction():
    p = make_presentation(AB, (1, 2, -1, -2))  # Z^2
    assert abelian_obstruction(p, (1,))
    assert not abelian_obstruction(p, ())
    q = make_presentation(AB, (1, 1, 2))
    # (2, 1) is the relator vector itself: no obstruction
    assert not abelian_obstruction(q, (1, 1, 2))
    assert abelian_obstruction(q, (1,))


def test_restrict_to_subalphabet():
    p = make_presentation(ABC, (2, 3, -2, -3))
    sub, old_to_new, gens = restrict_to_subalphabet(p, (1, 2))
    assert sub.alphabet.names == ("b", "c")
    assert sub.relator == (1, 2, -1, -2)
    assert gens == (1, 2)
    assert map_word((2, -3), old_to_new) == (1, -2)
    with pytest.raises(UnknownGenerator):
        restrict_to_subalphabet(p, (0, 1))


def test_presentation_hashable_for_memo_keys():
    p = make_presentation(AB, (1, 2))
    q = make_presentation(AB, (1, 2))
    assert p == q
    assert hash((p.alphabet.names, p.relator)) == \
        hash((q.alphabet.names, q.relator))
