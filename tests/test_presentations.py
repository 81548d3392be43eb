import pytest

from onerelator import words
from onerelator.breakdown import Node
from onerelator.errors import EmptyRelator, UnknownGenerator
from onerelator.presentations import abelian_obstruction, make_presentation
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
    assert not abelian_obstruction(3, (2,), (1, 1, 3, -3), frozenset())
    assert abelian_obstruction(3, (2,), (1, 1, 3), frozenset())


def test_restrict_to_subalphabet():
    # a relator's core renumbers its support in increasing order, and a
    # word over the support goes into the core and back
    core, into, out = Node((2, 3, -2, -3)).core
    assert core == (1, 2, -1, -2)
    assert into == {2: 1, -2: -1, 3: 2, -3: -2}
    assert tuple(map(into.__getitem__, (2, -3))) == (1, -2)
    assert tuple(map(out.__getitem__, (1, -2))) == (2, -3)


def test_presentation_hashable_for_memo_keys():
    p = make_presentation(AB, (1, 2))
    q = make_presentation(AB, (1, 2))
    assert p == q
    # the solver's memo keys a top node on its relator alone: renaming
    # the generators keeps the key
    x = make_presentation(Alphabet(("x", "y")), (1, 2))
    assert p != x
    assert p.relator == x.relator and hash(p.relator) == hash(x.relator)
