import pytest

from onerelator import words
from onerelator.errors import ResourceExhausted, UnknownGenerator
from onerelator.words import Alphabet


def test_alphabet_basics():
    ab = Alphabet(("a", "b"))
    assert ab.size == 2
    assert len(ab) == 2
    assert ab.index("a") == 0
    assert ab.index("b") == 1
    assert ab == Alphabet(("a", "b"))
    assert ab != Alphabet(("b", "a"))
    assert hash(ab) == hash(Alphabet(("a", "b")))


def test_alphabet_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(UnknownGenerator):
        Alphabet(("a", "b")).index("c")


def test_letter_codec():
    assert words.letter_gen(-3) == 2
    assert words.letter_gen(1) == 0
    assert words.letter_sign(-3) == -1
    assert words.letter_sign(1) == 1


def test_reduce_cancels_adjacent_inverses():
    assert words.reduce([1, -1]) == ()
    assert words.reduce([1, 2, -2, -1]) == ()
    assert words.reduce([1, 2, -2, 1]) == (1, 1)
    # idempotent
    w = words.reduce([1, 2, -2, 1, -1, 2])
    assert words.reduce(w) == w


def test_reduce_word_len_budget():
    with pytest.raises(ResourceExhausted):
        words.reduce([1] * 10, max_len=5)
    assert words.reduce([1, -1] * 10, max_len=1) == ()


def test_multiply_and_concat():
    assert words.multiply((1, 2), (-2, -1)) == ()
    assert words.multiply((1, 2), (3,)) == (1, 2, 3)
    assert words.concat([(1,), (2,), (-2, -1)]) == ()
    # push multiplies a list in place, cancelling through the whole seam
    out = [1, 2]
    words.push(out, (-2, -1, 3))
    assert out == [3]
    with pytest.raises(ResourceExhausted) as info:
        words.push(out, (3, 3), max_len=2)
    assert info.value.budget == "max_word_len"


def test_invert_and_power():
    assert words.invert((1, 2, -1)) == (1, -2, -1)
    assert words.power((1,), 3) == (1, 1, 1)
    assert words.power((1, 2), -1) == (-2, -1)
    assert words.power((1, 2), 0) == ()


def test_cyclic_reduce():
    conj, core = words.cyclic_reduce((1, 2, 1, -2, -1))
    assert conj == (1, 2)
    assert core == (1,)
    assert words.multiply(words.multiply(conj, core), words.invert(conj)) == \
        (1, 2, 1, -2, -1)
    assert words.cyclic_reduce(()) == ((), ())
    assert words.is_cyclically_reduced((1, 2))
    assert not words.is_cyclically_reduced((1, 2, -1))


def test_cyclically_equal_up_to_inversion():
    r = (1, 2, -1, -2)
    assert words.cyclically_equal_up_to_inversion(r, (2, -1, -2, 1))
    assert words.cyclically_equal_up_to_inversion(r, words.invert(r))
    assert not words.cyclically_equal_up_to_inversion(r, (1, 2, 1, 2))
    assert not words.cyclically_equal_up_to_inversion(r, (1, 2))
    assert words.cyclically_equal_up_to_inversion((), ())


def test_exponent_sums_and_support():
    w = (1, 2, -1, -1, 3)
    assert words.exponent_sum(w, 0) == -1
    assert words.exponent_sum(w, 1) == 1
    assert words.exponent_vector(w, 3) == (-1, 1, 1)
    assert words.support(w) == {0, 1, 2}
    assert words.support(()) == frozenset()


def test_validate_word():
    ab = Alphabet(("a", "b"))
    words.validate_word(ab, (1, -2))
    with pytest.raises(UnknownGenerator):
        words.validate_word(ab, (3,))
    with pytest.raises(UnknownGenerator):
        words.validate_word(ab, (0,))
