import random

import pytest

from onerelator import words
from onerelator.errors import ResourceExhausted, UnknownGenerator
from onerelator.words import Alphabet


def test_alphabet_basics():
    ab = Alphabet(("a", "b"))
    assert ab.size == 2
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


def _letter_loop(u, v, max_len):
    """Reference product: push ``v`` letter by letter onto ``u``, raising as
    soon as an appended letter makes the word longer than ``max_len``."""
    out = list(u)
    for lt in v:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
            if len(out) > max_len:
                raise ResourceExhausted("", budget="max_word_len",
                                        limit=max_len)
    return tuple(out)


def _seam_pairs(seed, count):
    """Reduced pairs ``(u, v)`` where ``v`` starts by cancelling a random
    suffix of ``u``, all of it in some pairs, and may cancel all of
    itself."""
    rng = random.Random(seed)
    letters = (1, -1, 2, -2, 3, -3)
    for _ in range(count):
        u = words.reduce(rng.choice(letters)
                         for _ in range(rng.randint(0, 12)))
        j = rng.randint(0, len(u))
        tail = [rng.choice(letters) for _ in range(rng.choice((0, 0, 3, 8)))]
        v = words.reduce(list(words.invert(u[len(u) - j:])) + tail)
        yield u, v


def test_seam_products_match_reduction():
    full = 0
    for u, v in _seam_pairs(17, 3000):
        product = words.multiply(u, v)
        assert product == words.reduce(u + v)
        out = list(u)
        words.push(out, v)
        assert tuple(out) == product
        full += bool(u) and not product
    assert full > 100


def test_seam_products_overrun_like_the_letter_loop():
    for u, v in _seam_pairs(18, 1500):
        n = len(words.reduce(u + v))
        for max_len in {0, len(u) - 1, len(u), n - 1, n, n + 1}:
            if max_len < 0:
                continue
            try:
                expected = _letter_loop(u, v, max_len)
            except ResourceExhausted:
                expected = None
            out = list(u)
            if expected is None:
                with pytest.raises(ResourceExhausted) as info:
                    words.multiply(u, v, max_len)
                assert info.value.budget == "max_word_len"
                with pytest.raises(ResourceExhausted):
                    words.push(out, v, max_len)
            else:
                assert words.multiply(u, v, max_len) == expected
                words.push(out, v, max_len)
                assert tuple(out) == expected


def test_seam_products_at_the_cap():
    u = (1, 2, 3)
    # u at the cap, v cancelling fully: no letter of v survives, no raise
    assert words.multiply(u, (-3, -2), max_len=3) == (1,)
    assert words.multiply(u, (-3, -2, -1), max_len=3) == ()
    # u over the cap already: still no raise while v cancels fully
    assert words.multiply(u, (-3,), max_len=1) == (1, 2)
    out = list(u)
    words.push(out, (-3, -2, -1), max_len=3)
    assert out == []
    # one surviving letter over the cap raises, even after cancelling
    with pytest.raises(ResourceExhausted):
        words.multiply(u, (-3, 1, 1), max_len=3)
    assert words.multiply(u, (-3, 1, 1), max_len=4) == (1, 2, 1, 1)


def test_invert_and_power():
    assert words.invert((1, 2, -1)) == (1, -2, -1)
    assert words.power((1,), 3) == (1, 1, 1)
    assert words.power((1, 2), -1) == (-2, -1)
    assert words.power((1, 2), 0) == ()


def test_cyclic_reduce():
    assert words.cyclic_reduce((1, 2, 1, -2, -1)) == (1,)
    assert words.cyclic_reduce(()) == ()
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
    assert words.validate_word(ab, (1, -2)) == (1, -2)
    # the word comes back reduced under the cap, and only the letters of
    # the reduced word are checked
    assert words.validate_word(ab, [1, 3, -3, 2, -2, -2]) == (1, -2)
    with pytest.raises(ResourceExhausted):
        words.validate_word(ab, (1, 2, 1), max_len=2)
    with pytest.raises(UnknownGenerator):
        words.validate_word(ab, (3,))
    with pytest.raises(UnknownGenerator):
        words.validate_word(ab, (0,))


def test_validate_word_skips_the_pass_only_on_reduced_words():
    """The check agrees with reducing first and checking the result: the
    same word, or the same error (type and message), on reduced and
    unreduced words, words around the cap (one whose reduction passes the
    cap on the way, though the result fits), and letters 0 or outside the
    alphabet that survive or cancel."""
    ab = Alphabet(("a", "b"))

    def reference(w, max_len):
        w = words.reduce(w, max_len)
        bad = [lt for lt in w if lt == 0 or abs(lt) > 2]
        if bad:
            raise UnknownGenerator(
                f"letter {bad[0]} has no generator in {ab!r}")
        return w

    def outcome(fn, w, max_len):
        try:
            return fn(w, max_len)
        except (ResourceExhausted, UnknownGenerator) as exc:
            return type(exc), str(exc)

    rng = random.Random(5)
    cases = [((1, 1, -1), 2), ((1, 1, 1, -1, -1), 2), ((0, 0), 4),
             ((1, 0, -1), 4), ((3, -3), 4), ((1, 2), 2), ((1, 2, 1), 2)]
    for _ in range(3000):
        n = rng.randint(0, 8)
        cases.append((tuple(rng.choice((1, -1, 2, -2, 2, 3, 0))
                            for _ in range(n)), rng.randint(1, 8)))
    for w, max_len in cases:
        got = outcome(lambda w, m: words.validate_word(ab, w, m), w, max_len)
        assert got == outcome(reference, w, max_len), (w, max_len)
