"""The one-pass word parser against a reference, and the presentation cache."""

import random
import sys
import threading

import pytest

from onerelator import textio, words
from onerelator.errors import (
    ResourceExhausted,
    UnknownGenerator,
    WordSyntaxError,
)
from onerelator.presentations import make_presentation
from onerelator.textio import parse_alphabet, parse_presentation, parse_word
from onerelator.words import DEFAULT_MAX_WORD_LEN, Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def reference_parse_word(text, alphabet, offset=0,
                         max_len=DEFAULT_MAX_WORD_LEN):
    """The two-pass parser: spell the word out, then freely reduce it."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "1":
            i += 1
            continue
        if "a" <= c <= "z":
            name, sign = c, 1
        elif "A" <= c <= "Z":
            name, sign = c.lower(), -1
        else:
            raise WordSyntaxError(f"unexpected character {c!r}", offset + i)
        if name not in alphabet.names:
            raise UnknownGenerator(
                f"unknown generator {name!r} (at offset {offset + i})",
                offset=offset + i)
        gen = alphabet.index(name)
        i += 1
        count = 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] == "-":
                i += 1
            while i < n and text[i] in "0123456789":
                i += 1
            if i == start or text[start:i] == "-":
                raise WordSyntaxError("expected integer after '^'",
                                      offset + start)
            k = int(text[start:i])
            if k == 0:
                raise WordSyntaxError("zero power is not allowed",
                                      offset + start)
            sign *= 1 if k > 0 else -1
            count = abs(k)
            if len(out) + count > max_len:
                raise ResourceExhausted(
                    f"word length exceeds {max_len} "
                    f"(at offset {offset + start})",
                    budget="max_word_len", limit=max_len)
        out.extend([sign * (gen + 1)] * count)
    return words.reduce(out, max_len)


def random_text(rng):
    """Letters, powers, spaces and ``1`` over ``a,b,c``; half the texts
    also hold one fault: a zero or malformed power, a bad character or a
    letter outside the alphabet."""
    pieces = []
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.15:
            pieces.append(rng.choice([" ", "  ", "\t", "1"]))
            continue
        piece = rng.choice("abcABC")
        if rng.random() < 0.3:
            piece += f"^{rng.choice(['', '-'])}{rng.randint(1, 9)}"
        pieces.append(piece)
    if rng.random() < 0.5:
        fault = rng.choice([
            rng.choice("abcABC") + rng.choice(
                ["^0", "^-0", "^", "^-", "^x", "^\u00b2"]),
            rng.choice("+-^*,|\u00e9\u00b2"),
            rng.choice("dxzDXZ")])
        pieces.insert(rng.randint(0, len(pieces)), fault)
    return "".join(pieces)


def outcome(parse, text, alphabet, offset, max_len):
    try:
        return "word", parse(text, alphabet, offset, max_len)
    except (WordSyntaxError, UnknownGenerator, ResourceExhausted) as e:
        return type(e), str(e), getattr(e, "offset", None)


def test_parse_word_matches_the_two_pass_reference():
    rng = random.Random(20)
    errors = set()
    for _ in range(4000):
        text = random_text(rng)
        alphabet = rng.choice((AB, ABC, ABC, ABC))
        offset = rng.choice((0, 0, 7))
        max_len = rng.choice((6, 12, 24, DEFAULT_MAX_WORD_LEN))
        got = outcome(parse_word, text, alphabet, offset, max_len)
        want = outcome(reference_parse_word, text, alphabet, offset,
                       max_len)
        if want[0] is ResourceExhausted and "offset" not in want[1]:
            # an overrun of plain letters: the reference finds it only
            # when reducing, without an offset, and the one pass names it
            assert got[0] is ResourceExhausted
            assert "(at offset " in got[1]
            errors.add("plain overrun")
            continue
        assert got == want, (text, alphabet, offset, max_len)
        if want[0] != "word":
            errors.add(want[0].__name__)
    # the draw reaches every outcome the reference can give
    assert errors == {"WordSyntaxError", "UnknownGenerator",
                      "ResourceExhausted", "plain overrun"}


def test_parse_word_reads_exponents_past_the_int_digit_limit():
    # by default int() refuses strings of more than 4300 digits
    with pytest.raises(ResourceExhausted, match=r"\(at offset 2\)"):
        parse_word("a^" + "9" * 5000, AB)
    with pytest.raises(ResourceExhausted, match=r"\(at offset 3\)"):
        parse_word("ba^-" + "9" * 5000, AB)
    assert parse_word("a^" + "0" * 5000 + "1", AB) == (1,)
    assert parse_word("a^-" + "0" * 5000 + "2", AB) == (-1, -1)
    with pytest.raises(WordSyntaxError, match="zero power") as err:
        parse_word("a^-" + "0" * 5000, AB)
    assert err.value.offset == 2


@pytest.fixture
def empty_cache():
    textio._presentations.clear()
    yield
    textio._presentations.clear()


def test_presentation_cache_hit_returns_the_same_object(empty_cache):
    p = parse_presentation("a,b | abAB")
    assert parse_presentation("a,b | abAB") is p
    assert parse_presentation("a,b | abAB", 64) is not p


def test_presentation_cache_keeps_its_bound(empty_cache):
    first = parse_presentation("a,b | a^1b")
    for k in range(2, textio.PRESENTATION_CACHE + 40):
        parse_presentation(f"a,b | a^{k}b")
        assert len(textio._presentations) <= textio.PRESENTATION_CACHE
    # the oldest text went first
    assert parse_presentation("a,b | a^1b") is not first


def test_presentation_cache_keeps_no_error(empty_cache):
    for _ in range(2):
        with pytest.raises(UnknownGenerator) as err:
            parse_presentation("a,b | abx")
        assert err.value.offset == 8
    assert not textio._presentations


def test_presentation_cache_keys_the_word_cap(empty_cache):
    with pytest.raises(ResourceExhausted):
        parse_presentation("a,b | a^5b", 3)
    assert parse_presentation("a,b | a^5b").relator == (1,) * 5 + (2,)
    with pytest.raises(ResourceExhausted):
        parse_presentation("a,b | a^5b", 3)


def test_presentation_cache_under_threads(empty_cache, monkeypatch):
    # a small bound, so that the threads evict each other's entries
    monkeypatch.setattr(textio, "PRESENTATION_CACHE", 8)
    texts = [f"a,b,c | a^{k}b{'c' * (k % 3)}Ab" for k in range(1, 25)]
    expected = {}
    for text in texts:
        left, right = text.split("|")
        expected[text] = make_presentation(
            parse_alphabet(left),
            parse_word(right, parse_alphabet(left)))
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                text = rng.choice(texts)
                if parse_presentation(text) != expected[text]:
                    failures.append(text)
        except Exception as e:  # reported by the assertion below
            failures.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(textio._presentations) <= 8
