"""Textual grammar for words and presentations.

Generator names are single ASCII lowercase letters; the corresponding
uppercase letter is the inverse; ``g^k``, with ``k`` in ASCII digits,
abbreviates ``|k|`` copies of ``g`` (or its inverse for negative ``k``);
``1`` is the identity.
Presentations read ``a,b,... | relator``.
"""

from .errors import ResourceExhausted, UnknownGenerator, WordSyntaxError
from .presentations import make_presentation
from .words import (
    DEFAULT_MAX_WORD_LEN,
    Alphabet,
    letter_gen,
    letter_sign,
    reduce,
)


def parse_word(text, alphabet, offset=0, max_len=DEFAULT_MAX_WORD_LEN):
    """Parse a word; raises WordSyntaxError/UnknownGenerator with the
    character index of the offending character.  ``offset`` shifts reported
    positions when the word is embedded in a larger input.  A power that
    would expand the word past ``max_len`` letters, before free reduction,
    raises ResourceExhausted instead of being spelled out."""
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
    return reduce(out, max_len)


def print_word(w, alphabet):
    """Inverse of parse_word on reduced words; the empty word prints as 1."""
    if not w:
        return "1"
    parts = []
    run_lt, run_len = w[0], 1
    for lt in w[1:] + (0,):
        if lt == run_lt:
            run_len += 1
            continue
        name = alphabet.names[letter_gen(run_lt)]
        if letter_sign(run_lt) < 0:
            name = name.upper()
        parts.append(name if run_len == 1 else f"{name}^{run_len}")
        run_lt, run_len = lt, 1
    return "".join(parts)


def parse_alphabet(text, offset=0):
    """Parse ``a,b,...``; an error's offset is that of the name at fault."""
    names = []
    start = offset
    for chunk in text.split(","):
        name = chunk.strip()
        at = start + len(chunk) - len(chunk.lstrip())
        if len(name) != 1 or not ("a" <= name <= "z"):
            raise WordSyntaxError(
                f"generator names are single lowercase letters, got {name!r}",
                at)
        if name in names:
            raise WordSyntaxError("duplicate generator name", at)
        names.append(name)
        start += len(chunk) + 1
    return Alphabet(tuple(names))


def parse_presentation(text, max_len=DEFAULT_MAX_WORD_LEN):
    """Parse ``a,b,... | relator`` into a normalized presentation; the
    relator is read under the word-length cap ``max_len``."""
    if text.count("|") != 1:
        raise WordSyntaxError("expected exactly one '|'",
                              0 if "|" not in text else text.rindex("|"))
    left, right = text.split("|")
    alphabet = parse_alphabet(left)
    # relator error offsets are relative to the whole input
    relator = parse_word(right, alphabet, offset=len(left) + 1,
                         max_len=max_len)
    return make_presentation(alphabet, relator)


def print_presentation(pres):
    return f"{','.join(pres.alphabet.names)} | " \
           f"{print_word(pres.relator, pres.alphabet)}"
