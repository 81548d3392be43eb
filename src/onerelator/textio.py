"""Textual grammar for words and presentations.

Generator names are single ASCII lowercase letters; the corresponding
uppercase letter is the inverse; ``g^k``, with ``k`` in ASCII digits,
abbreviates ``|k|`` copies of ``g`` (or its inverse for negative ``k``);
``1`` is the identity.
Presentations read ``a,b,... | relator``.

:func:`parse_word` reads its text in one pass: one lookup in
:attr:`~onerelator.words.Alphabet.letters` per letter, and each letter
cancels against the reduced word read so far, so the result comes out
freely reduced with no second pass.  :func:`parse_presentation` keeps up to
:data:`PRESENTATION_CACHE` parsed texts, keyed by text and word cap, and
drops the oldest first, so a text seen again costs one dict lookup; the
presentation is frozen, so every caller may share it.
"""

import threading

from .errors import ResourceExhausted, UnknownGenerator, WordSyntaxError
from .presentations import make_presentation
from .words import (
    DEFAULT_MAX_WORD_LEN,
    Alphabet,
    letter_gen,
    letter_sign,
)

#: parsed presentation texts kept by :func:`parse_presentation`
PRESENTATION_CACHE = 256

_presentations = {}
_presentations_lock = threading.Lock()


def _overrun(max_len, at):
    return ResourceExhausted(f"word length exceeds {max_len} (at offset {at})",
                             budget="max_word_len", limit=max_len)


def parse_word(text, alphabet, offset=0, max_len=DEFAULT_MAX_WORD_LEN):
    """Parse a word, freely reduced; raises WordSyntaxError/UnknownGenerator
    with the character index of the offending character.  ``offset``
    shifts reported positions when the word is embedded in a larger input.
    A power that would take the letters read past ``max_len``, counted
    before free reduction, raises ResourceExhausted before it is spelled
    out; so does a reduced word longer than ``max_len``, once the rest of
    the text has parsed, at the offset of the letter that first overran."""
    letters = alphabet.letters
    out = []
    read = 0  # letters read, before free reduction
    over = None  # offset of the first letter that overran max_len
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        lt = letters.get(c)
        if lt is None:
            if c.isspace() or c == "1":
                i += 1
                continue
            if "a" <= c <= "z" or "A" <= c <= "Z":
                raise UnknownGenerator(
                    f"unknown generator {c.lower()!r} "
                    f"(at offset {offset + i})", offset=offset + i)
            raise WordSyntaxError(f"unexpected character {c!r}", offset + i)
        i += 1
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
            try:
                k = int(text[start:i])
            except ValueError:
                # more digits than int() reads: leading zeros aside, one
                # digit more than max_len has puts the power past max_len
                digits = text[start:i].lstrip("-0")[:len(str(max_len)) + 1]
                k = int(digits or 0) * (-1 if text[start] == "-" else 1)
            if k == 0:
                raise WordSyntaxError("zero power is not allowed",
                                      offset + start)
            if k < 0:
                lt, k = -lt, -k
            if read + k > max_len:
                raise _overrun(max_len, offset + start)
            read += k
            # out never overruns here: it is no longer than read
            while k and out and out[-1] == -lt:
                out.pop()
                k -= 1
            out.extend([lt] * k)
        else:
            read += 1
            if out and out[-1] == -lt:
                out.pop()
            else:
                out.append(lt)
                if len(out) > max_len and over is None:
                    over = offset + i - 1
    if over is not None:
        raise _overrun(max_len, over)
    return tuple(out)


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


def parse_alphabet(text):
    """Parse ``a,b,...``; an error's offset is that of the name at fault."""
    names = []
    start = 0
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
    relator is read under the word-length cap ``max_len``.  A text parsed
    before under the same cap returns the same object; a text that raises
    is not kept."""
    key = (text, max_len)
    pres = _presentations.get(key)
    if pres is not None:
        return pres
    bar = text.find("|")
    extra = text.find("|", bar + 1)
    if bar < 0 or extra >= 0:
        # at the first surplus bar, or at 0 when there is none
        raise WordSyntaxError("expected exactly one '|'", max(extra, 0))
    alphabet = parse_alphabet(text[:bar])
    # relator error offsets are relative to the whole input
    relator = parse_word(text[bar + 1:], alphabet, offset=bar + 1,
                         max_len=max_len)
    pres = make_presentation(alphabet, relator)
    with _presentations_lock:
        if len(_presentations) >= PRESENTATION_CACHE:
            del _presentations[next(iter(_presentations))]
        _presentations[key] = pres
    return pres


def print_presentation(pres):
    return f"{','.join(pres.alphabet.names)} | " \
           f"{print_word(pres.relator, pres.alphabet)}"
