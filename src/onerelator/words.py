"""Exact free-group word algebra.

A word is a tuple of nonzero ints.  The letter ``+(g+1)`` is generator ``g``
(0-based id into an :class:`Alphabet`), ``-(g+1)`` is its inverse.  Inside
the hierarchy, ids above the alphabet are subscripted letters of a zero
node's base group (see :mod:`.breakdown`); every function here treats them
like any other generator.  Every word handed out by this module is freely
reduced, so equality of group elements is tuple equality and the empty
tuple is the identity.

:func:`reduce`, :func:`concat`, :func:`power` and :func:`substitute` take any
letter sequence.  :func:`multiply` and :func:`push` take reduced words only.
Two reduced words cancel only at the seam where they meet, so their product
costs one comparison per cancelled letter and one copy of what survives,
never a step per surviving letter.  A product longer than its ``max_len``
raises :class:`~onerelator.errors.ResourceExhausted` as a letter-by-letter
reduction would: only when a letter of the right factor survives.
"""

from itertools import chain, repeat
from operator import add

from .errors import ResourceExhausted, UnknownGenerator

#: default cap on word length; blowing past it raises ResourceExhausted.
DEFAULT_MAX_WORD_LEN = 2**20


class Alphabet:
    """An ordered list of distinct generator names; order fixes the ids.

    ``letters`` maps each name the text grammar can spell (a single ASCII
    lowercase letter) to its letter ``+(g+1)`` and the uppercase name to
    ``-(g+1)``, so a parser reads a letter with one lookup.
    """

    __slots__ = ("names", "_index", "letters")

    def __init__(self, names):
        names = tuple(names)
        index, letters = {}, {}
        for g, n in enumerate(names):
            index[n] = g
            if len(n) == 1 and "a" <= n <= "z":
                letters[n], letters[n.upper()] = g + 1, -g - 1
        if len(index) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        self.names = names
        self._index = index
        self.letters = letters

    @property
    def size(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({', '.join(self.names)})"


def letter_gen(lt):
    """Generator id of a letter."""
    return abs(lt) - 1


def letter_sign(lt):
    return 1 if lt > 0 else -1


def _too_long(max_len):
    return ResourceExhausted(f"word length exceeds {max_len}",
                             budget="max_word_len", limit=max_len)


def reduce(raw, max_len=DEFAULT_MAX_WORD_LEN):
    """Freely reduce a letter sequence.  Total and idempotent."""
    out = []
    for lt in raw:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
            if len(out) > max_len:
                raise _too_long(max_len)
    return tuple(out)


def multiply(u, v, max_len=DEFAULT_MAX_WORD_LEN):
    """Product of two reduced words, reduced.

    Reduced words cancel only at their seam, so the product is
    ``u[:len(u)-k] + v[k:]`` with ``k`` the letters that cancel there.  It
    raises only if a letter of ``v`` survives and the product is longer
    than ``max_len``.
    """
    n, m = len(u), min(len(u), len(v))
    k = 0
    while k < m and u[n - 1 - k] == -v[k]:
        k += 1
    if k < len(v) and n + len(v) - 2 * k > max_len:
        raise _too_long(max_len)
    return u[:n - k] + v[k:]


def push(out, v, max_len=DEFAULT_MAX_WORD_LEN):
    """Multiply the reduced list ``out`` by the reduced word ``v`` in place:
    pop the letters that cancel at the seam, then extend by the rest of
    ``v`` in one step.  It raises as :func:`multiply` does, with ``out``
    already cut back to the seam."""
    k = 0
    for lt in v:
        if out and out[-1] == -lt:
            out.pop()
            k += 1
        else:
            if len(out) + len(v) - k > max_len:
                raise _too_long(max_len)
            out.extend(v[k:])
            return


def concat(words, max_len=DEFAULT_MAX_WORD_LEN):
    """Product of words, freely reduced in one pass over their letters."""
    return reduce(chain.from_iterable(words), max_len)


def substitute(w, letters, max_len=DEFAULT_MAX_WORD_LEN):
    """Image of ``w`` under ``letters``, a table from signed letter (both
    signs of each generator it moves) to reduced word, freely reduced;
    letters missing from the table stay as they are."""
    out = []
    for lt in w:
        if lt in letters:
            out += letters[lt]
        else:
            out.append(lt)
    return reduce(out, max_len)


def invert(u):
    return tuple(-lt for lt in reversed(u))


def power(u, n, max_len=DEFAULT_MAX_WORD_LEN):
    """``u^n``, freely reduced in one pass over its letters."""
    if n < 0:
        u, n = invert(u), -n
    return reduce(chain.from_iterable(repeat(u, n)), max_len)


def cyclic_reduce(w):
    """The cyclically reduced core of ``w``: ``w`` is ``c * core * c^-1``
    for a conjugator ``c``."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def is_cyclically_reduced(w):
    return len(w) < 2 or w[0] != -w[-1]


def cyclically_equal_up_to_inversion(u, v):
    """True iff ``v`` is a cyclic permutation of ``u`` or of ``u``'s inverse.

    Both inputs must be cyclically reduced.
    """
    if len(u) != len(v):
        return False
    if not u:
        return True
    for x in (u, invert(u)):
        doubled = x + x
        for shift in range(len(x)):
            if doubled[shift:shift + len(x)] == v:
                return True
    return False


def exponent_sum(w, gen):
    """Signed count of occurrences of generator id ``gen`` in ``w``."""
    return w.count(gen + 1) - w.count(-gen - 1)


def exponent_vector(w, size):
    """Exponent sums of generators ``0 .. size-1`` in ``w``."""
    return tuple(w.count(g) - w.count(-g) for g in range(1, size + 1))


def support(w):
    """Set of generator ids occurring in ``w`` with either sign."""
    return frozenset(letter_gen(lt) for lt in w)


def validate_word(alphabet, w, max_len=DEFAULT_MAX_WORD_LEN):
    """The one check on a word from outside: freely reduce ``w`` under
    ``max_len``, check that every letter of the reduced word indexes into
    ``alphabet`` (a letter that cancels is not checked), and return it.

    A word no longer than ``max_len`` with no adjacent pair summing to 0 is
    already reduced, and reducing it could not overrun, so it skips the
    letter-by-letter pass."""
    w = tuple(w)
    if len(w) > max_len or 0 in map(add, w, w[1:]):
        w = reduce(w, max_len)
    n = alphabet.size
    if w and (0 in w or max(w) > n or min(w) < -n):
        lt = next(lt for lt in w if lt == 0 or letter_gen(lt) >= n)
        raise UnknownGenerator(
            f"letter {lt} has no generator in {alphabet!r}")
    return w
