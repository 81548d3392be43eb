"""One-relator presentations: normalization and the abelian obstruction to
Magnus-subgroup membership."""

from dataclasses import dataclass
from itertools import zip_longest

from . import words
from .errors import EmptyRelator
from .words import Alphabet


@dataclass(frozen=True)
class OneRelatorPresentation:
    alphabet: Alphabet
    relator: tuple  # nonempty, cyclically reduced

    def __repr__(self):
        from .textio import print_word
        return (f"<{','.join(self.alphabet.names)} | "
                f"{print_word(self.relator, self.alphabet)}>")


def make_presentation(alphabet, relator_input):
    """Build a presentation, storing the cyclically reduced relator core.

    Conjugating the relator does not change the normal closure, so the
    cyclic reduction is harmless normalization.
    """
    core = words.cyclic_reduce(words.validate_word(alphabet, relator_input))
    if not core:
        raise EmptyRelator("relator freely reduces to the empty word")
    return OneRelatorPresentation(alphabet, core)


def abelian_obstruction(rank, exponents, w, subset):
    """Fast negative certificate for membership of ``w`` in the Magnus
    subgroup on ``subset`` of ``<rank generators | relator>``, given the
    relator's ``exponents`` (its exponent sums of the first ids; the rest
    are 0).

    Outside ``subset`` a member's exponent sums are one integer multiple of
    the relator's.  Returns True when that necessary condition FAILS (so
    ``w`` is certainly no member; for the empty subset, nontrivial).
    """
    k = None
    for g, (r, x) in enumerate(zip_longest(
            exponents, words.exponent_vector(w, rank), fillvalue=0)):
        if g in subset:
            continue
        if r and k is None:
            k = x // r
        if x != (k * r if r else 0):
            return True
    return False

