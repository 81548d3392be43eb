"""One-relator presentations: normalization, the abelian obstruction and
sub-alphabet restriction."""

from dataclasses import dataclass

from . import words
from .errors import EmptyRelator, UnknownGenerator
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
    reduced = words.reduce(relator_input)
    words.validate_word(alphabet, reduced)
    _, core = words.cyclic_reduce(reduced)
    if not core:
        raise EmptyRelator("relator freely reduces to the empty word")
    return OneRelatorPresentation(alphabet, core)


def abelian_obstruction(rank, relator, w):
    """Fast negative certificate for the word problem in
    ``<rank generators | relator>``.

    A word can lie in the normal closure of the relator only if its exponent
    vector is an integer multiple of the relator's.  Returns True when that
    necessary condition FAILS (so ``w`` is certainly nontrivial).
    """
    rvec = words.exponent_vector(relator, rank)
    wvec = words.exponent_vector(w, rank)
    if all(x == 0 for x in rvec):
        return any(x != 0 for x in wvec)
    # find the multiplier from the first nonzero relator entry
    for r, x in zip(rvec, wvec):
        if r != 0:
            if x % r != 0:
                return True
            k = x // r
            break
    return any(x != k * r for r, x in zip(rvec, wvec))


def restrict_to_subalphabet(relator, gens):
    """The relator of ``<gens | relator>`` with ``gens`` reindexed 0..k-1
    in increasing order.

    ``gens`` must contain the relator's support.  Returns the new relator
    and the id map ``old_to_new``.
    """
    old_to_new = {g: i for i, g in enumerate(sorted(gens))}
    if not words.support(relator) <= old_to_new.keys():
        raise UnknownGenerator("subalphabet misses relator letters")
    return map_word(relator, old_to_new), old_to_new


def map_word(w, old_to_new):
    """Reindex a word's generator ids through ``old_to_new``."""
    return tuple(
        words.letter_sign(lt) * (old_to_new[words.letter_gen(lt)] + 1)
        for lt in w)
