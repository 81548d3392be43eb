"""One-relator presentations: normalization, the abelian obstruction,
free-factor splits and sub-alphabet restriction."""

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


@dataclass(frozen=True)
class FreeFactorSplit:
    """Partition of the alphabet into relator support and untouched part."""
    active: tuple   # generator ids occurring in the relator, sorted
    free_part: tuple  # the rest, sorted


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


def split_free_factor(pres):
    active = words.support(pres.relator)
    free_part = tuple(g for g in range(pres.alphabet.size) if g not in active)
    return FreeFactorSplit(tuple(sorted(active)), free_part)


def abelian_obstruction(pres, w):
    """Fast negative certificate for the word problem.

    A word can lie in the normal closure of the relator only if its exponent
    vector is an integer multiple of the relator's.  Returns True when that
    necessary condition FAILS (so ``w`` is certainly nontrivial).
    """
    rvec = words.exponent_vector(pres.relator, pres.alphabet.size)
    wvec = words.exponent_vector(w, pres.alphabet.size)
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


def restrict_to_subalphabet(pres, gens):
    """Presentation of ``<gens | relator>`` with generators reindexed 0..k-1.

    ``gens`` must contain the relator's support.  Returns the new
    presentation plus the id maps in both directions.
    """
    gens = tuple(sorted(gens))
    old_to_new = {g: i for i, g in enumerate(gens)}
    if not words.support(pres.relator) <= set(gens):
        raise UnknownGenerator("subalphabet misses relator letters")
    sub_alphabet = Alphabet(tuple(pres.alphabet.names[g] for g in gens))
    relator = tuple(
        words.letter_sign(lt) * (old_to_new[words.letter_gen(lt)] + 1)
        for lt in pres.relator)
    return OneRelatorPresentation(sub_alphabet, relator), old_to_new, gens


def map_word(w, old_to_new):
    """Reindex a word's generator ids through ``old_to_new``."""
    return tuple(
        words.letter_sign(lt) * (old_to_new[words.letter_gen(lt)] + 1)
        for lt in w)
