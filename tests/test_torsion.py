"""Negative verdicts on torsion relators, checked by Dehn's algorithm.

For ``r = s^n`` with ``n >= 2``, cyclically reduced, Newman's spelling
theorem (B. B. Newman, "Some results on one-relator groups", Bull. AMS 74,
1968; Lyndon-Schupp, *Combinatorial Group Theory*, IV.5) says: a nonempty
freely reduced word that is trivial in ``<a, b | r>`` contains a piece of a
cyclic permutation of ``r`` or ``r^-1`` longer than ``(k-1)/k`` of it,
where ``r = q^k`` with ``q`` not a proper power.  Replacing that piece by
the inverse of its complement shortens the word, so repeating the
replacement decides the word problem exactly, in both directions.  The
check below shares no code with the solver.
"""

import random
import time

from onerelator.presentations import make_presentation
from onerelator.solver import Solver, Verdict
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
SEED = 20261020
LETTERS = (1, -1, 2, -2)


def inverse(w):
    return tuple(-x for x in reversed(w))


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def dehn_trivial(r, w):
    """True iff ``w`` is trivial in ``<a, b | r>``, for a cyclically
    reduced proper power ``r``."""
    m = len(r)
    root = next(r[:d] for d in range(1, m + 1)
                if m % d == 0 and r[:d] * (m // d) == r)
    assert len(root) < m, "r must be a proper power"
    # pieces longer than (k-1)|q|, with q = root and r = q^k, k >= 2
    shortest = m - len(root) + 1
    replacement = {}
    for rel in (r, inverse(r)):
        for i in range(m):
            c = rel[i:] + rel[:i]
            for n in range(shortest, m + 1):
                replacement[c[:n]] = inverse(c[n:])
    w = free_reduce(w)
    while w:
        found = next(((i, n) for i in range(len(w))
                      for n in range(min(m, len(w) - i), shortest - 1, -1)
                      if w[i:i + n] in replacement), None)
        if found is None:
            return False
        i, n = found
        w = free_reduce(w[:i] + replacement[w[i:i + n]] + w[i + n:])
    return True


def random_reduced(rng, length):
    w = []
    while len(w) < length:
        x = rng.choice(LETTERS)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def random_torsion_relator(rng):
    """``s^n`` with ``|s|`` 2-8 over a, b, cyclically reduced, ``n`` 2-4."""
    while True:
        s = random_reduced(rng, rng.randint(2, 8))
        if s[0] != -s[-1]:
            return s * rng.randint(2, 4)


def product_of_conjugates(rng, r):
    out = ()
    for _ in range(rng.randint(1, 3)):
        c = random_reduced(rng, rng.randint(0, 3))
        out += c + (r if rng.random() < 0.5 else inverse(r)) + inverse(c)
    return free_reduce(out)


def perturbed(rng, w):
    """``w`` with one letter changed, dropped or inserted."""
    k = rng.randrange(len(w) + 1)
    op = rng.randrange(3) if w else 2
    if op == 0 and k < len(w):
        return free_reduce(w[:k] + (rng.choice(
            [x for x in LETTERS if x != w[k]]),) + w[k + 1:])
    if op == 1 and k < len(w):
        return free_reduce(w[:k] + w[k + 1:])
    return free_reduce(w[:k] + (rng.choice(LETTERS),) + w[k:])


def torsion_queries(rng, count):
    """``(relator, word)`` pairs: products of conjugates of the relator,
    perturbed products and random words, in equal parts."""
    for q in range(count):
        r = random_torsion_relator(rng)
        kind = q % 3
        if kind == 0:
            w = product_of_conjugates(rng, r)
        elif kind == 1:
            w = perturbed(rng, product_of_conjugates(rng, r))
        else:
            w = random_reduced(rng, rng.randint(1, 24))
        yield r, w


def test_dehn_check_on_known_words():
    # <a, b | (ab)^2>: abab and its conjugates die, ab and ba^-1 do not
    r = (1, 2, 1, 2)
    assert dehn_trivial(r, r)
    assert dehn_trivial(r, (2, 1, 2, 1))
    assert dehn_trivial(r, (-1, -2, -1, -2))
    assert dehn_trivial(r, (2, 2, 1, 2, 1, -2))
    assert dehn_trivial(r, (1, 2, 1, 2, -2, -1, -2, -1))
    assert not dehn_trivial(r, (1, 2))
    assert not dehn_trivial(r, (2, -1))
    assert not dehn_trivial(r, (1,))
    # (ab)^-1 = ab in it, so ab ab = 1 but ab ba is not
    assert not dehn_trivial(r, (1, 2, 2, 1))
    # <a, b | a^3>: a^3 and b a^-3 b^-1 die, a^2 and the commutator do not
    r = (1, 1, 1)
    assert dehn_trivial(r, (2, -1, -1, -1, -2))
    assert not dehn_trivial(r, (1, 1))
    assert not dehn_trivial(r, (1, 2, -1, -2))
    assert dehn_trivial(r, ())


def test_torsion_verdicts_agree_with_dehns_algorithm():
    """600 word problems on <a, b | s^n>, |s| 2-8 and n 2-4: every
    verdict, trivial and nontrivial alike, is the one Dehn's algorithm
    gives.  Budget: 10 s of CPU."""
    solver = Solver()
    verdicts = []
    t0 = time.process_time()
    for r, w in torsion_queries(random.Random(SEED), 600):
        expect = dehn_trivial(r, w)
        verdict = solver.word_problem(make_presentation(AB, r), w)
        assert (verdict is Verdict.TRIVIAL) == expect, (r, w)
        verdicts.append(expect)
    elapsed = time.process_time() - t0
    # both verdicts are checked, each on a fair share of the draw
    assert 200 <= sum(verdicts) <= 400
    assert elapsed < 10
