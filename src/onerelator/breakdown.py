"""One step of the Magnus hierarchy.

A presentation whose relator touches every generator is classified into one
of three shapes:

* a single-generator relator (the cyclic base case),
* some generator ``t`` has exponent sum zero in the relator: the group is an
  HNN extension over a base group on subscripted generators
  ``g_i = t^i g t^-i``, and the relator rewrites to a strictly shorter word
  over those,
* every generator has nonzero exponent sum: an injective substitution
  ``a -> y x^-beta, b -> x^alpha`` lands the group in a fresh presentation
  where ``x`` has exponent sum zero, forcing the previous shape.

Every step works on a generator count (the rank) and a relator over ids
``0..rank-1``; generator names exist only where a hierarchy is printed.

Subscripted words ("swords") are tuples of ``(gen_id, subscript, sign)``
triples; they only exist inside hierarchy computations and are converted to
ordinary words over the base group's ids (:func:`base_word`) when recursing.
"""

from collections import Counter
from dataclasses import dataclass, field

from . import words
from .errors import PreconditionViolated


# ---------------------------------------------------------------------------
# subscripted words

def sword_reduce(raw):
    out = []
    for g, i, s in raw:
        if out and out[-1][0] == g and out[-1][1] == i and out[-1][2] == -s:
            out.pop()
        else:
            out.append((g, i, s))
    return tuple(out)


def sword_multiply(u, v):
    return sword_reduce(u + v)


def sword_shift(u, delta):
    """Image under the stable-letter conjugation ``g_i -> g_{i+delta}``."""
    return tuple((g, i + delta, s) for g, i, s in u)


def sword_subscript_span(u):
    if not u:
        return 0
    subs = [i for _, i, _ in u]
    return max(subs) - min(subs)


def word_to_sword(w, ordered_pairs):
    out = []
    for lt in w:
        g, i = ordered_pairs[words.letter_gen(lt)]
        out.append((g, i, words.letter_sign(lt)))
    return tuple(out)


# ---------------------------------------------------------------------------
# breakdown step data

@dataclass(frozen=True)
class ZeroCaseData:
    stable: int                 # generator t with exponent sum 0
    pivot: int                  # generator whose subscript range bounds the
                                # associated subgroups
    rewritten_relator: tuple    # sword, strictly shorter than the relator
    ranges: dict                # gen id -> (min subscript, max subscript)
    pairs: tuple                # the relator's (gen, subscript) pairs,
                                # sorted: base generator k is pairs[k]
    index: dict                 # pair -> base generator id
    base_relator: tuple         # rewritten_relator over the base ids

    def pivot_range(self):
        return self.ranges[self.pivot]


@dataclass(frozen=True)
class EmbeddingData:
    src_a: int
    src_b: int
    alpha: int                  # exponent sum of src_a in the relator
    beta: int                   # exponent sum of src_b in the relator
    image_relator: tuple        # over the same number of generators
    x_gen: int                  # id of x in the image
    y_gen: int                  # id of y in the image
    gen_map: dict               # other old gen id -> image gen id
    substitution: dict = field(repr=False)  # old gen id -> image word

    def translate(self, w, max_len=words.DEFAULT_MAX_WORD_LEN):
        """Image of a query word under the embedding, freely reduced;
        raises ResourceExhausted past ``max_len`` letters."""
        out = []
        for lt in w:
            img = self.substitution[words.letter_gen(lt)]
            if words.letter_sign(lt) < 0:
                img = words.invert(img)
            out.extend(img)
        return words.reduce(out, max_len)


@dataclass(frozen=True)
class BreakdownStep:
    kind: str                   # "base_free" | "base_single" | "zero" | "nonzero"
    order: int = 0              # |n| for a single-generator relator g^n
    zero: ZeroCaseData = None
    nonzero: EmbeddingData = None


# ---------------------------------------------------------------------------
# operations

def classify(rank, relator):
    """Deterministic hierarchy classification of a relator that uses every
    one of the ``rank`` generators.

    Ties are broken by smallest generator id: the stable letter is the least
    zero-exponent-sum generator, the embedding pair the two least ids.
    """
    sup = words.support(relator)
    if sup != set(range(rank)):
        raise PreconditionViolated(
            "relator must use every generator; split off the free part "
            "first (restrict_to_subalphabet)")
    if len(sup) == 0:
        return BreakdownStep(kind="base_free")
    if len(sup) == 1:
        return BreakdownStep(kind="base_single", order=len(relator))
    for t in sorted(sup):
        if words.exponent_sum(relator, t) == 0:
            return BreakdownStep(kind="zero",
                                 zero=rewrite_zero_case(relator, t))
    a, b = sorted(sup)[:2]
    return BreakdownStep(kind="nonzero",
                         nonzero=embed_nonzero_case(rank, relator, a, b))


def tietze_values(relator):
    """Value of each generator that occurs exactly once in the relator.

    From ``r = p h^e q`` the conjugate ``h^e q p`` is also trivial, so
    ``h = ((q p)^-1)^e``: a Tietze move deletes ``h`` and the relator, and
    the group is free on the other generators.  Returns ``{h: value}`` with
    each value a reduced word over those generators.
    """
    seen = Counter(words.letter_gen(lt) for lt in relator)
    out = {}
    for k, lt in enumerate(relator):
        g = words.letter_gen(lt)
        if seen[g] == 1:
            qp = words.reduce(relator[k + 1:] + relator[:k])
            out[g] = qp if lt < 0 else words.invert(qp)
    return out


def rewrite_zero_case(relator, t, pivot=None):
    """Rewrite the relator over subscripted generators ``g_i = t^i g t^-i``.

    The scan starts at the least rotation beginning with a non-``t`` letter,
    with initial height equal to the ``t``-exponent sum of the rotated-out
    prefix, and drops every ``t`` letter while stamping each other letter
    with the current height.  The base group is built here, once per node:
    its generators are the rewritten relator's sorted pairs.
    """
    if words.exponent_sum(relator, t) != 0:
        raise PreconditionViolated("stable letter must have exponent sum 0")
    sup = words.support(relator)
    if t not in sup or len(sup) < 2:
        raise PreconditionViolated("stable letter must occur with company")
    rot = 0
    while words.letter_gen(relator[rot]) == t:
        rot += 1
    height = words.exponent_sum(relator[:rot], t)
    out = []
    for lt in relator[rot:] + relator[:rot]:
        g = words.letter_gen(lt)
        if g == t:
            height += words.letter_sign(lt)
        else:
            out.append((g, height, words.letter_sign(lt)))
    rewritten = sword_reduce(tuple(out))
    if pivot is None:
        pivot = min(g for g in sup if g != t)
    if pivot == t or pivot not in {g for g, _, _ in rewritten}:
        raise PreconditionViolated("pivot must be a non-stable relator letter")
    # normalize to the relator copy whose pivot window starts at subscript 0:
    # queries enter the HNN form at level 0, so the base must own the
    # pivot's zero subscript
    delta = -min(i for g, i, _ in rewritten if g == pivot)
    if delta:
        rewritten = sword_shift(rewritten, delta)
    ranges = {}
    for g, i, _ in rewritten:
        lo, hi = ranges.get(g, (i, i))
        ranges[g] = (min(lo, i), max(hi, i))
    pairs = tuple(sorted({(g, i) for g, i, _ in rewritten}))
    index = {p: k for k, p in enumerate(pairs)}
    base_relator = tuple(s * (index[(g, i)] + 1) for g, i, s in rewritten)
    return ZeroCaseData(stable=t, pivot=pivot, rewritten_relator=rewritten,
                        ranges=ranges, pairs=pairs, index=index,
                        base_relator=base_relator)


def base_word(zdata, u):
    """A residue sword as a word over a zero node's base group.

    Base generator ``k < len(zdata.pairs)`` is ``zdata.pairs[k]``; the
    residue's pairs outside that window are numbered after it, in order of
    first occurrence, and are free generators (the relator misses them).
    Returns the word and the pairs of all base generators, window first:
    their count is the base group's rank for this residue.
    """
    index, n = zdata.index, len(zdata.pairs)
    outside = {}
    out = []
    for g, i, s in u:
        k = index.get((g, i))
        if k is None:
            k = outside.setdefault((g, i), n + len(outside))
        out.append(s * (k + 1))
    return tuple(out), zdata.pairs + tuple(outside)


def substitute_back(u, t):
    """Undo subscripting: ``g_i -> t^i g t^-i``.  Oracle for round-trips."""
    out = []
    tlt = t + 1
    for g, i, s in u:
        out.extend([tlt] * i if i >= 0 else [-tlt] * (-i))
        out.append(s * (g + 1))
        out.extend([-tlt] * i if i >= 0 else [tlt] * (-i))
    return words.reduce(out)


def hnn_syllables(w, t):
    """HNN query form: ``[sword, sign, sword, sign, ..., sword]``.

    Non-``t`` letters keep subscript 0; each ``t`` letter becomes an
    explicit ``+1``/``-1`` stable-letter syllable between sword chunks.
    """
    items = [()]
    buf = []
    for lt in w:
        g = words.letter_gen(lt)
        if g == t:
            items[-1] = sword_reduce(tuple(buf))
            buf = []
            items.append(words.letter_sign(lt))
            items.append(())
        else:
            buf.append((g, 0, words.letter_sign(lt)))
    items[-1] = sword_reduce(tuple(buf))
    return items


def embed_nonzero_case(rank, relator, a, b):
    """Magnus embedding ``a -> y x^-beta, b -> x^alpha`` (others fixed).

    The image relator gets ``x``-exponent sum ``alpha*(-beta) + beta*alpha
    = 0``, so the zero-exponent rewriting applies next.  The substitution
    maps a free basis to a free basis of a subgroup, hence is injective,
    and a word is trivial iff its image is trivial in the image group.
    """
    alpha = words.exponent_sum(relator, a)
    beta = words.exponent_sum(relator, b)
    if alpha == 0 or beta == 0 or a == b:
        raise PreconditionViolated("embedding needs two distinct generators "
                                   "with nonzero exponent sums")
    others = [g for g in range(rank) if g not in (a, b)]
    x_gen, y_gen = 0, 1
    gen_map = {g: 2 + k for k, g in enumerate(others)}
    substitution = {g: (gen_map[g] + 1,) for g in others}
    substitution[a] = words.reduce(
        (y_gen + 1,) + tuple([-(x_gen + 1)] * beta if beta > 0
                             else [x_gen + 1] * (-beta)))
    substitution[b] = tuple([x_gen + 1] * alpha if alpha > 0
                            else [-(x_gen + 1)] * (-alpha))
    out = []
    for lt in relator:
        img = substitution[words.letter_gen(lt)]
        if words.letter_sign(lt) < 0:
            img = words.invert(img)
        out.extend(img)
    _, core = words.cyclic_reduce(words.reduce(out))
    return EmbeddingData(src_a=a, src_b=b, alpha=alpha, beta=beta,
                         image_relator=core, x_gen=x_gen, y_gen=y_gen,
                         gen_map=gen_map, substitution=substitution)

