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

Inside a zero node of rank ``rank`` the subscripted letter ``g_i`` is the
letter id ``1 + g + rank*z(i)``, where ``z`` zigzags the subscript
(``z(i) = 2i`` for ``i >= 0``, ``-2i-1`` otherwise), so words over
subscripted letters are ordinary :mod:`.words` words and ``g_0`` is the
plain letter of ``g``.  :func:`base_word` renumbers such a word onto the
base group's ids when recursing.
"""

from collections import Counter
from dataclasses import dataclass, field

from . import words
from .errors import PreconditionViolated


# ---------------------------------------------------------------------------
# subscripted letters (private: they run once per letter)

def _encode(rank, g, i):
    """Letter id of ``g_i``."""
    return 1 + g + rank * (2 * i if i >= 0 else -2 * i - 1)


def _decode(rank, a):
    """``(g, i)`` of the letter id ``a > 0``."""
    z, g = divmod(a - 1, rank)
    return g, (z // 2 if z % 2 == 0 else -(z + 1) // 2)


def _shift(rank, w, delta):
    """Image under the stable-letter conjugation ``g_i -> g_{i+delta}``."""
    out = []
    for lt in w:
        g, i = _decode(rank, abs(lt))
        a = _encode(rank, g, i + delta)
        out.append(a if lt > 0 else -a)
    return tuple(out)


# ---------------------------------------------------------------------------
# breakdown step data

@dataclass(frozen=True)
class ZeroCaseData:
    stable: int                 # generator t with exponent sum 0
    pivot: int                  # generator whose subscript range bounds the
                                # associated subgroups
    rank: int                   # the node's rank, which fixes letter ids
    pairs: tuple                # the rewritten relator's (gen, subscript)
                                # pairs, sorted: base generator k is pairs[k]
    ids: tuple                  # letter id of each base generator
    index: dict                 # letter id -> base generator id
    base_relator: tuple         # the rewritten relator over the base ids


@dataclass(frozen=True)
class EmbeddingData:
    alpha: int                  # exponent sum of a in the relator
    image_relator: tuple        # over the same number of generators, x is 0
    gen_map: dict               # other old gen id -> image gen id
    substitution: dict = field(repr=False)  # old gen id -> image word


# ---------------------------------------------------------------------------
# operations

def classify(rank, relator):
    """Deterministic hierarchy classification of a relator that uses every
    one of the ``rank >= 2`` generators (a single generator is the base
    case, which needs no classification).

    Returns the zero node on the least zero-exponent-sum generator, as
    :func:`rewrite_zero_case` builds it, or None for a nonzero node.  A
    nonzero node carries no embedding: callers build it with
    :func:`embed_nonzero_case` on the pair they need, the two least ids
    ``(0, 1)`` unless a subset keeps one of them.
    """
    if rank < 2:
        raise PreconditionViolated("a single generator is the base case")
    if words.support(relator) != set(range(rank)):
        raise PreconditionViolated(
            "relator must use every generator; split off the free part "
            "first (restrict_to_subalphabet)")
    for t in range(rank):
        if words.exponent_sum(relator, t) == 0:
            return rewrite_zero_case(relator, t)
    return None


def tietze_value(relator, subset=frozenset()):
    """Tietze move on the least generator that occurs exactly once in the
    relator, preferring one outside ``subset``.

    From ``r = p h^e q`` the conjugate ``h^e q p`` is also trivial, so
    ``h = ((q p)^-1)^e``: the move deletes ``h`` and the relator, and the
    group is free on the other generators.  Returns ``(h, value)`` with the
    value a reduced word over those generators, or None when no generator
    occurs once.
    """
    seen = Counter(words.letter_gen(lt) for lt in relator)
    h = min((g for g, n in seen.items() if n == 1),
            key=lambda g: (g in subset, g), default=None)
    if h is None:
        return None
    k = next(k for k, lt in enumerate(relator) if words.letter_gen(lt) == h)
    qp = words.reduce(relator[k + 1:] + relator[:k])
    return h, (qp if relator[k] < 0 else words.invert(qp))


def rewrite_zero_case(relator, t, pivot=None):
    """Rewrite the relator over subscripted generators ``g_i = t^i g t^-i``.

    The scan starts at the least rotation beginning with a non-``t`` letter,
    with initial height equal to the ``t``-exponent sum of the rotated-out
    prefix, and drops every ``t`` letter while stamping each other letter
    with the current height.  The base group is built here, once per node:
    its generators are the rewritten relator's sorted pairs.  The relator
    uses every generator, so its rank is one more than its largest id.
    """
    if words.exponent_sum(relator, t) != 0:
        raise PreconditionViolated("stable letter must have exponent sum 0")
    sup = words.support(relator)
    if t not in sup or len(sup) < 2:
        raise PreconditionViolated("stable letter must occur with company")
    rank = max(sup) + 1
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
            out.append(words.letter_sign(lt) * _encode(rank, g, height))
    rewritten = words.reduce(out)
    if pivot is None:
        pivot = min(g for g in sup if g != t)
    heights = [i for g, i in (_decode(rank, abs(lt)) for lt in rewritten)
               if g == pivot]
    if not heights:
        raise PreconditionViolated("pivot must be a non-stable relator letter")
    # normalize to the relator copy whose pivot window starts at subscript 0:
    # queries enter the HNN form at level 0, so the base must own the
    # pivot's zero subscript
    rewritten = _shift(rank, rewritten, -min(heights))
    pairs = tuple(sorted({_decode(rank, abs(lt)) for lt in rewritten}))
    ids = tuple(_encode(rank, g, i) for g, i in pairs)
    index = {a: k for k, a in enumerate(ids)}
    base_relator = tuple(index[lt] + 1 if lt > 0 else -index[-lt] - 1
                         for lt in rewritten)
    return ZeroCaseData(stable=t, pivot=pivot, rank=rank, pairs=pairs,
                        ids=ids, index=index, base_relator=base_relator)


def base_word(zdata, u):
    """A residue word as a word over a zero node's base group.

    Base generator ``k < len(zdata.ids)`` is the letter ``zdata.ids[k]``;
    the residue's letters outside that window are numbered after it, in
    order of first occurrence, and are free generators (the relator misses
    them).  Returns the word and the letter ids of all base generators,
    window first: their count is the base group's rank for this residue.
    """
    index, n = zdata.index, len(zdata.ids)
    outside = {}
    out = []
    for lt in u:
        a = abs(lt)
        k = index.get(a)
        if k is None:
            k = outside.setdefault(a, n + len(outside))
        out.append(k + 1 if lt > 0 else -k - 1)
    return tuple(out), zdata.ids + tuple(outside)


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
    # x is id 0 and y id 1
    gen_map = {g: 2 + k for k, g in enumerate(others)}
    substitution = {g: (gen_map[g] + 1,) for g in others}
    substitution[a] = words.reduce(
        (2,) + tuple([-1] * beta if beta > 0 else [1] * (-beta)))
    substitution[b] = tuple([1] * alpha if alpha > 0 else [-1] * (-alpha))
    core = words.cyclic_reduce(words.substitute(relator, substitution))
    return EmbeddingData(alpha=alpha, image_relator=core, gen_map=gen_map,
                         substitution=substitution)

