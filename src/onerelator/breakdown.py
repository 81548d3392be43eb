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

Subscripted words ("swords") are tuples of ``(gen_id, subscript, sign)``
triples; they only exist inside hierarchy computations and are converted to
ordinary words over a concrete sub-alphabet when recursing.
"""

from dataclasses import dataclass, field

from . import words
from .errors import PreconditionViolated
from .presentations import OneRelatorPresentation
from .words import Alphabet


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


def sword_invert(u):
    return tuple((g, i, -s) for g, i, s in reversed(u))


def sword_shift(u, delta):
    """Image under the stable-letter conjugation ``g_i -> g_{i+delta}``."""
    return tuple((g, i + delta, s) for g, i, s in u)


def sword_pairs(u):
    return frozenset((g, i) for g, i, _ in u)


def sword_subscript_span(u):
    if not u:
        return 0
    subs = [i for _, i, _ in u]
    return max(subs) - min(subs)


def sub_alphabet_for(pairs, base_alphabet):
    """Concrete alphabet for a set of ``(gen, subscript)`` pairs.

    Pairs are ordered by ``(gen, subscript)``; names follow the
    ``name_subscript`` convention so hierarchy nodes stay readable.
    """
    ordered = tuple(sorted(pairs))
    names = tuple(f"{base_alphabet.names[g]}_{i}" for g, i in ordered)
    return Alphabet(names), {p: k for k, p in enumerate(ordered)}, ordered


def sword_to_word(u, pair_index):
    return tuple(s * (pair_index[(g, i)] + 1) for g, i, s in u)


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
    rotation: int               # rotation of the relator used by the scan

    def pivot_range(self):
        return self.ranges[self.pivot]


@dataclass(frozen=True)
class EmbeddingData:
    src_a: int
    src_b: int
    alpha: int                  # exponent sum of src_a in the relator
    beta: int                   # exponent sum of src_b in the relator
    image_presentation: OneRelatorPresentation
    x_gen: int                  # id of x in the image alphabet
    y_gen: int                  # id of y in the image alphabet
    gen_map: dict               # other old gen id -> image gen id
    substitution: dict = field(repr=False)  # old gen id -> image word

    def translate(self, w):
        """Image of a query word under the embedding, freely reduced."""
        out = []
        for lt in w:
            img = self.substitution[words.letter_gen(lt)]
            if words.letter_sign(lt) < 0:
                img = words.invert(img)
            out.extend(img)
        return words.reduce(out)


@dataclass(frozen=True)
class BreakdownStep:
    kind: str                   # "base_free" | "base_single" | "zero" | "nonzero"
    order: int = 0              # |n| for a single-generator relator g^n
    zero: ZeroCaseData = None
    nonzero: EmbeddingData = None


# ---------------------------------------------------------------------------
# operations

def classify(pres):
    """Deterministic hierarchy classification of a full-support presentation.

    Ties are broken by smallest generator id: the stable letter is the least
    zero-exponent-sum generator, the embedding pair the two least ids.
    """
    sup = words.support(pres.relator)
    if sup != set(range(pres.alphabet.size)):
        raise PreconditionViolated(
            "relator must use every generator; run split_free_factor first")
    if len(sup) == 0:
        return BreakdownStep(kind="base_free")
    if len(sup) == 1:
        return BreakdownStep(kind="base_single", order=len(pres.relator))
    for t in sorted(sup):
        if words.exponent_sum(pres.relator, t) == 0:
            return BreakdownStep(kind="zero", zero=rewrite_zero_case(pres, t))
    a, b = sorted(sup)[:2]
    return BreakdownStep(kind="nonzero", nonzero=embed_nonzero_case(pres, a, b))


def rewrite_zero_case(pres, t, pivot=None):
    """Rewrite the relator over subscripted generators ``g_i = t^i g t^-i``.

    The scan starts at the least rotation beginning with a non-``t`` letter,
    with initial height equal to the ``t``-exponent sum of the rotated-out
    prefix, and drops every ``t`` letter while stamping each other letter
    with the current height.
    """
    r = pres.relator
    if words.exponent_sum(r, t) != 0:
        raise PreconditionViolated("stable letter must have exponent sum 0")
    sup = words.support(r)
    if t not in sup or len(sup) < 2:
        raise PreconditionViolated("stable letter must occur with company")
    rot = 0
    while words.letter_gen(r[rot]) == t:
        rot += 1
    height = words.exponent_sum(r[:rot], t)
    out = []
    for lt in r[rot:] + r[:rot]:
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
    return ZeroCaseData(stable=t, pivot=pivot, rewritten_relator=rewritten,
                        ranges=ranges, rotation=rot)


def substitute_back(u, t):
    """Undo subscripting: ``g_i -> t^i g t^-i``.  Oracle for round-trips."""
    out = []
    tlt = t + 1
    for g, i, s in u:
        out.extend([tlt] * i if i >= 0 else [-tlt] * (-i))
        out.append(s * (g + 1))
        out.extend([-tlt] * i if i >= 0 else [tlt] * (-i))
    return words.reduce(out)


def rewrite_word_to_subscripted(w, t):
    """Split off the stable letter from a query word.

    Returns ``(t_exp, sword)`` with ``w = image(sword) * t^t_exp`` after
    free reduction, where the image substitutes ``g_i = t^i g t^-i``.
    Subscripts are the running ``t``-heights of the scan.
    """
    height = 0
    out = []
    for lt in w:
        g = words.letter_gen(lt)
        if g == t:
            height += words.letter_sign(lt)
        else:
            out.append((g, height, words.letter_sign(lt)))
    return height, sword_reduce(tuple(out))


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


def fresh_names(alphabet, count):
    taken = set(alphabet.names)
    picked = []
    for c in "xyzwvutsrqponmlkjihgfedcba":
        if c not in taken:
            picked.append(c)
            taken.add(c)
            if len(picked) == count:
                return picked
    # fall back to decorated names when single letters run out
    k = 0
    while len(picked) < count:
        cand = f"x{k}"
        if cand not in taken:
            picked.append(cand)
            taken.add(cand)
        k += 1
    return picked


def embed_nonzero_case(pres, a, b):
    """Magnus embedding ``a -> y x^-beta, b -> x^alpha`` (others fixed).

    The image relator gets ``x``-exponent sum ``alpha*(-beta) + beta*alpha
    = 0``, so the zero-exponent rewriting applies next.  The substitution
    maps a free basis to a free basis of a subgroup, hence is injective,
    and a word is trivial iff its image is trivial in the image group.
    """
    alpha = words.exponent_sum(pres.relator, a)
    beta = words.exponent_sum(pres.relator, b)
    if alpha == 0 or beta == 0 or a == b:
        raise PreconditionViolated("embedding needs two distinct generators "
                                   "with nonzero exponent sums")
    xname, yname = fresh_names(pres.alphabet, 2)
    others = [g for g in range(pres.alphabet.size) if g not in (a, b)]
    image_alphabet = Alphabet(
        (xname, yname) + tuple(pres.alphabet.names[g] for g in others))
    x_gen, y_gen = 0, 1
    gen_map = {g: 2 + k for k, g in enumerate(others)}
    substitution = {g: (gen_map[g] + 1,) for g in others}
    substitution[a] = words.reduce(
        (y_gen + 1,) + tuple([-(x_gen + 1)] * beta if beta > 0
                             else [x_gen + 1] * (-beta)))
    substitution[b] = tuple([x_gen + 1] * alpha if alpha > 0
                            else [-(x_gen + 1)] * (-alpha))
    out = []
    for lt in pres.relator:
        img = substitution[words.letter_gen(lt)]
        if words.letter_sign(lt) < 0:
            img = words.invert(img)
        out.extend(img)
    _, core = words.cyclic_reduce(words.reduce(out))
    image_presentation = OneRelatorPresentation(image_alphabet, core)
    return EmbeddingData(src_a=a, src_b=b, alpha=alpha, beta=beta,
                         image_presentation=image_presentation,
                         x_gen=x_gen, y_gen=y_gen, gen_map=gen_map,
                         substitution=substitution)


def base_presentation(pres, zdata, u=(), extra_pairs=()):
    """Base presentation of a zero-case node, sized for a residue.

    The subscripted alphabet covers the rewritten relator, the residue
    sword ``u`` and ``extra_pairs``.  Returns the presentation, ``u`` as a
    word over it, and the ordered pair list backing the alphabet.
    """
    pairs = (sword_pairs(zdata.rewritten_relator) | sword_pairs(u)
             | frozenset(extra_pairs))
    alphabet, pair_index, ordered = sub_alphabet_for(pairs, pres.alphabet)
    relator = sword_to_word(zdata.rewritten_relator, pair_index)
    return (OneRelatorPresentation(alphabet, relator),
            sword_to_word(u, pair_index), ordered)
