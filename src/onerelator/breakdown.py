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
base group's ids and picks the subset a descent asks for; :func:`from_base`
renumbers back.

Each relator the hierarchy reaches is a :class:`Node`, a tuple that is
its relator, built once with its support; everything else built from a
relator is built by its node on first use and kept there: its exponent
sums, its Tietze moves, its zero node, the zero nodes on other pivots,
its embeddings and its free-part core.  A zero node owns its base group's
node and one closing entry per sign of the stable letter that closes its
pinches: the excluded letter, its fold table (:class:`FoldTable`) and its
Tietze table; an embedding owns its image's node.  Every word map, a
Tietze move or an embedding's substitution too, is a table from signed
letter to reduced word, built once and applied by :func:`.words.substitute`.
"""

from dataclasses import dataclass, field
from functools import cached_property

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


class FoldTable(dict):
    """Signed letter -> the letter of its image under the conjugation
    ``g_i -> g_{i+delta}``: a zero node's pinches fold through the table
    in the closing entry of the stable letter that closes them, built with
    the zero node (:func:`rewrite_zero_case`).  A letter enters on its
    first lookup when its subscript lies in ``lo..hi``, the zero node's
    window widened by one each way, so the table's size is fixed by its
    zero node; any other letter is shifted on each lookup."""

    __slots__ = ("rank", "delta", "lo", "hi")

    def __init__(self, rank, delta, lo, hi):
        self.rank, self.delta, self.lo, self.hi = rank, delta, lo, hi

    def __missing__(self, lt):
        g, i = _decode(self.rank, abs(lt))
        b = _encode(self.rank, g, i + self.delta)
        if self.lo <= i <= self.hi:
            self[abs(lt)], self[-abs(lt)] = b, -b
        return b if lt > 0 else -b


# ---------------------------------------------------------------------------
# hierarchy nodes

class Node(tuple):
    """A relator of the hierarchy, as a tuple, with everything built from
    it, built once per relator.

    The relator is cyclically reduced, as every relator in the hierarchy
    is: a presentation stores its cyclically reduced core, and the zero-case
    rewriting, the embedding and the restriction to the support keep that.
    A node has no rank, since a base group's residue may bring free
    generators beyond the relator's ids.  It is built with its ``support``,
    the generator ids of the relator, and builds the rest on first use and
    keeps it (``exponents``, ``moves``, ``zero`` and ``core`` are cached
    properties), so a top node decided from its support alone builds
    nothing else:

    * ``exponents``: the exponent sums of ids ``0..max(support)``;
    * ``moves``: the Tietze moves, one ``(h, {h: v, h^-1: v^-1})`` per
      generator ``h`` that occurs once, in increasing ``h``.  From ``r = p
      h^e q`` the rotation ``h^e q p`` is trivial too, so ``v = ((q
      p)^-1)^e``, and ``q p``, a piece of a cyclically reduced word's
      rotation, is reduced;
    * ``zero``: for a relator over ids ``0..k-1``, the zero node
      (:func:`rewrite_zero_case`) on the least generator of exponent sum
      0, or None for a nonzero node;
    * :meth:`_repivot`: a zero node's zero nodes on other pivots;
    * :meth:`_embedding`: a nonzero node's embeddings
      (:func:`embed_nonzero_case`), by pair ``(a, b)``;
    * ``core``: ``(core, into, out)``, the node of the relator with its
      support renumbered ``0..k-1`` in increasing order (the node itself
      when the support is ``0..k-1``), the table from each signed letter
      of the support to its core letter, and the table back.

    A zero node has no embedding and a nonzero node no pivot, so both
    live in one dict, keyed by pivot or by pair.
    """

    def __init__(self, _):
        # the tuple holds the relator, and the argument may be spent
        self.support = frozenset([a - 1 for a in set(map(abs, self))])
        self._steps = {}

    @cached_property
    def exponents(self):
        return words.exponent_vector(self, max(self.support) + 1)

    @cached_property
    def moves(self):
        r, moves = self, []
        for g in sorted(self.support):
            a = g + 1
            if r.count(a) + r.count(-a) == 1:
                k = r.index(a) if a in r else r.index(-a)
                qp = r[k + 1:] + r[:k]
                pq = words.invert(qp)
                moves.append((g, {a: qp, -a: pq} if r[k] < 0
                              else {a: pq, -a: qp}))
        return tuple(moves)

    @cached_property
    def zero(self):
        e = self.exponents
        return rewrite_zero_case(self, e.index(0)) if 0 in e else None

    def _repivot(self, pivot):
        """The zero node on the same stable letter and another pivot."""
        zd = self._steps.get(pivot)
        if zd is None:
            zd = self._steps[pivot] = rewrite_zero_case(
                self, self.zero.stable, pivot)
        return zd

    def _embedding(self, a, b, max_len):
        """The embedding by ``(a, b)``, its image relator built under
        ``max_len``.  The cap is no part of the key: a node is built and
        reached by one solver, under one cap."""
        emb = self._steps.get((a, b))
        if emb is None:
            emb = self._steps[a, b] = embed_nonzero_case(
                len(self.support), self, a, b, max_len)
        return emb

    @cached_property
    def core(self):
        into = {}
        for k, g in enumerate(sorted(self.support), 1):
            into[g + 1], into[-g - 1] = k, -k
        relator = tuple(map(into.__getitem__, self))
        # a base group's relator uses ids 0..k-1 and is its own core
        core = self if relator == self else Node(relator)
        return core, into, {b: a for a, b in into.items()}

    @property
    def classified(self):
        """True once the hierarchy below the node has been entered: its
        zero node or its core is built."""
        return "zero" in self.__dict__ or "core" in self.__dict__


# ---------------------------------------------------------------------------
# breakdown step data

@dataclass(frozen=True, slots=True)
class ZeroCaseData:
    """The HNN form of a relator whose generator ``t`` has exponent sum 0.

    A pinch ``t^-s u t^s`` (``s`` = +-1) closes through the closing entry
    ``close[s < 0] = (excluded, fold, tietze)``.  It folds when ``u`` lies
    in the associated subgroup, on every base generator but ``excluded``,
    and the fold is ``u``'s witness shifted by ``-s`` through the
    :class:`FoldTable` ``fold``.  When the excluded letter occurs once in
    the base relator (it has a move in ``base.moves``), the base group is
    free on the other generators, so every ``u`` is a member, with ``u``
    under the Tietze move as its witness: ``tietze`` is that move's letter
    table over window letter ids (None without a move).  Both entries are
    built with the zero node.
    """

    stable: int                 # generator t with exponent sum 0
    pivot: int                  # generator whose subscript range bounds the
                                # associated subgroups
    rank: int                   # the node's rank, which fixes letter ids
    pairs: tuple                # the rewritten relator's (gen, subscript)
                                # pairs, sorted: base generator k is pairs[k]
    ids: tuple                  # letter id of each base generator
    index: dict                 # letter id -> base generator id
    base: Node                  # the rewritten relator over the base ids
    close: tuple = field(repr=False, compare=False)  # [s < 0]: (excluded
                                # letter, FoldTable, Tietze table or None)


@dataclass(frozen=True, slots=True)
class EmbeddingData:
    """The Magnus embedding of a nonzero node by a pair ``(a, b)``: the
    image's letters ``x`` and ``y`` are ids 0 and 1, and every other
    generator keeps its order after them."""

    alpha: int                  # exponent sum of a in the relator
    image: Node                 # over the same number of generators, x is 0
    gen_map: dict               # other old gen id -> image gen id
    back: dict = field(repr=False)  # signed image letter but x, y -> its
                                # old letter, pulling witnesses back
    substitution: dict = field(repr=False)  # old letter -> image word


# ---------------------------------------------------------------------------
# operations

def rewrite_zero_case(relator, t, pivot=None):
    """Rewrite the relator over subscripted generators ``g_i = t^i g t^-i``.

    One scan from height 0 drops each ``t`` letter, moving the height by
    its sign, and stamps every other letter with its sign, generator and
    height.  No rotation is needed, as another start only adds a constant
    to every height, which the shift to the pivot's least height 0 removes
    (queries enter at height 0, so the base owns the pivot's ``g_0``); nor
    a free reduction, as two stamps that cancel, at one height with no
    ``t`` between them, would be adjacent in the cyclically reduced
    relator.  The base group on the sorted pairs and the closing entry of
    each sign (its excluded letter, its fold table and that letter's
    Tietze table when the base relator has a move for it) are built from
    the stamps, once per node.  The relator uses every generator, so its
    rank is one more than its largest id.
    """
    if words.exponent_sum(relator, t) != 0:
        raise PreconditionViolated("stable letter must have exponent sum 0")
    sup = words.support(relator)
    if t not in sup or len(sup) < 2:
        raise PreconditionViolated("stable letter must occur with company")
    rank = max(sup) + 1
    if pivot is None:
        pivot = min(g for g in sup if g != t)
    stamps, height = [], 0
    for lt in relator:
        g = words.letter_gen(lt)
        if g == t:
            height += words.letter_sign(lt)
        else:
            stamps.append((words.letter_sign(lt), g, height))
    heights = [i for _, g, i in stamps if g == pivot]
    if not heights:
        raise PreconditionViolated("pivot must be a non-stable relator letter")
    low = min(heights)
    pairs = tuple(sorted({(g, i - low) for _, g, i in stamps}))
    ids = tuple(_encode(rank, g, i) for g, i in pairs)
    index = {a: k for k, a in enumerate(ids)}
    base_id = {pair: k + 1 for k, pair in enumerate(pairs)}
    base = Node(s * base_id[g, i - low] for s, g, i in stamps)
    # the stable letter of sign s closes pinches that shift by -s and
    # exclude the pivot's least (s > 0) or greatest subscript, whose
    # Tietze move, if any, is renumbered onto window letter ids
    lo, hi = min(i for _, i in pairs) - 1, max(i for _, i in pairs) + 1
    moves = dict(base.moves)
    close = tuple(
        (e, FoldTable(rank, delta, lo, hi),
         {s * e: from_base(ids, moves[g][s * (g + 1)]) for s in (1, -1)}
         if (g := index[e]) in moves else None)
        for delta, e in ((-1, pivot + 1),
                         (1, _encode(rank, pivot, max(heights) - low))))
    return ZeroCaseData(stable=t, pivot=pivot, rank=rank, pairs=pairs,
                        ids=ids, index=index, base=base, close=close)


def base_word(zdata, u, keep):
    """A residue word as a word over a zero node's base group.

    Base generator ``k < len(zdata.ids)`` is the letter ``zdata.ids[k]``;
    the residue's letters outside that window are numbered after it, in
    order of first occurrence, and are free generators (the relator misses
    them).  Returns the word, the letter ids of all base generators,
    window first (their count is the base group's rank for this residue),
    and the subset of base generators whose letter ids ``keep`` accepts.
    """
    index, n = zdata.index, len(zdata.ids)
    outside, out = {}, []
    for lt in u:
        a = abs(lt)
        k = index.get(a)
        if k is None:
            k = outside.setdefault(a, n + len(outside))
        out.append(k + 1 if lt > 0 else -k - 1)
    ids = zdata.ids + tuple(outside)
    return (tuple(out), ids,
            frozenset(k for k, a in enumerate(ids) if keep(a)))


def from_base(ids, word):
    """``word`` over base ids renumbered onto the letter ids ``ids``."""
    return tuple(ids[lt - 1] if lt > 0 else -ids[-lt - 1] for lt in word)


def embed_nonzero_case(rank, relator, a, b, max_len):
    """Magnus embedding ``a -> y x^-beta, b -> x^alpha`` (others fixed).

    The image relator gets ``x``-exponent sum ``alpha*(-beta) + beta*alpha
    = 0``, so the zero-exponent rewriting applies next.  The substitution
    maps a free basis to a free basis of a subgroup, hence is injective,
    and a word is trivial iff its image is trivial in the image group.  The
    image relator is built under ``max_len``.
    """
    alpha = words.exponent_sum(relator, a)
    beta = words.exponent_sum(relator, b)
    if alpha == 0 or beta == 0 or a == b:
        raise PreconditionViolated("embedding needs two distinct generators "
                                   "with nonzero exponent sums")
    # x is id 0 and y id 1
    gen_map, back, substitution = {}, {}, {}
    for k, g in enumerate((g for g in range(rank) if g not in (a, b)), 2):
        gen_map[g] = k
        substitution[g + 1], substitution[-g - 1] = (k + 1,), (-k - 1,)
        back[k + 1], back[-k - 1] = g + 1, -g - 1
    for g, v in ((a, (2,) + (-1 if beta > 0 else 1,) * abs(beta)),
                 (b, (1 if alpha > 0 else -1,) * abs(alpha))):
        substitution[g + 1], substitution[-g - 1] = v, words.invert(v)
    core = words.cyclic_reduce(words.substitute(relator, substitution,
                                                max_len))
    return EmbeddingData(alpha=alpha, image=Node(core), gen_map=gen_map,
                         back=back, substitution=substitution)

