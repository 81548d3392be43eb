"""Decision procedures for one-relator groups.

Magnus-subgroup membership is decided by one recursion over the hierarchy
produced in :mod:`.breakdown`; the word problem is membership in the
subgroup on no generators, with witness ``()``:

* when the subset and the word's letters miss a relator generator, they
  are free on themselves (Freiheitssatz): the reduced word is a member
  exactly when it is over the subset, and then its own witness
  (``stats["free_exits"]`` counts the nodes this exit decides),
* a word whose exponent sums outside the subset are not one multiple of
  the relator's is refused next (:func:`.presentations.abelian_obstruction`,
  the recursion's one exponent-sum test, which every member passes),
* a subset holding every relator generator is settled right after that
  test: the full subset holds ``w``, its own witness, and any other goes
  to the free split below; every subset asked about below misses a
  relator letter, so it is free on itself (Freiheitssatz) and its witness,
  the unique reduced word over it, is what every rule below returns and a
  pinch shifts,
* a generator ``h`` that occurs once in the relator is eliminated by a
  Tietze move (one of the node's ``moves``, the least ``h`` outside the
  subset if there is one): the group is free on the other generators, so
  the image under substituting for ``h`` and freely reducing is the
  witness when it lies over the subset, and with ``h`` outside the subset
  no other image is a member; ``stats["eliminations"]`` counts the nodes
  it decides,
* free-factor generators split off as a free product, decided in one
  stack pass over the query's maximal runs that asks each active syllable
  once (:meth:`Solver._member_free_split`),
* a zero-exponent-sum generator gives an HNN extension whose base is a
  one-relator group on subscripted generators with a strictly shorter
  relator (:meth:`Solver._member_zero`); a query is cut at its stable
  letters and pinches ``t u t^-1`` (``u`` in an associated Magnus
  subgroup) are eliminated by rewriting ``u`` over the subgroup's free
  basis and shifting subscripts, in one left-to-right stack pass that
  tests each pinch at most once (:meth:`Solver._britton`); a residue over
  the subgroup's letters is its own witness (for a pinch: it misses the
  one excluded pivot letter); when the excluded letter occurs once in the
  base relator, the base group is free on the other letters, so every
  residue is a member with its image under that Tietze move as witness,
  and the pinch folds without a test (``stats["tietze_folds"]``); any
  other test (``stats["pinch_tests"]``), and the test of the final
  residue (``stats["residue_tests"]``), depends only on the base group,
  the residue and the subset (memoized); a pinch's witness is shifted
  through the fold table of the closing letter's sign,
* otherwise an injective substitution creates such a generator and maps
  the queried subset into a Magnus subgroup of the image, which the same
  recursion decides at the same depth (:meth:`Solver._member_nonzero`).

The recursion carries no generator names: a node is a rank and a
:class:`.breakdown.Node`, which is its relator over ids below the rank,
built once per relator with its support.  The node builds on first use,
and owns, everything else built from its relator: its exponent sums, its Tietze
moves, its zero node, its zero nodes on other pivots, its embeddings and
its free-part core, so a query that the Freiheitssatz exit decides at the
top builds none of them.  A zero node owns its base group's node and,
per sign of the stable letter that closes a pinch, one closing entry: the
excluded letter, a fold table (:class:`.breakdown.FoldTable`) and the
excluded letter's Tietze table, all built with it by
:func:`.breakdown.rewrite_zero_case`; an embedding owns its image's node.
Each edge maps a word through tables its owner built once: letter to
letter for the core's tables into and out of its support, the embedding's
table back from its image and the fold tables; letter to word, through
:func:`.words.substitute`, for a Tietze move, a zero node's Tietze table
and an embedding's substitution.  Every descent into a base group enters
it by one call of :func:`.breakdown.base_word`, which maps the residue and
picks the subset by a test of the letters to keep, and its witness comes
back by :func:`.breakdown.from_base`.  Each node shape has one path,
wherever the subset lies; a subset holding a zero node's stable letter
``t`` pulls its witness back as a tower of ``t``-conjugates (``t^i g
t^-i`` times a power of ``t``).  Names are made only in
:meth:`Solver._tree`, which names, prints and describes each node of the
document that ``hierarchy_tree`` returns in its one walk.

All procedures run under explicit budgets and raise
:class:`~onerelator.errors.ResourceExhausted` instead of guessing, naming
the depth, rank and relator of the innermost node the overrun left.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, islice

from . import breakdown, words
from .breakdown import _decode, base_word, from_base
from .errors import ResourceExhausted, UnknownGenerator
from .presentations import abelian_obstruction, make_presentation
from .textio import print_word
from .words import Alphabet


#: the solver's memo evicts its least recently used entry beyond this many
MEMO_ENTRIES = 1024

_MISSING = object()


@dataclass(frozen=True)
class SolverLimits:
    max_depth: int = 32
    max_word_len: int = words.DEFAULT_MAX_WORD_LEN

    def __post_init__(self):
        if min(self.max_depth, self.max_word_len) <= 0:
            raise ValueError("limits must be positive")


class Verdict(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


@dataclass(frozen=True)
class MembershipVerdict:
    witness: tuple  # word over the queried subset, None for a non-member

    @property
    def member(self):
        return self.witness is not None


class Solver:
    """Single-owner decision engine with one memo table.

    Both queries run through one recursion, :meth:`_member`; the word
    problem is membership on the empty subset.  Every descent returns the
    witness, a reduced word over the subset, or None for a non-member; the
    empty witness ``()`` is a member, so each test reads ``is None``.  A
    subset holding every letter of its node's relator is settled in
    :meth:`_member` right after the abelian test, so every subset below it
    is free.  Only :meth:`magnus_membership` wraps the answer, in a
    :class:`MembershipVerdict`.  A word from outside is reduced and checked
    once, by :func:`.words.validate_word`, on the way in.  The depth that
    ``max_depth`` bounds counts zero nodes, in queries and in the hierarchy
    walk alike: a base group is one below its zero node, and a free-part
    core or an embedding's image is at its node's depth.

    The memo holds two kinds of entry.  One is the node of each
    presentation's relator, keyed by ``(breakdown.Node, relator)``, so
    presentations that differ only in generator names share it; a hit is
    counted in ``stats["memo_hits"]``.  A top node enters the memo only
    once a query or the hierarchy walk has classified it (built its zero
    node or its free-part core), so a query decided at the top by the
    Freiheitssatz, abelian or Tietze exit adds no entry.  Everything below
    it, zero nodes on other pivots and embeddings too, is reached through
    its owner, never through the memo; a node is built by one solver and
    reached only by it, so an embedding is built under that solver's
    word-length cap.

    The other kind is a pinch answer.  A pinch folds through its zero
    node's fold table without a test when its residue misses the excluded
    letter (the residue is its own witness) or when the base relator has
    a Tietze move for that letter (the residue's image under it is the
    witness), a fold counted in ``stats["tietze_folds"]``.  Any other
    pinch test, and the base word of a zero node's residue, is a
    :meth:`_base_member` descent whose answer the memo keeps, keyed by the
    base group's node (a node is its relator), its rank, the residue, the
    subset and the depth; a pinch test counts in ``stats["pinch_tests"]``,
    the test of a final residue in ``stats["residue_tests"]``, and a hit
    of either also in ``stats["pinch_hits"]``.  The depth in the key means
    a hit stands for a computation under the same budgets, and a test that
    raised stores nothing, so verdicts, witnesses and
    :class:`~onerelator.errors.ResourceExhausted` do not depend on the
    solver's history.  The memo keeps at most :data:`MEMO_ENTRIES`
    entries, evicting the least recently used first, so a stream of
    distinct presentations runs in bounded memory.  Distinct instances are
    independent and may run in parallel.
    """

    def __init__(self, limits=None):
        self.limits = limits or SolverLimits()
        self._memo = {}
        self.stats = {"memo_hits": 0, "pinch_hits": 0, "nodes": 0,
                      "max_depth": 0, "eliminations": 0, "pinch_tests": 0,
                      "residue_tests": 0, "tietze_folds": 0, "free_exits": 0}

    # -- plumbing ----------------------------------------------------------

    def _bump(self, depth):
        self.stats["nodes"] += 1
        self.stats["max_depth"] = max(self.stats["max_depth"], depth)
        if depth > self.limits.max_depth:
            raise ResourceExhausted(
                f"hierarchy depth exceeds {self.limits.max_depth}",
                budget="max_depth", limit=self.limits.max_depth, depth=depth)

    def _store(self, key, value):
        self._memo[key] = value
        if len(self._memo) > MEMO_ENTRIES:
            del self._memo[next(iter(self._memo))]

    def _at_top(self, relator, walk, *args):
        """``walk(node, *args)`` on the node of a presentation's relator,
        the memo's or a new one.  After the walk, one that raised too, a
        classified node is stored as the most recently used entry."""
        key = (breakdown.Node, relator)
        node = self._memo.pop(key, None)
        if node is None:
            node = breakdown.Node(relator)
        else:
            self.stats["memo_hits"] += 1
        try:
            return walk(node, *args)
        finally:
            if node.classified:
                self._store(key, node)

    # -- public API --------------------------------------------------------

    def word_problem(self, pres, w):
        w = words.validate_word(pres.alphabet, w, self.limits.max_word_len)
        witness = self._at_top(pres.relator, self._member,
                               pres.alphabet.size, w, frozenset(), 0)
        return Verdict.NONTRIVIAL if witness is None else Verdict.TRIVIAL

    def magnus_membership(self, pres, w, subset):
        w = words.validate_word(pres.alphabet, w, self.limits.max_word_len)
        subset = frozenset(subset)
        if not subset <= set(range(pres.alphabet.size)):
            raise UnknownGenerator("subset contains ids outside the alphabet")
        return MembershipVerdict(self._at_top(
            pres.relator, self._member, pres.alphabet.size, w, subset, 0))

    def is_root(self, s, r, alphabet):
        """True iff ``r`` dies in ``<alphabet | s>``."""
        pres = make_presentation(alphabet, s)
        return self.word_problem(pres, r) is Verdict.TRIVIAL

    def hierarchy_tree(self, pres):
        """The hierarchy below ``pres`` as the document that ``onerel --json
        hierarchy`` prints: each node a dict with its ``case``
        (``base_single``, ``zero`` or ``nonzero``), ``alphabet``, printed
        ``relator``, the generators its relator misses as ``free_part``
        (when there are any) and ``children``, the one node below it.  A
        zero node adds its ``stable`` letter, ``pivot``, the subscript
        ``ranges`` of each generator in the rewritten relator, and that
        relator printed as ``rewritten``."""
        return self._at_top(pres.relator, self._tree, pres.alphabet.names, 0)

    # -- Britton reduction -------------------------------------------------

    def _britton(self, zdata, w, depth):
        """Britton-reduce ``w`` in one left-to-right stack pass: the residue
        as a list over subscripted letters, or None if a stable letter
        survives.

        ``w`` is cut at its stable letters ``t``, and each comes in with the
        chunk of subscript-0 letters after it.  The stack alternates words
        over subscripted letters and the stable letters between them, on a
        bottom 0 that closes nothing.  An incoming stable letter inverse to
        the one below the top word ``u`` closes a pinch, and the closing
        entry of its sign names the excluded letter (the pivot's top
        subscript for ``t u t^-1``, symmetrically for ``t^-1 u t``), the
        fold table and the Tietze table.  The image to fold is ``u`` when
        it misses the excluded letter (its own witness), else its image
        under the Tietze table if there is one (the base group is free on
        the other letters), else its witness from a :meth:`_base_member`
        test.  With an image, both are popped, and the image shifted
        through the fold table, then the chunk, are pushed onto the word
        below, under the word-length cap; without one, the letter and its
        chunk go on top.  A word below the top changes only at its seam
        with a push, so a fold costs the letters it pushes, each stable
        letter costs at most one membership test, and no pinch is left.
        """
        t, cap = zdata.stable + 1, self.limits.max_word_len
        cuts = [k for k, lt in enumerate(w) if abs(lt) == t] + [len(w)]
        out = [0, list(w[:cuts[0]])]
        for k, end in zip(cuts, cuts[1:]):
            lt, u = w[k], w[k + 1:end]
            if out[-2] == -lt:
                top = out[-1]
                excluded, table, tietze = zdata.close[lt < 0]
                if excluded not in top and -excluded not in top:
                    image = top
                elif tietze is not None:
                    self.stats["tietze_folds"] += 1
                    image = words.substitute(top, tietze, cap)
                else:
                    self.stats["pinch_tests"] += 1
                    image = self._base_member(
                        zdata, *base_word(zdata, top, excluded.__ne__), depth)
                if image is not None:
                    del out[-2:]
                    # the folded image and the chunk may cancel: each is pushed
                    words.push(out[-1], tuple(map(table.__getitem__, image)),
                               cap)
                    words.push(out[-1], u, cap)
                    continue
            out += (lt, list(u))
        return out[1] if len(out) == 2 else None

    def _base_member(self, zdata, word, ids, subset, depth):
        """Membership of a residue, given as its :func:`.breakdown.base_word`
        ``word``, ``ids`` and ``subset``, in the zero node's base group, in
        the subgroup on the base ids ``subset``; the witness comes back over
        the residue's letter ids.  The descent's answer is memoized under
        the depth it runs at; a descent that raises stores nothing.
        """
        key = (zdata.base, len(ids), word, subset, depth + 1)
        witness = self._memo.pop(key, _MISSING)
        if witness is _MISSING:
            witness = self._member(*key)
        else:
            self.stats["pinch_hits"] += 1
        self._store(key, witness)
        return None if witness is None else from_base(ids, witness)

    # -- Magnus subgroup membership ---------------------------------------

    def _member(self, node, rank, w, subset, depth):
        try:
            self._bump(depth)
            for g in node.support - subset:
                if g + 1 not in w and -g - 1 not in w:
                    # the subset and w miss g: free on their letters
                    self.stats["free_exits"] += 1
                    return w if all(words.letter_gen(lt) in subset
                                    for lt in w) else None
            if abelian_obstruction(rank, node.exponents, w, subset):
                return None
            if node.support <= subset:
                return w if len(subset) == rank else self._member_free_split(
                    node, w, subset, depth)
            if node.moves:
                # the least move, preferring an h outside the subset: the
                # group is free on the generators other than h, so an image
                # over the subset is the witness, and with h outside the
                # subset no other image is a member
                h, move = next((m for m in node.moves if m[0] not in subset),
                               node.moves[0])
                try:
                    image = words.substitute(w, move, self.limits.max_word_len)
                except ResourceExhausted:
                    if h not in subset:
                        raise
                else:
                    over = all(words.letter_gen(lt) in subset for lt in image)
                    if over or h not in subset:
                        self.stats["eliminations"] += 1
                        return image if over else None

            if len(node.support) < rank:
                return self._member_free_split(node, w, subset, depth)

            if rank == 1:
                # a subset holding the relator's letter was settled above,
                # so the abelian test made w a power of the relator
                return ()
            zd = node.zero
            if zd is not None:
                return self._member_zero(node, rank, w, subset, zd, depth)
            return self._member_nonzero(node, rank, w, subset, depth)
        except ResourceExhausted as exc:
            # an overrun inside words names no node: this is the innermost
            # node it leaves
            if exc.relator is None:
                exc.depth, exc.rank, exc.relator = depth, rank, node
            raise

    def _member_free_split(self, node, w, subset, depth):
        """Membership in ``<active | relator> * F(rest)``, in one stack pass
        over the maximal runs of ``w``: a run merges into a top syllable of
        its own factor.

        An active syllable is asked once, for membership in the subset's
        active part, and an empty witness drops it as trivial.  A part
        holding every active generator is not free, so there the word
        problem is asked and a nontrivial syllable is its own witness.  A
        syllable without a witness leaves the stack only after all above
        it, so above one only the word problem is asked.  ``w`` is a member
        iff every syllable left has a witness.
        """
        core, into, out = node.core
        rank = len(node.support)
        sub_active = frozenset(into[g + 1] - 1 for g in subset
                               if g + 1 in into)
        full = len(sub_active) == rank
        cap = self.limits.max_word_len
        # (is_active, word, witness), the witness None from the first
        # syllable that lacks one upwards
        syls = []
        for is_act, run in groupby(w, into.__contains__):
            u = tuple(run)
            if syls and syls[-1][0] == is_act:
                u = words.multiply(syls.pop()[1], u, cap)
            if not u:
                continue
            hope = not syls or syls[-1][2] is not None
            if not is_act:
                witness = u if words.support(u) <= subset else None
            else:
                found = self._member(
                    core, rank, tuple(map(into.__getitem__, u)),
                    sub_active if hope and not full else frozenset(), depth)
                if found == ():
                    continue
                witness = u if full else (
                    found and tuple(map(out.__getitem__, found)))
            syls.append((is_act, u, witness if hope else None))
        if syls and syls[-1][2] is None:
            return None
        return words.concat((witness for _, _, witness in syls), cap)

    def _member_zero(self, node, rank, w, subset, zd, depth):
        """Zero node with stable letter ``t``: Britton-reduce ``w`` times
        ``t^-d``, ``d`` its ``t``-exponent sum, and ask its base word.

        Without ``t`` the subset keeps its subscript-0 letters, and the
        abelian test made ``d`` 0.  With ``t``, ``<t, S'>`` is a tower of
        ``t``-conjugates of ``S'`` times ``t^d``: the base keeps every
        subscript of ``S'``, a witness letter ``h_i`` pulls back to ``t^i h
        t^-i``, emitted as the steps ``t^(i - height) h`` between
        consecutive heights, and the pivot is an omitted generator so the
        tower sits inside both associated subgroups.
        """
        t, cap = zd.stable, self.limits.max_word_len
        d = words.exponent_sum(w, t)
        if t in subset:
            if zd.pivot in subset:
                zd = node._repivot(min(set(range(rank)) - subset))
            keep = lambda a: _decode(zd.rank, a)[0] in subset
        else:
            # the subscript-0 letters are the plain letters 1..rank
            keep = lambda a: a - 1 in subset
        if d:
            w = words.multiply(w, words.power((t + 1,), -d, cap), cap)
        residue = self._britton(zd, w, depth)
        if residue is None:
            return None
        if all(keep(abs(lt)) for lt in residue):
            # the subset misses a letter of the base relator, so it is free
            # and a residue over its letters is its own witness
            witness = tuple(residue)
        else:
            self.stats["residue_tests"] += 1
            witness = self._base_member(
                zd, *base_word(zd, residue, keep), depth)
        if witness is None or t not in subset:
            return witness
        out, height = [], 0
        for lt in witness:
            h, i = _decode(zd.rank, abs(lt))
            out += [t + 1 if i > height else -t - 1] * abs(i - height)
            out.append(h + 1 if lt > 0 else -h - 1)
            height = i
        out += [t + 1 if d > height else -t - 1] * abs(d - height)
        return words.reduce(out, cap)

    def _member_nonzero(self, node, rank, w, subset, depth):
        """Nonzero node: ``a -> y x^-beta, b -> x^alpha`` with ``a`` the
        least omitted generator and ``b`` the next, or the least subset
        generator when only ``a`` is omitted.

        ``<subset>`` maps into the image's Magnus subgroup ``M`` on the
        images of the subset (``x`` for ``b``).  ``y`` survives in the
        image relator, so ``M`` is free, and ``w`` lies in ``<subset>`` iff
        its image has a witness in ``M``.  With ``b`` in the subset ``S``,
        the image group is ``G *_{b = x^alpha} <x>``, where ``<S - b, x>``
        meets ``G`` in ``<S>``; the witness being unique, each maximal
        ``x``-run is a power ``x^(alpha j)``, and pulls back to ``b^j``.
        """
        omitted = sorted(set(range(rank)) - subset)
        a = omitted[0]
        b = omitted[1] if len(omitted) > 1 else min(subset)
        cap = self.limits.max_word_len
        emb = node._embedding(a, b, cap)
        wprime = words.substitute(w, emb.substitution, cap)
        # x is the image's generator 0
        magnus = frozenset(emb.gen_map.get(s, 0) for s in subset)
        witness = self._member(emb.image, rank, wprime, magnus, depth)
        if witness is None:
            return None
        parts = []
        for is_x, run in groupby(witness, lambda lt: abs(lt) == 1):
            run = tuple(run)
            if not is_x:
                parts.append(tuple(map(emb.back.__getitem__, run)))
                continue
            # the witness is reduced, so a run of x letters has one sign
            e = words.letter_sign(run[0]) * len(run)
            parts.append(words.power((b + 1,), e // emb.alpha, cap))
        return words.concat(parts, cap)

    # -- hierarchy tree ----------------------------------------------------

    def _tree(self, node, names, depth):
        """The document of the hierarchy below ``<names | node>``:
        the one place where the generators of base groups and embedding
        images get names."""
        free_part = [n for g, n in enumerate(names) if g not in node.support]
        if free_part:
            names = tuple(n for g, n in enumerate(names) if g in node.support)
            node = node.core[0]
        try:
            self._bump(depth)
            zd = node.zero
            emb = (node._embedding(0, 1, self.limits.max_word_len)
                   if zd is None and len(names) > 1 else None)
        except ResourceExhausted as exc:
            # the depth budget, or the image relator overran inside words,
            # at this node
            exc.depth, exc.rank, exc.relator = depth, len(names), node
            raise
        doc = {"case": "base_single", "alphabet": list(names),
               "relator": print_word(node, Alphabet(names)),
               "children": []}
        if free_part:
            doc["free_part"] = free_part
        if emb is not None:
            child_names = fresh_names(names, 2) + [
                names[g] for g in sorted(emb.gen_map)]
            child = self._tree(emb.image, child_names, depth)
            doc["case"] = "nonzero"
        elif zd is not None:
            child = self._tree(zd.base,
                               [f"{names[g]}_{i}" for g, i in zd.pairs],
                               depth + 1)
            # pairs are sorted, so a generator's last subscript is its
            # greatest
            ranges = {}
            for g, i in zd.pairs:
                ranges.setdefault(names[g], [i, i])[1] = i
            doc.update(case="zero", stable=names[zd.stable],
                       pivot=names[zd.pivot], ranges=ranges,
                       rewritten=child["relator"])
        else:
            return doc
        doc["children"].append(child)
        return doc


def fresh_names(names, count):
    """The first ``count`` names outside ``names`` among ``x, y, z, w, v,
    ..., a`` and then ``x0, x1, ...``: the generators an embedding adds."""
    pool = chain("xyzwvutsrqponmlkjihgfedcba",
                 (f"x{k}" for k in range(len(names) + count)))
    return list(islice((n for n in pool if n not in names), count))

