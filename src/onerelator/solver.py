"""Decision procedures for one-relator groups.

The word problem and Magnus-subgroup membership are decided by recursion
over the hierarchy produced in :mod:`.breakdown`:

* free-factor generators split off as a free product,
* a zero-exponent-sum generator gives an HNN extension whose base is a
  one-relator group on subscripted generators with a strictly shorter
  relator; queries are put in stable-letter syllable form and pinches
  ``t u t^-1`` (``u`` in an associated Magnus subgroup) are eliminated by
  rewriting ``u`` over the subgroup's free basis and shifting subscripts,
* otherwise an injective substitution creates such a generator.

Membership queries return witnesses (words over the queried subset), which
is what makes the pinch elimination effective: the associated subgroups are
free on their generator subsets, so the witness is the unique normal form
and shifting its subscripts realizes the stable-letter conjugation.

Every descent into an HNN base group builds it with
:func:`.breakdown.base_presentation`, and every witness that comes back
through a tower of conjugates (``t^i g t^-i`` times a power of ``t``) is
assembled by :meth:`Solver._tower`.  Breakdown steps are memoized in one
table per solver.

All procedures run under explicit budgets and raise
:class:`~onerelator.errors.ResourceExhausted` instead of guessing.
"""

from dataclasses import dataclass, field
from enum import Enum

from . import breakdown, words
from .breakdown import (
    base_presentation,
    hnn_syllables,
    sword_multiply,
    sword_shift,
    sword_subscript_span,
    word_to_sword,
)
from .errors import ResourceExhausted, UnknownGenerator
from .presentations import (
    OneRelatorPresentation,
    abelian_obstruction,
    map_word,
    make_presentation,
    restrict_to_subalphabet,
    split_free_factor,
)


@dataclass(frozen=True)
class SolverLimits:
    max_depth: int = 32
    max_word_len: int = 2**20
    max_subscript_span: int = 4096

    def __post_init__(self):
        if min(self.max_depth, self.max_word_len,
               self.max_subscript_span) <= 0:
            raise ValueError("limits must be positive")


class Verdict(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: tuple = None  # word over the queried subset iff member


@dataclass
class HnnQueryForm:
    """Alternating ``[sword, +-1, sword, ..., sword]`` stable-letter form."""

    items: list

    @classmethod
    def from_word(cls, w, t):
        return cls(hnn_syllables(w, t))


@dataclass
class HierarchyNode:
    presentation: OneRelatorPresentation
    kind: str
    step: breakdown.BreakdownStep
    free_part: tuple = ()
    children: list = field(default_factory=list)


class Solver:
    """Single-owner decision engine with one breakdown memo table.

    The memo holds the results of ``breakdown.classify``,
    ``breakdown.rewrite_zero_case`` and ``breakdown.embed_nonzero_case``
    per function, exact normalized presentation and arguments; it never
    holds query answers.  Distinct instances are independent and may run in
    parallel.
    """

    def __init__(self, limits=None):
        self.limits = limits or SolverLimits()
        self._memo = {}
        self.stats = {"memo_hits": 0, "nodes": 0, "max_depth": 0}

    # -- plumbing ----------------------------------------------------------

    def _bump(self, depth):
        self.stats["nodes"] += 1
        self.stats["max_depth"] = max(self.stats["max_depth"], depth)
        if depth > self.limits.max_depth:
            raise ResourceExhausted(
                f"hierarchy depth exceeds {self.limits.max_depth}")

    def _reduce(self, raw):
        return words.reduce(raw, self.limits.max_word_len)

    def _mul(self, u, v):
        return words.multiply(u, v, self.limits.max_word_len)

    def _cached(self, fn, pres, *args):
        """``fn(pres, *args)`` for a ``breakdown`` step function, memoized."""
        key = (fn, pres.alphabet.names, pres.relator) + args
        if key in self._memo:
            self.stats["memo_hits"] += 1
            return self._memo[key]
        out = self._memo[key] = fn(pres, *args)
        return out

    # -- public API --------------------------------------------------------

    def word_problem(self, pres, w):
        w = self._reduce(w)
        words.validate_word(pres.alphabet, w)
        return self._wp(pres, w, 0)

    def magnus_membership(self, pres, w, subset):
        w = self._reduce(w)
        words.validate_word(pres.alphabet, w)
        subset = frozenset(subset)
        if not subset <= set(range(pres.alphabet.size)):
            raise UnknownGenerator("subset contains ids outside the alphabet")
        return self._member(pres, w, subset, 0)

    def is_root(self, s, r, alphabet):
        """True iff ``r`` dies in ``<alphabet | s>``."""
        pres = make_presentation(alphabet, s)
        return self.word_problem(pres, r) is Verdict.TRIVIAL

    def britton_reduce(self, pres, zdata, form):
        items = self._britton(pres, zdata, list(form.items), 0)
        return HnnQueryForm(items)

    def hierarchy_tree(self, pres):
        return self._tree(pres, 0)

    # -- word problem ------------------------------------------------------

    def _wp(self, pres, w, depth):
        self._bump(depth)
        if not w:
            return Verdict.TRIVIAL
        if abelian_obstruction(pres, w):
            return Verdict.NONTRIVIAL

        split = split_free_factor(pres)
        if split.free_part:
            active_pres, old_to_new, _ = restrict_to_subalphabet(
                pres, split.active)
            syls = self._fp_reduce(pres, w, set(split.active), active_pres,
                                   old_to_new, depth)
            return Verdict.TRIVIAL if not syls else Verdict.NONTRIVIAL

        step = self._cached(breakdown.classify, pres)
        if step.kind == "base_single":
            return (Verdict.TRIVIAL
                    if words.exponent_sum(w, 0) % step.order == 0
                    else Verdict.NONTRIVIAL)

        if step.kind == "zero":
            zd = step.zero
            if words.exponent_sum(w, zd.stable) != 0:
                return Verdict.NONTRIVIAL
            items = self._britton(pres, zd, hnn_syllables(w, zd.stable),
                                  depth)
            if len(items) > 1:
                return Verdict.NONTRIVIAL
            return self._wp_in_base(pres, zd, items[0], depth)

        emb = step.nonzero
        return self._wp(emb.image_presentation, emb.translate(w), depth)

    def _wp_in_base(self, pres, zdata, u, depth):
        """Decide a subscripted residue in the HNN base group."""
        if not u:
            return Verdict.TRIVIAL
        base, word, _ = base_presentation(pres, zdata, u)
        return self._wp(base, word, depth + 1)

    def _fp_reduce(self, pres, w, active_set, active_pres, old_to_new, depth):
        """Free-product normal form over <active | r> * F(rest).

        Returns the surviving syllables, each nontrivial in its factor; the
        word is trivial iff none survive.  Free-part syllables are reduced
        nonempty words in a free group, hence nontrivial as they stand.
        """
        syls = []
        for lt in w:
            is_act = words.letter_gen(lt) in active_set
            if syls and syls[-1][0] == is_act:
                syls[-1] = (is_act, syls[-1][1] + (lt,))
            else:
                syls.append((is_act, (lt,)))
        while True:
            keep = []
            for is_act, u in syls:
                if is_act and self._wp(active_pres, map_word(u, old_to_new),
                                       depth) is Verdict.TRIVIAL:
                    continue
                keep.append((is_act, u))
            merged = []
            for is_act, u in keep:
                if merged and merged[-1][0] == is_act:
                    prod = self._mul(merged[-1][1], u)
                    if prod:
                        merged[-1] = (is_act, prod)
                    else:
                        merged.pop()
                else:
                    merged.append((is_act, u))
            if merged == syls:
                return syls
            syls = merged

    # -- Britton reduction -------------------------------------------------

    def _britton(self, pres, zdata, items, depth):
        """Remove every stable-letter pinch from an HNN syllable form.

        ``t u t^-1`` with ``u`` in the lower associated subgroup (every
        generator but the pivot's top subscript) becomes the subscript-shift
        of ``u``'s free-basis witness; symmetrically for ``t^-1 u t``.  Each
        elimination deletes two stable letters, so this terminates.
        """
        lo, hi = zdata.pivot_range()
        while True:
            for sw in items[0::2]:
                if sword_subscript_span(sw) > self.limits.max_subscript_span:
                    raise ResourceExhausted(
                        "subscript span exceeds "
                        f"{self.limits.max_subscript_span}")
            for j in range(1, len(items) - 2, 2):
                if items[j] == -items[j + 2]:
                    up = items[j] == 1
                    exclude = (zdata.pivot, hi if up else lo)
                    res = self._assoc_member(pres, zdata, items[j + 1],
                                             exclude, depth)
                    if res.member:
                        shifted = sword_shift(res.witness, 1 if up else -1)
                        merged = sword_multiply(
                            sword_multiply(items[j - 1], shifted),
                            items[j + 3])
                        items[j - 1:j + 4] = [merged]
                        break
            else:
                return items

    def _assoc_member(self, pres, zdata, u, exclude_pair, depth):
        """Membership of a subscripted word in an associated subgroup.

        The subgroup is generated by every subscripted generator in play
        except ``exclude_pair``; the verdict's witness comes back as a sword
        over that basis.
        """
        res, ordered = self._base_member(pres, zdata, u,
                                         lambda p: p != exclude_pair, depth,
                                         (exclude_pair,))
        if not res.member:
            return res
        return MembershipVerdict(True, word_to_sword(res.witness, ordered))

    def _base_member(self, pres, zdata, u, keep, depth, extra_pairs=()):
        """Membership of a residue sword in the HNN base group.

        The subgroup is generated by the base generators whose
        ``(gen, subscript)`` pair satisfies ``keep``.  Returns the verdict,
        with its witness over the base alphabet, and the ordered pairs naming
        that alphabet.
        """
        base, word, ordered = base_presentation(pres, zdata, u, extra_pairs)
        subset = frozenset(k for k, p in enumerate(ordered) if keep(p))
        return self._member(base, word, subset, depth + 1), ordered

    def _tower(self, pieces, g, m):
        """Member verdict for ``prod g^i v g^-i`` over ``(i, v)`` in
        ``pieces``, times ``g^m``: a witness pulled back through a tower of
        ``g``-conjugates."""
        cap = self.limits.max_word_len
        parts = []
        for i, v in pieces:
            conj = words.power((g + 1,), i, cap)
            parts.append(words.concat([conj, v, words.invert(conj)], cap))
        parts.append(words.power((g + 1,), m, cap))
        return MembershipVerdict(True, words.concat(parts, cap))

    # -- Magnus subgroup membership ---------------------------------------

    def _member(self, pres, w, subset, depth):
        self._bump(depth)
        if subset == set(range(pres.alphabet.size)):
            return MembershipVerdict(True, w)
        if not w:
            return MembershipVerdict(True, ())

        split = split_free_factor(pres)
        if split.free_part:
            return self._member_free_split(pres, w, subset, split, depth)

        step = self._cached(breakdown.classify, pres)
        if step.kind == "base_single":
            # subset is empty here (the full subset returned above)
            if words.exponent_sum(w, 0) % step.order == 0:
                return MembershipVerdict(True, ())
            return MembershipVerdict(False)

        if step.kind == "zero":
            zd = step.zero
            if zd.stable not in subset:
                return self._member_zero_without_t(pres, zd, w, subset, depth)
            return self._member_zero_with_t(pres, w, subset, zd.stable, depth)

        omitted = sorted(set(range(pres.alphabet.size)) - subset)
        if len(omitted) >= 2:
            return self._member_nonzero_fixed(pres, w, subset, omitted, depth)
        return self._member_nonzero_omit_one(pres, w, subset, omitted[0],
                                             depth)

    def _member_free_split(self, pres, w, subset, split, depth):
        active_set = set(split.active)
        active_pres, old_to_new, old_gens = restrict_to_subalphabet(
            pres, split.active)
        new_to_old = {v: k for k, v in old_to_new.items()}
        syls = self._fp_reduce(pres, w, active_set, active_pres, old_to_new,
                               depth)
        sub_active = frozenset(old_to_new[g] for g in subset & active_set)
        sub_free = subset - active_set
        witness_parts = []
        for is_act, u in syls:
            if is_act:
                res = self._member(active_pres, map_word(u, old_to_new),
                                   sub_active, depth)
                if not res.member:
                    return MembershipVerdict(False)
                witness_parts.append(map_word(res.witness, new_to_old))
            else:
                if not words.support(u) <= sub_free:
                    return MembershipVerdict(False)
                witness_parts.append(u)
        return MembershipVerdict(
            True, words.concat(witness_parts, self.limits.max_word_len))

    def _member_zero_without_t(self, pres, zdata, w, subset, depth):
        t = zdata.stable
        if words.exponent_sum(w, t) != 0:
            return MembershipVerdict(False)
        items = self._britton(pres, zdata, hnn_syllables(w, t), depth)
        if len(items) > 1:
            return MembershipVerdict(False)
        res, ordered = self._base_member(
            pres, zdata, items[0], lambda p: p[0] in subset and p[1] == 0,
            depth, [(s, 0) for s in subset])
        if not res.member:
            return res
        witness = tuple(
            words.letter_sign(lt) * (ordered[words.letter_gen(lt)][0] + 1)
            for lt in res.witness)
        return MembershipVerdict(True, self._reduce(witness))

    def _member_zero_with_t(self, pres, w, subset, t, depth):
        """Stable letter ``t`` inside the subset.

        ``<t, S'>`` splits as conjugate tower by ``t``: every element is
        (word in the ``t``-conjugates of ``S'``) * ``t^d`` with ``d`` the
        ``t``-exponent sum.  The pivot is taken from the omitted generators
        so the tower sits inside both associated subgroups.
        """
        pivot = min(set(range(pres.alphabet.size)) - subset)
        zd = self._cached(breakdown.rewrite_zero_case, pres, t, pivot)
        d = words.exponent_sum(w, t)
        k = self._mul(w, words.power((t + 1,), -d, self.limits.max_word_len))
        items = self._britton(pres, zd, hnn_syllables(k, t), depth)
        if len(items) > 1:
            return MembershipVerdict(False)
        others = subset - {t}
        res, ordered = self._base_member(
            pres, zd, items[0], lambda p: p[0] in others, depth)
        if not res.member:
            return res
        pieces = []
        for lt in res.witness:
            g, i = ordered[words.letter_gen(lt)]
            pieces.append((i, (words.letter_sign(lt) * (g + 1),)))
        return self._tower(pieces, t, d)

    def _member_nonzero_fixed(self, pres, w, subset, omitted, depth):
        """Both substitution generators can be taken outside the subset, so
        the embedding fixes the subset pointwise."""
        a, b = omitted[0], omitted[1]
        emb = self._cached(breakdown.embed_nonzero_case, pres, a, b)
        image_subset = frozenset(emb.gen_map[s] for s in subset)
        res = self._member(emb.image_presentation, emb.translate(w),
                           image_subset, depth)
        if not res.member:
            return res
        back = {v: k for k, v in emb.gen_map.items()}
        witness = tuple(
            words.letter_sign(lt) * (back[words.letter_gen(lt)] + 1)
            for lt in res.witness)
        return MembershipVerdict(True, witness)

    def _member_nonzero_omit_one(self, pres, w, subset, gstar, depth):
        """Exactly one generator is missing from the subset.

        Substituting ``gstar -> y x^-beta`` and ``b' -> x^alpha`` sends
        ``<subset>`` to the tower generated by ``x^alpha`` and the fixed
        generators; elements decompose as (word in ``x^(alpha j)``-conjugates)
        * ``x^(alpha m)``, with the witness pulled back through
        ``x^alpha = image of b'``.
        """
        bprime = min(subset)
        emb = self._cached(breakdown.embed_nonzero_case, pres, gstar, bprime)
        alpha = emb.alpha
        wprime = emb.translate(w)
        xlt = emb.x_gen + 1
        d = words.exponent_sum(wprime, emb.x_gen)
        if d % alpha != 0:
            return MembershipVerdict(False)
        m = d // alpha
        k = self._mul(wprime, words.power((xlt,), -alpha * m,
                                          self.limits.max_word_len))
        imagep = emb.image_presentation
        back = {v: kk for kk, v in emb.gen_map.items()}

        if emb.x_gen in words.support(imagep.relator):
            zd = self._cached(breakdown.rewrite_zero_case, imagep, emb.x_gen,
                              emb.y_gen)
            items = self._britton(imagep, zd, hnn_syllables(k, emb.x_gen),
                                  depth)
            if len(items) > 1:
                return MembershipVerdict(False)
            res, ordered = self._base_member(
                imagep, zd, items[0],
                lambda p: p[0] in back and p[1] % alpha == 0, depth)
            if not res.member:
                return res
            pieces = []
            for lt in res.witness:
                g, i = ordered[words.letter_gen(lt)]
                pieces.append(
                    (i // alpha, (words.letter_sign(lt) * (back[g] + 1),)))
            return self._tower(pieces, bprime, m)

        # x vanished from the image relator: the image group is the free
        # product of <x> and the x-free image presentation.
        rest_ids = tuple(g for g in range(imagep.alphabet.size)
                         if g != emb.x_gen)
        rest_pres, old_to_new, _ = restrict_to_subalphabet(imagep, rest_ids)
        rest_subset = frozenset(old_to_new[g] for g in back
                                if g in old_to_new)
        new_to_old = {v: kk for kk, v in old_to_new.items()}
        syls = self._fp_reduce(imagep, k, set(rest_ids), rest_pres,
                               old_to_new, depth + 1)
        pieces = []
        h = 0
        for is_rest, v in syls:
            if not is_rest:
                h += words.exponent_sum(v, emb.x_gen)
                continue
            if h % alpha != 0:
                return MembershipVerdict(False)
            res = self._member(rest_pres, map_word(v, old_to_new),
                               rest_subset, depth + 1)
            if not res.member:
                return MembershipVerdict(False)
            pieces.append((h // alpha, tuple(
                words.letter_sign(lt) * (back[new_to_old[
                    words.letter_gen(lt)]] + 1)
                for lt in res.witness)))
        return self._tower(pieces, bprime, m)

    # -- hierarchy tree ----------------------------------------------------

    def _tree(self, pres, depth):
        self._bump(depth)
        split = split_free_factor(pres)
        free_names = tuple(pres.alphabet.names[g] for g in split.free_part)
        node_pres = pres
        if split.free_part:
            node_pres, _, _ = restrict_to_subalphabet(pres, split.active)
        step = self._cached(breakdown.classify, node_pres)
        node = HierarchyNode(presentation=node_pres, kind=step.kind,
                             step=step, free_part=free_names)
        if step.kind == "zero":
            child_pres, _, _ = base_presentation(node_pres, step.zero)
            node.children.append(self._tree(child_pres, depth + 1))
        elif step.kind == "nonzero":
            node.children.append(
                self._tree(step.nonzero.image_presentation, depth + 1))
        return node


# -- module-level conveniences ---------------------------------------------

def word_problem(pres, w, limits=None):
    return Solver(limits).word_problem(pres, w)


def magnus_membership(pres, w, subset, limits=None):
    return Solver(limits).magnus_membership(pres, w, subset)


def is_root(s, r, alphabet, limits=None):
    return Solver(limits).is_root(s, r, alphabet)


def hierarchy_tree(pres, limits=None):
    return Solver(limits).hierarchy_tree(pres)
