import importlib.util
import random
from itertools import islice
from pathlib import Path

import pytest

from onerelator import words
from onerelator.breakdown import (
    FoldTable,
    Node,
    _decode,
    _encode,
    base_word,
    embed_nonzero_case,
    from_base,
    rewrite_zero_case,
)
from onerelator.errors import PreconditionViolated
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, fresh_names
from onerelator.textio import parse_presentation
from onerelator.words import Alphabet
from subscripts import substitute_back
from test_acceptance import SEED, fuzz_queries

ROOT = Path(__file__).resolve().parents[1]

AB = Alphabet(("a", "b"))
CAP = words.DEFAULT_MAX_WORD_LEN


def test_subscripted_letter_ids():
    for rank in range(1, 5):
        pairs = [(g, i) for g in range(rank) for i in range(-50, 51)]
        ids = [_encode(rank, g, i) for g, i in pairs]
        assert [_decode(rank, a) for a in ids] == pairs
        assert len(set(ids)) == len(ids) and min(ids) == 1
        # g_0 is the plain letter of g
        assert [_encode(rank, g, 0) for g in range(rank)] == list(
            range(1, rank + 1))
    # a fold table shifts across the 0/-1 boundary both ways and keeps
    # signs; over an empty range it keeps nothing
    b = [_encode(3, 1, i) for i in (-2, -1, 0, 1)]
    up, down = FoldTable(3, 1, 0, -1), FoldTable(3, -1, 0, -1)
    assert (up[b[1]], up[-b[2]]) == (b[2], -b[3])
    assert (down[b[2]], down[-b[1]]) == (b[1], -b[0])
    assert not up and not down


def test_sub_alphabet_naming():
    # BS(1,2) = a b a^-1 b^-2: the base group is generated by b_0, b_1,
    # numbered in the sorted order of the rewritten relator's pairs
    zd = Node((1, 2, -1, -2, -2)).zero
    assert zd.pairs == ((1, 0), (1, 1))
    assert zd.index[_encode(2, 1, 0)] == 0
    tree = Solver().hierarchy_tree(make_presentation(AB, (1, 2, -1, -2, -2)))
    assert tree["children"][0]["alphabet"] == ["b_0", "b_1"]


def test_zero_node_cases():
    """A node's zero node is built for a relator with a generator of
    exponent sum 0, and is None for a nonzero node; it is built once."""
    node = Node((1, 2, -1, -2))
    assert node.zero is not None and node.zero is node.zero  # zero
    assert Node((1, 1, 2)).zero is None  # nonzero
    # a single generator has no exponent sum 0
    assert Node((1, 1, 1)).zero is None


def test_zero_node_picks_least_zero_generator():
    # sigma_a = 0 and sigma_b = 0: the stable letter is a
    assert Node((1, 2, -1, -2)).zero.stable == 0
    # sigma_a = 1 and sigma_b = 0: the stable letter is b
    assert Node((1, 1, 2, -1, -2)).zero.stable == 1


def test_rewrite_zero_case_bs12():
    # a b a^-1 b^-2 with t = a rewrites to b_1 b_0^-2
    zd = rewrite_zero_case((1, 2, -1, -2, -2), 0)
    assert zd.pairs == ((1, 0), (1, 1))
    assert zd.base == (2, -1, -1)
    assert zd.rank == 2
    assert zd.pivot == 1


def test_rewrite_zero_case_round_trip():
    p = make_presentation(AB, (1, 2, -1, -2, -2))
    zd = rewrite_zero_case(p.relator, 0)
    back = substitute_back(zd.base, zd.pairs, 0)
    # the rewritten relator spells a conjugate of (a cyclic shift of) the
    # relator
    core = words.cyclic_reduce(back)
    assert words.cyclically_equal_up_to_inversion(core, p.relator)


def test_rewrite_zero_case_preconditions():
    with pytest.raises(PreconditionViolated):
        rewrite_zero_case((1, 2, -1, -2, -2), 1)  # sigma_b = -1
    with pytest.raises(PreconditionViolated):
        rewrite_zero_case((1, 2, -1, -2), 0, pivot=0)
    with pytest.raises(PreconditionViolated):
        rewrite_zero_case((1, 1, 1), 1)  # b misses the relator


def test_substitute_back_inverts_rewrite():
    # the pieces of a word cut at its stable letters sit at subscript 0, so
    # substituting back and re-inserting the stable letters rebuilds it
    def pieces(w, t):
        out = [[]]
        for lt in w:
            if abs(lt) == t + 1:
                out += ((lt,), [])
            else:
                out[-1].append(lt)
        return out

    level0 = [(0, 0), (1, 0)]
    for w in [(2, 1, 2, -1), (1, 1, 2, -1, -1, -2), (2, 2, -1, 2, 1)]:
        parts = [substitute_back(u, level0, 0) if k % 2 == 0 else u
                 for k, u in enumerate(pieces(w, 0))]
        assert words.concat(parts) == words.reduce(w)


def test_fresh_names_avoid_collisions():
    assert fresh_names(("a", "b"), 2) == ["x", "y"]
    assert fresh_names(("x", "y"), 2) == ["z", "w"]


def test_embed_nonzero_case():
    r = (1, 1, 2, 2, 2)  # alpha=2, beta=3
    emb = embed_nonzero_case(2, r, 0, 1, CAP)
    assert emb.alpha == 2
    # a -> y x^-3 (beta = 3), b -> x^2
    assert emb.substitution == {1: (2, -1, -1, -1), -1: (1, 1, 1, -2),
                                2: (1, 1), -2: (-1, -1)}
    # sigma_x of the image relator must vanish
    assert words.exponent_sum(emb.image, 0) == 0
    # translating the relator itself gives a trivial image
    core = words.cyclic_reduce(words.substitute(r, emb.substitution))
    assert words.cyclically_equal_up_to_inversion(core, emb.image) \
        or core == ()


def test_embed_nonzero_preserves_other_generators():
    emb = embed_nonzero_case(3, (1, 2, 3), 0, 1, CAP)
    assert emb.gen_map == {2: 2}
    assert words.substitute((3,), emb.substitution) == (3,)


def test_embed_nonzero_preconditions():
    with pytest.raises(PreconditionViolated):
        embed_nonzero_case(2, (1, 2, -1, -2, -2), 0, 1, CAP)  # alpha = 0


def test_zero_case_presentation():
    # BS(1,2): the base group is <b_0, b_1 | b_1 b_0^-2>, built once
    zd = rewrite_zero_case((1, 2, -1, -2, -2), 0)
    b = {i: _encode(2, 1, i) for i in (-1, 0, 1, 2)}
    assert zd.pairs == ((1, 0), (1, 1))
    assert zd.ids == (b[0], b[1])
    assert zd.index == {b[0]: 0, b[1]: 1}
    assert zd.base == (2, -1, -1)
    assert base_word(zd, (), b[1].__ne__) == ((), (b[0], b[1]), {0})
    # window letters keep their ids; the residue's letters outside the
    # window follow, in order of first occurrence, and the relator is
    # untouched; the subset holds the base ids whose letters keep accepts
    word, ids, subset = base_word(zd, (-b[2], b[0], b[-1], b[2], b[1]),
                                  b[0].__ne__)
    assert ids == (b[0], b[1], b[2], b[-1])
    assert word == (-3, 1, 4, 3, 2)
    assert subset == {1, 2, 3}
    assert from_base(ids, word) == (-b[2], b[0], b[-1], b[2], b[1])


def exhaustive_relators(max_len):
    out = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for lt in (1, -1, 2, -2):
                if w and w[-1] == -lt:
                    continue
                nxt.append(w + (lt,))
        out.extend(v for v in nxt if words.is_cyclically_reduced(v)
                   and words.support(v) == {0, 1})
        frontier = nxt
    return out


def test_zero_case_strict_descent_exhaustive():
    """Every zero-case rewrite over {a,b} up to length 6 strictly shortens
    the relator and round-trips back to a conjugate of it."""
    for r in exhaustive_relators(6):
        p = make_presentation(AB, r)
        if len(p.relator) < len(r):
            continue  # cyclic reduction aliases another pool entry
        zd = Node(p.relator).zero
        if zd is None:
            continue
        assert len(zd.base) < len(r)
        assert len(zd.base) == len(r) - sum(
            1 for lt in r if words.letter_gen(lt) == zd.stable)
        back = substitute_back(zd.base, zd.pairs, zd.stable)
        core = words.cyclic_reduce(back)
        assert words.cyclically_equal_up_to_inversion(core, r)


def benchmark_relators():
    """``(rank, relator)`` of the wp-warm, member-warm and oracle-ncl
    catalogues of ``perfbench/gen.py`` and of the first 500 wp-cold
    queries at seed 1."""
    spec = importlib.util.spec_from_file_location(
        "gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = [e.text for e in gen.WP_CATALOGUE + gen.NCL_CATALOGUE]
    texts += [e.text for e, _ in gen.MEMBER_CATALOGUE]
    texts += [q[1] for q, _ in islice(gen.stream("wp-cold", 1), 500)]
    return [(p.alphabet.size, p.relator) for p in map(parse_presentation,
                                                      texts)]


def cyclically_reduced(r):
    return bool(r) and all(a != -b for a, b in zip(r, r[1:] + r[:1]))


def test_reachable_nodes_are_free_on_what_they_keep():
    """The solver answers a word over a kept subset as its own witness,
    without descending.  That needs, at every node, a cyclically reduced
    relator and a kept set that misses one of its letters (Freiheitssatz).
    Walk every node below the fuzz draw of test_acceptance and the
    benchmark catalogues: the base group of every pivot a zero node can
    take, and the image of every pair (a, b) a nonzero node can embed by
    (a < b, or b the least other generator).  Check the relators and the
    widest kept sets:

    * a pinch keeps every base letter but the pivot's least or greatest
      subscript, and both occur in the base relator (so, with the stable
      letter t in the subset, which then misses the pivot, so does a
      pivot letter);
    * with t outside the subset only subscript-0 letters are kept, and the
      base relator has a letter of another subscript.
    """
    todo = {(p.alphabet.size, p.relator) for p, *_ in fuzz_queries(
        random.Random(SEED), 1000, 4)}
    todo.update(benchmark_relators())
    seen = set()
    while todo:
        rank, relator = todo.pop()
        assert cyclically_reduced(relator), (rank, relator)
        active = words.support(relator)
        relator = Node(relator).core[0]
        rank = len(active)
        if rank == 1 or (rank, relator) in seen:
            continue
        seen.add((rank, relator))
        zd = Node(relator).zero
        if zd is None:
            pairs = [(a, b) for a in range(rank) for b in range(rank)
                     if a < b or b == min(set(range(rank)) - {a})]
            todo.update((rank, embed_nonzero_case(rank, relator, *ab, CAP)
                         .image) for ab in pairs)
            continue
        t = zd.stable
        for pivot in sorted(active - {t}):
            zd = rewrite_zero_case(relator, t, pivot)
            letters = {zd.pairs[abs(lt) - 1] for lt in zd.base}
            subs = [i for g, i in zd.pairs if g == pivot]
            assert {(pivot, min(subs)), (pivot, max(subs))} <= letters
            assert any(i != 0 for _, i in letters), (relator, pivot)
            todo.add((len(zd.pairs), zd.base))
    assert len(seen) > 10000


def cyclically_reduced_words(rank, max_len):
    """Every cyclically reduced word of length 1..max_len over ``rank``
    generators."""
    out, frontier = [], [()]
    for _ in range(max_len):
        frontier = [w + (lt,) for w in frontier
                    for g in range(1, rank + 1) for lt in (g, -g)
                    if not w or w[-1] != -lt]
        out.extend(w for w in frontier if cyclically_reduced(w))
    return out


def test_rewrite_zero_case_is_rotation_invariant():
    """The zero-case rewrite scans the relator once from height 0, with no
    rotation: every cyclic rotation of a relator gives the same pairs and
    pivot, and a base relator that is a cyclic rotation of the unrotated
    relator's.  Every cyclically reduced relator of length <= 8 over a,b
    and <= 6 over a,b,c, with each generator of exponent sum 0 in it."""
    checked = 0
    for rank, max_len in ((2, 8), (3, 6)):
        for r in cyclically_reduced_words(rank, max_len):
            for t in words.support(r):
                if words.exponent_sum(r, t) != 0:
                    continue
                zd = rewrite_zero_case(r, t)
                base = zd.base
                turns = {base[k:] + base[:k] for k in range(len(base))}
                for k in range(1, len(r)):
                    rot = rewrite_zero_case(r[k:] + r[:k], t)
                    assert (rot.pairs, rot.pivot) == (zd.pairs, zd.pivot), (
                        r, t, k)
                    assert rot.base in turns, (r, t, k)
                    checked += 1
    assert checked == 63488


def test_every_node_relator_is_cyclically_reduced(monkeypatch):
    """A node's Tietze values skip free reduction, which is sound only on
    a cyclically reduced relator.  Build the node of every cyclically
    reduced relator of length <= 5 over a,b and over a,b,c, and walk every
    node below it: its core, the base group of every pivot its zero node
    can take, and the image of every pair (a, b) it can embed by (a < b,
    or b the least other generator).  Every relator a Node is built for is
    cyclically reduced, and every move's value is reduced."""
    built = []
    init = Node.__init__

    def recording(self, relator):
        built.append(self)
        init(self, relator)

    monkeypatch.setattr(Node, "__init__", recording)
    todo = [Node(r) for rank in (2, 3)
            for r in cyclically_reduced_words(rank, 5)]
    tops = len(todo)
    seen = set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        for h, move in node.moves:
            for value in move.values():
                assert value == words.reduce(value), (node, h)
        rank = len(node.support)
        if rank == 1:
            continue
        if max(node.support) >= rank:
            todo.append(node.core[0])
            continue
        zd = node.zero
        if zd is None:
            todo.extend(embed_nonzero_case(rank, node, a, b, CAP).image
                        for a in range(rank) for b in range(rank)
                        if a < b or b == min(set(range(rank)) - {a}))
            continue
        todo.extend(rewrite_zero_case(node, zd.stable, pivot).base
                    for pivot in sorted(node.support - {zd.stable}))
    assert tops > 4000 and len(built) > tops
    bad = [r for r in built if not cyclically_reduced(r)]
    assert not bad, bad[:5]


def test_node_holds_what_its_relator_fixes():
    """A node's support, exponent sums (up to its greatest id) and moves;
    its core renumbers the support in increasing order, through a table
    of signed letters into it and one back out (a word's round trip is
    checked in test_presentations.py); a node is its relator, so it
    equals and hashes as that tuple, whoever built it.  A fresh node holds
    only its relator and support, and builds each other field on first
    read; it is classified once its zero node or its core is built."""
    node = Node((1, 3, 1, -3))
    assert not vars(node).keys() & {"exponents", "moves", "zero", "core"}
    assert node.support == {0, 2}
    assert node.exponents == (2, 0, 0)
    assert node.moves == ()
    assert not node.classified
    core, into, out = node.core
    assert node.classified
    assert core == (1, 2, 1, -2)
    assert into == {1: 1, -1: -1, 3: 2, -3: -2}
    assert out == {1: 1, -1: -1, 2: 3, -2: -3}
    assert node.core[0] is core
    # a relator over ids 0..k-1, as a base group's is, is its own core
    same = {1: 1, -1: -1, 2: 2, -2: -2}
    assert core.core == (core, same, same)
    assert core.zero.stable == 1
    fresh = Node((1, 2, -1, -2))
    assert not fresh.classified and fresh.zero.stable == 0
    assert fresh.classified
    assert Node((1, 3, 1, -3)) == node == (1, 3, 1, -3)
    assert hash(Node(node)) == hash(node) == hash((1, 3, 1, -3))
    assert Node((1, 2)) != node
    # the zero node carries its base group's node and, as the excluded
    # letter of each sign's closing entry, the pivot's end letters
    zd = rewrite_zero_case((1, 2, -1, -2, -2), 0)
    b = {i: _encode(2, 1, i) for i in (-1, 0, 1, 2)}
    assert zd.base == Node((2, -1, -1))
    assert tuple(e for e, _, _ in zd.close) == (b[0], b[1])


def test_fold_tables():
    """A zero node is built with one closing entry per sign of the stable
    letter that closes a pinch, each holding a fold table.  In BS(1,2),
    with base relator b_1 b_0^-2: a pinch a^-1 u a shifts subscripts down
    and excludes b_0, which occurs twice, so it has no Tietze table; a
    pinch a u a^-1 shifts up and excludes b_1 = b_0^2, whose Tietze table
    maps it to b_0^2.  A fold table maps letters to letters: a letter, one
    off the window too, enters it on its first lookup; a letter two off is
    shifted but not kept."""
    zd = rewrite_zero_case((1, 2, -1, -2, -2), 0)
    b = {i: _encode(2, 1, i) for i in range(-3, 5)}
    (_, down, down_tietze), (_, up, up_tietze) = zd.close
    assert not down and not up
    assert (down_tietze, up_tietze) == (
        None, {b[1]: (b[0], b[0]), -b[1]: (-b[0], -b[0])})
    assert (down[b[1]], down[-b[1]]) == (b[0], -b[0])
    assert down[-b[2]] == -b[1] and down[b[2]] == b[1]
    assert b[0] not in down and -b[0] not in down
    assert up[b[1]] == b[2] and up[-b[1]] == -b[2]
    assert up[b[0]] == b[1] and up[-b[-1]] == -b[0] and up[b[2]] == b[3]
    # the window b_0..b_1 widened by one is b_-1..b_2
    assert up[b[3]] == b[4] and down[-b[-2]] == -b[-3]
    assert b[3] not in up and b[-2] not in down
    assert len(up) == 8 and len(down) == 4
    # the Klein bottle a b a B: the base relator a_0 a_1 has a move for
    # both pivot ends, each the inverse of the other
    zd = Node((1, 2, 1, -2)).zero
    (a0, _, tietze0), (a1, _, tietze1) = zd.close
    assert (tietze0, tietze1) == ({a0: (-a1,), -a0: (a1,)},
                                  {a1: (-a0,), -a1: (a0,)})


def wp_warm_zero_nodes():
    """Every zero node of the hierarchies of the wp-warm catalogue, as the
    solver walks them: a node's core, its zero node's base, and the image
    of its embedding by (0, 1)."""
    spec = importlib.util.spec_from_file_location(
        "gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    todo = [Node(parse_presentation(text).relator)
            for text in gen.catalogue("wp-warm")]
    out = []
    while todo:
        node = todo.pop().core[0]
        if len(node.support) == 1:
            continue
        zd = node.zero
        if zd is None:
            todo.append(embed_nonzero_case(len(node.support), node,
                                           0, 1, CAP).image)
        else:
            out.append(zd)
            todo.append(zd.base)
    return out


def test_tietze_fold_agrees_with_the_descent():
    """A pinch whose excluded letter has a Tietze move folds through its
    table, with no test; its residue must be what a descent into the base
    group returns, shifted letter by letter.  Random residues over each
    window, with letters off it, holding the excluded letter, at every
    zero node of the wp-warm hierarchies."""
    rng = random.Random(SEED)
    checked = set()
    for zd in wp_warm_zero_nodes():
        t = zd.stable + 1
        outside = [_encode(zd.rank, g, i) for g, i in zd.pairs[:2]
                   for i in (-3, 4)]
        for sign in (1, -1):
            excluded, _, tietze = zd.close[sign < 0]
            if tietze is None:
                continue
            checked.add((zd.base, sign))
            letters = [s * a for a in zd.ids + tuple(outside) for s in (1, -1)]
            for _ in range(40):
                u = words.reduce(rng.choice(letters)
                                 for _ in range(rng.randint(0, 8)))
                k = rng.randint(0, len(u))
                u = words.reduce(u[:k] + (rng.choice((1, -1)) * excluded,)
                                 + u[k:])
                if excluded not in u and -excluded not in u:
                    continue
                solver = Solver()
                folded = solver._britton(zd, (-sign * t,) + u + (sign * t,),
                                         0)
                assert solver.stats["tietze_folds"] == 1
                assert solver.stats["pinch_tests"] == 0
                witness = solver._base_member(
                    zd, *base_word(zd, u, excluded.__ne__), 0)
                shift = FoldTable(zd.rank, -sign, 0, -1)
                assert folded == list(map(shift.__getitem__, witness)), (
                    zd.base, sign, u)
    assert len(checked) >= 20
