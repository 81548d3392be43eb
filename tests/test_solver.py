import collections
import gc
import random
import weakref

import pytest

from onerelator import breakdown, words
from onerelator import solver as solver_mod
from onerelator.errors import ResourceExhausted, UnknownGenerator
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, SolverLimits, Verdict
from onerelator.textio import parse_presentation, parse_word
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))

Z2 = make_presentation(AB, (1, 2, -1, -2))
BS12 = make_presentation(AB, (1, 2, -1, -2, -2))
KLEIN = make_presentation(AB, (1, 2, 1, -2))
TREFOIL = make_presentation(AB, (1, 1, -2, -2, -2))


def test_limits_validation():
    with pytest.raises(ValueError):
        SolverLimits(max_depth=0)
    with pytest.raises(ValueError):
        SolverLimits(max_word_len=-1)


def test_wp_empty_word_trivial():
    assert Solver().word_problem(Z2, ()) is Verdict.TRIVIAL


def test_wp_rejects_foreign_letters():
    with pytest.raises(UnknownGenerator):
        Solver().word_problem(Z2, (3,))


def test_wp_z2():
    assert Solver().word_problem(Z2, (1, 2, -1, -2)) is Verdict.TRIVIAL
    assert Solver().word_problem(Z2, (2, 1, -2, -1)) is Verdict.TRIVIAL
    assert Solver().word_problem(Z2, (1, 2)) is Verdict.NONTRIVIAL
    # commutator of squares is also trivial in Z^2
    w = words.concat([words.power((1,), 2), words.power((2,), 2),
                      words.power((1,), -2), words.power((2,), -2)])
    assert Solver().word_problem(Z2, w) is Verdict.TRIVIAL


def test_wp_bs12():
    # a b a^-1 = b^2 holds, so a b a^-1 b^-2 and its conjugates die
    assert Solver().word_problem(BS12, (1, 2, -1, -2, -2)) is Verdict.TRIVIAL
    assert Solver().word_problem(BS12, (2, 1, 2, -1, -2, -2, -2)) is \
        Verdict.TRIVIAL
    # b a b a^-1 b^-2 equals b, hence nontrivial
    assert Solver().word_problem(BS12, (2, 1, 2, -1, -2, -2)) is \
        Verdict.NONTRIVIAL
    assert Solver().word_problem(BS12, (1, -2)) is Verdict.NONTRIVIAL
    # a b^2 a^-1 = b^4
    w = words.concat([(1,), (2, 2), (-1,), words.power((2,), -4)])
    assert Solver().word_problem(BS12, w) is Verdict.TRIVIAL


def test_wp_klein_bottle():
    # b a^2 b^-1 a^2 dies in <a,b | abab^-1>
    assert Solver().word_problem(KLEIN, (2, 1, 1, -2, 1, 1)) is Verdict.TRIVIAL
    assert Solver().word_problem(KLEIN, (1, 2, -1, -2)) is Verdict.NONTRIVIAL


def test_wp_trefoil():
    assert Solver().word_problem(TREFOIL, TREFOIL.relator) is Verdict.TRIVIAL
    assert Solver().word_problem(TREFOIL, words.power(TREFOIL.relator, 2)) is \
        Verdict.TRIVIAL
    assert Solver().word_problem(TREFOIL, (1, 2)) is Verdict.NONTRIVIAL
    # a^2 = b^3 is central but not trivial
    assert Solver().word_problem(TREFOIL, (1, 1)) is Verdict.NONTRIVIAL


def test_wp_torsion_base_case():
    p = make_presentation(Alphabet(("a",)), (1, 1, 1))
    assert Solver().word_problem(p, (1, 1, 1)) is Verdict.TRIVIAL
    assert Solver().word_problem(p, (1, 1)) is Verdict.NONTRIVIAL
    assert Solver().word_problem(p, words.power((1,), -6)) is Verdict.TRIVIAL


def test_wp_free_factor_split():
    # <a,b,c | a^2>: c is a genuine free letter
    p = make_presentation(ABC, (1, 1))
    assert Solver().word_problem(p, (3,)) is Verdict.NONTRIVIAL
    assert Solver().word_problem(p, (3, 1, 1, -3)) is Verdict.TRIVIAL
    assert Solver().word_problem(p, (3, 1, -3, 3, 1, -3)) is Verdict.TRIVIAL
    assert Solver().word_problem(p, (1, 3)) is Verdict.NONTRIVIAL


def test_wp_surface_relator():
    # genus-2 surface group: the relator and a random conjugate die
    p = make_presentation(Alphabet(("a", "b", "c", "d")),
                          (1, 2, -1, -2, 3, 4, -3, -4))
    assert Solver().word_problem(p, p.relator) is Verdict.TRIVIAL
    w = words.concat([(2, 3), p.relator, (-3, -2)])
    assert Solver().word_problem(p, w) is Verdict.TRIVIAL
    assert Solver().word_problem(p, (1, 2, -1, -2)) is Verdict.NONTRIVIAL


def test_britton_reduce_pinch():
    solver = Solver()
    # a b a^-1 pinches to b_1, whose witness over <b> is b^2
    res = solver.magnus_membership(BS12, (1, 2, -1), {1})
    assert res.member and res.witness == (2, 2)
    # a b a^-1 b^-2 loses all stable letters; the residue is the
    # rewritten relator itself, so triviality falls to the base group
    assert solver.word_problem(BS12, (1, 2, -1, -2, -2)) is Verdict.TRIVIAL


def test_britton_keeps_genuine_stable_letters():
    solver = Solver()
    # a^-1 b a is not in the base: b is not a square
    assert not solver.magnus_membership(BS12, (-1, 2, 1), {1}).member
    # so the pinch a^-1 b a of a^-1 b a b^-1 stays and the word is
    # nontrivial, although no abelian or Tietze shortcut decides it
    assert solver.word_problem(BS12, (-1, 2, 1, -2)) is Verdict.NONTRIVIAL


def test_britton_tests_each_stable_letter_once(monkeypatch):
    # in a^-1 b a (b a b a^-1)^k the first a closes a failing pinch and each
    # a^-1 a succeeding one; a restarted scan re-tests the failing pinch
    # after every removal.  The succeeding pinches hold residues over the
    # kept letters, which fold as their own witnesses without a test, so
    # the one membership test is the failing pinch's
    calls = count_base_members(monkeypatch)
    for k in (1, 3, 6):
        calls.clear()
        w = words.concat([(-1, 2, 1)] + [(2, 1, 2, -1)] * k)
        assert Solver().word_problem(BS12, w) is Verdict.NONTRIVIAL
        # the residue b_0 of the pinch, as base generator 0 over b_0, b_1
        assert [args[1:3] for args in calls] == [((1,), (2, 6))]


def count_base_members(monkeypatch):
    """The argument tuples of every Solver._base_member call from now on."""
    calls = []
    base_member = Solver._base_member

    def counting(self, *args):
        calls.append(args)
        return base_member(self, *args)

    monkeypatch.setattr(Solver, "_base_member", counting)
    return calls


def test_pinches_with_a_tietze_excluded_letter_fold_without_a_test(
        monkeypatch):
    """In BS(1,2) each pinch a u a^-1 excludes b_1, which occurs once in
    the base relator b_1 b_0^-2: the pinches of a^5 b a^-5 fold through
    the zero node's table (b_1 -> b_0^2, shifted) with no test and no
    descent, so stats["pinch_tests"] reads 0; the one descent left is the
    word problem of the residue b_1^16 in the base group, counted in
    stats["residue_tests"]."""
    calls = count_base_members(monkeypatch)
    solver = Solver()
    w = parse_word("a^5bA^5", BS12.alphabet)
    assert solver.word_problem(BS12, w) is Verdict.NONTRIVIAL
    assert [args[1] for args in calls] == [(2,) * 16]
    assert solver.stats["tietze_folds"] == 4
    assert solver.stats["pinch_tests"] == 0
    assert solver.stats["residue_tests"] == 1
    assert solver.stats["nodes"] == 2


def test_tietze_folds_leave_fold_tables_letter_to_letter():
    """The pinches of a^5 b a^-5 in BS(1,2) fold through the Tietze table
    b_1 -> b_0^2 of the sign that closes them, then through the fold
    table: every value a fold table holds is a letter, and
    words.substitute leaves the letters its table misses as they were."""
    solver = Solver()
    w = parse_word("a^5bA^5", BS12.alphabet)
    assert solver.word_problem(BS12, w) is Verdict.NONTRIVIAL
    assert solver.stats["tietze_folds"] == 4
    zd = solver._memo[breakdown.Node, BS12.relator].zero
    (b0, _, _), (b1, _, tietze) = zd.close
    assert tietze == {b1: (b0, b0), -b1: (-b0, -b0)}
    values = [v for _, table, _ in zd.close for v in table.values()]
    assert values and not any(isinstance(v, tuple) for v in values)
    a1 = breakdown._encode(2, 0, 1)
    assert words.substitute((b0, b1, a1, -b1), tietze) == (
        b0, b0, b0, a1, -b0, -b0)
    assert words.substitute((a1, -b0), tietze) == (a1, -b0)


def test_depth_budget_reported_honestly():
    solver = Solver(SolverLimits(max_depth=1))
    # the pinch B c A^2 C b of a B c A^2 C b in <a,b,c | A^2 C b a B c>
    # asks whether c_0 a_0^-2 c_0^-1 lies in the base subgroup on every
    # letter but a_0, which occurs twice in the base relator A_0^2 C_0 a_1
    # c_0, so the test descends to depth 1; there c_0 is the stable letter
    # and the pinch c_0 A_0^2 C_0 excludes the letter of a_0, which occurs
    # twice in that node's base relator too, so its test descends to depth
    # 2, over the depth budget
    p = parse_presentation("a,b,c | A^2CbaBc")
    w = parse_word("aBcA^2Cb", p.alphabet)
    with pytest.raises(ResourceExhausted) as info:
        solver.word_problem(p, w)
    assert info.value.budget == "max_depth"
    assert info.value.limit == 1 and info.value.depth == 2
    # the budget is not a verdict: a roomier solver still decides it
    assert Solver(SolverLimits(max_depth=2)).word_problem(
        p, w) is Verdict.TRIVIAL
    # the pinch B a^2 b of B a^2 b a in <a,b | a^2 b a B> descends to depth
    # 1, where the base group <a_0, a_1 | a_0^2 a_1> embeds in <x,y | y x^-1
    # y x>; its pinches exclude y_0 or y_1, each a Tietze generator of the
    # base relator y_1 y_0, and fold with no further descent
    p = parse_presentation("a,b | a^2baB")
    w = parse_word("Ba^2ba", p.alphabet)
    assert Solver(SolverLimits(max_depth=1)).word_problem(
        p, w) is Verdict.TRIVIAL


def test_empty_pinch_needs_no_descent():
    # a pinch test of baba^2b^2B in <a,b | aba^2b^2> asks at depth 1 about
    # a power of its tower's stable letter, which leaves an empty residue;
    # the empty word lies in every subgroup, so no test descends to depth 2
    p = parse_presentation("a,b | aba^2b^2")
    w = parse_word("baba^2b^2B", p.alphabet)
    assert Solver(SolverLimits(max_depth=1)).word_problem(
        p, w) is Verdict.TRIVIAL


def test_word_length_budget_is_named():
    with pytest.raises(ResourceExhausted) as info:
        Solver(SolverLimits(max_word_len=4)).word_problem(Z2, (1,) * 5)
    assert (info.value.budget, info.value.limit) == ("max_word_len", 4)


def test_word_length_budget_covers_the_embedding():
    # b^5 a^3 has 8 letters, but its image under the Magnus embedding of
    # <a,b | a^3 b^5> has 33: over a 12-letter budget that is exhaustion,
    # not a verdict
    p = parse_presentation("a,b | a^3b^5")
    w = parse_word("b^5a^3", p.alphabet)
    with pytest.raises(ResourceExhausted) as info:
        Solver(SolverLimits(max_word_len=12)).word_problem(p, w)
    assert (info.value.budget, info.value.limit) == ("max_word_len", 12)
    assert Solver().word_problem(p, w) is Verdict.TRIVIAL


def test_word_length_budget_covers_the_fold():
    # in BS(1,2), a b a^-1 = b^2: the pinches of b a^5 b a^-5 b fold from
    # the inside out, and the last fold is b_0 b_1^16 b_0, 18 letters over
    # a 16-letter budget: exhaustion at the top node, not a verdict
    w = parse_word("ba^5bA^5b", BS12.alphabet)
    with pytest.raises(ResourceExhausted) as info:
        Solver(SolverLimits(max_word_len=16)).word_problem(BS12, w)
    assert (info.value.budget, info.value.limit) == ("max_word_len", 16)
    assert info.value.depth == 0
    assert Solver().word_problem(BS12, w) is Verdict.NONTRIVIAL


def test_word_length_overrun_reports_its_depth():
    # the pinch B a^6 b of <a,b | a^2 b a B> asks whether a_0^6 lies in
    # <a_1> in the base group <a_0, a_1 | a_0^2 a_1>, where a_0 occurs
    # twice, so the test descends; the Magnus embedding of the base maps
    # a_0^6 to (y x^-1)^6, 12 letters, over an 8-letter budget, one level
    # below the top, at the base group's node, which the exception names
    p = parse_presentation("a,b | a^2baB")
    w = parse_word("Ba^6b", p.alphabet)
    with pytest.raises(ResourceExhausted) as info:
        Solver(SolverLimits(max_word_len=8)).word_problem(p, w)
    assert (info.value.budget, info.value.limit) == ("max_word_len", 8)
    assert info.value.depth == 1
    assert (info.value.rank, info.value.relator) == (2, (1, 1, 2))
    # each pinch of a^5 b a^-5 in BS(1,2) excludes b_1, a Tietze generator
    # of the base relator b_1 b_0^-2, so the pinches fold at the top node:
    # the fifth fold, b_1^8 -> b_0^16, overruns a 12-letter budget there
    w = parse_word("a^5bA^5", BS12.alphabet)
    with pytest.raises(ResourceExhausted) as info:
        Solver(SolverLimits(max_word_len=12)).word_problem(BS12, w)
    assert (info.value.budget, info.value.limit) == ("max_word_len", 12)
    assert info.value.depth == 0


def test_fold_tables_do_not_grow_with_the_query():
    """C^N b c^N on {a, b} in <a,b,c | a^2 b^2 c a C> folds N pinches, whose
    residues run b_0, b_-1, ..., b_-N far off the zero node's window
    a_0, a_1, b_0: a fold table keeps only letters at most one subscript
    off the window, so the tables the memoized node keeps are the same
    size for every N.  (On {b} alone the subset and the word miss a, and
    the Freiheitssatz exit decides the query at the top.)"""
    p = parse_presentation("a,b,c | a^2b^2caC")
    sizes = []
    for n in (10, 1000):
        solver = Solver()
        w = parse_word(f"C^{n}bc^{n}", p.alphabet)
        assert not solver.magnus_membership(p, w, {0, 1}).member
        zd = solver._memo[breakdown.Node, p.relator].zero
        sizes.append([len(table) for _, table, _ in zd.close])
    # every pinch closes with c, so the other table is never looked up
    assert sizes[0] == sizes[1] == [4, 0]


def test_embedding_relator_is_built_under_the_word_cap():
    """The Magnus embedding of <a,b | a^7 b^7> has a 91-letter image
    relator, (y x^-7)^7 x^49 reduced; under a 50-letter cap it is not
    built, the query overruns at the top node and the node keeps no
    embedding, and a solver under a wider cap builds its own."""
    p = parse_presentation("a,b | a^7b^7")
    w = parse_word("abAB", p.alphabet)
    solver = Solver(SolverLimits(max_word_len=50))
    with pytest.raises(ResourceExhausted) as info:
        solver.word_problem(p, w)
    assert (info.value.budget, info.value.limit, info.value.depth) == \
        ("max_word_len", 50, 0)
    assert not solver._memo[breakdown.Node, p.relator]._steps
    assert Solver(SolverLimits(max_word_len=91)).word_problem(p, w) is \
        Verdict.NONTRIVIAL


def test_tietze_value():
    """A node holds one Tietze move per once-occurring generator, in
    increasing order; the solver takes the least outside the subset, or
    the least when the subset holds them all."""
    # a b a c: b = (a c a)^-1 is the least move, c = (a b a)^-1 the one
    # outside a subset holding b
    assert breakdown.Node((1, 2, 1, 3)).moves == (
        (1, {2: (-1, -3, -1), -2: (1, 3, 1)}),
        (2, {3: (-1, -2, -1), -3: (1, 2, 1)}))
    # a b a b^-1 c^-1: c = a b a b^-1, from a negative occurrence
    assert breakdown.Node((1, 2, 1, -2, -3)).moves == (
        (2, {3: (1, 2, 1, -2), -3: (2, -1, -2, -1)}),)
    assert breakdown.Node(BS12.relator).moves == ()


def test_wp_tietze_positive_occurrence():
    # <a,b,c | abac> is free on a, c with b = a^-1 c^-1 a^-1
    p = make_presentation(ABC, (1, 2, 1, 3))
    solver = Solver()
    assert solver.word_problem(p, (2, 1, 3, 1)) is Verdict.TRIVIAL
    # [b, ca] holds every relator letter, so no Freiheitssatz exit takes it
    assert solver.word_problem(p, (2, 3, 1, -2, -1, -3)) is Verdict.NONTRIVIAL
    assert solver.stats["eliminations"] == solver.stats["nodes"] == 2
    # the Tietze move is not memoized
    assert not solver._memo


def test_wp_tietze_negative_occurrence():
    # <a,b,c | a b a b^-1 c^-1> is free on a, b with c = a b a b^-1
    p = make_presentation(ABC, (1, 2, 1, -2, -3))
    solver = Solver()
    assert solver.word_problem(p, (3, 2, -1, -2, -1)) is Verdict.TRIVIAL
    # [c, ab] holds every relator letter, so no Freiheitssatz exit takes it
    assert solver.word_problem(p, (3, 1, 2, -3, -2, -1)) is Verdict.NONTRIVIAL
    assert solver.stats["eliminations"] == solver.stats["nodes"] == 2
    # <a,b | a^-1 b^3> is infinite cyclic on b, so a commutes with b
    p = make_presentation(AB, (-1, 2, 2, 2))
    assert solver.word_problem(p, (1, 2, -1, -2)) is Verdict.TRIVIAL


def test_memo_is_bounded():
    """Past MEMO_ENTRIES breakdown steps the oldest are evicted, and an
    evicted presentation is answered as before."""
    # BS(1,k) = <a,b | a b a^-1 b^-k>, k = 2..1101: 1100 distinct relators
    pres = [make_presentation(AB, (1, 2, -1) + (-2,) * k)
            for k in range(2, 1102)]

    def answers(p):
        # a conjugate of the relator, and the commutator of a and b
        return [solver.word_problem(p, w) for w in
                (words.concat([(2,), p.relator, (-2,)]), (1, 2, -1, -2))]

    solver = Solver()
    first = answers(pres[0])
    assert first == [Verdict.TRIVIAL, Verdict.NONTRIVIAL]
    for p in pres[1:]:
        assert answers(p) == first
    assert len(solver._memo) <= solver_mod.MEMO_ENTRIES == 1024
    assert (breakdown.Node, pres[-1].relator) in solver._memo
    assert (breakdown.Node, pres[0].relator) not in solver._memo
    assert answers(pres[0]) == first


def test_pinch_answers_are_memoized():
    """A pinch test asked again, within a query or by a later one, is
    answered from the memo: the 1001st power of B a^30 b a^39, a rotation
    of the relator of <a,b | a^39 b^-1 a^30 b>, closes a thousand pinches
    B a^30 b whose residue a_0^30 holds the excluded letter a_0, so each
    reaches the memo, but only a few distinct ones, and asking it again
    descends no further than its top node."""
    p = parse_presentation("a,b | a^39Ba^30b")
    w = parse_word("Ba^30ba^39", p.alphabet) * 1001
    solver = Solver()
    assert solver.word_problem(p, w) is Verdict.TRIVIAL
    assert solver.stats["nodes"] <= 100
    assert solver.stats["pinch_tests"] > 1000
    nodes, tests = solver.stats["nodes"], solver.stats["pinch_tests"]
    assert solver.word_problem(p, w) is Verdict.TRIVIAL
    assert solver.stats["nodes"] == nodes + 1
    assert solver.stats["pinch_tests"] > tests


def test_memo_keys_do_not_keep_the_solver_alive():
    """The pinch-test memo keys by the base group's node and the query,
    never by a bound method, so a solver that has run pinch tests is freed
    when its last reference goes, without the cyclic garbage collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        solver = Solver()
        w = parse_word("a^2bA^2B^4", BS12.alphabet)
        assert solver.word_problem(BS12, w) is Verdict.TRIVIAL
        assert solver.stats["residue_tests"] > 0
        ref = weakref.ref(solver)
        del solver
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_pinch_hits_are_counted_apart_from_memo_hits():
    """A repeated pinch test is a hit in stats["pinch_hits"];
    stats["memo_hits"] counts only top-node hits.  A descent counts as a
    pinch test or a residue test where it is asked, in _britton or
    _member_zero, so one asked directly counts as neither."""
    solver = Solver()
    zd = breakdown.Node(BS12.relator).zero
    # the residue b_1 (letter id 6) in the base subgroup on b_0, where
    # b_1 = b_0^2 (b_0 is letter id 2)
    word, ids, subset = breakdown.base_word(zd, (6,), (2).__eq__)
    assert subset == frozenset({0})
    for hits in (0, 1):
        assert solver._base_member(zd, word, ids, subset, 0) == (2, 2)
        assert solver.stats["pinch_hits"] == hits
    assert solver.stats["pinch_tests"] == solver.stats["residue_tests"] == 0
    assert solver.stats["memo_hits"] == 0


def test_residue_over_the_kept_letters_is_its_own_witness():
    """A pinch subgroup misses a letter of the base relator, so it is free
    on its letters (Freiheitssatz) and a residue written in them is its own
    witness: its pinch folds by table lookup, no test reaches the memo and
    nothing descends."""
    solver = Solver()
    zd = breakdown.Node(BS12.relator).zero
    # the pinch a u a^-1 with u = b_0^2 b_2 b_0^-1 keeps every letter but
    # b_1 (id 6); b_2 (id 10) lies outside the base's window.  It folds to
    # u with each subscript raised by one, b_1^2 b_3 b_1^-1
    assert solver._britton(zd, (1, 2, 2, 10, -2, -1), 0) == [6, 6, 14, -6]
    assert solver._britton(zd, (1, -1), 0) == []
    assert solver.stats["pinch_tests"] == solver.stats["nodes"] == 0
    assert solver.stats["tietze_folds"] == 0
    assert not solver._memo
    # a subset word of a node whose relator has a letter outside the subset
    res = solver.magnus_membership(BS12, (2, 2, 2), {1})
    assert res.member and res.witness == (2, 2, 2)
    assert solver.stats["nodes"] == 1 and not solver._memo


@pytest.mark.parametrize("text, w", [
    # [a, b] misses c: nontrivial by the Freiheitssatz alone
    ("a,b,c | a^2b^2c^2", "abAB"),
    ("a,b | abaB", "a^2"),
    # a and c occur once in ab^2c, but the exit builds no move for them
    ("a,b,c | ab^2c", "abAB"),
])
def test_freiheitssatz_exit_decides_a_word_at_its_node(text, w, monkeypatch):
    """A word whose letters miss a relator letter is a nontrivial element
    of a free subgroup: it is decided at the top node from the node's
    support, with no exponent vector, Tietze move table, zero node,
    embedding or memo entry."""
    p = parse_presentation(text)
    w = parse_word(w, p.alphabet)
    calls = collections.Counter()
    for name in ("exponent_vector", "invert"):
        def counting(*args, _name=name, _f=getattr(words, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(words, name, counting)
    solver = Solver()
    assert solver.word_problem(p, w) is Verdict.NONTRIVIAL
    assert solver.stats["nodes"] == solver.stats["free_exits"] == 1
    assert solver.stats["max_depth"] == 0
    assert not solver._memo and not calls


def test_freiheitssatz_exit_needs_a_missed_relator_letter():
    """<a, b> is free in <a,b,c | abcABC> and [a, b] is no word over {a}:
    a non-member at the top node.  With the subset {c} the subset and the
    word hold every relator letter, so the query descends to its residue
    (where the exit then decides it)."""
    p = parse_presentation("a,b,c | abcABC")
    w = parse_word("abAB", p.alphabet)
    solver = Solver()
    assert not solver.magnus_membership(p, w, {0}).member
    assert solver.stats["nodes"] == solver.stats["free_exits"] == 1
    assert not solver._memo
    solver = Solver()
    assert not solver.magnus_membership(p, w, {2}).member
    assert solver.stats["nodes"] == 2 and solver.stats["max_depth"] == 1
    assert solver.stats["residue_tests"] == 1


def test_freiheitssatz_exit_agrees_with_the_descent():
    """Over the benchmark relators, a word w over letters T that miss a
    relator letter is asked in a subgroup on S within T, and so is w with a
    relator conjugate u r^(+-1) u^-1 spliced in.  The two are equal in the
    group, but the spliced word (almost always) holds every relator letter,
    so the exit cannot take it and the abelian test, a Tietze move or a
    descent decides it.  Fresh solvers give both the same witness (the
    Freiheitssatz makes it unique), and a floor of the spliced queries go
    below the top node."""
    from test_acceptance import SEED
    from test_breakdown import benchmark_relators

    rng = random.Random(SEED)

    def random_word(gens, length):
        out = []
        while len(out) < length:
            lt = rng.choice(gens) + 1
            lt = lt if rng.random() < 0.5 else -lt
            if not out or out[-1] != -lt:
                out.append(lt)
        return tuple(out)

    relators = sorted(set(benchmark_relators()))
    below = 0
    for _ in range(600):
        rank, r = rng.choice(relators)
        missed = rng.choice(sorted(words.support(r)))
        others = [g for g in range(rank) if g != missed]
        T = [g for g in others if rng.random() < 0.7] or [rng.choice(others)]
        S = frozenset(g for g in T if rng.random() < 0.5)
        w = random_word(T, rng.randint(0, 8))
        k = rng.randint(0, len(w))
        u = random_word(range(rank), rng.randint(0, 3))
        conj = u + (r if rng.random() < 0.5 else words.invert(r)) + \
            words.invert(u)
        spliced = words.reduce(w[:k] + conj + w[k:])
        p = make_presentation(Alphabet(tuple("abc"[:rank])), r)
        exit_solver, descent = Solver(), Solver()
        witness = exit_solver.magnus_membership(p, w, S).witness
        assert exit_solver.stats["nodes"] == \
            exit_solver.stats["free_exits"] == 1
        assert descent.magnus_membership(p, spliced, S).witness == \
            witness, (p, w, spliced, S)
        below += descent.stats["nodes"] > 1
    assert below >= 80


@pytest.mark.parametrize("text, subset, w", [
    # the relator's b-sum is 0 and BA^2cB has b-sum -2
    ("a,b,c | abAcBC", "ac", "BA^2cB"),
    # the relator's a-sum is 2 and bCAC has a-sum -1
    ("a,b,c | ababc", "bc", "bCAC"),
])
def test_abelian_cut_decides_a_nonmember_at_its_node(text, subset, w):
    """Outside the subset a member's exponent sums are one multiple of the
    relator's; a word that breaks this is refused without a descent."""
    p = parse_presentation(text)
    solver = Solver()
    res = solver.magnus_membership(p, parse_word(w, p.alphabet),
                                   {p.alphabet.index(x) for x in subset})
    assert not res.member
    assert solver.stats["nodes"] == 1


def test_abelian_test_refuses_before_the_tietze_move():
    """A node refuses a word by its exponent sums before it substitutes for
    a once-occurring generator, so a word the test refuses never pays for
    a long image: this one needs only 24809 letters of budget."""
    p = parse_presentation("a,b | A^4Bab^2A^2BA")
    w = parse_word("ABABAB^2a^2BA^4b^2ababa^3b", p.alphabet)
    solver = Solver(SolverLimits(max_word_len=65536))
    assert solver.word_problem(p, w) is Verdict.NONTRIVIAL


def test_relator_of_a39_b_a30_b_needs_two_pinch_tests():
    """The relator of <a,b | a^39 b^-1 a^30 b> asked as a word: the one
    pinch at the top holds the excluded letter, and every residue below it
    is over the kept letters, so at most 2 descents (pinch and residue
    tests) and 4 nodes."""
    p = parse_presentation("a,b | a^39Ba^30b")
    solver = Solver()
    assert solver.word_problem(p, p.relator) is Verdict.TRIVIAL
    assert solver.stats["pinch_tests"] + solver.stats["residue_tests"] <= 2
    assert solver.stats["nodes"] <= 4


def test_memo_keeps_what_it_reuses():
    """The memo evicts the least recently used entry: a pinch answer hit
    between inserts outlives MEMO_ENTRIES further inserts, which evict an
    answer that was never hit."""
    solver = Solver()
    zd = breakdown.Node(BS12.relator).zero
    # residues over the base ids in the subgroup on both: each is its own
    # witness, over the window's letters b_0 (id 2) and b_1 (id 6)
    full = frozenset({0, 1})

    def ask(word):
        return solver._base_member(zd, word, zd.ids, full, 0)

    def key(word):
        return (zd.base, 2, word, full, 1)

    hot, cold = (1,), (2,)
    assert ask(hot) == (2,) and ask(cold) == (6,)
    for k in range(solver_mod.MEMO_ENTRIES):
        ask((2,) * (k + 2))
        assert ask(hot) == (2,)
    assert solver.stats["pinch_hits"] == solver_mod.MEMO_ENTRIES
    assert len(solver._memo) == solver_mod.MEMO_ENTRIES
    assert key(hot) in solver._memo and key(cold) not in solver._memo


def test_exhausted_pinch_test_is_not_memoized():
    """A pinch test that raises stores nothing, so a query that ran out of
    budget runs out again, at the same depth, on the same solver."""
    solver = Solver(SolverLimits(max_depth=1))
    zd = breakdown.Node(BS12.relator).zero
    # a test asked at depth 1 descends to depth 2, past the budget
    with pytest.raises(ResourceExhausted):
        solver._base_member(zd, (1,), zd.ids, frozenset({0, 1}), 1)
    assert solver.stats["nodes"] == 1 and not solver._memo
    # the case of test_word_length_overrun_reports_its_depth: the pinch
    # test that overruns stores nothing
    p = parse_presentation("a,b | a^2baB")
    w = parse_word("Ba^6b", p.alphabet)
    solver = Solver(SolverLimits(max_word_len=8))
    seen = []
    for _ in range(2):
        with pytest.raises(ResourceExhausted) as info:
            solver.word_problem(p, w)
        seen.append((info.value.budget, info.value.limit, info.value.depth,
                     len(solver._memo)))
    assert seen[0] == seen[1]
    assert seen[0][:3] == ("max_word_len", 8, 1)
    assert all(key[0] is breakdown.Node for key in solver._memo)


def test_answers_do_not_depend_on_the_solvers_history():
    """One solver answering a stream of queries gives the verdicts and
    witnesses a fresh solver per query gives."""
    from test_acceptance import SEED, fuzz_queries

    shared = Solver()
    for pres, w, subset, _ in fuzz_queries(random.Random(SEED), 100, 4):
        if subset is None:
            assert shared.word_problem(pres, w) is \
                Solver().word_problem(pres, w), (pres, w)
        else:
            assert shared.magnus_membership(pres, w, subset) == \
                Solver().magnus_membership(pres, w, subset), (pres, w)


def test_memo_is_name_free():
    """The memo keys on (rank, relator), not on generator names: a renamed
    presentation is answered from the entries the original left."""
    solver = Solver()
    ab = parse_presentation("a,b | abAB^2")
    xy = parse_presentation("x,y | xyXY^2")
    # the commutator has no abelian or Tietze shortcut at the top, so it is
    # decided through its zero node and Britton reduction
    assert solver.word_problem(ab, parse_word("abAB", ab.alphabet)) is \
        Verdict.NONTRIVIAL
    entries, hits = set(solver._memo), solver.stats["memo_hits"]
    assert solver.word_problem(xy, parse_word("xyXY", xy.alphabet)) is \
        Verdict.NONTRIVIAL
    assert set(solver._memo) == entries
    assert solver.stats["memo_hits"] > hits


def test_memoization_hits():
    solver = Solver()
    solver.word_problem(BS12, (1, 2, -1, -2, -2))
    before = solver.stats["memo_hits"]
    solver.word_problem(BS12, (2, 1, 2, -1, -2, -2, -2))
    assert solver.stats["memo_hits"] > before


def test_memo_table_runs_each_breakdown_step_once(monkeypatch):
    """Repeated membership queries on one solver compute each breakdown
    step once per (function, arguments): the top nodes come from the
    memo, and each step from the node that built it."""
    calls = collections.Counter()

    def counting(name):
        fn = getattr(breakdown, name)

        def wrapper(*args):
            calls[name, args] += 1
            return fn(*args)

        monkeypatch.setattr(breakdown, name, wrapper)

    for name in ("rewrite_zero_case", "embed_nonzero_case"):
        counting(name)
    # x vanishes from the image relator of ababc; it stays in a^2 b^-3's
    queries = [(make_presentation(ABC, (1, 2, 1, 2, 3)), {1, 2},
                [(1,), (2, 1, 2, 3, 3), (1, 2, 1, 2, 3, 2)]),
               (TREFOIL, {0}, [(2, 1, -2), (2, 1, 1, -2)])]
    solver = Solver()
    answers = []
    for _ in range(2):
        before = solver.stats["memo_hits"]
        answers.append([solver.magnus_membership(p, w, subset)
                        for p, subset, ws in queries for w in ws])
        assert solver.stats["memo_hits"] > before
    assert answers[0] == answers[1]
    assert {key[0] for key in calls} == {
        "rewrite_zero_case", "embed_nonzero_case"}
    assert set(calls.values()) == {1}


def test_word_problem_shares_the_embedding(monkeypatch):
    """The word problem, membership in the trivial subgroup and the
    hierarchy tree take the trefoil's Magnus embedding by (a, b) from its
    node, and membership in <a> its embedding by (b, a): the node builds
    each once, and keeps both."""
    calls = []
    embed = breakdown.embed_nonzero_case

    def counting(*args):
        calls.append(args)
        return embed(*args)

    monkeypatch.setattr(breakdown, "embed_nonzero_case", counting)
    solver = Solver()
    w = (1, 2, -1, -2)
    assert solver.word_problem(TREFOIL, w) is Verdict.NONTRIVIAL
    assert not solver.magnus_membership(TREFOIL, w, set()).member
    assert solver.hierarchy_tree(TREFOIL)["case"] == "nonzero"
    # b^3 = a^2 is a member of <a>, b a b^-1 is not
    for _ in range(2):
        assert solver.magnus_membership(TREFOIL, (2, 2, 2),
                                        {0}).witness == (1, 1)
        assert not solver.magnus_membership(TREFOIL, (2, 1, -2), {0}).member
    cap = solver.limits.max_word_len
    assert calls.count((2, TREFOIL.relator, 0, 1, cap)) == 1
    assert calls.count((2, TREFOIL.relator, 1, 0, cap)) == 1
    assert len(set(calls)) == len(calls)
    node = solver._memo[breakdown.Node, TREFOIL.relator]
    assert set(node._steps) == {(0, 1), (1, 0)}


def test_zero_node_base_group_built_once(monkeypatch):
    """A membership query whose subset holds the stable letter, but not
    the pivot, reuses the base group the node built for its zero node.  A
    subset holding both needs the zero node on another pivot, which the
    node builds once and keeps."""
    calls = []
    rewrite = breakdown.rewrite_zero_case

    def counting(*args):
        calls.append(args)
        return rewrite(*args)

    monkeypatch.setattr(breakdown, "rewrite_zero_case", counting)
    solver = Solver()
    assert solver.word_problem(BS12, (1, 2, -1, -2, -2)) is Verdict.TRIVIAL
    res = solver.magnus_membership(BS12, (1, 1, 1), {0})
    assert res.member and res.witness == (1, 1, 1)
    assert len(calls) == 1
    # <a,b,c | a b a^-1 b^-2 c^2>: the stable letter is a and the pivot b,
    # so <a, b> takes the pivot c, and c^2 = b^2 a b^-1 a^-1
    p = parse_presentation("a,b,c | abAB^2c^2")
    for _ in range(2):
        assert solver.magnus_membership(p, (3, 3), {0, 1}).witness == (
            2, 2, 1, -2, -1)
        assert not solver.magnus_membership(p, (3,), {0, 1}).member
    assert [args for args in calls if args[0] == p.relator] == [
        (p.relator, 0), (p.relator, 0, 2)]
    node = solver._memo[breakdown.Node, p.relator]
    assert node.zero.pivot == 1 and set(node._steps) == {2}


def test_memo_holds_top_nodes_and_pinch_answers():
    """After a mixed stream of word problems, membership queries and
    hierarchy walks, every memo entry is a classified top node, keyed by
    (breakdown.Node, relator), or a pinch answer, keyed by the base
    group's node, its rank, the residue, the subset and the depth: the
    zero nodes on other pivots and the embeddings stay with their
    nodes."""
    from test_acceptance import SEED, fuzz_queries

    solver = Solver()
    for pres, w, subset, _ in fuzz_queries(random.Random(SEED), 200, 4):
        if subset is None:
            solver.word_problem(pres, w)
        else:
            solver.magnus_membership(pres, w, subset)
        solver.hierarchy_tree(pres)
    kinds = collections.Counter()
    for key, value in solver._memo.items():
        if key[0] is breakdown.Node:
            assert len(key) == 2 and value == key[1]
            assert value.classified
            kinds["top"] += 1
        else:
            node, rank, word, subset, depth = key
            assert isinstance(node, breakdown.Node) and rank >= len(
                node.support)
            assert isinstance(word, tuple) and subset <= set(range(rank))
            assert depth >= 1 and (value is None or isinstance(value, tuple))
            kinds["pinch"] += 1
    assert kinds["top"] > 100 and kinds["pinch"] > 100, kinds
    # the top nodes keep zero nodes on other pivots (keyed by pivot) and
    # embeddings (keyed by pair)
    assert {type(step) for key, node in solver._memo.items()
            if key[0] is breakdown.Node for step in node._steps} == {
                int, tuple}


def test_is_root():
    solver = Solver()
    # (ab)^2 = abab
    assert solver.is_root((1, 2), (1, 2, 1, 2), AB)
    assert not solver.is_root((1, 1, 2), (1, 2, 1, 2), AB)
    # every word is a root of itself
    assert solver.is_root((1, 2, -1, -2), (1, 2, -1, -2), AB)


def test_hierarchy_tree_shapes():
    solver = Solver()
    tree = solver.hierarchy_tree(BS12)
    assert tree["case"] == "zero"
    assert tree["children"]
    child = tree["children"][0]
    assert child["alphabet"] == ["b_0", "b_1"]
    assert child["relator"] == tree["rewritten"]
    # the base group of the zero node, which the child describes
    zd = breakdown.Node(BS12.relator).zero
    assert len(zd.pairs) == 2
    assert len(zd.base) < len(BS12.relator)

    leaf = tree
    depth = 0
    while leaf["children"]:
        leaf = leaf["children"][0]
        depth += 1
    assert leaf["case"] == "base_single"
    assert depth <= len(BS12.relator)


def test_hierarchy_tree_names():
    """Generator names are made only in the hierarchy tree: an embedding
    image takes the first two unused names of x, y, z, w, ..., a base group
    names its generators gen_subscript, and a free part keeps its names."""
    def child(node):
        return node["children"][0]

    tree = Solver().hierarchy_tree(parse_presentation("a,b | a^2b^3"))
    assert child(tree)["alphabet"] == ["x", "y"]
    tree = Solver().hierarchy_tree(parse_presentation("x,y | x^2y^3"))
    assert child(tree)["alphabet"] == ["z", "w"]
    assert child(child(tree))["alphabet"] == ["w_0", "w_3"]
    assert child(Solver().hierarchy_tree(BS12))["alphabet"] == ["b_0", "b_1"]
    tree = Solver().hierarchy_tree(parse_presentation("a,b,c | a^2"))
    assert tree["alphabet"] == ["a"] and tree["free_part"] == ["b", "c"]


def test_hierarchy_tree_free_part():
    p = make_presentation(ABC, (1, 1))
    tree = Solver().hierarchy_tree(p)
    assert tree["free_part"] == ["b", "c"]
    assert tree["case"] == "base_single"
