import collections

import pytest

from onerelator import breakdown, words
from onerelator.breakdown import hnn_syllables, rewrite_zero_case
from onerelator.errors import ResourceExhausted, UnknownGenerator
from onerelator.presentations import make_presentation
from onerelator.solver import (
    HnnQueryForm,
    Solver,
    SolverLimits,
    Verdict,
    word_problem,
)
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
    assert word_problem(Z2, ()) is Verdict.TRIVIAL


def test_wp_rejects_foreign_letters():
    with pytest.raises(UnknownGenerator):
        word_problem(Z2, (3,))


def test_wp_z2():
    assert word_problem(Z2, (1, 2, -1, -2)) is Verdict.TRIVIAL
    assert word_problem(Z2, (2, 1, -2, -1)) is Verdict.TRIVIAL
    assert word_problem(Z2, (1, 2)) is Verdict.NONTRIVIAL
    # commutator of squares is also trivial in Z^2
    w = words.concat([words.power((1,), 2), words.power((2,), 2),
                      words.power((1,), -2), words.power((2,), -2)])
    assert word_problem(Z2, w) is Verdict.TRIVIAL


def test_wp_bs12():
    # a b a^-1 = b^2 holds, so a b a^-1 b^-2 and its conjugates die
    assert word_problem(BS12, (1, 2, -1, -2, -2)) is Verdict.TRIVIAL
    assert word_problem(BS12, (2, 1, 2, -1, -2, -2, -2)) is Verdict.TRIVIAL
    # b a b a^-1 b^-2 equals b, hence nontrivial
    assert word_problem(BS12, (2, 1, 2, -1, -2, -2)) is Verdict.NONTRIVIAL
    assert word_problem(BS12, (1, -2)) is Verdict.NONTRIVIAL
    # a b^2 a^-1 = b^4
    w = words.concat([(1,), (2, 2), (-1,), words.power((2,), -4)])
    assert word_problem(BS12, w) is Verdict.TRIVIAL


def test_wp_klein_bottle():
    # b a^2 b^-1 a^2 dies in <a,b | abab^-1>
    assert word_problem(KLEIN, (2, 1, 1, -2, 1, 1)) is Verdict.TRIVIAL
    assert word_problem(KLEIN, (1, 2, -1, -2)) is Verdict.NONTRIVIAL


def test_wp_trefoil():
    assert word_problem(TREFOIL, TREFOIL.relator) is Verdict.TRIVIAL
    assert word_problem(TREFOIL, words.power(TREFOIL.relator, 2)) is \
        Verdict.TRIVIAL
    assert word_problem(TREFOIL, (1, 2)) is Verdict.NONTRIVIAL
    # a^2 = b^3 is central but not trivial
    assert word_problem(TREFOIL, (1, 1)) is Verdict.NONTRIVIAL


def test_wp_torsion_base_case():
    p = make_presentation(Alphabet(("a",)), (1, 1, 1))
    assert word_problem(p, (1, 1, 1)) is Verdict.TRIVIAL
    assert word_problem(p, (1, 1)) is Verdict.NONTRIVIAL
    assert word_problem(p, words.power((1,), -6)) is Verdict.TRIVIAL


def test_wp_free_factor_split():
    # <a,b,c | a^2>: c is a genuine free letter
    p = make_presentation(ABC, (1, 1))
    assert word_problem(p, (3,)) is Verdict.NONTRIVIAL
    assert word_problem(p, (3, 1, 1, -3)) is Verdict.TRIVIAL
    assert word_problem(p, (3, 1, -3, 3, 1, -3)) is Verdict.TRIVIAL
    assert word_problem(p, (1, 3)) is Verdict.NONTRIVIAL


def test_wp_surface_relator():
    # genus-2 surface group: the relator and a random conjugate die
    p = make_presentation(Alphabet(("a", "b", "c", "d")),
                          (1, 2, -1, -2, 3, 4, -3, -4))
    assert word_problem(p, p.relator) is Verdict.TRIVIAL
    w = words.concat([(2, 3), p.relator, (-3, -2)])
    assert word_problem(p, w) is Verdict.TRIVIAL
    assert word_problem(p, (1, 2, -1, -2)) is Verdict.NONTRIVIAL


def test_britton_reduce_pinch():
    zd = rewrite_zero_case(BS12, 0)
    solver = Solver()
    # a b a^-1 pinches to b_1 = b^2 at subscript level
    form = HnnQueryForm.from_word((1, 2, -1), 0)
    out = solver.britton_reduce(BS12, zd, form)
    assert out.items == [((1, 1, 1),)]
    # a b a^-1 b^-2 loses all stable letters; the residue is the relator
    # sword itself, so triviality falls to the base group
    form = HnnQueryForm.from_word((1, 2, -1, -2, -2), 0)
    out = solver.britton_reduce(BS12, zd, form)
    assert out.items == [zd.rewritten_relator]


def test_britton_keeps_genuine_stable_letters():
    zd = rewrite_zero_case(BS12, 0)
    solver = Solver()
    # a^-1 b a is not in the base: b is not a square
    form = HnnQueryForm.from_word((-1, 2, 1), 0)
    out = solver.britton_reduce(BS12, zd, form)
    assert len(out.items) == 5


def test_depth_budget_reported_honestly():
    solver = Solver(SolverLimits(max_depth=1))
    # a^2 b a^-2 b^-4 needs two base descents, over the depth budget
    with pytest.raises(ResourceExhausted):
        solver.word_problem(BS12, (1, 1, 2, -1, -1, -2, -2, -2, -2))
    # the budget is not a verdict: a roomier solver still decides it
    assert Solver().word_problem(
        BS12, (1, 1, 2, -1, -1, -2, -2, -2, -2)) is Verdict.TRIVIAL


def test_memoization_hits():
    solver = Solver()
    solver.word_problem(BS12, (1, 2, -1, -2, -2))
    before = solver.stats["memo_hits"]
    solver.word_problem(BS12, (2, 1, 2, -1, -2, -2, -2))
    assert solver.stats["memo_hits"] > before


def test_memo_table_runs_each_breakdown_step_once(monkeypatch):
    """Repeated membership queries on one solver compute each breakdown
    step the solver asks for once per (function, presentation, arguments);
    steps that ``classify`` computes internally are not counted."""
    calls = collections.Counter()
    nested = []

    def counting(name):
        fn = getattr(breakdown, name)

        def wrapper(pres, *args):
            if not nested:
                calls[name, pres.alphabet.names, pres.relator, args] += 1
            nested.append(name)
            try:
                return fn(pres, *args)
            finally:
                nested.pop()

        monkeypatch.setattr(breakdown, name, wrapper)

    for name in ("classify", "rewrite_zero_case", "embed_nonzero_case"):
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
        "classify", "rewrite_zero_case", "embed_nonzero_case"}
    assert set(calls.values()) == {1}


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
    assert tree.kind == "zero"
    assert tree.children
    child = tree.children[0]
    assert child.presentation.alphabet.names == ("b_0", "b_1")
    assert len(child.presentation.relator) < len(BS12.relator)

    leaf = tree
    depth = 0
    while leaf.children:
        leaf = leaf.children[0]
        depth += 1
    assert leaf.kind in ("base_single", "base_free")
    assert depth <= len(BS12.relator)


def test_hierarchy_tree_free_part():
    p = make_presentation(ABC, (1, 1))
    tree = Solver().hierarchy_tree(p)
    assert tree.free_part == ("b", "c")
    assert tree.kind == "base_single"
