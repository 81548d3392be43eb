import hashlib
import importlib.util
import itertools
import json
import random
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

from onerelator import oracles, words
from onerelator.errors import UnknownGenerator
from onerelator.oracles import (
    MAT_A,
    MAT_B,
    AffineMap,
    NclCertificate,
    ProjectiveMatrix,
    affine_eval_bs1n,
    check_commutator_roots,
    check_conjugacy_theorem,
    check_freiheitssatz,
    check_modular_group,
    cyclically_reduced_words,
    free_at_length,
    is_primitive_rank2,
    ncl_semidecide,
    psl2_eval,
    random_cyclically_reduced_word,
    random_reduced_word,
)
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, Verdict
from onerelator.textio import parse_presentation, parse_word, print_word
from onerelator.words import Alphabet

AB = Alphabet(("a", "b"))
Z2 = make_presentation(AB, (1, 2, -1, -2))
BS12 = make_presentation(AB, (1, 2, -1, -2, -2))


# -- normal closure ---------------------------------------------------------

def test_ncl_finds_relator_and_conjugates():
    cert = ncl_semidecide(Z2, Z2.relator, conj_len=0, max_factors=1)
    assert cert is not None
    assert cert.expand(Z2.relator) == Z2.relator
    w = words.concat([(1,), Z2.relator, (-1,)])
    cert = ncl_semidecide(Z2, w, conj_len=1, max_factors=1)
    assert cert is not None and cert.expand(Z2.relator) == w


def test_ncl_empty_word():
    cert = ncl_semidecide(Z2, (), conj_len=1, max_factors=2)
    assert cert is not None
    assert cert.expand(Z2.relator) == ()


def test_ncl_product_of_two_conjugates():
    # commutator of squares lies in ncl(abAB) but needs several factors
    w = words.reduce((1, 1, 2, 2, -1, -1, -2, -2))
    cert = ncl_semidecide(Z2, w, conj_len=2, max_factors=4)
    assert cert is not None
    assert cert.expand(Z2.relator) == w


def test_ncl_miss_is_silent():
    assert ncl_semidecide(Z2, (1,), conj_len=2, max_factors=3) is None


def test_ncl_refuses_negative_budgets():
    for conj_len, max_factors in ((-1, 2), (1, -1)):
        with pytest.raises(ValueError):
            ncl_semidecide(Z2, Z2.relator, conj_len, max_factors)


def test_ncl_rejects_letters_outside_the_alphabet():
    # as Solver.word_problem does: reduce first, then check every letter
    solver = Solver()
    for w in ((3,), (0,), (1, 3, -1)):
        with pytest.raises(UnknownGenerator):
            ncl_semidecide(Z2, w, conj_len=1, max_factors=2)
        with pytest.raises(UnknownGenerator):
            solver.word_problem(Z2, w)
    # a foreign letter that cancels is gone before the check
    assert ncl_semidecide(Z2, (3, -3), 1, 2) == NclCertificate(())
    assert solver.word_problem(Z2, (3, -3)) is Verdict.TRIVIAL


def _reduced_words(num_gens, max_len):
    letters = [s * (g + 1) for g in range(num_gens) for s in (1, -1)]
    return [w for n in range(max_len + 1)
            for w in itertools.product(letters, repeat=n)
            if words.reduce(w) == w]


def _ncl_reference(pres, conj_len, max_factors):
    """Fewest factors of each product of <= max_factors conjugates
    g r^+-1 g^-1 with |g| <= conj_len, every product listed: no pruning and
    no dedup."""
    conjugates = [words.concat([g, r, words.invert(g)])
                  for g in _reduced_words(pres.alphabet.size, conj_len)
                  for r in (pres.relator, words.invert(pres.relator))]
    fewest = {}
    for k in range(max_factors + 1):
        for combo in itertools.product(conjugates, repeat=k):
            fewest.setdefault(words.concat(combo), k)
    return fewest


def _ncl_cold_and_warm(pres, w, conj_len, max_factors):
    """The search's answer, which must not change once its product table
    is cached."""
    oracles._tables.clear()
    cold = ncl_semidecide(pres, w, conj_len, max_factors)
    assert ncl_semidecide(pres, w, conj_len, max_factors) == cold
    return cold


@pytest.mark.parametrize("pres", [Z2, BS12], ids=["Z2", "BS12"])
def test_ncl_matches_brute_force_reference(pres):
    # budgets (conj_len, max_factors) with both odd and even max_factors
    for conj_len, max_factors in ((0, 1), (1, 1), (1, 2), (1, 3), (0, 4)):
        fewest = _ncl_reference(pres, conj_len, max_factors)
        for w in _reduced_words(2, 6):
            if w not in fewest:
                assert _ncl_cold_and_warm(pres, w, conj_len,
                                          max_factors) is None
        # every product, not only the short ones, so that hits of 3 and 4
        # factors count
        for w, k in fewest.items():
            cert = _ncl_cold_and_warm(pres, w, conj_len, max_factors)
            assert cert is not None and len(cert.factors) == k, (
                w, conj_len, max_factors)
            assert cert.expand(pres.relator) == w


def test_ncl_table_shared_across_names():
    # x,y | xyXY and a,b | abAB have the same rank and relator ids
    xy = parse_presentation("x,y | xyXY")
    oracles._tables.clear()
    w = words.reduce((1, 1, 2, 2, -1, -1, -2, -2))
    first = ncl_semidecide(xy, w, conj_len=2, max_factors=4)
    second = ncl_semidecide(Z2, w, conj_len=2, max_factors=4)
    assert len(oracles._tables) == 1
    assert first is not None and first.factors == second.factors


def test_ncl_table_stores_each_inverse_as_its_own_key():
    tags, inverses = oracles._products(2, BS12.relator, 1, 2)
    assert len(inverses) == len(tags)
    keys = {id(q) for q in tags}
    for q, q_inv in zip(tags, inverses):
        assert q_inv == words.invert(q) and id(q_inv) in keys


def test_ncl_table_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(oracles, "PRODUCT_TABLES", 40)
    oracles._tables.clear()
    # half = k: one distinct cheap table of 2k + 1 products per k
    for k in range(1, 12):
        assert ncl_semidecide(Z2, (1,), conj_len=0, max_factors=2 * k) is None
        held = sum(len(tags) for tags, _ in oracles._tables.values())
        assert held <= 40
        # the table just built always stays
        assert next(reversed(oracles._tables))[3] == k
    # the least recently used go first: k = 10 and 11 hold 21 + 23 > 40
    assert [key[3] for key in oracles._tables] == [11]
    ncl_semidecide(Z2, (1,), conj_len=0, max_factors=2)
    ncl_semidecide(Z2, (1,), conj_len=0, max_factors=4)
    assert [key[3] for key in oracles._tables] == [11, 1, 2]
    ncl_semidecide(Z2, (1,), conj_len=0, max_factors=2)
    ncl_semidecide(Z2, (1,), conj_len=0, max_factors=10)
    assert [key[3] for key in oracles._tables] == [2, 1, 5]
    # a table larger than the budget stays alone
    ncl_semidecide(Z2, (1,), conj_len=0, max_factors=60)
    assert [key[3] for key in oracles._tables] == [30]


def test_ncl_table_cache_under_threads(monkeypatch):
    # a small bound, so that the threads evict each other's tables
    monkeypatch.setattr(oracles, "PRODUCT_TABLES", 20)
    oracles._tables.clear()
    pool = [parse_presentation(f"a,b | {r}") for r in (
        "abAB", "abABB", "a^2b^3", "abAb", "aBaB", "a^3b", "abaB^2", "ab^2")]
    # each relator is its own certificate; the commutator is one for abAB
    targets = [(p, w) for p in pool for w in (p.relator, (1, 2, -1, -2))]
    expected = {(p, w): ncl_semidecide(p, w, 1, 2) for p, w in targets}
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(4000):
                p, w = rng.choice(targets)
                if ncl_semidecide(p, w, 1, 2) != expected[p, w]:
                    failures.append((p, w))
        except Exception as e:  # reported by the assertion below
            failures.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    held = sum(len(tags) for tags, _ in oracles._tables.values())
    assert held <= 20 or len(oracles._tables) == 1


def _perfbench_gen():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_ncl_benchmark_tables_fit_the_cache():
    """The tables the oracle-ncl workload asks for, one per presentation
    and budget, fit in :data:`oracles.PRODUCT_TABLES` together."""
    gen = _perfbench_gen()
    oracles._tables.clear()
    for entry in gen.NCL_CATALOGUE:
        pres = parse_presentation(entry.text)
        for conj_len, factors in gen.NCL_BUDGETS:
            ncl_semidecide(pres, (1,), conj_len, factors)
    assert len(oracles._tables) == 15


def test_ncl_certificates_are_pinned():
    """SHA-256 of the first 2000 seed-3 oracle-ncl answers, each rendered
    as ``perfbench/worker.py`` renders it, one JSON line per answer.  A
    change to the search may change its speed, never a certificate."""
    digest = hashlib.sha256()
    for q, _ in islice(_perfbench_gen().stream("oracle-ncl", 3), 2000):
        pres = parse_presentation(q[1])
        cert = ncl_semidecide(pres, parse_word(q[2], pres.alphabet), q[3],
                              q[4])
        answer = "none" if cert is None else [
            "found", print_word(pres.relator, pres.alphabet),
            [[print_word(c, pres.alphabet), eps] for c, eps in cert.factors]]
        digest.update((json.dumps(answer) + "\n").encode())
    assert digest.hexdigest() == (
        "ecc2f209506446b68b79e1474e591cd3f4ddc0f015d7cab8ec3da3705dc0a876")


# -- modular group ----------------------------------------------------------

def test_projective_matrix_normalization():
    assert ProjectiveMatrix.of(-1, 0, 0, -1) == ProjectiveMatrix.identity()
    with pytest.raises(ValueError):
        ProjectiveMatrix.of(1, 0, 0, 2)
    m = ProjectiveMatrix.of(2, 1, 1, 1)
    assert m * m.inverse() == ProjectiveMatrix.identity()


def test_generator_orders():
    assert (MAT_A * MAT_A).is_identity()
    assert (MAT_B * MAT_B * MAT_B).is_identity()
    assert not (MAT_B * MAT_B).is_identity()


def test_commutator_is_corrected_beta0():
    beta0 = psl2_eval((1, 2, -1, -2))
    assert {beta0, beta0.inverse()} == {ProjectiveMatrix.of(2, 1, 1, 1),
                                        ProjectiveMatrix.of(1, -1, -1, 2)}


BETA0 = psl2_eval((1, 2, -1, -2))
BETA1 = psl2_eval((1, -2, -1, 2))


def test_free_at_length():
    assert free_at_length(BETA0, BETA1, 8)
    # a has order 2, so the pair (a, b) is certainly not free
    assert not free_at_length(MAT_A, MAT_B, 2)


def _free_reference(m1, m2, max_len):
    """Breadth-first search of every reduced word of length <= max_len."""
    gens = {1: m1, -1: m1.inverse(), 2: m2, -2: m2.inverse()}
    frontier = [((), ProjectiveMatrix.identity())]
    for _ in range(max_len):
        nxt = []
        for w, m in frontier:
            for lt, g in gens.items():
                if w and w[-1] == -lt:
                    continue
                prod = m * g
                if prod.is_identity():
                    return False
                nxt.append((w + (lt,), prod))
        frontier = nxt
    return True


def test_free_at_length_matches_breadth_first_reference():
    mats = [MAT_A, MAT_B, BETA0, BETA1, ProjectiveMatrix.identity(),
            ProjectiveMatrix.of(1, 2, 0, 1), ProjectiveMatrix.of(1, 0, 2, 1)]
    for m1, m2 in itertools.product(mats, repeat=2):
        for max_len in range(9):
            assert free_at_length(m1, m2, max_len) == _free_reference(
                m1, m2, max_len), (m1, m2, max_len)


def test_free_at_length_odd_boundaries():
    # b^3 has odd length: one half of length 2 against one of length 1
    assert free_at_length(MAT_B, BETA0, 2)
    assert not free_at_length(MAT_B, BETA0, 3)
    # a^2 has even length: a against A
    assert free_at_length(MAT_A, BETA0, 1)
    assert not free_at_length(MAT_A, BETA0, 2)


# -- primitivity ------------------------------------------------------------

def test_primitive_generators_and_images():
    assert is_primitive_rank2((1,))
    assert is_primitive_rank2((-2,))
    assert is_primitive_rank2((1, 2))
    assert is_primitive_rank2((1, 1, 2))
    assert is_primitive_rank2((1, 2, -1))  # conjugate of a generator


def test_non_primitive_words():
    assert not is_primitive_rank2((1, 1))
    assert not is_primitive_rank2((1, 2, -1, -2))
    assert not is_primitive_rank2((1, 1, 2, 2))
    assert not is_primitive_rank2(())


def test_primitivity_is_automorphism_invariant():
    # applying a basis change to a primitive word keeps it primitive
    w = (1, 2)
    image = words.reduce([lt for a in w for lt in
                          ((1, 2) if a == 1 else (2,))])
    assert is_primitive_rank2(image)


# -- affine representation --------------------------------------------------

def test_affine_map_algebra():
    from fractions import Fraction
    m = AffineMap(Fraction(2), Fraction(3))
    assert (m * m.inverse()).is_identity()
    assert (m.inverse() * m).is_identity()
    # product order: (self after other)
    n = AffineMap(Fraction(1), Fraction(1))
    assert (m * n).offset == Fraction(5)  # 2*(x+1)+3


def test_affine_kills_bs_relator():
    for n in (2, 3, -2):
        relator = words.reduce((1, 2, -1) + tuple([-2] * n if n > 0
                                                  else [2] * (-n)))
        assert affine_eval_bs1n(relator, n).is_identity()


def test_affine_detects_nontrivial_words():
    assert not affine_eval_bs1n((2,), 2).is_identity()
    assert not affine_eval_bs1n((1,), 2).is_identity()
    # b a b a^-1 b^-2 equals b in BS(1,2)
    assert not affine_eval_bs1n((2, 1, 2, -1, -2, -2), 2).is_identity()


def test_affine_rejects_degenerate_n():
    with pytest.raises(ValueError):
        affine_eval_bs1n((1,), 0)


# -- enumeration and suites -------------------------------------------------

def test_cyclically_reduced_words_counts():
    pool = cyclically_reduced_words(2, 2)
    assert all(words.is_cyclically_reduced(w) and w for w in pool)
    assert len(pool) == 4 + 12  # 4 letters plus all 12 reduced pairs


def test_random_reduced_word_is_reduced():
    rng = random.Random(0)
    for _ in range(100):
        w = random_reduced_word(rng, 3, rng.randint(0, 10))
        assert words.reduce(w) == w


def test_freiheitssatz_relators_repeat_every_generator():
    """The Freiheitssatz suite draws cyclically reduced relators of length
    6..relator_len in which each of a, b, c occurs at least twice, so no
    top node has a Tietze move; a shorter relator cannot hold each twice,
    so a lower bound is refused, not sampled forever."""
    drawn = set()

    class Recording(Solver):
        def word_problem(self, pres, w):
            drawn.add(pres.relator)
            return super().word_problem(pres, w)

    report = check_freiheitssatz(relators=20, words_per_relator=2,
                                 relator_len=7, seed=2, solver=Recording())
    assert report.passed and len(drawn) == 20
    for r in drawn:
        assert 6 <= len(r) <= 7 and words.is_cyclically_reduced(r)
        assert all(r.count(a) + r.count(-a) >= 2 for a in (1, 2, 3)), r
    with pytest.raises(ValueError):
        check_freiheitssatz(relator_len=5)
    rng = random.Random(0)
    assert len(random_cyclically_reduced_word(rng, 3, 2)) == 2


def test_check_suites_pass_at_small_scale():
    assert check_conjugacy_theorem(3).passed
    assert check_commutator_roots(3).passed
    assert check_modular_group().passed
    report = check_freiheitssatz(relators=10, words_per_relator=5, seed=1)
    assert report.passed and report.checked == 50


def test_check_report_lines_end_with_verdict():
    report = oracles.CheckReport(name="demo", checked=3, hits=1)
    assert report.lines()[-1] == "PASS"
    report.violations.append("made-up")
    assert report.lines()[-1] == "FAIL"
    assert any("made-up" in line for line in report.lines())


def test_check_suites_reject_non_desk_scale():
    with pytest.raises(ValueError):
        check_conjugacy_theorem(6)
