"""Desk-scale acceptance suite.

Each test states its budget inline and asserts it, so a pass also certifies
the runtime envelope.  Randomized sweeps are seeded for reproducibility.
"""

import random
import time
from collections import Counter

from onerelator import oracles, words
from onerelator.breakdown import Node
from onerelator.cli import main
from onerelator.oracles import (
    MAT_A,
    MAT_B,
    ProjectiveMatrix,
    affine_eval_bs1n,
    free_at_length,
    ncl_semidecide,
    psl2_eval,
    random_cyclically_reduced_word,
    random_reduced_word,
)
from onerelator.presentations import make_presentation
from onerelator.solver import Solver, Verdict
from onerelator.textio import parse_presentation, parse_word, print_word
from onerelator.words import Alphabet
from subscripts import substitute_back

AB = Alphabet(("a", "b"))

SEED = 20260824


def test_criterion_1_z2_oracle_equivalence():
    """1000 random words of length <= 16 on <a,b | abAB>; solve must agree
    with the exponent-vector criterion.  Budget: 60 s."""
    rng = random.Random(SEED)
    pres = make_presentation(AB, (1, 2, -1, -2))
    solver = Solver()
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randint(0, 16))
        verdict = solver.word_problem(pres, w)
        expect = words.exponent_vector(w, 2) == (0, 0)
        if (verdict is Verdict.TRIVIAL) != expect:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60
    print(f"criterion 1: 1000 words, 0 disagreements, {elapsed:.2f}s PASS")


def test_criterion_2_bs12_oracle_equivalence():
    """500 random words of length <= 12 on BS(1,2); solve must agree with
    the exact affine representation.  Budget: 120 s."""
    rng = random.Random(SEED)
    pres = make_presentation(AB, (1, 2, -1, -2, -2))
    solver = Solver()
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(500):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        verdict = solver.word_problem(pres, w)
        expect = affine_eval_bs1n(w, 2).is_identity()
        if (verdict is Verdict.TRIVIAL) != expect:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 120
    print(f"criterion 2: 500 words, 0 disagreements, {elapsed:.2f}s PASS")


def test_criterion_3_freiheitssatz():
    """200 random full-support relators over {a,b,c}, 50 probes each:
    nontrivial elements of the subgroup on {a,b} never die.  Each probe
    holds a spliced-in relator conjugate, so the hierarchy below the top
    node answers some of them: the solver visits more nodes than there
    are probes."""
    solver = Solver()
    t0 = time.perf_counter()
    report = oracles.check_freiheitssatz(
        relators=200, words_per_relator=50, relator_len=6, seed=SEED,
        solver=solver)
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert not report.exhausted
    assert report.checked == 200 * 50
    assert solver.stats["nodes"] > report.checked
    print(f"criterion 3: {report.checked} cases, 0 violations, "
          f"{elapsed:.2f}s PASS")


def test_criterion_4_conjugacy_theorem():
    """Exhaustive mutual-root scan at length <= 4 over {a,b}: mutually
    rooted pairs are cyclically equal up to inversion.  Budget: 10 min."""
    t0 = time.perf_counter()
    report = oracles.check_conjugacy_theorem(4)
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert not report.exhausted
    assert elapsed < 600
    print(f"criterion 4: {report.checked} pairs, {report.hits} mutual, "
          f"0 violations, {elapsed:.2f}s PASS")


def test_criterion_5_commutator_roots():
    """Every cyclically reduced root of abAB at length <= 4 is rank-2
    primitive or the commutator itself up to cyclic moves and inversion."""
    report = oracles.check_commutator_roots(4)
    assert report.passed
    assert not report.exhausted
    assert report.hits > 0
    print(f"criterion 5: {report.checked} candidates, {report.hits} roots, "
          f"0 violations PASS")


def test_criterion_6_modular_group():
    """Matrix facts behind the modular-group discussion.  Budget: 5 s."""
    t0 = time.perf_counter()
    # (i) generator orders
    assert (MAT_A * MAT_A).is_identity()
    assert (MAT_B * MAT_B * MAT_B).is_identity()
    # (ii) the commutator pair, as an unordered set (the composition
    # convention is not pinned down, so the pair is what is asserted)
    beta0 = psl2_eval((1, 2, -1, -2))
    beta0_rev = psl2_eval((2, 1, -2, -1))
    assert {beta0, beta0_rev} == {ProjectiveMatrix.of(2, 1, 1, 1),
                                  ProjectiveMatrix.of(1, -1, -1, 2)}
    # (iii) mutual inverses
    assert beta0 * beta0_rev == ProjectiveMatrix.identity()
    # (iv) commutator-subgroup generators are relation-free to length 12
    beta1 = psl2_eval((1, -2, -1, 2))
    assert free_at_length(beta0, beta1, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    print(f"criterion 6: 4 items, {elapsed:.2f}s PASS")


def test_criterion_7_klein_bottle_and_trefoil():
    """The two-syllable family: Klein bottle and trefoil facts, each
    cross-checked against an independent certificate.  Budget: 60 s."""
    t0 = time.perf_counter()
    solver = Solver()
    klein = make_presentation(AB, (1, 2, 1, -2))
    w = (2, 1, 1, -2, 1, 1)  # b a^2 b^-1 a^2
    assert solver.word_problem(klein, w) is Verdict.TRIVIAL
    cert = ncl_semidecide(klein, w, conj_len=2, max_factors=3)
    assert cert is not None and cert.expand(klein.relator) == w
    comm = (1, 2, -1, -2)
    assert solver.word_problem(klein, comm) is Verdict.NONTRIVIAL
    # semidecision consistency: no certificate shows up either
    assert ncl_semidecide(klein, comm, conj_len=2, max_factors=3) is None

    trefoil = make_presentation(AB, (1, 1, -2, -2, -2))
    for k in (1, 2):
        rk = words.power(trefoil.relator, k)
        assert solver.word_problem(trefoil, rk) is Verdict.TRIVIAL
        cert = ncl_semidecide(trefoil, rk, conj_len=1, max_factors=k)
        assert cert is not None and cert.expand(trefoil.relator) == rk
    assert solver.word_problem(trefoil, (1, 2)) is Verdict.NONTRIVIAL
    # abelianization certificate: (1,1) is not a multiple of (2,-3)
    from onerelator.presentations import abelian_obstruction
    assert abelian_obstruction(
        2, words.exponent_vector(trefoil.relator, 2), (1, 2), frozenset())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"criterion 7: klein + trefoil cross-checked, {elapsed:.2f}s PASS")


def all_full_support_relators(max_len):
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


def test_criterion_8_hierarchy_strict_descent():
    """Exhaustive relators of length <= 6 over {a,b}: zero-case children
    strictly shorter, round-trips exact, tree depth <= |r|."""
    checked = 0
    for r in all_full_support_relators(6):
        pres = make_presentation(AB, r)
        if len(pres.relator) < len(r):
            continue
        checked += 1
        zd = Node(pres.relator).zero
        if zd is not None:
            assert len(zd.base) < len(r)
            back = substitute_back(zd.base, zd.pairs, zd.stable)
            core = words.cyclic_reduce(back)
            assert words.cyclically_equal_up_to_inversion(core, r)
        # depth = number of shortening (zero-case) steps; embedding nodes
        # only reshape the presentation and are not counted
        tree = Solver().hierarchy_tree(pres)
        depth = 0
        node = tree
        while node["children"]:
            if node["case"] == "zero":
                depth += 1
            node = node["children"][0]
        assert depth <= len(r)
        assert node["case"] == "base_single"
    assert checked > 300
    print(f"criterion 8: {checked} relators, strict descent PASS")


def test_criterion_9_witness_validity():
    """Every Member verdict in a seeded sweep carries a witness over the
    subset with w * witness^-1 trivial."""
    rng = random.Random(SEED)
    solver = Solver()
    suites = [
        (make_presentation(AB, (1, 2, -1, -2)), [{0}, {1}]),
        (make_presentation(AB, (1, 2, -1, -2, -2)), [{0}, {1}]),
        (make_presentation(Alphabet(("a", "b", "c")), (1, 2, 3)),
         [{0, 1}, {1, 2}, {2}]),
        (make_presentation(Alphabet(("a", "b", "c")), (1, 1, 2, -3)),
         [{0, 1}, {0, 2}]),
    ]
    members = violations = 0
    for pres, subsets in suites:
        for subset in subsets:
            for _ in range(40):
                w = random_reduced_word(rng, pres.alphabet.size,
                                        rng.randint(0, 8))
                res = solver.magnus_membership(pres, w, subset)
                if not res.member:
                    continue
                members += 1
                if not words.support(res.witness) <= subset:
                    violations += 1
                    continue
                diff = words.multiply(w, words.invert(res.witness))
                if solver.word_problem(pres, diff) is not Verdict.TRIVIAL:
                    violations += 1
    assert violations == 0
    assert members > 50
    print(f"criterion 9: {members} witnesses validated, 0 violations PASS")


def test_criterion_10_parser_round_trip(capsys):
    """1000 random words and 200 presentations survive print-then-parse;
    malformed inputs exit with code 2 and report a character offset."""
    rng = random.Random(SEED)
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randint(0, 20))
        assert parse_word(print_word(w, AB), AB) == w
    count = 0
    while count < 200:
        r = random_reduced_word(rng, 2, rng.randint(1, 8))
        if not words.is_cyclically_reduced(r):
            continue
        count += 1
        pres = make_presentation(AB, r)
        from onerelator.textio import print_presentation
        again = parse_presentation(print_presentation(pres))
        assert again == pres
    malformed = [
        ["solve", "a,b | abx", "ab"],
        ["solve", "a,b abAB", "ab"],
        ["solve", "a,b | abAB", "a^0"],
        ["solve", "a,b | abAB", "a+b"],
        ["member", "a,b | abAB", "ab", "--subset", "a,q"],
    ]
    for argv in malformed:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "offset" in err
    print("criterion 10: 1000 words + 200 presentations round-trip, "
          "malformed inputs exit 2 PASS")


def fuzz_relator(rng):
    """Full-support cyclically reduced relator of length 4-8 over 2 or 3
    generators in which every generator occurs at least twice, so that no
    Tietze move decides the top node and the hierarchy path runs."""
    while True:
        n = rng.choice((2, 3))
        length = rng.randint(4, 8)
        r = random_cyclically_reduced_word(rng, n, length)
        while len(words.support(r)) < n:
            r = random_cyclically_reduced_word(rng, n, length)
        if min(Counter(words.letter_gen(lt) for lt in r).values()) >= 2:
            return n, r


def splice_conjugates(rng, w, relator, num_gens):
    """``w`` with 1-3 conjugates ``c r^+-1 c^-1`` (``|c| <= 3``) inserted at
    random positions, freely reduced: equal to ``w`` in the group."""
    w = list(w)
    for _ in range(rng.randint(1, 3)):
        c = random_reduced_word(rng, num_gens, rng.randint(0, 3))
        r = relator if rng.random() < 0.5 else words.invert(relator)
        pos = rng.randint(0, len(w))
        w[pos:pos] = c + r + words.invert(c)
    return words.reduce(w)


def over_gens(w, gens):
    """``w`` over ids ``0..k-1`` with id ``k`` renamed ``gens[k]``."""
    return tuple(gens[lt - 1] + 1 if lt > 0 else -gens[-lt - 1] - 1
                 for lt in w)


def fuzz_queries(rng, relators, per_relator):
    """Seeded ``(pres, w, subset, witness)`` draws: ``subset`` None for a
    word-problem query with a trivial answer, else a proper generator
    subset and the exact witness the membership query must return."""
    for _ in range(relators):
        n, r = fuzz_relator(rng)
        pres = make_presentation(Alphabet("abc"[:n]), r)
        for _ in range(per_relator):
            yield pres, splice_conjugates(rng, (), r, n), None, None
            gens = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            v = over_gens(random_reduced_word(rng, len(gens),
                                              rng.randint(1, 6)), gens)
            yield pres, splice_conjugates(rng, v, r, n), frozenset(gens), v


def test_differential_fuzz():
    """Random relators without a once-occurring generator, 1000 of them,
    4 trivial words and 4 constructed members each: every product of
    relator conjugates is trivial, and every subset word with conjugates
    spliced in comes back as its own witness.  Budget: 60 s."""
    solver = Solver()
    t0 = time.perf_counter()
    trivial = members = 0
    for pres, w, subset, v in fuzz_queries(random.Random(SEED), 1000, 4):
        if subset is None:
            assert solver.word_problem(pres, w) is Verdict.TRIVIAL, (pres, w)
            trivial += 1
        else:
            res = solver.magnus_membership(pres, w, subset)
            assert res.member and res.witness == v, (pres, w, subset)
            members += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"differential fuzz: {trivial} trivial, {members} members, "
          f"{elapsed:.2f}s PASS")


def test_long_britton_fold_chains():
    """BS(1,2) words whose Britton pass folds thousands of pinches into one
    growing word: (abAb)^4000 is nontrivial and (abAB^2)^3000 trivial, as
    the exact affine representation says.  Each fold costs only the letters
    it pushes.  Budget: 2 s of CPU time per word."""
    pres = parse_presentation("a,b | abAB^2")
    for text, k, expect in (("abAb", 4000, Verdict.NONTRIVIAL),
                            ("abAB^2", 3000, Verdict.TRIVIAL)):
        w = parse_word(text, pres.alphabet) * k
        t0 = time.process_time()
        verdict = Solver().word_problem(pres, w)
        elapsed = time.process_time() - t0
        assert verdict is expect, (text, k)
        assert affine_eval_bs1n(w, 2).is_identity() == (
            expect is Verdict.TRIVIAL)
        assert elapsed < 2, (text, k, elapsed)
        print(f"long folds: ({text})^{k} {verdict.value}, {elapsed:.2f}s PASS")


def test_ncl_exhaustive_miss_and_deep_hit():
    """In <a,b,c | abcABC>, at conjugator length 2 and 4 factors, the miss
    abcABCbcBCAcbCa and a product of 4 conjugates are each settled by a
    meet-in-the-middle search over products of at most 2 conjugates.  The
    word's b-exponent sum is 1 and the relator's exponent sums are 0, so
    the word is nontrivial in the abelianization and the miss is real.
    Budget: 2 s of CPU time per search, with the product table built
    afresh for each, so that the bound is one on building it."""
    pres = parse_presentation("a,b,c | abcABC")
    r, r_inv = pres.relator, words.invert(pres.relator)
    miss = parse_word("abcABCbcBCAcbCa", pres.alphabet)
    assert words.exponent_vector(r, 3) == (0, 0, 0)
    assert words.exponent_sum(miss, 1) == 1
    hit = ()
    for text, rel in (("a", r), ("Bc", r_inv), ("ca", r), ("bA", r_inv)):
        g = parse_word(text, pres.alphabet)
        hit = words.concat([hit, g, rel, words.invert(g)])
    for w, found in ((miss, False), (hit, True)):
        oracles._tables.clear()
        t0 = time.process_time()
        cert = ncl_semidecide(pres, w, conj_len=2, max_factors=4)
        elapsed = time.process_time() - t0
        assert (cert is not None) is found
        if found:
            assert len(cert.factors) == 4
            assert cert.expand(r) == w
        assert elapsed < 2, (print_word(w, pres.alphabet), elapsed)
        print(f"ncl: {print_word(w, pres.alphabet)} "
              f"{'found' if found else 'none'}, {elapsed:.2f}s PASS")
