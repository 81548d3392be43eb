"""Answer hash of the solver workloads: a check that a change keeps every
verdict and witness.

Run from anywhere::

    python3 tools/answer_hash.py TREE [N]

``TREE`` is the root of a checkout whose ``src/onerelator`` is imported;
``N`` (default 3000) is the number of queries per workload and seed.  The
queries come from this checkout's ``perfbench/gen.py``, so two trees are
compared on the same draw.  For each of ``wp-warm``, ``member-warm`` and
``wp-cold`` at seeds 1 and 2, one solver is prepared as a benchmark worker
prepares it (the workload's catalogue set up), then answers the first ``N``
queries in process.  Each answer is rendered as the worker renders it
(``exhausted`` when a budget runs out).  One line per run gives the SHA-256
over the answers, each followed by a newline, then the hierarchy nodes,
the pinch tests, the tests of final residues, the pinches folded through
a Tietze table, the nodes a Tietze move decided and the nodes the
Freiheitssatz exit decided that the queries took (``nodes N pinch_tests P
residue_tests R tietze_folds F eliminations E free_exits X``); the last
line is the SHA-256 over the six raw digests, in that order.
"""

import hashlib
import os
import sys
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = [(workload, seed) for workload in ("wp-warm", "member-warm", "wp-cold")
        for seed in (1, 2)]


def replay(tree, count, call=lambda answer, query: answer(query)):
    """Answer the first ``count`` queries of each run in ``RUNS`` with the
    checkout at ``tree``, each by ``call(answer, query)``, so that a caller
    can wrap each query's parse and solve and nothing else.  Yields
    ``(workload, seed, answers, counts)`` per run: the rendered answers and
    the rise of six solver counters over them, by name."""
    sys.path[:0] = [os.path.join(tree, "src"),
                    os.path.join(os.path.dirname(HERE), "perfbench")]
    from onerelator import Solver, parse_presentation, parse_word
    from onerelator.errors import ResourceExhausted
    from onerelator.textio import print_word
    import gen

    for workload, seed in RUNS:
        solver = Solver()
        for text in gen.catalogue(workload):
            solver.hierarchy_tree(parse_presentation(text))

        def answer(query):
            try:
                pres = parse_presentation(query[1])
                w = parse_word(query[2], pres.alphabet)
                if query[0] == "wp":
                    return solver.word_problem(pres, w).value
                subset = {pres.alphabet.index(x) for x in query[3].split(",")}
                res = solver.magnus_membership(pres, w, subset)
            except ResourceExhausted:
                return "exhausted"
            if not res.member:
                return "nonmember"
            return "member " + print_word(res.witness, pres.alphabet)

        before = dict(solver.stats)
        answers = [call(answer, query)
                   for query, _ in islice(gen.stream(workload, seed), count)]
        yield workload, seed, answers, {
            key: solver.stats[key] - before[key]
            for key in ("nodes", "pinch_tests", "residue_tests",
                        "tietze_folds", "eliminations", "free_exits")}


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    count = int(argv[2]) if len(argv) == 3 else 3000
    digests = []
    for workload, seed, answers, counts in replay(os.path.abspath(argv[1]),
                                                  count):
        h = hashlib.sha256()
        for text in answers:
            h.update(text.encode() + b"\n")
        digests.append(h.digest())
        counts = " ".join(f"{key} {n}" for key, n in counts.items())
        print(f"{workload} seed {seed}: {h.hexdigest()} {counts}")
    total = hashlib.sha256(b"".join(digests)).hexdigest()
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv)
