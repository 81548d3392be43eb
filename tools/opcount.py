"""Bytecodes executed answering the answer-hash draw: a deterministic CPU
proxy for comparing two checkouts.

Run from anywhere::

    python3 tools/opcount.py TREE [N]

``TREE`` and ``N`` (default 3000) are as for ``answer_hash.py``, and the
queries are the same: each run's solver is prepared the same way, and only
its queries are counted.  Every Python frame under each query's parse and
solve calls is traced with :func:`sys.settrace` and ``f_trace_opcodes``,
not only the frames of ``src/onerelator``, so work that moves into the
standard library (a ``functools.cached_property`` read runs its
``__get__`` in Python) is counted too.  One line per run gives the opcodes
its queries executed (``opcodes N``); the last line gives their total.

A call into C counts as one opcode whatever it does, and counts differ
across Python versions: compare trees under one interpreter, beside timed
runs.  Tracing makes the queries about five times slower.
"""

import os
import sys

from answer_hash import replay


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    count = int(argv[2]) if len(argv) == 3 else 3000
    opcodes = 0

    def step(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return step

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return step

    def call(answer, query):
        sys.settrace(enter)
        try:
            return answer(query)
        finally:
            sys.settrace(None)

    total = 0
    for workload, seed, _, _ in replay(os.path.abspath(argv[1]), count, call):
        print(f"{workload} seed {seed}: opcodes {opcodes}")
        total, opcodes = total + opcodes, 0
    print(f"total opcodes {total}")


if __name__ == "__main__":
    main(sys.argv)
