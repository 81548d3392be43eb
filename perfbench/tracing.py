"""Span recording around the public functions of each ``onerelator`` layer.

Only the benchmark installs these wrappers, and only in a traced worker.
Every public function and public method defined in a layer module is
replaced by a wrapper that records a span (name, start, end, parent span,
query id).  Modules bind each other's functions by name (``from .words
import ...``), so the wrapper is rebound under every name in every loaded
``onerelator`` module that refers to the original.  The per-letter helpers
stay unwrapped; their time falls into the caller's self time.

Spans live in flat arrays while the worker runs and are summarised and
written out when it finishes.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array

LAYERS = ("textio", "words", "presentations", "breakdown", "solver", "oracles")

#: called once per letter; wrapping them would swamp every other span
PER_LETTER = {"words.letter", "words.letter_gen", "words.letter_sign",
              "words.Alphabet.index"}

#: functions whose truthy results are counted, for the ratio metrics
COUNT_TRUE = {"presentations.abelian_obstruction", "oracles.ncl_semidecide"}

#: breakdown calls that the solver's memo tables stand in front of
MEMO_BACKED = {"breakdown.classify", "breakdown.rewrite_zero_case",
               "breakdown.embed_nonzero_case"}

SETUP = -1  # query id of spans recorded during worker set-up


def _input_letters(args):
    """Letters in the word arguments of a ``words`` call."""
    n = 0
    for a in args:
        if isinstance(a, (tuple, list)):
            if a and isinstance(a[0], (tuple, list)):
                n += sum(len(x) for x in a)
            else:
                n += len(a)
    return n


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.query_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.query = SETUP
        self.letters = {SETUP: 0}
        self.true_counts = {}

    def begin_query(self, qid):
        self.query = qid
        self.letters.setdefault(qid, 0)

    def wrap(self, fn, span_name):
        nid = len(self.names)
        self.names.append(span_name)
        name_of, parent_of, query_of = (self.name_of, self.parent_of,
                                        self.query_of)
        start, end = self.start, self.end
        clock = time.perf_counter
        tracer = self
        count_letters = span_name.startswith("words.")
        count_true = span_name in COUNT_TRUE
        if count_true:
            self.true_counts[span_name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = tracer.current
            name_of.append(nid)
            parent_of.append(parent)
            query_of.append(tracer.query)
            if count_letters:
                tracer.letters[tracer.query] += _input_letters(args)
            end.append(0.0)
            tracer.current = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = parent
            if count_true and result and tracer.query != SETUP:
                tracer.true_counts[span_name] += 1
            return result

        return wrapper

    def install(self, package):
        """Wrap every layer's public functions and rebind them everywhere."""
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = f"{layer}.{name}"
                    if span not in PER_LETTER:
                        replaced[id(obj)] = self.wrap(obj, span)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        span = f"{layer}.{name}.{meth}"
                        if (meth.startswith("_") or span in PER_LETTER
                                or not inspect.isfunction(fn)):
                            continue
                        setattr(obj, meth, self.wrap(fn, span))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(
                    package.__name__ + "."):
                continue
            # the originals stay alive inside their wrappers, so no other
            # live object can share their ids
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-span-name calls and self time, for set-up and for queries."""
        n = len(self.start)
        start, end, parent_of = self.start, self.end, self.parent_of
        child = [0.0] * n
        for i in range(n):
            p = parent_of[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        memo_misses = 0
        for i in range(n):
            phase = "setup" if self.query_of[i] == SETUP else "query"
            name = self.names[self.name_of[i]]
            row = out.setdefault(phase, {}).setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end[i] - start[i] - child[i]
            p = parent_of[i]
            if (phase == "query" and name in MEMO_BACKED and p >= 0
                    and self.names[self.name_of[p]].startswith("solver.")):
                memo_misses += 1
        letters = sum(v for k, v in self.letters.items() if k != SETUP)
        return {"spans": out, "memo_misses": memo_misses,
                "words_letters": letters, "true_counts": self.true_counts}

    def dump(self, path):
        """Write the raw spans: a JSON header line, then the five arrays."""
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name:i", "parent:i", "query:i",
                                 "start:d", "end:d"]}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent_of, self.query_of,
                        self.start, self.end):
                arr.tofile(f)
