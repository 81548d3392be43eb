"""Query benchmark for onerelator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wp-warm --seed 1 --seconds 24 --trace 0

One client, closed loop: a single worker process answers one query at a
time, each arriving as text.  The queries come from ``gen.stream(workload,
seed)``; their expected answers never leave this process, and every answer
is checked against them after the worker replies.  Each run uses a fresh
worker process, so memory is per run.  The worker answers the same queries
in ``PASSES`` passes, each from a freshly prepared solver, and every pass
must give the same answers.  A query's latency is the worker's CPU time
over its span (see ``worker.py``); each end-to-end figure is the median of
its values in the passes.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the same untraced passes run first; then a fresh worker with span
wrappers answers their first queries once, its answers must equal the
untraced ones, and the per-layer metrics are printed.  The last line of
output is a JSON object with keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Exit status: 0 when every answer is correct, 1 when any answer or trace
check fails, 2 when the program cannot be found or a worker dies.

See ``NOTES.md`` beside this file for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: worker start-ups per run, spread over the run so that they sample the
#: same machine conditions as the queries; setup_s is their median
SETUP_RUNS = 9
#: queries sent to the worker per message
CHUNK = 500
#: passes over the same queries per run, each from a freshly prepared
#: solver; latency percentiles and throughput are medians over the passes,
#: so that one pass caught in a slow spell of a shared host does not decide
#: a run (on a 2-core virtual machine the same pass took from 6.1 s to
#: 8.2 s within one minute)
PASSES = 3
#: queries replayed by the traced worker (all of them if fewer were run);
#: sized to keep its spans in memory to roughly a million
TRACE_QUERIES = {"wp-warm": 1500, "member-warm": 3000, "wp-cold": 2000,
                 "oracle-ncl": 1500}
WORKLOADS = ("wp-warm", "member-warm", "wp-cold", "oracle-ncl")
#: layers each workload is designed to exercise while answering queries
EXPECTED_LAYERS = {
    "wp-warm": ("textio", "words", "presentations", "breakdown", "solver"),
    "member-warm": ("textio", "words", "presentations", "breakdown",
                    "solver"),
    "wp-cold": ("textio", "words", "presentations", "breakdown", "solver"),
    "oracle-ncl": ("textio", "words", "oracles"),
}


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A fresh worker process; ``ready`` is its first reply, which holds
    its set-up time."""

    def __init__(self, workload, catalogue, trace=False, setup_only=False,
                 spans_path=None):
        cfg = {"workload": workload, "catalogue": catalogue, "trace": trace,
               "setup_only": setup_only, "spans_path": spans_path}
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, ROOT, json.dumps(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        self.ready = self._read()

    def ask(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise WorkerDied(f"worker exited with {self.proc.returncode}")
        return json.loads(line)

    def close(self):
        """Stop the process and wait for it, whatever state it is in."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def untraced_run(gen, workload, seed, seconds, max_queries):
    """Answer queries in one worker in PASSES passes over the same queries,
    each from a freshly prepared solver, for ``seconds`` of query-loop time
    in all (or exactly ``max_queries`` queries per pass).  The first pass
    draws the queries; the others replay them.  SETUP_RUNS worker set-ups
    are timed in all: the query worker's own and further set-up-only
    workers started between chunks, while the query worker waits."""
    stream = gen.stream(workload, seed)
    chunk = list(itertools.islice(stream, max_queries or CHUNK))
    digest = hashlib.sha256(json.dumps([q for q, _ in chunk]).encode())
    digest_n = len(chunk)
    catalogue = gen.catalogue(workload)
    setups = []
    total_s = 0.0

    def time_setup():
        sw = Worker(workload, catalogue, setup_only=True)
        setups.append(sw.ready)
        sw.close()

    def ask(w, queries, budget):
        nonlocal total_s
        r = w.ask({"queries": queries, "budget_s": budget})
        total_s += r["loop_s"]
        while (len(setups) < SETUP_RUNS
               and total_s >= len(setups) * seconds / SETUP_RUNS):
            time_setup()
        return r

    def new_pass():
        return {"answers": [], "lat": [], "wall": [], "loop_s": 0.0,
                "loop_cpu_s": 0.0}

    def add(p, r):
        for key in ("answers", "lat", "wall"):
            p[key].extend(r[key])
        p["loop_s"] += r["loop_s"]
        p["loop_cpu_s"] += r["loop_cpu_s"]

    w = Worker(workload, catalogue)
    try:
        setups.append(w.ready)
        first, sent, chunks = new_pass(), [], []
        while True:
            budget = (None if max_queries
                      else seconds / PASSES - first["loop_s"])
            r = ask(w, [q for q, _ in chunk], budget)
            sent.extend(chunk[:len(r["answers"])])
            chunks.append([q for q, _ in chunk[:len(r["answers"])]])
            add(first, r)
            if max_queries or first["loop_s"] >= seconds / PASSES:
                break
            chunk = list(itertools.islice(stream, CHUNK))
        passes = [first]
        for _ in range(PASSES - 1):
            w.ask({"reset": True})
            passes.append(new_pass())
            for queries in chunks:
                add(passes[-1], ask(w, queries, None))
        final = w.ask({"finish": True})
    finally:
        w.close()
    while len(setups) < SETUP_RUNS:
        time_setup()
    return {"setups": setups, "sent": sent, "answers": first["answers"],
            "passes": passes, "final": final,
            "digest": digest.hexdigest(), "digest_n": digest_n}


def traced_pass(gen, workload, queries):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.bin")
    w = Worker(workload, gen.catalogue(workload), trace=True,
               spans_path=spans_path)
    try:
        r = w.ask({"queries": queries, "budget_s": None})
        final = w.ask({"finish": True})
    finally:
        w.close()
    return r, final, spans_path


def pass_figures(p, key, loop_key):
    """p50 and p99 latency in ms and queries decided per second of one
    pass, from its per-query times ``key`` and loop time ``loop_key``."""
    lat_ms = sorted(x * 1e3 for x in p[key])
    decided = sum(1 for a in p["answers"]
                  if a != "exhausted" and not str(a).startswith("error "))
    return (nearest_rank(lat_ms, 0.50), nearest_rank(lat_ms, 0.99),
            decided / p[loop_key])


def median_figures(run, key="lat", loop_key="loop_cpu_s"):
    """Median over the passes of each of ``pass_figures``."""
    return [statistics.median(f) for f in zip(
        *(pass_figures(p, key, loop_key) for p in run["passes"]))]


def end_to_end_metrics(run):
    p50, p99, qps = median_figures(run)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in run["setups"]),
                    "s"),
        "query_p50_ms": (p50, "ms"),
        "query_p99_ms": (p99, "ms"),
        "throughput_qps": (qps, "1/s"),
        "peak_rss_mb": (run["final"]["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer_metrics(run, traced, final):
    k = len(traced["lat"])
    tr = final["trace"]
    spans = tr["spans"].get("query", {})
    setup_spans = tr["spans"].get("setup", {})
    stats = final["solver_stats"]

    def layer(name, table=spans):
        calls = sum(c for s, (c, _) in table.items()
                    if s.startswith(name + "."))
        self_s = sum(t for s, (_, t) in table.items()
                     if s.startswith(name + "."))
        return calls, self_s

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"trace.queries": (k, "count"),
         "trace.overhead_ratio": (ratio(statistics.median(
             sum(p["lat"][:k]) for p in run["passes"]),
             sum(traced["lat"])), "ratio")}
    for name in ("textio", "words", "presentations", "breakdown", "solver",
                 "oracles"):
        calls, self_s = layer(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
    m["words.letters"] = (tr["words_letters"], "count")
    obstruction = spans.get("presentations.abelian_obstruction", [0, 0.0])[0]
    m["presentations.abelian_cut_ratio"] = (ratio(
        tr["true_counts"].get("presentations.abelian_obstruction", 0),
        obstruction), "ratio")
    m["breakdown.setup_calls"] = (layer("breakdown", setup_spans)[0],
                                  "count")
    m["solver.nodes"] = (stats["nodes"], "count")
    m["solver.memo_hits"] = (stats["memo_hits"], "count")
    m["solver.memo_hit_ratio"] = (ratio(
        stats["memo_hits"], stats["memo_hits"] + tr["memo_misses"]), "ratio")
    m["solver.max_depth"] = (stats["max_depth"], "count")
    m["solver.exhausted"] = (final["exhausted"], "count")
    searches = spans.get("oracles.ncl_semidecide", [0, 0.0])[0]
    m["oracles.cert_found_ratio"] = (ratio(
        tr["true_counts"].get("oracles.ncl_semidecide", 0), searches),
        "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--queries", type=int, default=None,
                    help="answer exactly this many queries instead of "
                         "running for --seconds (used by smoke.py)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "onerelator", "__init__.py")):
        print(f"perfbench: no onerelator package under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gen

    try:
        run = untraced_run(gen, args.workload, args.seed, args.seconds,
                            args.queries)
        if args.trace:
            k = min(len(run["sent"]), args.queries
                    or TRACE_QUERIES[args.workload])
            traced, tfinal, spans_path = traced_pass(
                gen, args.workload, [q for q, _ in run["sent"][:k]])
    except WorkerDied as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    n = len(run["sent"])
    wrong = [i for i, ((q, exp), ans) in enumerate(zip(run["sent"],
                                                       run["answers"]))
             if not gen.check(q, exp, ans)]
    problems = [f"query {i}: {run['sent'][i][0]} expected "
                f"{run['sent'][i][1]!r}, got {run['answers'][i]!r}"
                for i in wrong[:5]]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"inputs: first {run['digest_n']} queries sha256 {run['digest']}")
    loops = [f"{p['loop_s']:.3f}" for p in run["passes"]]
    print(f"queries {n} per pass  wrong {len(wrong)}  "
          f"exhausted {run['answers'].count('exhausted')}  "
          f"passes {' + '.join(loops)} s  "
          f"samples beyond p99 {n - math.ceil(0.99 * n)} per pass")
    wall = median_figures(run, "wall", "loop_s")
    print("wall clock, for reference: p50 {:.4g} ms  p99 {:.4g} ms  "
          "{:.4g} queries/s  setup {:.4g} s".format(*wall, statistics.median(
              r["setup_wall_s"] for r in run["setups"])))
    if any(p["answers"] != run["answers"] for p in run["passes"]):
        problems.append("replayed passes gave different answers")
    e2e = end_to_end_metrics(run)
    e2e["failed_ratio"] = (len(wrong) / n, "ratio")
    if args.trace:
        k = len(traced["lat"])
        if traced["answers"] != run["answers"][:k]:
            problems.append("traced answers differ from untraced answers")
        metrics = per_layer_metrics(run, traced, tfinal)
        problems += [f"layer {name} shows no calls on {args.workload}"
                     for name in EXPECTED_LAYERS[args.workload]
                     if not metrics[f"{name}.calls"][0]]
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        # failed_ratio is printed but kept out of the result line: it is 0
        # on a correct run, and any failure already fails the run
        metrics = {k: v for k, v in e2e.items() if k != "failed_ratio"}
    for name, (value, unit) in {**e2e, **metrics}.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for p in problems:
        print(f"FAIL {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
