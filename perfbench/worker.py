"""One benchmark worker process: set up, then answer queries sent as text.

Usage (started by ``run.py``, never by hand)::

    python3 worker.py ROOT CONFIG_JSON

``CONFIG_JSON`` holds ``workload``, ``catalogue`` (presentation texts to
prepare), ``trace`` (install span wrappers), ``setup_only`` and, for traced
workers, ``spans_path``.  The worker prints ``{"setup_s": ...}`` when ready,
then reads one JSON message per line from stdin:

* ``{"queries": [...], "budget_s": x}`` -- answer queries in order until the
  list ends or ``x`` seconds of query-loop time have passed (``null``: no
  limit); reply with the rendered answers, each query's CPU time (``lat``)
  and wall time (``wall``), and the loop's wall and CPU time;
* ``{"reset": true}`` -- replace the solver by a freshly prepared one, in the
  state set-up left it, so that a replayed pass repeats the same work;
* ``{"finish": true}`` -- reply with peak RSS, solver statistics and, when
  traced, the span summary, then exit.

A query's timed span covers parsing its text and the library call;
rendering the answer for the reply happens after the span ends.  Its
latency is the CPU time of this process over the span (all its threads):
the queries are single-threaded and do no I/O, so this is the span's wall
time less the time other processes held the core.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    root = os.path.abspath(sys.argv[1])
    cfg = json.loads(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import onerelator
    if not os.path.abspath(onerelator.__file__).startswith(src + os.sep):
        sys.exit(f"onerelator imported from {onerelator.__file__}, "
                 f"not from {src}")
    from onerelator.errors import ResourceExhausted
    from onerelator.textio import print_word

    tracer = None
    if cfg["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(onerelator)
    # looked up after install so that traced workers call the wrappers
    from onerelator import Solver, oracles, parse_presentation, parse_word

    def prepare():
        s = Solver()
        for text in cfg["catalogue"]:
            s.hierarchy_tree(parse_presentation(text))
        return s

    solver = prepare()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    reply({"setup_s": ru.ru_utime + ru.ru_stime,
           "setup_wall_s": time.perf_counter() - T_START})
    if cfg["setup_only"]:
        return
    stats_after_setup = dict(solver.stats)

    def run_query(q):
        kind = q[0]
        pres = parse_presentation(q[1])
        w = parse_word(q[2], pres.alphabet)
        if kind == "wp":
            return pres, solver.word_problem(pres, w)
        if kind == "member":
            subset = {pres.alphabet.index(x) for x in q[3].split(",")}
            return pres, solver.magnus_membership(pres, w, subset)
        if kind == "ncl":
            return pres, oracles.ncl_semidecide(pres, w, q[3], q[4])
        raise ValueError(f"unknown query kind {kind!r}")

    def render(kind, pres, result):
        if kind == "wp":
            return result.value
        if kind == "member":
            if not result.member:
                return "nonmember"
            return "member " + print_word(result.witness, pres.alphabet)
        if result is None:
            return "none"
        return ["found", print_word(pres.relator, pres.alphabet),
                [[print_word(c, pres.alphabet), eps]
                 for c, eps in result.factors]]

    qid = 0
    exhausted = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("finish"):
            break
        if msg.get("reset"):
            solver = prepare()
            stats_after_setup = dict(solver.stats)
            reply({})
            continue
        budget = msg["budget_s"]
        answers, lat, wall = [], [], []
        loop_start, loop_cpu_start = clock(), cpu_clock()
        for q in msg["queries"]:
            if tracer is not None:
                tracer.begin_query(qid)
            qid += 1
            t0, c0 = clock(), cpu_clock()
            try:
                pres, result = run_query(q)
                c1, t1 = cpu_clock(), clock()
                answer = render(q[0], pres, result)
            except ResourceExhausted:
                c1, t1 = cpu_clock(), clock()
                exhausted += 1
                answer = "exhausted"
            except Exception as exc:  # reported as a failed query
                c1, t1 = cpu_clock(), clock()
                answer = f"error {type(exc).__name__}: {exc}"
            lat.append(c1 - c0)
            wall.append(t1 - t0)
            answers.append(answer)
            if budget is not None and t1 - loop_start >= budget:
                break
        reply({"answers": answers, "lat": lat, "wall": wall,
               "loop_s": clock() - loop_start,
               "loop_cpu_s": cpu_clock() - loop_cpu_start})

    stats = {k: v - stats_after_setup.get(k, 0) if k != "max_depth" else v
             for k, v in solver.stats.items()}
    out = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "solver_stats": stats, "exhausted": exhausted}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(cfg["spans_path"])
    reply(out)


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
