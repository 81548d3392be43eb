"""Command-line driver.

Exit codes: 0 = ran and decided; 2 = syntax or usage error; 3 = a resource
budget was exhausted; 4 = an internal cross-check between the solver and an
independent oracle disagreed.
"""

import argparse
import json
import sys
import time

from . import oracles
from .errors import (
    EmptyRelator,
    PreconditionViolated,
    ResourceExhausted,
    UnknownGenerator,
    WordSyntaxError,
)
from .solver import Solver, SolverLimits
from .textio import (
    parse_alphabet,
    parse_presentation,
    parse_word,
    print_presentation,
    print_word,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_INVARIANT = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="onerel",
        description="Decision procedures for one-relator groups.")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized check suites")
    limits = SolverLimits()
    parser.add_argument("--max-depth", type=int, default=limits.max_depth)
    parser.add_argument("--max-word-len", type=int,
                        default=limits.max_word_len)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide the word problem")
    p.add_argument("presentation")
    p.add_argument("word")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("member", help="Magnus subgroup membership")
    p.add_argument("presentation")
    p.add_argument("word")
    p.add_argument("--subset", required=True,
                   help="comma-separated generator names")
    p.set_defaults(run=cmd_member)

    p = sub.add_parser("hierarchy", help="print the breakdown tree")
    p.add_argument("presentation")
    p.set_defaults(run=cmd_hierarchy)

    p = sub.add_parser("is-root", help="does r die in <alphabet | s>?")
    p.add_argument("s")
    p.add_argument("r")
    p.add_argument("--alphabet", required=True)
    p.set_defaults(run=cmd_is_root)

    p = sub.add_parser("oracle", help="independent ground-truth queries")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("ncl", help="bounded normal-closure search")
    p.add_argument("presentation")
    p.add_argument("word")
    p.add_argument("--conj-len", type=int, default=2)
    p.add_argument("--factors", type=int, default=4)
    p.set_defaults(run=cmd_oracle_ncl)

    p = sub.add_parser("check", help="classical-theorem check suites")
    p.add_argument("suite", choices=["conjugacy", "commutator-roots",
                                     "freiheitssatz", "modular-group"])
    p.add_argument("--max-len", type=int, default=None,
                   help="word length bound, default 4 (freiheitssatz: "
                        "relator length, at least 6, default 6)")
    p.add_argument("--relators", type=int, default=200,
                   help="freiheitssatz: number of random relators")
    p.add_argument("--words", type=int, default=50,
                   help="freiheitssatz: words per relator")
    p.set_defaults(run=cmd_check)
    return parser


def emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_solve(args, solver):
    pres = parse_presentation(args.presentation, args.max_word_len)
    w = parse_word(args.word, pres.alphabet, max_len=args.max_word_len)
    t0 = time.perf_counter()
    verdict = solver.word_problem(pres, w)
    emit(args, [verdict.value],
         {"command": "solve",
          "presentation": print_presentation(pres),
          "word": print_word(w, pres.alphabet),
          "verdict": verdict.value,
          "stats": solver.stats,
          "elapsed": time.perf_counter() - t0})
    return EXIT_OK


def cmd_member(args, solver):
    pres = parse_presentation(args.presentation, args.max_word_len)
    w = parse_word(args.word, pres.alphabet, max_len=args.max_word_len)
    subset_alphabet = parse_alphabet(args.subset)
    subset = set()
    for name in subset_alphabet.names:
        if name not in pres.alphabet.names:
            raise UnknownGenerator(
                f"unknown generator {name!r} in --subset "
                f"(at offset {args.subset.index(name)})",
                offset=args.subset.index(name))
        subset.add(pres.alphabet.index(name))
    subset = frozenset(subset)
    t0 = time.perf_counter()
    res = solver.magnus_membership(pres, w, subset)
    if res.member:
        witness = print_word(res.witness, pres.alphabet)
        lines = [f"member {witness}"]
    else:
        witness = None
        lines = ["not-member"]
    emit(args, lines,
         {"command": "member",
          "presentation": print_presentation(pres),
          "word": print_word(w, pres.alphabet),
          "subset": sorted(pres.alphabet.names[g] for g in subset),
          "member": res.member,
          "witness": witness,
          "stats": solver.stats,
          "elapsed": time.perf_counter() - t0})
    return EXIT_OK


def hierarchy_lines(doc, indent=0):
    """The text form of a :meth:`.Solver.hierarchy_tree` document."""
    extra = ""
    if "free_part" in doc:
        extra += f" free_part={','.join(doc['free_part'])}"
    if doc["case"] == "zero":
        ranges = " ".join(f"{g}:[{lo},{hi}]"
                          for g, (lo, hi) in doc["ranges"].items())
        extra += f" stable={doc['stable']} pivot={doc['pivot']} {ranges}"
    lines = [f"{'  ' * indent}{doc['case']}: {','.join(doc['alphabet'])}"
             f" | {doc['relator']}{extra}"]
    for child in doc["children"]:
        lines.extend(hierarchy_lines(child, indent + 1))
    return lines


def cmd_hierarchy(args, solver):
    pres = parse_presentation(args.presentation, args.max_word_len)
    doc = solver.hierarchy_tree(pres)
    emit(args, hierarchy_lines(doc), doc)
    return EXIT_OK


def cmd_is_root(args, solver):
    alphabet = parse_alphabet(args.alphabet)
    s = parse_word(args.s, alphabet, max_len=args.max_word_len)
    r = parse_word(args.r, alphabet, max_len=args.max_word_len)
    result = solver.is_root(s, r, alphabet)
    emit(args, ["root" if result else "not-root"],
         {"command": "is-root",
          "s": print_word(s, alphabet),
          "r": print_word(r, alphabet),
          "root": result,
          "stats": solver.stats})
    return EXIT_OK


def cmd_oracle_ncl(args, solver):
    pres = parse_presentation(args.presentation, args.max_word_len)
    w = parse_word(args.word, pres.alphabet, max_len=args.max_word_len)
    cert = oracles.ncl_semidecide(pres, w, args.conj_len, args.factors)
    if cert is None:
        emit(args, ["no-certificate"],
             {"command": "oracle ncl", "found": False})
        return EXIT_OK
    if cert.expand(pres.relator) != w:
        print("oracle invariant violated: certificate does not expand "
              "to the target", file=sys.stderr)
        return EXIT_INVARIANT
    lines = [f"certificate factors={len(cert.factors)}"]
    factors = []
    for conj, eps in cert.factors:
        cw = print_word(conj, pres.alphabet)
        lines.append(f"  {cw} {'+1' if eps == 1 else '-1'}")
        factors.append([cw, eps])
    emit(args, lines,
         {"command": "oracle ncl", "found": True, "factors": factors})
    return EXIT_OK


def cmd_check(args, solver):
    # a freiheitssatz relator holds each of a, b, c at least twice
    least = 6 if args.suite == "freiheitssatz" else 1
    max_len = args.max_len
    if max_len is None:
        max_len = 6 if args.suite == "freiheitssatz" else 4
    elif max_len < least:
        raise ValueError(f"--max-len must be at least {least} for "
                         f"{args.suite}, got {max_len}")
    if args.suite == "conjugacy":
        report = oracles.check_conjugacy_theorem(max_len, solver=solver)
    elif args.suite == "commutator-roots":
        report = oracles.check_commutator_roots(max_len, solver=solver)
    elif args.suite == "freiheitssatz":
        report = oracles.check_freiheitssatz(
            relators=args.relators, words_per_relator=args.words,
            relator_len=max_len, seed=args.seed, solver=solver)
    else:
        report = oracles.check_modular_group()
    emit(args, report.lines(),
         {"command": f"check {args.suite}",
          "name": report.name,
          "checked": report.checked,
          "hits": report.hits,
          "violations": [repr(v) for v in report.violations],
          "exhausted": [repr(e) for e in report.exhausted],
          "passed": report.passed})
    return EXIT_OK if report.passed else EXIT_INVARIANT


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        # every command gets the one solver, so each rejects bad limits
        solver = Solver(SolverLimits(max_depth=args.max_depth,
                                     max_word_len=args.max_word_len))
        return args.run(args, solver)
    except (WordSyntaxError, UnknownGenerator, EmptyRelator,
            PreconditionViolated, ValueError) as exc:
        offset = getattr(exc, "offset", None)
        suffix = "" if offset is None else f" [offset {offset}]"
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceExhausted as exc:
        info = {"budget": exc.budget, "limit": exc.limit, "depth": exc.depth,
                "rank": exc.rank,
                "relator": exc.relator and list(exc.relator)}
        fields = ", ".join(f"{k} {v}" for k, v in info.items()
                           if v is not None)
        suffix = f" ({fields})" if fields else ""
        print(f"resource exhausted: {exc}{suffix}", file=sys.stderr)
        emit(args, [], {"command": args.command, "exhausted": True, **info})
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
