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
from .breakdown import base_presentation
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
    parser.add_argument("--max-depth", type=int, default=32)
    parser.add_argument("--max-word-len", type=int, default=2**20)
    parser.add_argument("--max-subscript-span", type=int, default=4096)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide the word problem")
    p.add_argument("presentation")
    p.add_argument("word")

    p = sub.add_parser("member", help="Magnus subgroup membership")
    p.add_argument("presentation")
    p.add_argument("word")
    p.add_argument("--subset", required=True,
                   help="comma-separated generator names")

    p = sub.add_parser("hierarchy", help="print the breakdown tree")
    p.add_argument("presentation")

    p = sub.add_parser("is-root", help="does r die in <alphabet | s>?")
    p.add_argument("s")
    p.add_argument("r")
    p.add_argument("--alphabet", required=True)

    p = sub.add_parser("oracle", help="independent ground-truth queries")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("ncl", help="bounded normal-closure search")
    p.add_argument("presentation")
    p.add_argument("word")
    p.add_argument("--conj-len", type=int, default=2)
    p.add_argument("--factors", type=int, default=4)

    p = sub.add_parser("check", help="classical-theorem check suites")
    p.add_argument("suite", choices=["conjugacy", "commutator-roots",
                                     "freiheitssatz", "modular-group"])
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--relators", type=int, default=200,
                   help="freiheitssatz: number of random relators")
    p.add_argument("--words", type=int, default=50,
                   help="freiheitssatz: words per relator")
    return parser


def make_solver(args):
    return Solver(SolverLimits(max_depth=args.max_depth,
                               max_word_len=args.max_word_len,
                               max_subscript_span=args.max_subscript_span))


def emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_solve(args):
    pres = parse_presentation(args.presentation)
    w = parse_word(args.word, pres.alphabet)
    solver = make_solver(args)
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


def cmd_member(args):
    pres = parse_presentation(args.presentation)
    w = parse_word(args.word, pres.alphabet)
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
    solver = make_solver(args)
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


def hierarchy_json(node):
    pres = node.presentation
    out = {"case": node.kind,
           "relator": print_word(pres.relator, pres.alphabet),
           "alphabet": list(pres.alphabet.names),
           "children": [hierarchy_json(c) for c in node.children]}
    if node.free_part:
        out["free_part"] = list(node.free_part)
    if node.kind == "zero":
        zd = node.step.zero
        out["stable"] = pres.alphabet.names[zd.stable]
        out["pivot"] = pres.alphabet.names[zd.pivot]
        out["ranges"] = {pres.alphabet.names[g]: list(lohi)
                         for g, lohi in sorted(zd.ranges.items())}
        child_pres, _, _ = base_presentation(pres, zd)
        out["rewritten"] = print_word(child_pres.relator, child_pres.alphabet)
    return out


def hierarchy_lines(node, indent=0):
    pres = node.presentation
    pad = "  " * indent
    extra = ""
    if node.free_part:
        extra += f" free_part={','.join(node.free_part)}"
    if node.kind == "zero":
        zd = node.step.zero
        ranges = " ".join(
            f"{pres.alphabet.names[g]}:[{lo},{hi}]"
            for g, (lo, hi) in sorted(zd.ranges.items()))
        extra += (f" stable={pres.alphabet.names[zd.stable]}"
                  f" pivot={pres.alphabet.names[zd.pivot]} {ranges}")
    lines = [f"{pad}{node.kind}: {print_presentation(pres)}{extra}"]
    for child in node.children:
        lines.extend(hierarchy_lines(child, indent + 1))
    return lines


def cmd_hierarchy(args):
    pres = parse_presentation(args.presentation)
    solver = make_solver(args)
    tree = solver.hierarchy_tree(pres)
    emit(args, hierarchy_lines(tree), hierarchy_json(tree))
    return EXIT_OK


def cmd_is_root(args):
    alphabet = parse_alphabet(args.alphabet)
    s = parse_word(args.s, alphabet)
    r = parse_word(args.r, alphabet)
    solver = make_solver(args)
    result = solver.is_root(s, r, alphabet)
    emit(args, ["root" if result else "not-root"],
         {"command": "is-root",
          "s": print_word(s, alphabet),
          "r": print_word(r, alphabet),
          "root": result,
          "stats": solver.stats})
    return EXIT_OK


def cmd_oracle_ncl(args):
    pres = parse_presentation(args.presentation)
    w = parse_word(args.word, pres.alphabet)
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


def cmd_check(args):
    solver = make_solver(args)
    if args.suite == "conjugacy":
        report = oracles.check_conjugacy_theorem(args.max_len or 4,
                                                 solver=solver)
    elif args.suite == "commutator-roots":
        report = oracles.check_commutator_roots(args.max_len or 4,
                                                solver=solver)
    elif args.suite == "freiheitssatz":
        report = oracles.check_freiheitssatz(
            relators=args.relators, words_per_relator=args.words,
            relator_len=args.max_len or 6, seed=args.seed, solver=solver)
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
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "member":
            return cmd_member(args)
        if args.command == "hierarchy":
            return cmd_hierarchy(args)
        if args.command == "is-root":
            return cmd_is_root(args)
        if args.command == "oracle":
            return cmd_oracle_ncl(args)
        return cmd_check(args)
    except (WordSyntaxError, UnknownGenerator, EmptyRelator,
            PreconditionViolated, ValueError) as exc:
        offset = getattr(exc, "offset", None)
        suffix = "" if offset is None else f" [offset {offset}]"
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceExhausted as exc:
        print(f"resource exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
