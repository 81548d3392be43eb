import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from onerelator.cli import build_parser, main
from onerelator.errors import (
    ResourceExhausted,
    UnknownGenerator,
    WordSyntaxError,
)
from onerelator.solver import Solver, SolverLimits, Verdict
from onerelator.textio import (
    parse_alphabet,
    parse_presentation,
    parse_word,
    print_presentation,
    print_word,
)
from onerelator.words import DEFAULT_MAX_WORD_LEN, Alphabet

AB = Alphabet(("a", "b"))


# -- grammar ----------------------------------------------------------------

def test_parse_word_basic():
    assert parse_word("abAB", AB) == (1, 2, -1, -2)
    assert parse_word("a^3B^2", AB) == (1, 1, 1, -2, -2)
    assert parse_word("b^-2", AB) == (-2, -2)
    assert parse_word("1", AB) == ()
    assert parse_word("", AB) == ()
    assert parse_word(" a b ", AB) == (1, 2)
    assert parse_word("aA", AB) == ()


def test_parse_word_errors_carry_offsets():
    with pytest.raises(UnknownGenerator) as err:
        parse_word("abx", AB)
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^b", AB)
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^0", AB)
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a+b", AB)
    assert err.value.offset == 1
    # a power takes the digits 0-9 only
    for text in ("a^\u00b2", "a^\u0661"):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, AB)
        assert err.value.offset == 2
        assert "expected integer after '^'" in str(err.value)
    # offsets count characters, not bytes
    with pytest.raises(UnknownGenerator) as err:
        parse_word("a\u00a0x", AB)
    assert err.value.offset == 2
    # an overrun names its offset whether a power or plain letters make it
    for text, offset in (("a^5", 2), ("aaaaa", 4), ("b aAaaaa", 7)):
        with pytest.raises(ResourceExhausted) as err:
            parse_word(text, AB, max_len=4)
        assert f"(at offset {offset})" in str(err.value), text


def test_parse_alphabet_errors_carry_offsets():
    for text, offset in (("a,b,", 4), ("a,,b", 2), ("a,b,a", 4),
                         (" a, b, a", 7), ("a,bc", 2)):
        with pytest.raises(WordSyntaxError) as err:
            parse_alphabet(text)
        assert err.value.offset == offset, text
    assert parse_alphabet(" a , b ").names == ("a", "b")


def test_parse_word_refuses_powers_past_the_word_cap():
    assert len(parse_word(f"a^{DEFAULT_MAX_WORD_LEN}", AB)) \
        == DEFAULT_MAX_WORD_LEN
    with pytest.raises(ResourceExhausted) as err:
        parse_word(f"ba^{DEFAULT_MAX_WORD_LEN}", AB)
    assert err.value.budget == "max_word_len"
    assert err.value.limit == DEFAULT_MAX_WORD_LEN
    # the cap is the caller's
    assert parse_word("a^4", AB, max_len=4) == (1, 1, 1, 1)
    with pytest.raises(ResourceExhausted) as err:
        parse_word("ba^4", AB, max_len=4)
    assert err.value.limit == 4


def test_print_word():
    assert print_word((), AB) == "1"
    assert print_word((1, 2, -1, -2), AB) == "abAB"
    assert print_word((1, 1, 1, -2, -2), AB) == "a^3B^2"


def test_print_parse_round_trip():
    for w in [(), (1,), (-2,), (1, 2, -1, -2), (1, 1, -2, 1, 1, 1)]:
        assert parse_word(print_word(w, AB), AB) == w


def test_parse_presentation():
    p = parse_presentation("a,b | abAB")
    assert p.alphabet.names == ("a", "b")
    assert p.relator == (1, 2, -1, -2)
    # B^2 expands to two inverse letters
    p = parse_presentation("a,b | abaB^2")
    assert p.relator == (1, 2, 1, -2, -2)
    assert print_presentation(p) == "a,b | abaB^2"


def test_parse_presentation_errors():
    with pytest.raises(WordSyntaxError):
        parse_presentation("a,b abAB")
    # a surplus bar is reported where the first one stands
    for text, offset in (("a,b | ab | AB", 9), ("a,b | ab | ba | c", 9),
                         ("a,b || ab", 5)):
        with pytest.raises(WordSyntaxError) as err:
            parse_presentation(text)
        assert err.value.offset == offset, text
    with pytest.raises(WordSyntaxError):
        parse_presentation("a,bc | ab")


# -- CLI --------------------------------------------------------------------

def test_solve_command(capsys):
    assert main(["solve", "a,b | abAB", "abAB"]) == 0
    assert capsys.readouterr().out.strip() == "trivial"
    assert main(["solve", "a,b | abAB", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "nontrivial"


def test_solve_json(capsys):
    assert main(["--json", "solve", "a,b | abAB", "aA"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "trivial"
    assert doc["word"] == "1"
    assert "stats" in doc and "elapsed" in doc


def test_member_command(capsys):
    assert main(["member", "a,b,c | abc", "c", "--subset", "a,b"]) == 0
    assert capsys.readouterr().out.strip() == "member BA"
    assert main(["member", "a,b | abAB", "b", "--subset", "a"]) == 0
    assert capsys.readouterr().out.strip() == "not-member"


def test_hierarchy_json_schema(capsys):
    assert main(["--json", "hierarchy", "a,b | abAB^2"]) == 0
    node = json.loads(capsys.readouterr().out)
    assert node["case"] == "zero"
    assert node["stable"] == "a"
    assert node["ranges"] == {"b": [0, 1]}
    assert node["rewritten"] == "b_1B_0^2"
    child = node["children"][0]
    assert child["alphabet"] == ["b_0", "b_1"]
    # the tree bottoms out in a base case
    while node["children"]:
        node = node["children"][0]
    assert node["case"] == "base_single"


def tree(case, alphabet, relator, children=(), **extra):
    """A ``--json`` hierarchy node, for pinning whole documents."""
    return {"case": case, "alphabet": alphabet.split(","),
            "relator": relator, "children": list(children), **extra}


HIERARCHY_OUTPUT = [
    ("x,y | x^2y^3",
     ["nonzero: x,y | x^2y^3",
      "  zero: z,w | wZ^3wz^3 stable=z pivot=w w:[0,3]",
      "    nonzero: w_0,w_3 | w_3w_0",
      "      base_single: y | y free_part=x"],
     tree("nonzero", "x,y", "x^2y^3", [
         tree("zero", "z,w", "wZ^3wz^3", [
             tree("nonzero", "w_0,w_3", "w_3w_0", [
                 tree("base_single", "y", "y", free_part=["x"])])],
             stable="z", pivot="w", ranges={"w": [0, 3]},
             rewritten="w_3w_0")])),
    ("a,b | abAB^2",
     ["zero: a,b | abAB^2 stable=a pivot=b b:[0,1]",
      "  nonzero: b_0,b_1 | b_1B_0^2",
      "    zero: x,y | XYxY stable=x pivot=y y:[0,1]",
      "      nonzero: y_0,y_1 | Y_0Y_1",
      "        base_single: y | Y free_part=x"],
     tree("zero", "a,b", "abAB^2", [
         tree("nonzero", "b_0,b_1", "b_1B_0^2", [
             tree("zero", "x,y", "XYxY", [
                 tree("nonzero", "y_0,y_1", "Y_0Y_1", [
                     tree("base_single", "y", "Y", free_part=["x"])])],
                 stable="x", pivot="y", ranges={"y": [0, 1]},
                 rewritten="Y_0Y_1")])],
         stable="a", pivot="b", ranges={"b": [0, 1]},
         rewritten="b_1B_0^2")),
    ("a,b,c | a^2",
     ["base_single: a | a^2 free_part=b,c"],
     tree("base_single", "a", "a^2", free_part=["b", "c"])),
    ("a,b,c | ABCBc",
     ["zero: a,b,c | ABCBc stable=c pivot=a a:[0,0] b:[-1,0]",
      "  nonzero: a_0,b_-1,b_0 | A_0B_0B_-1",
      "    nonzero: y,b_0 | YB_0 free_part=x",
      "      base_single: z | Z free_part=x"],
     tree("zero", "a,b,c", "ABCBc", [
         tree("nonzero", "a_0,b_-1,b_0", "A_0B_0B_-1", [
             tree("nonzero", "y,b_0", "YB_0", [
                 tree("base_single", "z", "Z", free_part=["x"])],
                 free_part=["x"])])],
         stable="c", pivot="a", ranges={"a": [0, 0], "b": [-1, 0]},
         rewritten="A_0B_0B_-1")),
]


@pytest.mark.parametrize("text,lines,doc", HIERARCHY_OUTPUT)
def test_hierarchy_output_pinned(capsys, text, lines, doc):
    """Fresh embedding names, subscripted base names (negative subscripts
    too) and free parts, as printed in text and as a JSON document, byte
    for byte."""
    assert main(["hierarchy", text]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert main(["--json", "hierarchy", text]) == 0
    assert capsys.readouterr().out == json.dumps(
        doc, indent=2, sort_keys=True) + "\n"


def test_hierarchy_depth_counts_as_a_query_does(capsys):
    """An embedding's image sits at its node's depth in the hierarchy walk,
    as in a query: the whole ABCBc hierarchy lies within depth 1, where
    only the zero node's base group is one below the top."""
    text, lines, doc = HIERARCHY_OUTPUT[-1]
    solver = Solver(SolverLimits(max_depth=1))
    assert solver.hierarchy_tree(parse_presentation(text)) == doc
    assert solver.stats["max_depth"] == 1
    assert main(["--max-depth", "1", "hierarchy", text]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_is_root_command(capsys):
    assert main(["is-root", "ab", "abab", "--alphabet", "a,b"]) == 0
    assert capsys.readouterr().out.strip() == "root"
    assert main(["is-root", "aab", "abab", "--alphabet", "a,b"]) == 0
    assert capsys.readouterr().out.strip() == "not-root"


def test_oracle_ncl_command(capsys):
    assert main(["oracle", "ncl", "a,b | abAB", "abAB",
                 "--conj-len", "1", "--factors", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("certificate")
    assert main(["oracle", "ncl", "a,b | abAB", "a",
                 "--conj-len", "1", "--factors", "2"]) == 0
    assert capsys.readouterr().out.strip() == "no-certificate"
    for flag in ("--conj-len", "--factors"):
        assert main(["oracle", "ncl", "a,b | abAB", "abAB", flag, "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be nonnegative" in out.err


def test_check_command(capsys):
    assert main(["check", "modular-group"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    assert main(["check", "commutator-roots", "--max-len", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    assert main(["check", "conjugacy", "--max-len", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.parametrize("suite, max_len, least", [
    ("conjugacy", "0", 1), ("commutator-roots", "-1", 1),
    ("freiheitssatz", "5", 6)])
def test_check_rejects_max_len_out_of_range(capsys, suite, max_len, least):
    assert main(["check", suite, "--max-len", max_len]) == 2
    err = capsys.readouterr().err
    assert f"--max-len must be at least {least}" in err


def test_check_freiheitssatz_least_max_len(capsys):
    assert main(["check", "freiheitssatz", "--max-len", "6",
                 "--relators", "2", "--words", "2"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_exit_code_2_on_bad_input(capsys):
    assert main(["solve", "a,b | abx", "ab"]) == 2
    err = capsys.readouterr().err
    assert "offset 8" in err
    assert main(["solve", "a,b abAB", "ab"]) == 2
    assert main(["solve", "a,b | aA", "ab"]) == 2  # empty relator
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_exit_code_2_reports_offsets_in_powers_and_subsets(capsys):
    assert main(["solve", "a,b | ab", "a^\u00b2"]) == 2
    assert "[offset 2]" in capsys.readouterr().err
    assert main(["member", "a,b,c | abc", "c", "--subset", "a,b,a"]) == 2
    assert "[offset 4]" in capsys.readouterr().err


def test_exit_code_3_on_exhaustion(capsys):
    # the query's pinch test descends to depth 1, where a nested pinch's
    # excluded letter occurs twice in its base relator, so deciding it
    # needs depth 2 (test_solver.py::test_depth_budget_reported_honestly)
    code = main(["--max-depth", "1", "solve", "a,b,c | A^2CbaBc",
                 "aBcA^2Cb"])
    assert code == 3
    err = capsys.readouterr().err
    assert "resource exhausted" in err
    assert "budget max_depth, limit 1, depth 2" in err
    # below the pinch of this query every pinch folds through a Tietze
    # move, so depth 1 decides it
    assert main(["--max-depth", "1", "solve", "a,b | a^2baB", "Ba^2ba"]) == 0
    assert capsys.readouterr().out == "trivial\n"


def test_exhaustion_json(capsys):
    code = main(["--max-depth", "1", "--json", "solve", "a,b,c | A^2CbaBc",
                 "aBcA^2Cb"])
    assert code == 3
    out = capsys.readouterr()
    # the node at depth 2 has two generators and relator g_0^-2 g_1
    assert json.loads(out.out) == {"command": "solve", "exhausted": True,
                                   "budget": "max_depth", "limit": 1,
                                   "depth": 2, "rank": 2,
                                   "relator": [-1, -1, 2]}
    assert "resource exhausted" in out.err


def test_exhaustion_names_its_node(capsys):
    # the pinch test of B a^6 b overruns in the base group <a_0, a_1 |
    # a_0^2 a_1>, one level below the top
    # (test_solver.py::test_word_length_overrun_reports_its_depth)
    argv = ["--max-word-len", "8", "solve", "a,b | a^2baB", "Ba^6b"]
    assert main(argv) == 3
    assert ("budget max_word_len, limit 8, depth 1, rank 2, "
            "relator [1, 1, 2]") in capsys.readouterr().err
    assert main(["--json", *argv]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["depth"], doc["rank"], doc["relator"]) == (1, 2, [1, 1, 2])


def test_exit_code_3_on_oversized_power(capsys):
    # the power is refused before it is spelled out
    assert main(["solve", "a,b | a^99999999999", "a"]) == 3
    assert "budget max_word_len" in capsys.readouterr().err
    # so is one with more digits than int() reads
    assert main(["solve", "a,b | ab", "a^" + "9" * 5000]) == 3
    assert "budget max_word_len" in capsys.readouterr().err


def test_hierarchy_overrun_names_its_depth(capsys):
    # the top node's embedding image relator has 91 letters, over the cap
    assert main(["--max-word-len", "50", "hierarchy", "a,b | a^7b^7"]) == 3
    assert "budget max_word_len, limit 50, depth 0" in \
        capsys.readouterr().err


def test_max_word_len_caps_the_parser(capsys):
    # a raised cap admits a power past the default, which reduces away
    assert main(["--max-word-len", "4000000", "solve", "a,b | abAB",
                 "a^2000000A^2000000"]) == 0
    assert capsys.readouterr().out == "trivial\n"
    assert main(["solve", "a,b | abAB", "a^2000000A^2000000"]) == 3
    assert "limit 1048576" in capsys.readouterr().err


def test_readme_command_lines_run(capsys):
    # every line of the README's "Command line" block exits 0 and prints
    # the result its "# -> ..." comment shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.strip().splitlines()
    assert len(lines) >= 6
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "onerel"
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out.strip()
        if comment.strip().startswith("->"):
            assert out == comment.strip()[2:].strip(), line


def test_readme_library_block_runs():
    # the README's "Library" block runs, and each expression line in it
    # gives the value its comment spells
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, results = {}, []
    for line in block.strip().splitlines():
        code, _, comment = line.partition("#")
        if comment.strip() and isinstance(ast.parse(code).body[0], ast.Expr):
            results.append((eval(code, namespace), comment.strip()))
        else:
            exec(code, namespace)
    assert [comment for _, comment in results] == [
        "Verdict.TRIVIAL", "True, (-2, -1)"]
    assert [value for value, _ in results] == [
        Verdict.TRIVIAL, (True, (-2, -1))]


def test_readme_names_every_budget_flag():
    # the README's "Global flags" sentence lists exactly the --max-* options
    # the parser defines, so adding or removing a budget updates the README
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Global flags", 1)[1].split(".", 1)[0]
    named = set(re.findall(r"--max-[a-z-]+", sentence))
    defined = {opt for action in build_parser()._actions
               for opt in action.option_strings if opt.startswith("--max-")}
    assert defined and named == defined


def test_global_flags_reach_solver(capsys):
    assert main(["--max-depth", "30", "solve", "a,b | abAB^2",
                 "a^2bA^2B^4"]) == 0
    assert capsys.readouterr().out.strip() == "trivial"


def test_budget_flag_defaults_are_the_solvers():
    args = build_parser().parse_args(["hierarchy", "a,b | abAB"])
    limits = SolverLimits()
    assert (args.max_depth, args.max_word_len) \
        == (limits.max_depth, limits.max_word_len)


@pytest.mark.parametrize("argv", [
    ["solve", "a,b | abAB", "ab"],
    ["member", "a,b | abAB", "a", "--subset", "a"],
    ["hierarchy", "a,b | abAB"],
    ["is-root", "ab", "abab", "--alphabet", "a,b"],
    ["oracle", "ncl", "a,b | abAB", "a"],
    ["check", "modular-group"]])
def test_every_command_rejects_nonpositive_limits(capsys, argv):
    assert main(["--max-depth", "0", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "limits must be positive" in out.err
