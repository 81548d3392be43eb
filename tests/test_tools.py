import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_answer_hash_prints_one_line_per_run_and_a_total():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_hash.py"), str(ROOT),
         "5"], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [
        f"{w} seed {s}" for w in ("wp-warm", "member-warm", "wp-cold")
        for s in (1, 2)]
    # each run line ends with its six counters, by name
    for line in lines[:6]:
        fields = line.split()
        assert fields[-12::2] == ["nodes", "pinch_tests", "residue_tests",
                                  "tietze_folds", "eliminations",
                                  "free_exits"], line
        assert all(n.isdigit() for n in fields[-11::2]), line
    assert len(lines) == 7 and len(lines[6].split()[1]) == 64


def test_answer_hash_is_pinned():
    # every verdict and witness of the first 200 queries of each run, as
    # the parse-and-solve path gives them; a change that moves this total
    # changed an answer
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_hash.py"), str(ROOT),
         "200"], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == ("total fdc270311c491706ae98ad5ebeb32862"
                                    "301fc81e36ba8908fe9ce5e2b46ea7cd")


def test_opcount_is_deterministic():
    # two processes, under different string hash seeds, count the same
    # opcodes on the same draw
    outs = [subprocess.run(
        [sys.executable, str(ROOT / "tools" / "opcount.py"), str(ROOT), "5"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")]
    lines = outs[0].splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [
        f"{w} seed {s}" for w in ("wp-warm", "member-warm", "wp-cold")
        for s in (1, 2)]
    assert len(lines) == 7 and lines[6].startswith("total opcodes ")
    assert all(int(line.split()[-1]) > 0 for line in lines)
    assert outs[0] == outs[1]
