"""Golden CLI reports: the byte-stability contract for refactors.

Every case runs one `rft` command in-process on the checked-in corpus in
`bench/corpus/` and compares its exit code and report bytes with
`tests/golden/<case>.out` (first line `exit-code: N`, then the report).
The word sets are chosen so that every command settles quickly.

A change that alters a report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of `tests/golden/` is then the reviewed change of behaviour.
"""

import re
from pathlib import Path

import pytest

from rft.cli import build_tower, parse_tower_dsl, run_command
from rft.tower import find_rf_witness
from rft.words import parse_word

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "bench" / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

# tower -> (wp word, witness words, core generators)
TOWERS = {
    "f2": ("[a,b] b", "a; b; a b", "a b; b a; a^2"),
    "z2": ("[x,y]", "x; y; x y", "x; y^2"),
    "gamma": ("[[a,b]^3,t]", "a; b; t", "a; t; [a,b]"),
    "q1": ("[p,q] [a,b]^-1", "a; p; q", "p; a; q b^-1"),
    "t2": ("[[a,b] t,u]", "a; t; u", "t; u; [a,b]"),
    "a2": ("[[a,t]^9,s]", "a; t; s", "a; s; t"),
    "tall": ("[[b,s]^2,r]", "a; t; s; r", "t; r; b"),
    "mixed": ("[[p,q]^2 [a,b]^-2, a]", "a; x; u", "p; u; x"),
    "closed2": ("[a1,t]", "a1; b1; a2", "a1; t; b1"),
    "wide": ("[[a,b],t] [x,u]", "a; x; t", "x; t; u"),
}
SPLITTINGS = ("double", "hnn", "abelian", "qh")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, (word, words, gens) in TOWERS.items():
        twr = str(CORPUS / f"{name}.twr")
        cases[f"{name}.present"] = ["present", twr]
        cases[f"{name}.wp"] = ["wp", twr, "--word", word]
        cases[f"{name}.witness"] = ["witness", twr, "--words", words]
        cases[f"{name}.core"] = ["core", twr, "--gens", gens]
        cases[f"{name}.flats"] = ["flats", twr, "--power-budget", "2"]
        cases[f"{name}.flats-default"] = ["flats", twr]
    for spl in SPLITTINGS:
        cases[f"f2.embed-{spl}"] = ["embed", str(CORPUS / "f2.twr"), "--splitting",
                                    str(CORPUS / f"{spl}.spl"), "--ball", "2"]
    return cases


CASES = _cases()


def _render(argv: list[str]) -> str:
    code, out = run_command(argv)
    return f"exit-code: {code}\n{out}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _render(CASES[case]) == expected


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_golden_witness_certificates_recheck(name):
    T = build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text(encoding="utf-8")))
    words = [parse_word(w, T.alphabet()) for w in TOWERS[name][1].split(";")]
    cert = find_rf_witness(T, words, 8)
    golden = (GOLDEN / f"{name}.witness.out").read_text(encoding="utf-8")
    assert f"verdict: {cert.verdict}" in golden.splitlines()
    assert cert.verdict == "failed" or cert.recheck()


# `block A` is the one-word torus block: the same document with each
# `block A { attach="w"; ... }` written `block T { attach=("w"); ... }`
A_TOWERS = sorted(n for n in TOWERS
                  if "block A" in (CORPUS / f"{n}.twr").read_text(encoding="utf-8"))


def _as_t_blocks(text: str) -> str:
    return re.sub(r'block A(\s*\{[^}]*?)attach\s*=\s*("[^"]*")', r"block T\1attach=(\2)", text)


def _without_digest(argv: list[str]) -> tuple[int, list[str]]:
    code, out = run_command(argv)
    return code, [line for line in out.splitlines() if not line.startswith("input-digest:")]


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.split(".")[0] in A_TOWERS))
def test_an_a_block_reports_as_a_one_word_t_block(case, tmp_path):
    command, twr, *options = CASES[case]
    text = Path(twr).read_text(encoding="utf-8")
    rewritten = _as_t_blocks(text)
    assert "block A" not in rewritten
    assert rewritten.count('attach=("') - text.count('attach=("') == text.count("block A")
    path = tmp_path / Path(twr).name
    path.write_text(rewritten, encoding="utf-8")
    assert _without_digest([command, str(path), *options]) == _without_digest(CASES[case])


def test_an_a_block_of_rank_1_is_a_usage_error(tmp_path):
    text = (CORPUS / "gamma.twr").read_text(encoding="utf-8")
    assert "rank=2;" in text
    path = tmp_path / "gamma.twr"
    path.write_text(text.replace("rank=2;", "rank=1;"), encoding="utf-8")
    code, out = run_command(["present", str(path)])
    assert code == 1 and out.startswith("error: ")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.out").write_text(_render(argv), encoding="utf-8")
