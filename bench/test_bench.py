"""Tests of the benchmark itself: reproducible inputs, a sound oracle, and
tracing that changes no answer.

    PYTHONPATH=src python -m pytest -q bench
"""

import itertools
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.use_engine()

import oracle as orc  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from rft import words  # noqa: E402

wl.quiet()


@pytest.fixture(scope="module")
def corpus():
    c, _, _ = wl.build_corpus(*wl.read_manifest())
    wl.attach_oracles(c)
    return c


def _keys(c, name, seed, n):
    return [q.key for q in itertools.islice(wl.WORKLOADS[name](c, seed), n)]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_seed_fixes_query_list(corpus, name):
    first = _keys(corpus, name, 3, 60)
    again, _, _ = wl.build_corpus(*wl.read_manifest())
    wl.attach_oracles(again)
    assert "\n".join(_keys(again, name, 3, 60)).encode() == "\n".join(first).encode()
    assert _keys(corpus, name, 4, 60) != first


def test_every_oracle_map_kills_its_relators(corpus):
    for name, ora in corpus.oracles.items():
        assert ora.homs, name
        for h in ora.homs:
            for r in corpus.towers[name].presentation().relators:
                assert orc.apply(h, r) == (), (name, r)


def test_oracle_rejects_a_non_homomorphism(corpus):
    relators = corpus.towers["gamma"].presentation().relators
    with pytest.raises(orc.OracleError):
        orc.Oracle("gamma", relators, [[["t", "a a b"]]])


def test_oracle_words_and_folding():
    assert orc.parse("[[a,b]^2,t]") == orc.commutator(orc.power(orc.parse("[a,b]"), 2),
                                                      (("t", 1),))
    assert orc.reduce(orc.parse("a b b^-1 a^-1 c")) == (("c", 1),)
    index2 = orc.FreeSubgroup([orc.parse(w) for w in ("a^2", "b", "a b a^-1")])
    assert (index2.vertex_count, index2.edge_count) == (2, 4)
    assert index2.contains(orc.parse("a b^3 a^-1")) and not index2.contains(orc.parse("a"))
    cyclic = orc.FreeSubgroup([orc.parse("[a,b]")])
    assert cyclic.contains(orc.parse("[a,b]^-5")) and not cyclic.contains(orc.parse("[b,a] a"))


def test_generated_words_have_known_answers(corpus):
    for q in itertools.islice(wl.wordproblem_queries(corpus, 11), 64):
        _, name, kind, text = q.key.split(" ", 3)
        w = orc.parse(text.rsplit(" -> ", 1)[0])
        if kind in ("random", "britton"):
            assert corpus.oracles[name].nontrivial(w)
        if kind == "britton":
            killed = {t for _, t in corpus.manifest["towers"][name]["powers"]}
            assert orc.apply({t: () for t in killed}, w) == ()


def test_verdict_checks():
    check = wl._verdict_check(wl.TRIVIAL)
    assert check(wl.TRIVIAL, Counter()) == wl.DECIDED
    assert check(wl.UNKNOWN, Counter()) == wl.UNDECIDED
    assert check(wl.NONTRIVIAL, Counter()) == wl.FAILED


def _summary(result):
    """A comparable digest of any query result."""
    if isinstance(result, str):
        return result
    if result is None:
        return None
    if hasattr(result, "verdict") and hasattr(result, "trace"):
        return (result.verdict, tuple(result.images), tuple(map(tuple, result.trace)))
    first, second = result
    if hasattr(second, "entries"):
        return (second.status, tuple((e.word, e.image, e.image_verdict) for e in second.entries))
    if hasattr(second, "verdicts"):
        return (len(first), tuple((v.name, v.status) for v in second.verdicts))
    if second is None:
        return (len(first),)
    return (first.canonical_form(), tuple(second.vertices), second.rank)


# Cheap prefixes of each stream; together they reach every layer.
TRACE_SAMPLE = {"wordproblem": 24, "witness-embed": 6, "core-flats": 12}


@pytest.mark.parametrize("name", list(TRACE_SAMPLE))
def test_tracing_leaves_answers_unchanged(corpus, name):
    queries = list(itertools.islice(wl.WORKLOADS[name](corpus, 5), TRACE_SAMPLE[name]))
    plain = [_summary(q.run()) for q in queries]
    original = words.reduce_word
    with spans.Tracer() as tracer:
        assert words.reduce_word is not original
        traced = [_summary(q.run()) for q in queries]
    assert words.reduce_word is original
    assert traced == plain
    assert tracer.calls_of("words.reduce_word") > 0
    assert sum(tracer.layer_self_s().values()) > 0


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "wordproblem",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
