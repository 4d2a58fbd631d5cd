"""Free reduction happens once, where a word enters the engine.

Every entry point answers a word with inserted `x x^-1` pairs as it
answers the reduced word.  So do the internal layers, which take their
words as given: unreduced input costs them time, never a different
answer.  A call count pins how often a fixed set of tower word problems
reduces a word.
"""

import functools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import graphgroups, words
from rft.cli import build_tower, parse_tower_dsl
from rft.folding import SubgroupGraph
from rft.graphgroups import normal_form, subgroup_membership, surface_vertex
from rft.words import (
    Alphabet,
    AlphabetError,
    GroupHom,
    SurfacePresentation,
    parse_word,
    reduce_word,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
BUDGET = 2


def _build(name: str):
    return build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text(encoding="utf-8")))


@functools.cache
def _towers() -> dict:
    return {f.stem: _build(f.stem) for f in sorted(CORPUS.glob("*.twr"))}


@functools.cache
def _graphs() -> list:
    return [s.graph for T in _towers().values() for s in T.stages]


@functools.cache
def _vertices() -> dict[str, list]:
    by_kind: dict[str, list] = {}
    for G in _graphs():
        for V in G.vertices.values():
            by_kind.setdefault(V.kind, []).append(V)
    # towers build no open-surface vertex; add one
    by_kind["surface"].append(surface_vertex("open", SurfacePresentation(1, 2)))
    return by_kind


def _reduced(gens, max_len: int = 8):
    letters = st.tuples(st.sampled_from(tuple(gens)), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_len).map(lambda ls: reduce_word(tuple(ls)))


def _pad(data, w, gens):
    """w with one to three cancelling pairs `x x^-1` inserted."""
    out = list(w)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(out)))
        sym, sign = data.draw(st.sampled_from(tuple(gens))), data.draw(st.sampled_from((1, -1)))
        out[i:i] = [(sym, sign), (sym, -sign)]
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tower_word_problem(data):
    T = data.draw(st.sampled_from(list(_towers().values())))
    gens = T.alphabet().generators
    w = data.draw(_reduced(gens))
    assert T.word_problem(_pad(data, w, gens), BUDGET) == T.word_problem(w, BUDGET)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_word_problem_and_normal_form(data):
    G = data.draw(st.sampled_from(_graphs()))
    gens = G.presentation().alphabet.generators
    w = data.draw(_reduced(gens))
    padded = _pad(data, w, gens)
    assert graphgroups.word_problem(G, padded, BUDGET) == graphgroups.word_problem(G, w, BUDGET)
    assert normal_form(G, padded, BUDGET) == normal_form(G, w, BUDGET)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subgroup_membership(data):
    G = data.draw(st.sampled_from(_graphs()))
    e = data.draw(st.sampled_from(G.edges)) if G.edges else None
    if e is None:
        return
    vlab, images = e.side(data.draw(st.sampled_from((0, 1))))
    V = G.vertices[vlab]
    gens = V.alphabet.generators
    w = data.draw(_reduced(gens))
    if images and data.draw(st.booleans()):
        # a product of powers of the edge generators, a member
        ks = data.draw(st.lists(st.tuples(st.integers(0, len(images) - 1),
                                          st.integers(-2, 2)), max_size=3))
        w = reduce_word(tuple(x for i, k in ks for x in words.power(images[i], k)))
    padded = [_pad(data, g, gens) for g in images]
    expected = subgroup_membership(V, list(images), w, BUDGET)
    assert subgroup_membership(V, list(images), _pad(data, w, gens), BUDGET) == expected
    assert subgroup_membership(V, padded, w, BUDGET) == expected


@pytest.mark.parametrize("kind", ["free", "abelian", "surface", "composite"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vertex_triviality(kind, data):
    V = data.draw(st.sampled_from(_vertices()[kind]))
    gens = V.alphabet.generators
    w = data.draw(st.one_of(_reduced(gens), st.sampled_from(V.all_relators() or ((),))))
    assert V.triviality(_pad(data, w, gens), BUDGET) == V.triviality(w, BUDGET)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subgroup_graph_express(data):
    alph = Alphabet(("a", "b", "c"))
    subgens = data.draw(st.lists(_reduced(alph, 4).filter(bool), min_size=1, max_size=3))
    ks = data.draw(st.lists(st.tuples(st.integers(0, len(subgens) - 1), st.sampled_from((1, -1))),
                            max_size=4))
    w = reduce_word(tuple(x for i, s in ks for x in words.power(subgens[i], s)))
    w = data.draw(st.sampled_from((w, reduce_word(w + (("a", 1),)))))
    graph = SubgroupGraph(alph, subgens)
    expected = graph.express(w)
    assert graph.express(_pad(data, w, alph)) == expected
    assert SubgroupGraph(alph, [_pad(data, g, alph) for g in subgens]).express(w) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_hom_apply(data):
    T = data.draw(st.sampled_from([T for T in _towers().values() if T.height]))
    hom = data.draw(st.sampled_from([s.retraction for s in T.stages[1:]]
                                    + [T.retraction_to_base()]))
    gens = hom.source.generators
    w = data.draw(_reduced(gens))
    assert hom.apply(_pad(data, w, gens)) == hom.apply(w)


def test_hom_application_rejects_undeclared_letters():
    # one kernel applies every map on generators; a letter without an
    # image is an alphabet error, never a KeyError
    hom = GroupHom(Alphabet(("a",)), Alphabet(("b",)), {"a": (("b", 1),)})
    with pytest.raises(AlphabetError, match="undeclared symbol: 'z'"):
        hom.apply((("a", 1), ("z", -1)))
    with pytest.raises(AlphabetError):
        _towers()["gamma"].stages[1].retraction.apply(parse_word("a z"))


# Word problems whose free reductions are counted.  The count covers every
# layer below `Tower.word_problem`: retractions, Britton reduction,
# syllable normal forms, membership and folding.
COUNTED = {
    "gamma": ["[[a,b],t]", "[[a,b]^3,t]", "[a,t]", "t a t^-1 a^-1 b", "[a,b] t [b,a] t^-1"],
    "tall": ["[[b,s]^2,r]", "[[a,t],s]", "[r,a]", "[[a,b],t] [b,s]", "s r s^-1 r^-1"],
}


def test_reduce_word_calls_are_pinned(monkeypatch):
    # Lower is the aim; a change that moves the count updates this pin.
    # It includes the one-off builds of each tower's free map and base
    # map, whose homs reduce their images once, when they are built: 3
    # reductions on gamma, 15 on tall (4 and 18 when the witness family
    # reduced its torus powers, 6 and 24 when it built a hom per stage;
    # it now cuts u^N = c r^N c^-1 from u's cyclic core).  Applying a
    # hom reduces nothing (35 and 74 when each application reduced its
    # image again).  Relator conjugates such as [[a,b],t] need no Britton
    # reduction (49 and 99 before that step).  On tall, [[b,s]^2,r] asks
    # whether [b,s]^2 and its inverse lie in the edge group at stage 3's
    # composite vertex, whose maps to free groups pin the one candidate
    # exponent: one candidate word each (37 when an exponent search tried
    # the exponents 0, -1, 1, -2, 2 in turn, reducing each quotient word).
    towers = {name: _build(name) for name in COUNTED}
    graphgroups._subgroup_graph.cache_clear()
    real = words.reduce_word
    calls = [0]

    def counting(w, alph=None):
        calls[0] += 1
        return real(w, alph)

    for name, module in list(sys.modules.items()):
        if name == "rft" or name.startswith("rft."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    counts = {}
    for name, texts in COUNTED.items():
        T = towers[name]
        ws = [parse_word(text, T.alphabet()) for text in texts]
        calls[0] = 0
        for w in ws:
            T.word_problem(w, 8)
        counts[name] = calls[0]
    assert counts == {"gamma": 23, "tall": 32}
