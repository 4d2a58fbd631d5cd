from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import graphgroups
from rft.cli import build_tower, parse_tower_dsl
from rft.graphgroups import (
    EdgeGroup,
    GraphError,
    InconsistencyError,
    GraphOfGroups,
    MEMBER,
    NONMEMBER,
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    abelian_vertex,
    free_vertex,
    normal_form,
    subgroup_membership,
    surface_vertex,
    word_problem,
)
from rft.words import (
    SurfacePresentation,
    abelianize,
    alphabet,
    concat,
    enumerate_ball,
    format_word,
    invert,
    parse_word,
    reduce_word,
)

AB = alphabet("a", "b")


def _amalgam():
    """<a,b> *_{[a,b]=[c,d]} <c,d>: the genus-2 surface group as a double."""
    cd = alphabet("c", "d")
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", cd)
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vB", (parse_word("[c,d]", cd),)))
    return GraphOfGroups([vA, vB], [e], "vA")


def _hnn_z2():
    """<a,t | t a t^-1 = a>: HNN of Z over the identity, i.e. Z^2."""
    vA = free_vertex("vA", alphabet("a"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("a", alphabet("a")),)),
                  ("vA", (parse_word("a", alphabet("a")),)), stable_letter="t")
    return GraphOfGroups([vA], [e], "vA")


def test_presentation_amalgam():
    G = _amalgam()
    pres = G.presentation()
    assert pres.alphabet.generators == ("a", "b", "c", "d")
    assert [format_word(r) for r in pres.relators] == [
        "a b a^-1 b^-1 d c d^-1 c^-1"]


def test_presentation_hnn():
    G = _hnn_z2()
    pres = G.presentation()
    assert "t" in pres.alphabet
    assert [format_word(r) for r in pres.relators] == ["t a t^-1 a^-1"]


def test_amalgam_word_problem():
    G = _amalgam()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[a,b] [d,c]", al)) == TRIVIAL
    assert word_problem(G, parse_word("a c a^-1 c^-1", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("c", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("a c", al)) == NONTRIVIAL
    assert word_problem(G, ()) == TRIVIAL


def test_hnn_word_problem():
    G = _hnn_z2()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[t,a]", al)) == TRIVIAL
    assert word_problem(G, parse_word("t a t^-1", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("t^2 a t^-2 a^-1", al)) == TRIVIAL


def test_free_product_word_problem():
    vA = free_vertex("vA", alphabet("a"))
    vB = abelian_vertex("vB", alphabet("x", "y"))
    e = EdgeGroup("E", 0, ("vA", ()), ("vB", ()))
    G = GraphOfGroups([vA, vB], [e], "vA")
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[x,y]", al)) == TRIVIAL
    assert word_problem(G, parse_word("[a,x]", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("a x a^-1 x^-1 y y^-1", al)) == NONTRIVIAL


def test_normal_form_verdicts():
    G = _amalgam()
    al = G.presentation().alphabet
    nf = normal_form(G, parse_word("a c a^-1 c^-1", al))
    assert nf.verdict == NONTRIVIAL
    assert normal_form(G, ()).verdict == TRIVIAL


def test_duplicate_generator_rejected():
    with pytest.raises(GraphError):
        GraphOfGroups([free_vertex("u", AB), free_vertex("v", alphabet("a"))],
                      [], "u")


def test_trivial_edge_image_rejected():
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", alphabet("c"))
    with pytest.raises(GraphError):
        e = EdgeGroup("E", 1, ("vA", (parse_word("a a^-1", AB),)),
                      ("vB", (parse_word("c", alphabet("c")),)))
        GraphOfGroups([vA, vB], [e], "vA")


# -- membership dispatch -----------------------------------------------------

def test_membership_free_exact():
    V = free_vertex("v", AB)
    res = subgroup_membership(V, [parse_word("a^2", AB), parse_word("b", AB)],
                              parse_word("a^2 b", AB), 8)
    assert res.status == MEMBER
    res = subgroup_membership(V, [parse_word("a^2", AB)], parse_word("a", AB), 8)
    assert res.status == NONMEMBER
    assert res.definite


def test_membership_abelian_exact():
    V = abelian_vertex("v", alphabet("x", "y"))
    al = V.alphabet
    res = subgroup_membership(V, [parse_word("x^2", al)], parse_word("y x^2", al), 8)
    assert res.status == NONMEMBER
    res = subgroup_membership(V, [parse_word("x^2", al), parse_word("y", al)],
                              parse_word("x^2 y^3", al), 8)
    assert res.status == MEMBER


def test_membership_surface():
    V = surface_vertex("v", SurfacePresentation(2))
    al = V.alphabet
    r = V.surface.relator()
    # the relator lies in every subgroup
    res = subgroup_membership(V, [parse_word("a1", al)], r, 8)
    assert res.status == MEMBER
    res = subgroup_membership(V, [parse_word("a1", al)], parse_word("b1", al), 8)
    assert res.status == NONMEMBER


def test_empty_subgens_is_triviality():
    V = free_vertex("v", AB)
    assert subgroup_membership(V, [], (), 8).status == MEMBER
    assert subgroup_membership(V, [], parse_word("a", AB), 8).status == NONMEMBER


# -- soundness against abelianization ---------------------------------------

@settings(max_examples=60)
@given(st.sampled_from(enumerate_ball(alphabet("a", "b", "c", "d"), 3)))
def test_amalgam_verdict_respects_abelianization(w):
    G = _amalgam()
    al = G.presentation().alphabet
    v = word_problem(G, w)
    # independent oracle: the relator abelianizes to zero, so nonzero
    # abelianization forces nontriviality
    if abelianize(w, al) != (0, 0, 0, 0):
        assert v == NONTRIVIAL
    if v == TRIVIAL:
        assert abelianize(w, al) == (0, 0, 0, 0)


# -- call-scoped verdict memo -------------------------------------------------

TALL = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "tall.twr"


@pytest.mark.parametrize("text, verdict", [("[[b,s]^3,r]", TRIVIAL),
                                           ("[[a,t]^12,s]", UNKNOWN)])
def test_each_subproblem_is_normalized_once_per_call(monkeypatch, text, verdict):
    # [w^n, t] on the height-3 tower re-enters the lower stages through
    # composite vertices; every (graph, word, budget) is decided once
    T = build_tower(parse_tower_dsl(TALL.read_text()))
    w = parse_word(text, T.alphabet())
    seen: Counter = Counter()
    real = graphgroups.normal_form

    def counting(G, w, budget=8):
        seen[(id(G), reduce_word(w), budget)] += 1
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "normal_form", counting)
    assert T.word_problem(w) == verdict
    assert seen and max(seen.values()) == 1
    # a second top-level call starts from an empty memo
    seen.clear()
    assert T.word_problem(w) == verdict
    assert seen and max(seen.values()) == 1


def test_memo_is_dropped_after_each_call(monkeypatch):
    G = _amalgam()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[a,b] [d,c]", al)) == TRIVIAL
    assert graphgroups._verdicts.get() is None

    def wrong(G, w, budget=8):
        return graphgroups.NormalForm([], TRIVIAL)

    monkeypatch.setattr(graphgroups, "normal_form", wrong)
    with pytest.raises(InconsistencyError):
        word_problem(G, parse_word("c", al))
    assert graphgroups._verdicts.get() is None
    with pytest.raises(InconsistencyError):
        word_problem(G, parse_word("c", al))
