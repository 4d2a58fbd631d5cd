import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import cli
from rft import tower as tw
from rft.graphgroups import NONTRIVIAL, TRIVIAL, UNKNOWN
from rft.words import (
    GroupHom,
    SurfacePresentation,
    concat,
    enumerate_ball,
    format_word,
    invert,
    parse_word,
    reduce_word,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def _corpus_tower(name: str) -> tw.Tower:
    return cli.build_tower(cli.parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))


def test_height0_presentations():
    t = tw.new_height0([tw.free_summand("a", "b")])
    assert t.presentation().relators == ()
    assert t.alphabet().generators == ("a", "b")

    t = tw.new_height0([tw.free_summand("a"), tw.abelian_summand("x", "y")])
    assert t.alphabet().generators == ("a", "x", "y")
    assert [format_word(r) for r in t.presentation().relators] == ["x y x^-1 y^-1"]

    t = tw.new_height0([tw.surface_summand(2)])
    assert [format_word(r) for r in t.presentation().relators] == [
        "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"]


def test_height0_rejects_bad_summands():
    with pytest.raises(tw.BlockError):
        tw.new_height0([])
    with pytest.raises(Exception):
        tw.surface_summand(1)  # chi = -1 territory: closed torus invalid anyway


def test_attach_a_example(gamma):
    assert gamma.alphabet().generators == ("a", "b", "t")
    assert [format_word(r) for r in gamma.presentation().relators] == [
        "a b a^-1 b^-1 t b a b^-1 a^-1 t^-1"]
    assert gamma.height == 1


def test_attach_a_rejects_proper_power(free2):
    with pytest.raises(tw.BlockError, match="attach-maximal"):
        tw.attach_block(free2, tw.BlockA(parse_word("a^2"), 2, ("t",)))


def test_attach_a_rejects_trivial(free2):
    with pytest.raises(tw.BlockError, match="attach-nontrivial"):
        tw.attach_block(free2, tw.BlockA(parse_word("a a^-1"), 2, ("t",)))


def test_attach_q_punctured_torus(free2):
    surf = SurfacePresentation(1, 1, ("x", "y"))
    block = tw.BlockQ(surf, (parse_word("[a,b]"),),
                      {"x": parse_word("a"), "y": parse_word("b")})
    t = tw.attach_block(free2, block)
    assert t.alphabet().generators == ("a", "b", "x", "y")
    assert [format_word(r) for r in t.presentation().relators] == [
        "x y x^-1 y^-1 b a b^-1 a^-1"]
    al = t.alphabet()
    assert t.word_problem(parse_word("[x,y] [b,a]", al)) == TRIVIAL
    assert t.word_problem(parse_word("x a^-1", al)) == NONTRIVIAL


def test_attach_q_rejects_abelian_retraction(free2):
    surf = SurfacePresentation(1, 1, ("x", "y"))
    block = tw.BlockQ(surf, (parse_word("[a,b]"),),
                      {"x": parse_word("a"), "y": parse_word("a^2")})
    with pytest.raises(tw.BlockError):
        tw.attach_block(free2, block)


def test_attach_t_extends_lattice(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    al2 = t2.alphabet()
    assert t2.word_problem(parse_word("[u,t]", al2)) == TRIVIAL
    assert t2.word_problem(parse_word("[u,a]", al2)) == NONTRIVIAL
    recs = [r for r in t2.lattice_records() if not r.superseded]
    assert len(recs) == 1 and len(recs[0].generators) == 3


def test_attach_t_rejects_noncommuting(gamma):
    al = gamma.alphabet()
    with pytest.raises(tw.BlockError):
        tw.attach_block(gamma, tw.BlockT((parse_word("a", al), parse_word("b", al)),
                                         3, ("u",)))


# -- word problem ------------------------------------------------------------

def test_gamma_word_problems(gamma):
    al = gamma.alphabet()
    cases = [
        ("[[a,b],t]", TRIVIAL),
        ("t [a,b] t^-1 [a,b]^-1", TRIVIAL),
        ("t^3 t^-3", TRIVIAL),
        ("[a,t]", NONTRIVIAL),
        ("t a t^-1 a^-1", NONTRIVIAL),
        ("a", NONTRIVIAL),
        ("t", NONTRIVIAL),
        ("[[a,b],t]^2", TRIVIAL),
        ("a t [a,b] t^-1 [b,a] a^-1", TRIVIAL),
    ]
    for text, want in cases:
        assert gamma.word_problem(parse_word(text, al)) == want, text


def test_express_cap_is_not_certified(gamma):
    # membership expressions are read off the folded graph, so long
    # products of edge generators cross the edge at any length
    al = gamma.alphabet()
    for n in (64, 65, 200):
        assert gamma.word_problem(parse_word(f"[[a,b]^{n},t]", al)) == TRIVIAL, n


def test_long_boundary_product_on_mixed():
    T = _corpus_tower("mixed")
    w = parse_word("[[p,q]^65 [a,b]^-65, a]", T.alphabet())
    assert T.word_problem(w) == TRIVIAL


def test_retraction_to_base(gamma):
    r = gamma.retraction_to_base()
    al = gamma.alphabet()
    assert r.apply(parse_word("a b", al)) == parse_word("a b")
    assert r.apply(parse_word("t", al)) == ()
    assert r.apply(parse_word("a t b", al)) == parse_word("a b")


def test_retraction_kills_stage_relators(gamma):
    # every top-stage relator maps to a trivial word one stage down
    r = gamma.stages[1].retraction
    prev = gamma.stages[0]
    for rel in gamma.presentation().relators:
        img = r.apply(rel)
        assert gamma._wp_at(0, img, 8) == TRIVIAL


def test_two_stage_retraction_composes(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    r = t2.retraction_to_base()
    stagewise = t2.stages[2].retraction.then(t2.stages[1].retraction)
    for w in enumerate_ball(t2.alphabet(), 2):
        assert r.apply(w) == stagewise.apply(w)


# -- witness search ----------------------------------------------------------

def test_witness_on_free_tower_is_identity(free2):
    W = [parse_word(t) for t in ("a", "b", "a b", "[a,b]")]
    cert = tw.find_rf_witness(free2, W, budget=2)
    assert cert.verdict == "valid"
    assert cert.recheck()


def test_witness_on_abelian_tower():
    t = tw.new_height0([tw.abelian_summand("x", "y")])
    al = t.alphabet()
    W = [parse_word(s, al) for s in ("x", "y", "x y")]
    cert = tw.find_rf_witness(t, W, budget=4)
    assert cert.verdict == "valid"
    # images are powers of a single fresh letter with distinct exponents
    assert len(cert.target.generators) == 1
    assert cert.recheck()


def test_witness_on_gamma_ball1(gamma):
    W = enumerate_ball(gamma.alphabet(), 1)
    cert = tw.find_rf_witness(gamma, W, budget=8, seed=3)
    assert cert.verdict == "valid"
    assert cert.recheck()
    # t goes to a power of the attaching commutator
    img = cert.hom.images["t"]
    base = parse_word("[a,b]")
    assert any(reduce_word(img) in
               (reduce_word(concat(*([base] * n))),
                reduce_word(invert(concat(*([base] * n)))))
               for n in range(1, 9))


def test_recheck_rejects_non_homomorphism(gamma):
    al = gamma.alphabet()
    W = [parse_word(s, al) for s in ("a", "b", "t")]
    cert = tw.find_rf_witness(gamma, W, budget=8)
    assert cert.recheck()
    # t -> a a b is injective on W but does not kill the relator [[a,b],t]
    forged = GroupHom(cert.hom.source, cert.hom.target,
                      dict(cert.hom.images, t=parse_word("a a b")))
    cert = dataclasses.replace(cert, hom=forged, images=[forged.apply(w) for w in W])
    assert not cert.recheck()


def test_witness_deterministic(gamma):
    W = enumerate_ball(gamma.alphabet(), 1)
    a = tw.find_rf_witness(gamma, W, budget=8, seed=11)
    b = tw.find_rf_witness(gamma, W, budget=8, seed=11)
    assert a.hom.images == b.hom.images
    assert a.trace == b.trace


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.twr")))
def test_witness_for_no_words_is_a_homomorphism(name):
    cert = tw.find_rf_witness(_corpus_tower(name), [], budget=2)
    assert cert.verdict == "valid"
    assert cert.recheck()


def test_witness_surface_summand():
    t = tw.new_height0([tw.surface_summand(2)])
    al = t.alphabet()
    W = [parse_word(s, al) for s in ("a1", "b1", "a2", "a1 b1")]
    cert = tw.find_rf_witness(t, W, budget=6, seed=0)
    assert cert.verdict == "valid"
    assert cert.recheck()


# -- limit-group style properties -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_root_uniqueness_sampled(gamma, data):
    ball = enumerate_ball(gamma.alphabet(), 2)
    x = data.draw(st.sampled_from(ball))
    y = data.draw(st.sampled_from(ball))
    n = data.draw(st.sampled_from((2, 3)))
    if gamma.word_problem(reduce_word(concat(x, invert(y)))) != NONTRIVIAL:
        return
    pw = reduce_word(concat(*([x] * n), *([invert(y)] * n)))
    assert gamma.word_problem(pw) != TRIVIAL
