import copy
import functools
import itertools
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rft import cli
from rft import embed as em
from rft import graphgroups, words
from rft import tower as tw
from rft.cli import build_tower, parse_splitting, parse_tower_dsl
from rft.graphgroups import (
    EdgeGroup,
    GraphOfGroups,
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    abelian_vertex,
    free_vertex,
    word_problem,
)
from rft.words import (
    AlphabetError,
    GroupHom,
    SurfacePresentation,
    WordError,
    alphabet,
    concat,
    cyclic_core,
    enumerate_ball,
    format_word,
    invert,
    join_reduced,
    parse_word,
    reduce_word,
)

AB = alphabet("a", "b")


def _replaced(obj, **changes):
    """A shallow copy of `obj` with the given attributes reassigned."""
    out = copy.copy(obj)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def _double():
    cd = alphabet("c", "d")
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", cd)
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vB", (parse_word("[c,d]", cd),)))
    return GraphOfGroups([vA, vB], [e], "vA")


def _double_data(nu_c="a", nu_d="b"):
    L = _double()
    gp = tw.new_height0([tw.free_summand("a", "b")])
    Lal = L.presentation().alphabet
    nu = GroupHom(Lal, gp.alphabet(), {
        "a": parse_word("a"), "b": parse_word("b"),
        "c": parse_word(nu_c), "d": parse_word(nu_d)})
    D = em.StrictQuotientData(nu, gp)
    return em.SplittingData("amalgam", L, "E"), D


def test_maximal_abelian_free_locus(free2):
    loc = em.maximal_abelian_containing(free2, parse_word("[a,b]"))
    assert loc.status == "verified"
    assert [format_word(g) for g in loc.generators] == ["a b a^-1 b^-1"]
    loc = em.maximal_abelian_containing(free2, parse_word("a^2"))
    assert [format_word(g) for g in loc.generators] == ["a"]
    loc = em.maximal_abelian_containing(free2, parse_word("b a^2 b^-1"))
    assert [format_word(g) for g in loc.generators] == ["b a b^-1"]


def test_maximal_abelian_lattice_locus(gamma):
    loc = em.maximal_abelian_containing(gamma, parse_word("t", gamma.alphabet()))
    assert loc.status == "verified"
    assert len(loc.generators) == 2


def test_maximal_abelian_surface_locus_is_cyclic_on_a_certified_root():
    # centralizers in a closed surface group are cyclic, so the group of a
    # root that a map to a free group certifies is maximal abelian; the
    # answer is the root's group, not the group of the word, a square here
    g2 = tw.new_height0([tw.surface_summand(2)])
    al = g2.alphabet()
    loc = em.maximal_abelian_containing(g2, parse_word("a1 b1", al))
    assert loc.status == "verified"
    assert [format_word(g) for g in loc.generators] == ["a1 b1"]
    loc = em.maximal_abelian_containing(g2, parse_word("b1 a2 b2 a2 b2 b1^-1", al))
    assert loc.status == "verified"
    assert [format_word(g) for g in loc.generators] == ["b1 a2 b2 b1^-1"]
    # pp's attaching word, a conjugate of (b2 a2)^2 with no literal period,
    # has no certified root, so its answer stays budget-limited
    loc = em.maximal_abelian_containing(g2, parse_word("b1^-1 a2 b2 b2 a2 a1 b1 a1^-1", al))
    assert loc.status == "budget-limited"


def test_a_lattice_on_an_assumed_obligation_is_budget_limited():
    # a2's stage-2 torus <[a,t], s> centralizes [a,t], but its block was
    # attached with attach-maximal only assumed
    a2 = build_tower(parse_tower_dsl((CORPUS / "a2.twr").read_text()))
    assert [ob.status for ob in a2.stages[2].obligations
            if ob.name == "attach-maximal"] == ["assumed"]
    loc = em.maximal_abelian_containing(a2, parse_word("[a,t]", a2.alphabet()))
    assert loc.status == "budget-limited"
    assert [format_word(g) for g in loc.generators] == ["a t a^-1 t^-1", "s"]


def test_embed_amalgam_double():
    S, D = _double_data()
    R = em.embed_step(S, D)
    assert R.gamma.alphabet().generators == ("a", "b", "t")
    assert [format_word(r) for r in R.gamma.presentation().relators] == [
        "a b a^-1 b^-1 t b a b^-1 a^-1 t^-1"]
    assert format_word(R.j.images["c"]) == "t a t^-1"
    assert format_word(R.j.images["d"]) == "t b t^-1"
    # hard postcondition: relator images die
    for r in S.L.presentation().relators:
        assert R.gamma.word_problem(R.j.apply(r)) == TRIVIAL


def test_embed_amalgam_certificate():
    S, D = _double_data()
    R = em.embed_step(S, D)
    cert = em.certify_injectivity_on_ball(
        R, lambda w, b: word_problem(S.L, w, b), 2)
    assert cert.status == "full"
    assert not cert.refutations and not cert.unknowns


def test_certificate_radius0_vacuous():
    S, D = _double_data()
    R = em.embed_step(S, D)
    cert = em.certify_injectivity_on_ball(
        R, lambda w, b: word_problem(S.L, w, b), 0)
    assert cert.status == "full"
    assert cert.entries == []


def test_corrupted_j_refuted():
    S, D = _double_data()
    R = em.embed_step(S, D)
    bad_images = dict(R.j.images)
    bad_images["c"] = parse_word("a", R.gamma.alphabet())
    R_bad = em.EmbeddingResult(R.gamma, GroupHom(R.j.source, R.j.target, bad_images),
                               R.U, R.new_letter, R.obligations)
    cert = em.certify_injectivity_on_ball(
        R_bad, lambda w, b: word_problem(S.L, w, b), 2)
    assert cert.status == "refuted"
    assert any(format_word(e.word) in ("c a^-1", "a c^-1", "a^-1 c", "c^-1 a")
               for e in cert.refutations)


def test_embed_hnn():
    # L = <a, s | s a s^-1 = a> = Z^2; nu collapses s onto a
    va = free_vertex("vA", alphabet("a"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("a", alphabet("a")),)),
                  ("vA", (parse_word("a", alphabet("a")),)), stable_letter="s")
    L = GraphOfGroups([va], [e], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    Lal = L.presentation().alphabet
    nu = GroupHom(Lal, gp.alphabet(),
                   {"a": parse_word("a"), "s": parse_word("a")})
    D = em.StrictQuotientData(nu, gp)
    S = em.SplittingData("hnn", L, "E")
    R = em.embed_step(S, D)
    # j(s) = t nu(s)
    t = R.new_letter
    assert format_word(R.j.images["s"]) == f"{t} a"
    for r in L.presentation().relators:
        assert R.gamma.word_problem(R.j.apply(r)) == TRIVIAL


def test_embed_abelian_vertex():
    # L = <a> *_{a = x} Z^2(x,y); nu sends the edge to a in the free target
    va = free_vertex("vA", alphabet("a"))
    vb = abelian_vertex("vB", alphabet("x", "y"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("a", alphabet("a")),)),
                  ("vB", (parse_word("x", alphabet("x", "y")),)))
    L = GraphOfGroups([va, vb], [e], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    Lal = L.presentation().alphabet
    nu = GroupHom(Lal, gp.alphabet(), {
        "a": parse_word("a"), "x": parse_word("a"), "y": ()})
    D = em.StrictQuotientData(nu, gp)
    S = em.SplittingData("abelian", L, "E", special_vertex="vB")
    R = em.embed_step(S, D)
    # the tower gained a rank-2 torus block over <a>
    top = R.gamma.stages[-1].block
    assert isinstance(top, tw.BlockT) and top.rank == 2
    assert format_word(R.j.images["x"]) == "a"
    s = top.letters[0]
    assert format_word(R.j.images["y"]) == s
    for r in L.presentation().relators:
        assert R.gamma.word_problem(R.j.apply(r)) == TRIVIAL


def test_embed_qh():
    # QH vertex: once-punctured torus glued to <a,b> along [a,b]
    surf = SurfacePresentation(1, 1, ("x", "y"))
    va = free_vertex("vA", AB)
    vq = free_vertex("vQ", alphabet("x", "y"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vQ", (parse_word("[x,y]", alphabet("x", "y")),)))
    L = GraphOfGroups([va, vq], [e], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    Lal = L.presentation().alphabet
    nu = GroupHom(Lal, gp.alphabet(), {
        "a": parse_word("a"), "b": parse_word("b"),
        "x": parse_word("a"), "y": parse_word("b")})
    D = em.StrictQuotientData(nu, gp)
    S = em.SplittingData("qh", L, "E", surface=surf, special_vertex="vQ")
    R = em.embed_step(S, D)
    top = R.gamma.stages[-1].block
    assert isinstance(top, tw.BlockQ)
    for r in L.presentation().relators:
        assert R.gamma.word_problem(R.j.apply(r)) == TRIVIAL


# -- strict-quotient validation ----------------------------------------------

def test_validate_double_verified():
    S, D = _double_data()
    rep = {b.name: b for b in em.validate_strict_quotient(S, D, 2)}
    assert rep["edge-injective-maximal"].status == "verified"
    assert rep["envelope-injective"].status == "verified"
    assert rep["abelian-peripheral"].status == "not-applicable"


def test_validate_killed_edge_refuted():
    S, D = _double_data(nu_c="b", nu_d="a")
    # nu(E) = [b,a] is still fine; kill it instead via c,d -> a,a
    S2, D2 = _double_data(nu_c="a", nu_d="a")
    rep = {b.name: b for b in em.validate_strict_quotient(S2, D2, 1)}
    assert rep["edge-injective-maximal"].status == "refuted"


def test_validate_qh_abelian_image_refuted():
    surf = SurfacePresentation(1, 1, ("x", "y"))
    va = free_vertex("vA", AB)
    vq = free_vertex("vQ", alphabet("x", "y"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vQ", (parse_word("[x,y]", alphabet("x", "y")),)))
    L = GraphOfGroups([va, vq], [e], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    Lal = L.presentation().alphabet
    # both surface generators land on powers of a: abelian image
    nu = GroupHom(Lal, gp.alphabet(), {
        "a": parse_word("a"), "b": parse_word("b"),
        "x": parse_word("a"), "y": parse_word("a^2")})
    D = em.StrictQuotientData(nu, gp)
    S = em.SplittingData("qh", L, "E", surface=surf, special_vertex="vQ")
    rep = {b.name: b for b in em.validate_strict_quotient(S, D, 1)}
    assert rep["qh-nonabelian"].status == "refuted"


def test_validate_monotone_in_budget():
    S, D = _double_data()
    low = {b.name: b.status for b in em.validate_strict_quotient(S, D, 1, budget=2)}
    high = {b.name: b.status for b in em.validate_strict_quotient(S, D, 1, budget=12)}
    for name, status in low.items():
        if status in ("verified", "refuted"):
            assert high[name] == status


# -- tower-first ball certificates and envelope checks ------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
SPLITTINGS = ("double", "hnn", "abelian", "qh")


def _corpus_embedding(name):
    f2 = build_tower(parse_tower_dsl((CORPUS / "f2.twr").read_text()))
    S, D = parse_splitting((CORPUS / f"{name}.spl").read_text(), f2)
    return S, D, em.embed_step(S, D)


def _counting_L(S):
    calls = []

    def L_wp(w, b):
        calls.append(w)
        return word_problem(S.L, w, b)
    return L_wp, calls


def _l_first_certificate(R, L_word_problem, radius, budget=8):
    """The certificate as built before the tower was asked first: L decides
    every ball element, and only source-nontrivial ones reach the tower."""
    entries, status = [], "full"
    for w in enumerate_ball(R.j.source, radius):
        sv = L_word_problem(w, budget)
        if sv != NONTRIVIAL:
            continue
        img = R.j.apply(w)
        iv = R.gamma.word_problem(img, budget)
        method = "direct"
        if iv == UNKNOWN:
            cert = tw.find_rf_witness(R.gamma, [img], budget, seed=0)
            if cert.verdict == "valid" and cert.images and cert.images[0]:
                iv, method = NONTRIVIAL, "witness"
            else:
                method = "none"
        entries.append(em.BallEvidence(w, sv, img, iv, method))
        if iv == TRIVIAL:
            status = "refuted"
        elif iv == UNKNOWN and status != "refuted":
            status = "partial"
    return em.BallCertificate(radius, status, entries)


@pytest.mark.parametrize("name", SPLITTINGS)
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_tower_first_certificate_equals_l_first(name, radius):
    S, D, R = _corpus_embedding(name)
    L_wp = lambda w, b: word_problem(S.L, w, b)
    cert = em.certify_injectivity_on_ball(R, L_wp, radius)
    assert cert == _l_first_certificate(R, L_wp, radius)
    assert cert.entries and cert.status == "full"


def test_ball_evidence_compares_by_type_and_fields():
    # a certificate keeps one entry per ball element, stored without a
    # per-entry dict; equality is still the records' own
    fields = (parse_word("a b"), NONTRIVIAL, parse_word("t a"), NONTRIVIAL, "direct")
    entry = em.BallEvidence(*fields)
    assert not hasattr(entry, "__dict__")
    assert entry == em.BallEvidence(*fields) and not entry != em.BallEvidence(*fields)
    others = (parse_word("a"), TRIVIAL, parse_word("t"), UNKNOWN, "witness")
    for i, other in enumerate(others):
        assert entry != em.BallEvidence(*fields[:i], other, *fields[i + 1:])

    class Evidence(em.BallEvidence):
        pass

    assert entry != Evidence(*fields) and Evidence(*fields) != entry
    assert entry != fields
    with pytest.raises(TypeError):
        hash(entry)


def test_assumed_j_asks_l_about_every_ball_element():
    S, D, R = _corpus_embedding("qh")
    obligations = [_replaced(ob, status="assumed")
                   if ob.name == "j-homomorphism" else ob for ob in R.obligations]
    R_assumed = _replaced(R, obligations=obligations)
    L_wp, calls = _counting_L(S)
    cert = em.certify_injectivity_on_ball(R_assumed, L_wp, 2)
    assert calls == enumerate_ball(R.j.source, 2)
    assert cert == em.certify_injectivity_on_ball(R, lambda w, b: word_problem(S.L, w, b), 2)


def _open_words(R, radius):
    """The ball words whose image the tower does not prove nontrivial."""
    return [w for w in enumerate_ball(R.j.source, radius)
            if R.gamma.word_problem(R.j.apply(w)) != NONTRIVIAL]


def _conjugacy_class(w):
    """The conjugacy class of the reduced word w up to inversion in the
    free group, as every rotation of its cyclic core and of the core's
    inverse."""
    core, _ = cyclic_core(w)
    return frozenset(c[i:] + c[:i] for c in (core, invert(core))
                     for i in range(max(len(c), 1)))


@pytest.mark.parametrize("name", SPLITTINGS)
def test_verified_j_asks_l_once_per_open_conjugacy_class(name):
    S, D, R = _corpus_embedding(name)
    L_wp, calls = _counting_L(S)
    cert = em.certify_injectivity_on_ball(R, L_wp, 4)
    classes = {_conjugacy_class(w) for w in _open_words(R, 4)}
    assert len(calls) == len(classes)
    assert {_conjugacy_class(w) for w in calls} == classes
    assert cert == _l_first_certificate(R, lambda w, b: word_problem(S.L, w, b), 4)


def test_an_unknown_l_verdict_is_asked_again():
    # L answers Unknown the first time it is asked about a word of the
    # class of a x^-1 (20 open words); the next word of the class asks
    # L again, and its definite verdict serves the other 18
    S, D, R = _corpus_embedding("abelian")
    target = _conjugacy_class(parse_word("a x^-1"))
    calls, unknowns = [], []

    def L_wp(w, b):
        calls.append(w)
        if _conjugacy_class(w) == target and not unknowns:
            unknowns.append(w)
            return UNKNOWN
        return word_problem(S.L, w, b)

    em.certify_injectivity_on_ball(R, L_wp, 4)
    opened = [w for w in _open_words(R, 4) if _conjugacy_class(w) == target]
    assert len(opened) == 20
    assert [w for w in calls if _conjugacy_class(w) == target] == opened[:2]
    assert len(calls) == len({_conjugacy_class(w) for w in _open_words(R, 4)}) + 1


def test_radius3_qh_certificate_call_counts(monkeypatch):
    # Counts, not time: with a verified j the tower decides every ball
    # element, so L is asked only about the empty word; on the free base a
    # nonempty retraction image needs no base word problem, and of the
    # empty-base entries only those the tower's free map also sends to 1
    # reach a Britton word problem: none, since the Q block's second twist
    # (a -> a b^N) keeps them apart; with one twist 4 did.  Lower is the
    # aim; a change that moves a count updates this pin.
    S, D, R = _corpus_embedding("qh")
    L_wp, L_calls = _counting_L(S)
    real = graphgroups.word_problem
    gg_calls = []

    def counting(G, w, budget=8):
        gg_calls.append(w)
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "word_problem", counting)
    cert = em.certify_injectivity_on_ball(R, L_wp, 3)
    assert len(cert.entries) == 456 and cert.status == "full"
    assert (len(L_calls), len(gg_calls)) == (1, 0)


@pytest.mark.parametrize("name, l_calls, tower_calls", [
    ("double", 1, 0), ("hnn", 2, 0), ("abelian", 9, 0), ("qh", 1, 0)])
def test_radius4_certificate_call_counts(name, l_calls, tower_calls, monkeypatch):
    # Tower-side Britton word problems per radius-4 certificate are only the
    # entries that both the retraction and the free map send to 1 and that
    # are no relator conjugate.  Before the relator step the L-trivial hnn
    # and abelian entries took one each (8 and 32); before the free map
    # every empty-base entry took one (160, 32, 144, 160); before the Q
    # block's free map twisted a as well as b, qh took 48.  L is asked once
    # per conjugacy class, up to inversion, of the words the tower leaves
    # open; before that, once per word (hnn 9, abelian 73).
    S, D, R = _corpus_embedding(name)
    L_wp, L_calls = _counting_L(S)
    real = graphgroups.word_problem
    tower_side = []

    def counting(G, w, budget=8):
        if G is not S.L:
            tower_side.append(w)
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "word_problem", counting)
    cert = em.certify_injectivity_on_ball(R, L_wp, 4)
    assert cert.status == "full"
    assert (len(L_calls), len(tower_side)) == (l_calls, tower_calls)


def _recorded_tower_calls(monkeypatch, gamma):
    """The (word, base image) pairs `Tower.reduced_word_problem` is asked
    about on `gamma`."""
    real = tw.Tower.reduced_word_problem
    asked = []

    def recording(self, w, base, budget=8):
        if self is gamma:
            asked.append((w, base))
        return real(self, w, base, budget)

    monkeypatch.setattr(tw.Tower, "reduced_word_problem", recording)
    return asked


@pytest.mark.parametrize("name, tower_calls, ball", [
    ("hnn", 33, 161), ("abelian", 185, 937), ("qh", 161, 3201), ("double", 161, 3201)])
def test_a_nonempty_base_image_costs_no_tower_call(name, tower_calls, ball, monkeypatch):
    # On the free base of the four corpus splittings a nonempty base image
    # proves j(w) nontrivial, so only the words whose base image is 1, the
    # root included, reach the tower's chain; each word once took a call
    S, D, R = _corpus_embedding(name)
    assert R.gamma.free_base
    to_base = R.j.then(R.gamma.retraction_to_base())
    words = enumerate_ball(R.j.source, 4)
    assert len(words) == ball
    asked = _recorded_tower_calls(monkeypatch, R.gamma)
    cert = em.certify_injectivity_on_ball(R, lambda w, b: word_problem(S.L, w, b), 4)
    assert cert.status == "full"
    assert asked == [(R.j.apply(w), ()) for w in words if not to_base.apply(w)]
    assert len(asked) == tower_calls


def test_a_non_free_base_certificate_asks_the_tower_about_every_word(monkeypatch):
    # wide's stage 0 has an abelian and a surface summand, so a nonempty
    # base image proves nothing by itself: every ball word, with its whole
    # base image, goes through the tower's chain
    _, _, S, D, R = next(p for p in _corpus_pairs() if p[:2] == ("wide", "hnn"))
    assert not R.gamma.free_base
    to_base = R.j.then(R.gamma.retraction_to_base())
    asked = _recorded_tower_calls(monkeypatch, R.gamma)
    L_wp = lambda w, b: word_problem(S.L, w, b)
    cert = em.certify_injectivity_on_ball(R, L_wp, 3)
    assert asked == [(R.j.apply(w), to_base.apply(w)) for w in enumerate_ball(R.j.source, 3)]
    monkeypatch.undo()
    assert cert == _tower_first_certificate(R, L_wp, 3)
    assert cert.entries and cert.status == "full"


@pytest.mark.parametrize("name", ["hnn", "abelian", "qh"])
def test_a_free_map_proof_is_labelled_direct_when_britton_says_unknown(name, monkeypatch):
    # A Britton word problem that runs out of budget answers Unknown; here
    # the tower's top stage answers Unknown on every word.  An entry whose
    # image the free map sends to a nonempty word is still the tower's own
    # Nontrivial, so its method is "direct"; only entries that both maps
    # send to 1 go on to a witness search.  Without the free map every
    # entry that the base image leaves open goes to the search.
    real = graphgroups.word_problem

    def certificate():
        S, D, R = _corpus_embedding(name)
        top = R.gamma.stages[R.gamma.height].graph
        monkeypatch.setattr(graphgroups, "word_problem", lambda G, w, budget=8: (
            UNKNOWN if G is top else real(G, w, budget)))
        return R.gamma, em.certify_injectivity_on_ball(R, lambda w, b: real(S.L, w, b), 2)

    T, cert = certificate()
    to_base = T.retraction_to_base()
    by_free_map = [e.word for e in cert.entries
                   if not to_base.apply(e.image) and T.free_map.apply(e.image)]
    assert by_free_map
    for e in cert.entries:
        if to_base.apply(e.image) or T.free_map.apply(e.image):
            assert (e.image_verdict, e.method) == (NONTRIVIAL, "direct")
        else:
            assert e.method in ("witness", "none")
    monkeypatch.setattr(tw.Tower, "free_map", None)
    _, without = certificate()
    labels = {e.word: e.method for e in without.entries}
    assert all(labels[w] in ("witness", "none") for w in by_free_map)


def _envelope_L_calls(S, D, radius, monkeypatch):
    real = graphgroups.word_problem
    calls = []

    def counting(G, w, budget=8):
        if G is S.L:
            calls.append(w)
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "word_problem", counting)
    bullets = em.validate_strict_quotient(S, D, radius)
    monkeypatch.undo()
    return [(b.name, b.status, b.witness) for b in bullets], len(calls)


@pytest.mark.parametrize("name", SPLITTINGS)
def test_envelope_check_asks_l_only_when_the_image_is_not_nontrivial(name, monkeypatch):
    S, D, _ = _corpus_embedding(name)
    bullets, n_calls = _envelope_L_calls(S, D, 2, monkeypatch)
    qh = "verified" if name == "qh" else "not-applicable"
    peripheral = "verified" if name == "abelian" else "not-applicable"
    assert bullets == [("abelian-peripheral", peripheral, None),
                       ("edge-injective-maximal", "verified", None),
                       ("qh-nonabelian", qh, None),
                       ("envelope-injective", "verified", None)]
    # every pair of the rigid ball has a Nontrivial image: L is never asked,
    # where asking L first took one call per pair
    assert n_calls == 0


def _collapsing_rigid_vertex():
    """The rigid vertex <a, b, e> loses e = a in the quotient, while the
    edge image [a, b] survives: the pairs (a, e) and (a^-1, e^-1) both
    refute."""
    abe, cd = alphabet("a", "b", "e"), alphabet("c", "d")
    L = GraphOfGroups(
        [free_vertex("vA", abe), free_vertex("vB", cd)],
        [EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", abe),)),
                   ("vB", (parse_word("[c,d]", cd),)))], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    nu = GroupHom(L.presentation().alphabet, gp.alphabet(), {
        "a": parse_word("a"), "b": parse_word("b"), "e": parse_word("a"),
        "c": parse_word("a"), "d": parse_word("b")})
    D = em.StrictQuotientData(nu, gp)
    return em.SplittingData("amalgam", L, "E"), D


def test_envelope_refutation_still_asks_l(monkeypatch):
    S, D = _collapsing_rigid_vertex()
    bullets, n_calls = _envelope_L_calls(S, D, 1, monkeypatch)
    assert bullets[1:] == [("edge-injective-maximal", "verified", None),
                           ("qh-nonabelian", "not-applicable", None),
                           ("envelope-injective", "refuted", "a e^-1")]
    # L decides only the pairs whose image is not Nontrivial
    assert n_calls == 1


# -- ball walks: prefix images, grouped envelopes, bounded balls --------------

@functools.cache
def _corpus_pairs():
    """(tower, splitting, S, D, R) for every corpus splitting that parses
    against a corpus tower; block checks that stay undecided are assumed,
    as `rft embed --assume` does."""
    pairs = []
    for path in sorted(CORPUS.glob("*.twr")):
        T = build_tower(parse_tower_dsl(path.read_text()))
        for name in SPLITTINGS:
            try:
                S, D = parse_splitting((CORPUS / f"{name}.spl").read_text(), T)
            except AlphabetError:
                continue
            pairs.append((path.stem, name, S, D, em.embed_step(S, D, assume=True)))
    return pairs


def _tower_first_certificate(R, L_word_problem, radius, budget=8):
    """The certificate as built before the ball walk: j and the tower's
    retractions are applied to every ball word from scratch."""
    j_proved = all(ob.status == "verified" for ob in R.obligations
                   if ob.name == "j-homomorphism")
    entries, status = [], "full"
    for w in enumerate_ball(R.j.source, radius):
        img = R.j.apply(w)
        iv = R.gamma.word_problem(img, budget)
        if j_proved and iv == NONTRIVIAL:
            sv = NONTRIVIAL
        else:
            sv = L_word_problem(w, budget)
            if sv != NONTRIVIAL:
                continue
        method = "direct"
        if iv == UNKNOWN:
            cert = tw.find_rf_witness(R.gamma, [img], budget, seed=0)
            if cert.verdict == "valid" and cert.images and cert.images[0]:
                iv, method = NONTRIVIAL, "witness"
            else:
                method = "none"
        entries.append(em.BallEvidence(w, sv, img, iv, method))
        if iv == TRIVIAL:
            status = "refuted"
        elif iv == UNKNOWN and status != "refuted":
            status = "partial"
    return em.BallCertificate(radius, status, entries)


def test_corpus_pairs_cover_every_base_shape():
    pairs = _corpus_pairs()
    assert len(pairs) == 32
    # free and relator stage 0, towers of height 0 to 3 below the new block
    assert {R.gamma.free_base for *_, R in pairs} == {True, False}
    assert {R.gamma.height for *_, R in pairs} == {1, 2, 3, 4}


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_walked_certificate_equals_tower_first_loop(radius):
    for tower, name, S, D, R in _corpus_pairs():
        L_wp = lambda w, b: word_problem(S.L, w, b)
        cert = em.certify_injectivity_on_ball(R, L_wp, radius)
        assert cert == _tower_first_certificate(R, L_wp, radius), (tower, name)


@pytest.mark.parametrize("name", SPLITTINGS)
def test_walked_certificate_equals_tower_first_loop_radius4(name):
    S, D, R = _corpus_embedding(name)
    L_wp = lambda w, b: word_problem(S.L, w, b)
    assert em.certify_injectivity_on_ball(R, L_wp, 4) == _tower_first_certificate(R, L_wp, 4)


def _reduced_words(gens=("a", "b", "c")):
    return st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                    max_size=12).map(lambda w: reduce_word(tuple(w)))


@given(_reduced_words(), _reduced_words())
def test_join_reduced_is_free_reduction(u, v):
    assert join_reduced(u, v) == reduce_word(u + v)


def _pairwise_envelope(S, D, radius, budget=8):
    """The envelope bullet as checked before base-image grouping: every
    pair of the rigid-vertex ball gets a word problem."""
    nu, gp, edge = D.nu, D.gamma_prime, S.edge
    rigid = S.L.base if S.kind != em.QH else next(
        (v for v in S.L.vertices if v != S.special_vertex), S.L.base)
    side = edge.left if edge.left[0] == rigid else edge.right
    cent_status = "verified"
    for img in side[1]:
        if em.maximal_abelian_containing(gp, nu.apply(img), budget).status != "verified":
            cent_status = "budget-limited"
    refuted, unknown = None, False
    for u, v in itertools.combinations(enumerate_ball(S.L.vertices[rigid].alphabet, radius), 2):
        d = reduce_word(concat(u, invert(v)))
        tv = gp.word_problem(nu.apply(d), budget)
        if tv == NONTRIVIAL or word_problem(S.L, d, budget) != NONTRIVIAL:
            continue
        if tv == TRIVIAL:
            refuted = format_word(d)
            break
        unknown = True
    if refuted:
        return tw.Check("envelope-injective", "refuted", witness=refuted)
    if unknown or cent_status != "verified":
        return tw.Check("envelope-injective", "budget-limited", f"checked radius {radius}")
    return tw.Check("envelope-injective", "verified", f"injective on the radius-{radius} ball")


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_grouped_envelope_equals_pairwise_loop(radius):
    cases = [(S, D) for tower, _, S, D, _ in _corpus_pairs()
             if radius < 4 or tower == "f2"]
    cases.append(_collapsing_rigid_vertex())
    for S, D in cases:
        bullet = em.validate_strict_quotient(S, D, radius)[-1]
        assert bullet == _pairwise_envelope(S, D, radius)
    assert bullet.status == "refuted"


def test_envelope_groups_by_exponent_sums_on_a_relator_base(monkeypatch):
    # wide's stage 0 is a free product with an abelian and a surface
    # summand; the rigid ball's images split by exponent sums, so 4 of the
    # 136 pairs of the radius-2 ball reach the tower's word problem, where
    # one group of the whole ball asked all 136.  No pair is refuted, but
    # the bullet is budget-limited: the edge image's centralizing lattice
    # is wide's stage-1 torus, whose attach-maximal obligation is assumed
    _, _, S, D, _ = next(p for p in _corpus_pairs() if p[:2] == ("wide", "double"))
    gp = D.gamma_prime
    assert not gp.free_base
    real = tw.Tower.reduced_word_problem
    calls = []

    def counting(self, w, base, budget=8):
        if self is gp:
            calls.append(w)
        return real(self, w, base, budget)

    monkeypatch.setattr(tw.Tower, "reduced_word_problem", counting)
    bullet = em.validate_strict_quotient(S, D, 2)[-1]
    assert (bullet.status, bullet.detail) == ("budget-limited", "checked radius 2")
    assert len(enumerate_ball(S.L.vertices[S.L.base].alphabet, 2)) == 17
    assert len(calls) == 4


def test_envelope_radius6_is_fast():
    S, D, _ = _corpus_embedding("double")
    assert len(enumerate_ball(S.L.vertices[S.L.base].alphabet, 6)) == 1457
    t0 = time.perf_counter()
    bullets = em.validate_strict_quotient(S, D, 6)
    assert time.perf_counter() - t0 < 1.0
    assert bullets[-1].status == "verified"


def test_oversized_ball_is_refused_before_it_is_built():
    # a rank-4 ball of radius 12 has about 10^10 words
    S, D, R = _corpus_embedding("double")
    L_wp = lambda w, b: word_problem(S.L, w, b)
    with pytest.raises(WordError, match="more than"):
        em.certify_injectivity_on_ball(R, L_wp, 12)
    with pytest.raises(WordError, match="more than"):
        em.validate_strict_quotient(S, D, 12)
    code, text = cli.run_command(["embed", str(CORPUS / "f2.twr"), "--splitting",
                                  str(CORPUS / "double.spl"), "--ball", "12"])
    assert code == 1 and text.startswith("error: ") and "more than" in text


def test_radius3_qh_certificate_hom_and_reduction_counts(monkeypatch):
    # The walk extends each image by one entry of its hom's table, and a
    # hom applies its map to each generator's image once, when it is
    # composed, so the counts do not grow with the ball: 4 applications
    # for composing j with the retraction to the base, none for the walk.
    # `embed_step`'s word problems already built the tower's free map and
    # base map, so the free map adds one application per empty-base entry
    # (8).  The reductions are the composite's 4 images, reduced once when
    # it is built, and one in the Britton work left.  When every
    # application reduced its image again, and the walk applied both homs
    # to each generator, the counts were 20 and 21; before the walk,
    # applying j and the retractions to every ball word took 913 and
    # 1,405.
    S, D, R = _corpus_embedding("qh")
    graphgroups._subgroup_graph.cache_clear()
    counts = {"GroupHom.apply": 0, "reduce_word": 0}
    real_apply = words.GroupHom.apply

    def counting_apply(self, w):
        counts["GroupHom.apply"] += 1
        return real_apply(self, w)

    monkeypatch.setattr(words.GroupHom, "apply", counting_apply)
    real = words.reduce_word

    def counting(*args):
        counts["reduce_word"] += 1
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name == "rft" or module_name.startswith("rft."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    cert = em.certify_injectivity_on_ball(R, lambda w, b: word_problem(S.L, w, b), 3)
    assert len(cert.entries) == 456
    assert counts == {"GroupHom.apply": 12, "reduce_word": 5}
