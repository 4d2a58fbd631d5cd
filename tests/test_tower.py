import copy
import functools
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import cli, embed
from rft import tower as tw
from rft.graphgroups import NONTRIVIAL, TRIVIAL, UNKNOWN, word_problem
from rft.words import (
    GroupHom,
    SurfacePresentation,
    abelianize,
    concat,
    cyclic_core,
    enumerate_ball,
    format_word,
    invert,
    letter,
    parse_word,
    power,
    reduce_word,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def _replaced(obj, **changes):
    """A shallow copy of `obj` with the given attributes reassigned."""
    out = copy.copy(obj)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def _corpus_tower(name: str) -> tw.Tower:
    return cli.build_tower(cli.parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))


CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.twr"))
_cached_tower = functools.cache(_corpus_tower)


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
    # the T block's lattice supersedes gamma's [a,b], t lattice
    recs = t2.lattice_records()
    assert len(recs) == 1 and len(recs[0].generators) == 3


def test_the_lattice_ledger_lists_the_live_lattices(gamma):
    # wide's T block extends the (x, y) summand lattice, which drops out
    wide = _corpus_tower("wide")
    recs = wide.lattice_records()
    assert [(r.stage, r.origin, len(r.generators)) for r in recs] == [(1, "A", 2), (2, "T", 3)]
    # one ledger per tower, handed out as a fresh list
    recs.clear()
    assert len(wide.lattice_records()) == 2
    assert [r.origin for r in gamma.lattice_records()] == ["A"]
    # an unreduced attaching word extends the same lattice
    doc = cli.parse_tower_dsl("""tower w { base { free(a); abelian(rank=2: x, y) }
      block T { attach=("x a a^-1", "y"); rank=3; letters=u; } }""")
    assert [r.origin for r in cli.build_tower(doc).lattice_records()] == ["T"]


@pytest.mark.parametrize("kind", ["A", "Q", "T"])
def test_a_colliding_name_fails_before_any_word_problem(monkeypatch, free2, kind):
    def no_word_problem(self, w, budget=8):
        raise AssertionError("word problem asked")

    monkeypatch.setattr(tw.Tower, "word_problem", no_word_problem)
    al = free2.alphabet()
    block, message = {
        "A": (tw.BlockA((), 2, ("a",)), "new letter 'a' collides"),
        "T": (tw.BlockT((parse_word("a", al), parse_word("b", al)), 3, ("b",)),
              "new letter 'b' collides"),
        "Q": (tw.BlockQ(SurfacePresentation(1, 1, ("x", "a")), ((),),
                        {"x": (), "a": ()}), "surface generator 'a' collides"),
    }[kind]
    with pytest.raises(tw.BlockError, match=message):
        tw.attach_block(free2, block)


def test_attach_t_rejects_noncommuting(gamma):
    al = gamma.alphabet()
    with pytest.raises(tw.BlockError):
        tw.attach_block(gamma, tw.BlockT((parse_word("a", al), parse_word("b", al)),
                                         3, ("u",)))


def test_assume_never_covers_a_refuted_nonabelian_check(free2):
    # every surface generator maps to a: all commutators are Trivial
    surf = SurfacePresentation(1, 2, ("p", "q", "d1"))
    block = tw.BlockQ(surf, (parse_word("a"), parse_word("a")),
                      {g: parse_word("a") for g in surf.generators})
    with pytest.raises(tw.RefutedError, match="retraction-nonabelian"):
        tw.attach_block(free2, block, assume=True)


def test_nonabelian_check_with_an_unknown_pair_is_budget_limited(free2, monkeypatch):
    # pairs (p,q) and (q,d1) undecided, (p,d1) Trivial: budget-limited, not refuted
    surf = SurfacePresentation(1, 2, ("p", "q", "d1"))
    block = tw.BlockQ(surf, (parse_word("a"), parse_word("[a,b] a")),
                      {"p": parse_word("a"), "q": parse_word("b"), "d1": parse_word("a")})
    undecided = {parse_word("[a,b]"), parse_word("[b,a]")}
    real = tw.Tower.word_problem
    monkeypatch.setattr(tw.Tower, "word_problem", lambda self, w, budget=8: (
        UNKNOWN if w in undecided else real(self, w, budget)))
    with pytest.raises(tw.BlockError, match="retraction-nonabelian could not be verified"):
        tw.attach_block(free2, block)
    t = tw.attach_block(free2, block, assume=True)
    assert [(ob.name, ob.status) for ob in t.obligations()][-1] == (
        "retraction-nonabelian", "assumed")


@pytest.mark.parametrize("holds, assume, outcome", [
    (True, False, "verified"), (True, True, "verified"), (None, True, "assumed"),
    (None, False, "BlockError"), (False, False, "RefutedError"),
    (False, True, "RefutedError"),
])
def test_obligation_policy(holds, assume, outcome):
    ledger = []
    if outcome in ("verified", "assumed"):
        tw.require(ledger, "check", holds, "detail", assume)
        assert [(ob.name, ob.status, ob.detail) for ob in ledger] == [
            ("check", outcome, "detail")]
    else:
        with pytest.raises(tw.BlockError) as exc:
            tw.require(ledger, "check", holds, "detail", assume)
        assert exc.type.__name__ == outcome and ledger == []


@pytest.mark.parametrize("verdict, holds", [
    (TRIVIAL, True), (NONTRIVIAL, False), (UNKNOWN, None)])
def test_word_problem_verdict_decides_a_check(verdict, holds):
    assert tw.decided(verdict, TRIVIAL) is holds


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
    for rel in gamma.presentation().relators:
        img = r.apply(rel)
        assert word_problem(gamma.stages[0].graph, img, 8) == TRIVIAL


def test_two_stage_retraction_composes(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    r = t2.retraction_to_base()
    assert r is t2.retraction_to_base()
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
    cert = _replaced(cert, hom=forged, images=[forged.apply(w) for w in W])
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


def test_merged_words_share_an_image_and_recheck(gamma):
    # t commutes with [a,b], so the first two words are one element
    al = gamma.alphabet()
    W = [parse_word(s, al) for s in ("t [a,b]", "[a,b] t", "a")]
    cert = tw.find_rf_witness(gamma, W, 8)
    assert cert.verdict == "valid"
    assert cert.classes[0] == cert.classes[1] != cert.classes[2]
    assert cert.images[0] == cert.images[1]
    assert cert.recheck()


def test_recheck_rejects_forged_classes(gamma):
    al = gamma.alphabet()
    W = [parse_word(s, al) for s in ("t [a,b]", "[a,b] t", "a")]
    cert = tw.find_rf_witness(gamma, W, 8)
    # two different classes given one image
    assert not _replaced(cert, classes=[0, 1, 2]).recheck()
    # one class given two different images
    assert not _replaced(cert, classes=[0, 0, 0]).recheck()
    assert not _replaced(cert, classes=[0, 0]).recheck()


# -- compiled witness family -------------------------------------------------

def _composed_hom(family: tw._WitnessFamily, params: tuple[int, ...]) -> GroupHom:
    """Reference member of the family: one map per stage, composed from the
    top down, then the height-0 resolution."""
    t = family.tower
    it = iter(params)
    hom = GroupHom.identity(t.alphabet())
    for i in range(t.height, 0, -1):
        s, b = t.stages[i], t.stages[i].block
        prev_alph, stage_alph = t.alphabet(i - 1), t.alphabet(i)
        if isinstance(b, (tw.BlockA, tw.BlockT)):
            attach = reduce_word(b.attaching[0])
            stage_map = {g: letter(g) for g in prev_alph.generators}
            for lt in b.letters:
                stage_map[lt] = power(attach, next(it))
            stage_hom = GroupHom(stage_alph, prev_alph, stage_map)
        else:
            # b -> b a^N, then a -> a b^M, which is a -> a (b a^N)^M
            twist = {g: letter(g) for g in stage_alph.generators}
            for h in range(b.surface.genus):
                a, bg = b.surface.generators[2 * h], b.surface.generators[2 * h + 1]
                twist[bg] = reduce_word(concat(letter(bg), power(letter(a), next(it))))
                twist[a] = reduce_word(concat(letter(a), power(twist[bg], next(it))))
            stage_hom = GroupHom(stage_alph, stage_alph, twist).then(s.retraction)
        hom = hom.then(stage_hom)
    res: dict = {}
    for kind, v, names in family.summand_plan:
        if kind == "free":
            res.update((g, letter(tgt)) for g, tgt in zip(v.alphabet.generators, names))
        elif kind == "abelian":
            res.update((g, power(letter(names[0]), next(it))) for g in v.alphabet)
        else:
            surf = v.surface
            twist = {g: letter(g) for g in surf.generators}
            for h in range(surf.genus):
                a, bg = surf.generators[2 * h], surf.generators[2 * h + 1]
                twist[bg] = reduce_word(concat(letter(bg), power(letter(a), next(it))))
            # fold handle pairs (1, 2), (3, 4), ...; an odd genus's last
            # handle goes to a_g -> z, b_g -> 1
            fold: dict = {}
            for h in range(surf.genus):
                a, bg = surf.generators[2 * h], surf.generators[2 * h + 1]
                fold[a] = letter(names[h])
                if h % 2 == 0:
                    fold[bg] = letter(names[h + 1]) if h + 1 < surf.genus else ()
                else:
                    fold[bg] = letter(names[h - 1])
            inner = GroupHom(surf.alphabet(), surf.alphabet(), twist)
            res.update(inner.then(GroupHom(surf.alphabet(), family.target, fold)).images)
    return hom.then(GroupHom(t.alphabet(0), family.target, res))


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.twr")))
def test_family_images_equal_the_composed_maps(name):
    family = tw._WitnessFamily(_corpus_tower(name))
    rng = random.Random(0)
    for _ in range(200):
        params = tuple(rng.randint(-3, 3) for _ in range(family.dimension))
        assert family.images(params) == _composed_hom(family, params).images, params


# -- lazy parameter shells ---------------------------------------------------

def _norm(v: tuple[int, ...]) -> int:
    return max(map(abs, v), default=0)


@pytest.mark.parametrize("max_norm", range(4))
@pytest.mark.parametrize("dim", range(6))
def test_parameter_shells_yield_each_vector_once(dim, max_norm):
    seq = list(tw._parameter_shells(dim, max_norm, seed=5))
    assert sorted(seq) == list(itertools.product(range(-max_norm, max_norm + 1), repeat=dim))
    norms = [_norm(v) for v in seq]
    assert norms == sorted(norms)


def test_parameter_shells_are_seeded():
    def first(seed):
        return list(itertools.islice(tw._parameter_shells(4, 3, seed), 500))
    assert first(1) == first(1)
    assert first(1) != first(2)


# At a parent that sorted whole shells, shell 1 here alone holds 3^12 - 1
# vectors, so the test runs only where shells are unranked lazily.
@pytest.mark.skipif(not hasattr(tw, "_shell_vector"), reason="shells are materialized")
def test_parameter_shells_memory_is_bounded():
    tracemalloc.start()
    try:
        norms = [_norm(v) for v in itertools.islice(tw._parameter_shells(12, 8, 0), 1000)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == 1000 and max(norms) == 1
    assert peak < 1 << 20


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


# -- ledger views and witness-family labels ----------------------------------

@pytest.mark.parametrize("name, certified", [
    ("gamma", True), ("a2", True), ("mixed", True), ("q1", True),
    ("tall", False), ("wide", False),
])
def test_prev_stage_csa(name, certified):
    # a2's only assumed obligation is in its top block, which the
    # precondition does not need
    assert _corpus_tower(name).prev_stage_csa() is certified


@pytest.mark.parametrize("name", ["a2", "closed2", "gamma", "mixed", "q1", "t2", "tall",
                                  "wide"])
def test_stage_slot_labels_name_the_letter_they_move(name):
    T = _corpus_tower(name)
    family = tw._WitnessFamily(T)
    ones = (1,) * family.dimension
    base = family.hom(ones).images
    for j, label in enumerate(family.slots):
        if not label.startswith("stage "):
            continue
        stage, rest = label[len("stage "):].split(": ", 1)
        moved = rest.removeprefix("twist ").split(" ")[0]
        images = family.hom(ones[:j] + (2,) + ones[j + 1:]).images
        assert images[moved] != base[moved], label
        lower = T.alphabet(int(stage) - 1).generators
        assert all(images[g] == base[g] for g in lower), label


SURFACE_TOWERS = {f"surface{g}": tw.new_height0([tw.surface_summand(g)]) for g in (2, 3, 4)}
FAMILY_TOWERS = CORPUS_NAMES + sorted(SURFACE_TOWERS)


def _family_tower(name: str) -> tw.Tower:
    return SURFACE_TOWERS[name] if name in SURFACE_TOWERS else _cached_tower(name)


@pytest.mark.parametrize("name", FAMILY_TOWERS)
def test_summand_slot_labels_name_the_letter_they_move(name):
    # a summand slot's parameter reaches `images` through the slot it is
    # listed in: going from 1 to 2 moves the letter its label names and no
    # stage-0 letter of another summand
    T = _family_tower(name)
    family = tw._WitnessFamily(T)
    ones = (1,) * family.dimension
    base = family.hom(ones).images
    summands = {v.label: v for v in T.summands}
    for j, label in enumerate(family.slots[family.summand_slot:], family.summand_slot):
        assert label.startswith("summand "), label
        summand, rest = label[len("summand "):].split(": ", 1)
        moved = rest.removeprefix("twist ").split(" ")[0]
        images = family.hom(ones[:j] + (2,) + ones[j + 1:]).images
        assert images[moved] != base[moved], label
        others = set(T.alphabet(0).generators) - set(summands[summand].alphabet.generators)
        assert all(images[g] == base[g] for g in others), label


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_family_member_kills_every_relator(data):
    # the surface towers of genus 3 reach the odd-genus last handle, which
    # no corpus tower has
    T = _family_tower(data.draw(st.sampled_from(FAMILY_TOWERS)))
    family = tw._WitnessFamily(T)
    params = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=family.dimension,
                                      max_size=family.dimension)))
    hom = family.hom(params)
    assert all(not hom.apply(r) for r in T.presentation().relators), params


def test_the_free_map_keeps_surface_commutators_and_q_handles_apart():
    # closed2's t commutes with [a1,b1], which handle pairs no longer send
    # to 1; q1's twist of p along q keeps p apart from a
    closed2, q1 = _cached_tower("closed2"), _cached_tower("q1")
    assert closed2.free_map.apply(parse_word("t", closed2.alphabet()))
    assert closed2.free_map.apply(parse_word("[a1,b1]", closed2.alphabet()))
    hom = q1.free_map
    assert hom.apply(letter("p")) != hom.apply(letter("a"))


# -- element keys ---------------------------------------------------------------

@pytest.mark.parametrize("summand", [
    tw.free_summand("a", "b"), tw.abelian_summand("x"), tw.abelian_summand("x", "y", "z"),
    tw.surface_summand(2), tw.surface_summand(3),
], ids=lambda v: f"{v.kind}-{len(v.alphabet)}")
def test_summand_relators_have_exponent_sum_zero(summand):
    # the fact the exponent-sum element key rests on
    assert all(not any(abelianize(r, summand.alphabet)) for r in summand.all_relators())


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_stage0_relators_have_exponent_sum_zero(name):
    T = _cached_tower(name)
    assert all(not any(abelianize(r, T.alphabet(0))) for r in T.presentation(0).relators)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trivial_products_do_not_move_the_element_key(data):
    T = _cached_tower(data.draw(st.sampled_from(CORPUS_NAMES)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=4).map(tuple)
    factors = []
    for r in data.draw(st.lists(st.sampled_from(T.presentation().relators), max_size=3)
                       if T.presentation().relators else st.just([])):
        g = data.draw(words)
        factors.append(concat(g, r if data.draw(st.booleans()) else invert(r), invert(g)))
    trivial = reduce_word(concat(*factors))
    w = reduce_word(data.draw(words))
    assert T.element_key(trivial) == T.element_key(())
    assert T.element_key(reduce_word(concat(w, trivial))) == T.element_key(w)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_keyed_witness_classes_equal_unkeyed(data):
    # a constant key asks the word problem about every pair and every word,
    # as the classes were found before words were keyed
    T = _cached_tower(data.draw(st.sampled_from(CORPUS_NAMES)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    short = st.lists(letters, max_size=3).map(tuple)
    relators = T.presentation().relators
    words = []
    for _ in range(data.draw(st.integers(1, 3))):
        w = data.draw(short)
        words.append(w)
        # a twin equal to w in the group, trivial when w is empty
        if relators and data.draw(st.booleans()):
            g = data.draw(short)
            words.append(concat(w, g, data.draw(st.sampled_from(relators)), invert(g)))
    words += data.draw(st.lists(st.sampled_from(words), max_size=2))
    keyed = tw.find_rf_witness(T, words, budget=2, max_attempts=30)
    key = tw.Tower.element_key
    try:
        tw.Tower.element_key = lambda self, w, base=None: None
        unkeyed = tw.find_rf_witness(T, words, budget=2, max_attempts=30)
    finally:
        tw.Tower.element_key = key
    assert keyed == unkeyed


# -- the tower's free map ------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_free_map_kills_every_relator(name):
    T = _corpus_tower(name)
    hom = T.free_map
    assert hom is not None and hom is T.free_map
    assert hom.source == T.alphabet()
    assert all(not hom.apply(r) for r in T.presentation().relators)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_nonempty_free_map_image_is_never_trivial(data):
    # the top stage's Britton word problem never contradicts the free map's
    # proof; the drawn words mix relator conjugates in, so some are trivial
    T = _cached_tower(data.draw(st.sampled_from(CORPUS_NAMES)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    short = st.lists(letters, max_size=3).map(tuple)
    relators = T.presentation().relators
    factors = [data.draw(short)]
    for _ in range(data.draw(st.integers(0, 2)) if relators else 0):
        g = data.draw(short)
        r = data.draw(st.sampled_from(relators))
        factors += [g, r if data.draw(st.booleans()) else invert(r), invert(g)]
    w = reduce_word(concat(*factors))
    if T.free_map.apply(w):
        assert word_problem(T.stages[-1].graph, w, 2) != TRIVIAL
    assert T.reduced_word_problem(w, T.retraction_to_base().apply(w), budget=2) == (
        T.word_problem(w, budget=2))


def test_the_free_map_decides_before_the_top_stage_is_asked(gamma, monkeypatch):
    # t retracts to the empty word, but the free map sends it to [a,b]^1,
    # so no word problem of the top stage's graph runs
    real = tw.gg.word_problem
    asked = []

    def counting(G, w, budget=8):
        asked.append(G)
        return real(G, w, budget)

    monkeypatch.setattr(tw.gg, "word_problem", counting)
    assert gamma.word_problem(parse_word("t", gamma.alphabet())) == NONTRIVIAL
    assert gamma.stages[-1].graph not in asked


# -- the relator step ----------------------------------------------------------

RELATOR_NAMES = [name for name in CORPUS_NAMES if _cached_tower(name).presentation().relators]


def _relator_rotations(T: tw.Tower):
    """Each defining relator, its inverse, and every rotation of either
    one's cyclically reduced core."""
    for r in T.presentation().relators:
        for u in (r, invert(r)):
            core, _ = cyclic_core(u)
            yield u
            yield from (core[k:] + core[:k] for k in range(len(core)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relator_conjugates_are_trivial_without_britton(data):
    # a rotation of a relator's core, or of its inverse's, conjugated by
    # any word, is Trivial before any graph-of-groups word problem runs
    T = _cached_tower(data.draw(st.sampled_from(RELATOR_NAMES)))
    w = data.draw(st.sampled_from(list(_relator_rotations(T))))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    g = data.draw(st.lists(letters, max_size=3).map(tuple))
    w = reduce_word(concat(g, w, invert(g)))

    def no_britton(G, w, budget=8):
        raise AssertionError("a graph-of-groups word problem ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tw.gg, "word_problem", no_britton)
        assert T.word_problem(w) == TRIVIAL


@pytest.mark.parametrize("name", RELATOR_NAMES)
def test_britton_never_refutes_the_relator_step(name):
    # the relator step answers Trivial on these words without asking the
    # top stage; its Britton word problem agrees or gives up, never refutes
    T = _cached_tower(name)
    top = T.stages[-1].graph
    words = set(_relator_rotations(T))
    assert all(T._relator_conjugate(w) for w in words)
    assert all(word_problem(top, w, 8) != NONTRIVIAL for w in words)


def test_relator_cores_stay_linear_in_the_relator_length(free2):
    # an A block along a 4,001-letter word has one 8,004-letter relator;
    # every rotation of its core and of its inverse's would be ~128
    # million letters, where the least rotations are two words
    T = tw.attach_block(free2, tw.BlockA(parse_word("[a,b]^1000 a"), 2, ("t",)))
    r = T.presentation().relators[0]
    tracemalloc.start()
    try:
        assert T.word_problem(r[3:] + r[:3]) == TRIVIAL
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c) for c in T.relator_cores.values()) == 2
    assert peak < 2_000_000


def _splitting_embedding(name):
    S, D = cli.parse_splitting((CORPUS / f"{name}.spl").read_text(), _corpus_tower("f2"))
    return S, embed.embed_step(S, D)


@pytest.mark.parametrize("name", ["double", "hnn", "abelian", "qh"])
def test_a_family_member_that_keeps_a_relator_is_no_free_map(name, monkeypatch):
    # each generator goes to its own x^(i+1) y, so no commutator relator dies;
    # without a free map the certificate is the one the Britton word
    # problem alone gives
    S, R = _splitting_embedding(name)
    L_wp = lambda w, b: word_problem(S.L, w, b)
    with_map = embed.certify_injectivity_on_ball(R, L_wp, 2)
    assert R.gamma.free_map is not None

    def not_a_homomorphism(self, params):
        x, y = letter(self.target.generators[0]), letter(self.target.generators[-1])
        return {g: concat(power(x, i + 1), y)
                for i, g in enumerate(self.tower.alphabet().generators)}

    monkeypatch.setattr(tw._WitnessFamily, "images", not_a_homomorphism)
    S, R = _splitting_embedding(name)
    assert R.gamma.free_map is None
    assert embed.certify_injectivity_on_ball(R, L_wp, 2) == with_map


# -- witness search: first collision, names formatted once ------------------------

def _reference_find_rf_witness(tower, words, budget, seed=0, max_attempts=20000):
    """The attempt loop as it was before it stopped at the first collision:
    every word's image per attempt, and the collision's two words
    formatted anew per failed attempt."""
    alph = tower.alphabet()
    relators = tower.presentation().relators
    W = [reduce_word(w, alph) for w in words]
    family = tw._WitnessFamily(tower)
    trace = []
    keys = [tower.element_key(w) for w in W]
    classes = list(range(len(W)))
    for i in range(len(W)):
        for j in range(i + 1, len(W)):
            if classes[j] != j or keys[i] != keys[j]:
                continue
            if W[i] == W[j] or tower.word_problem(concat(W[i], invert(W[j]))) == TRIVIAL:
                classes[j] = classes[i]
    one = tower.element_key(())
    trivial_class = next(
        (classes[i] for i, w in enumerate(W)
         if keys[i] == one and tower.word_problem(w) == TRIVIAL), None)
    attempts = 0
    for params in tw._parameter_shells(family.dimension, budget, seed):
        attempts += 1
        if attempts > max_attempts:
            break
        member = family.images(params)
        images = [tw.apply_map(member, w) for w in W]
        collision = None
        seen = {}
        for i, img in enumerate(images):
            if trivial_class is not None and classes[i] == trivial_class:
                continue
            if classes[i] != trivial_class and not img:
                collision = (i, i)
                break
            if img in seen and classes[seen[img]] != classes[i]:
                collision = (seen[img], i)
                break
            seen.setdefault(img, i)
        if collision is None:
            trace.append((params, "valid"))
            hom = GroupHom(alph, family.target, member)
            return tw.WitnessCertificate(family.target, hom, relators, W, images, "valid",
                                         "; ".join(family.slots), trace, seed, budget,
                                         classes)
        trace.append((params, f"collision {format_word(W[collision[0]])} ~ "
                              f"{format_word(W[collision[1]])}"))
    return tw.WitnessCertificate(family.target, None, relators, W, [], "failed",
                                 "; ".join(family.slots), trace, seed, budget, classes)


def _same_witness(T, words, **kw):
    new = tw.find_rf_witness(T, words, **kw)
    old = _reference_find_rf_witness(T, words, **kw)
    assert (new.verdict, new.images, new.trace, new.classes) == (
        old.verdict, old.images, old.trace, old.classes)
    assert (new.hom and new.hom.images) == (old.hom and old.hom.images)
    return new


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witness_search_equals_the_reference_loop(data):
    T = _cached_tower(data.draw(st.sampled_from(CORPUS_NAMES)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    short = st.lists(letters, max_size=3).map(tuple)
    words = data.draw(st.lists(short, min_size=1, max_size=5))
    words += data.draw(st.lists(st.sampled_from(words), max_size=2))
    _same_witness(T, words, budget=2, seed=data.draw(st.integers(0, 3)),
                  max_attempts=data.draw(st.integers(1, 40)))


# closed2's "a1; t" and q1's "a; p; q" failed when surfaces were mapped by
# killing handles and Q blocks twisted b only
@pytest.mark.parametrize("name, text", [("closed2", "a1; t"), ("q1", "a; p; q"),
                                        ("gamma", "a; b; t; a b")])
def test_witness_search_equals_the_reference_loop_on_corpus_words(name, text):
    T = _cached_tower(name)
    words = [parse_word(s, T.alphabet()) for s in text.split(";")]
    cert = _same_witness(T, words, budget=8, max_attempts=60)
    assert cert.verdict == "valid" and cert.recheck()


def _hopeless_words(bound: int) -> list[str]:
    """Words x^i y^j of wide with 0 < max(|i|, |j|) <= bound.  Every
    member sends x and y into one cyclic group <f>, to exponents Nx, Ny of
    norm <= bound, so x^Ny y^-Nx is in the set and maps to 1: no search of
    budget `bound` separates them."""
    r = range(-bound, bound + 1)
    return [f"x^{i} y^{j}" for i in r for j in r if i or j]


def test_witness_search_formats_each_word_once(monkeypatch):
    # a failing search formats each word once, however many attempts it makes;
    # the family's slot labels are the only other calls
    T = _cached_tower("wide")
    words = [parse_word(s, T.alphabet()) for s in _hopeless_words(3)]
    calls = []

    def counting(w):
        calls.append(w)
        return format_word(w)

    monkeypatch.setattr(tw, "format_word", counting)
    tw._WitnessFamily(T)
    family_calls = len(calls)
    calls.clear()
    cert = tw.find_rf_witness(T, words, budget=3, max_attempts=200)
    assert cert.verdict == "failed" and len(cert.trace) == 200
    assert len(calls) == family_calls + len(words)
