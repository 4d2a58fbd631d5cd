import itertools
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rft.words import (
    MAX_WORD_DEPTH,
    MAX_WORD_LENGTH,
    Alphabet,
    AlphabetError,
    GroupHom,
    SurfacePresentation,
    WordError,
    abelianize,
    alphabet,
    ball_size,
    commutator,
    concat,
    cyclic_core,
    cyclic_reduce,
    dehn_reduce,
    enumerate_ball,
    format_word,
    invert,
    is_proper_power,
    least_rotation,
    letter,
    parse_word,
    power,
    reduce_word,
    walk_ball,
)

AB = alphabet("a", "b")


def words_over(alph, max_len=12):
    letters = st.tuples(st.sampled_from(alph.generators), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_len).map(tuple)


# -- alphabets ---------------------------------------------------------------

def test_alphabet_lookup_and_identity():
    abt = alphabet("a", "b", "t")
    assert [abt.index(g) for g in ("a", "b", "t")] == [0, 1, 2]
    assert "t" in abt and "z" not in abt
    with pytest.raises(AlphabetError):
        abt.index("z")
    with pytest.raises(AlphabetError):
        abt.check(letter("z"))
    # equal, hashed and printed by the generator tuple alone
    assert abt == Alphabet(("a", "b", "t")) and hash(abt) == hash(Alphabet(("a", "b", "t")))
    assert abt != Alphabet(("b", "a", "t"))
    assert repr(abt) == "Alphabet(generators=('a', 'b', 't'))"
    assert AB.union(abt).generators == ("a", "b", "t")


# -- reduction ---------------------------------------------------------------

def test_reduce_examples():
    assert format_word(reduce_word(parse_word("a a^-1 b", AB))) == "b"
    assert reduce_word(parse_word("a b b^-1 a^-1", AB)) == ()
    assert reduce_word(()) == ()


@given(words_over(AB))
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert len(r) <= len(w)


@given(words_over(AB, max_len=10))
def test_word_times_inverse_trivial(w):
    assert reduce_word(concat(w, invert(w))) == ()


@given(words_over(AB))
def test_reduce_preserves_abelianization(w):
    assert abelianize(reduce_word(w), AB) == abelianize(w, AB)


def test_cyclic_reduce():
    core, conj = cyclic_reduce(parse_word("b a b^-1", AB))
    assert format_word(core) == "a"
    assert format_word(conj) == "b"
    # w == conj core conj^-1
    w = parse_word("b a b^-1", AB)
    assert reduce_word(concat(conj, core, invert(conj))) == reduce_word(w)


@given(words_over(AB))
def test_cyclic_core_is_cyclic_reduce_of_a_reduced_word(w):
    w = reduce_word(w)
    assert cyclic_core(w) == cyclic_reduce(w)


@given(words_over(AB), st.integers(min_value=0, max_value=11))
def test_least_rotation_is_the_least_of_all_rotations(w, k):
    rotations = [w[i:] + w[:i] for i in range(len(w))]
    assert least_rotation(w) == min(rotations, default=())
    # every rotation of w has the same least rotation
    if w:
        assert least_rotation(rotations[k % len(w)]) == least_rotation(w)


def test_least_rotation_of_a_periodic_word():
    w = power(parse_word("a b^-1 a", AB), 4)
    assert least_rotation(w[5:] + w[:5]) == least_rotation(w) == power(
        parse_word("a a b^-1", AB), 4)


# -- proper powers -----------------------------------------------------------

def test_proper_power_examples():
    assert is_proper_power(parse_word("a b a b a b", AB)) == (parse_word("a b", AB), 3)
    assert is_proper_power(parse_word("[a,b]", AB)) is None
    assert is_proper_power(parse_word("a", AB)) is None
    with pytest.raises(WordError):
        is_proper_power(())


@given(words_over(AB, max_len=6), st.integers(min_value=2, max_value=4))
def test_proper_power_detects_powers(w, n):
    w = reduce_word(w)
    core, _ = cyclic_reduce(w)
    if not core or core != w:
        return
    p = reduce_word(power(w, n))
    got = is_proper_power(p)
    assert got is not None
    root, exp = got
    assert exp % n == 0 or n % exp == 0 or exp >= n
    assert reduce_word(power(root, exp)) == p


# -- balls -------------------------------------------------------------------

def test_ball_counts():
    assert len(enumerate_ball(AB, 0)) == 1
    assert len(enumerate_ball(AB, 1)) == 5
    assert len(enumerate_ball(AB, 2)) == 17
    three = alphabet("a", "b", "t")
    assert len(enumerate_ball(three, 2)) == ball_size(3, 2) == 37


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
def test_ball_size_formula(rank, radius):
    # independent oracle: 1 + sum 2n(2n-1)^(i-1)
    n = rank
    expected = 1 + sum(2 * n * (2 * n - 1) ** (i - 1) for i in range(1, radius + 1))
    assert ball_size(rank, radius) == expected


def test_ball_all_reduced_and_distinct():
    ball = enumerate_ball(AB, 3)
    assert len(set(ball)) == len(ball)
    assert all(reduce_word(w) == w for w in ball)


def test_ball_is_shortlex():
    # independent oracle: every letter string, reduced ones kept, sorted by
    # length and then by letter rank, (g, +1) before (g, -1)
    three = alphabet("a", "b", "t")
    rank = {(g, s): 2 * i + (s == -1) for i, g in enumerate(three.generators) for s in (1, -1)}
    words = [w for n in range(4) for w in itertools.product(sorted(rank), repeat=n)
             if reduce_word(w) == w]
    assert enumerate_ball(three, 3) == sorted(words, key=lambda w: (len(w), [rank[x] for x in w]))


XYZ = alphabet("x", "y", "z")


@st.composite
def junction_maps(draw, source):
    """A map source -> F(x, y, z) whose letter images are p^-1 m q with p
    and q from a small shared pool and m short, left unreduced when drawn
    so: images are often empty or unreduced, and the image of a letter
    often cancels over several letters against the image of the next one."""
    pool = draw(st.lists(words_over(XYZ, 3), min_size=1, max_size=3))
    part = st.sampled_from(pool)
    images = {}
    for g in source.generators:
        img = concat(invert(draw(part)), draw(words_over(XYZ, 2)), draw(part))
        images[g] = img if draw(st.booleans()) else reduce_word(img)
    return GroupHom(source, XYZ, images)


def _reference_apply(hom, w):
    """The image of w as the reduced product of each letter's image or its
    inverse."""
    return reduce_word(concat(*(hom.images[g] if sign == 1 else invert(hom.images[g])
                                for g, sign in w)))


def relator_conjugates(hom):
    """Products of up to 4 unreduced short words and conjugates c r^k c^-1
    of words r of length <= 3 that hom sends to 1: their images cancel to
    the empty word across many junctions."""
    relators = [r for r in enumerate_ball(hom.source, 3) if r and not _reference_apply(hom, r)]
    short = words_over(hom.source, 6)
    parts = [short]
    if relators:
        parts.append(st.tuples(short, st.sampled_from(relators), st.integers(-3, 3)).map(
            lambda t: concat(t[0], power(t[1], t[2]), invert(t[0]))))
    return st.lists(st.one_of(*parts), max_size=4).map(lambda ws: concat(*ws))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_hom_apply_is_the_reduced_product_of_the_images(data, rank):
    source = Alphabet(("a", "b", "c")[:rank])
    hom = data.draw(junction_maps(source))
    w = data.draw(st.one_of(words_over(source, 16), relator_conjugates(hom)))
    assert hom.apply(w) == _reference_apply(hom, w)
    assert hom.apply(reduce_word(w)) == hom.apply(w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_identity_and_composition_are_the_reference_maps(data):
    source = Alphabet(("a", "b", "c"))
    h1 = data.draw(junction_maps(source))
    h2 = data.draw(junction_maps(Alphabet(("x", "y", "z"))))
    w = data.draw(words_over(source, 10))
    assert GroupHom.identity(source).apply(w) == reduce_word(w)
    composed = h1.then(h2)
    assert composed.images == {g: _reference_apply(h2, h1.images[g]) for g in "abc"}
    assert composed.apply(w) == _reference_apply(h2, _reference_apply(h1, w))


def test_hom_apply_names_an_undeclared_letter():
    hom = GroupHom(AB, XYZ, {"a": parse_word("x y"), "b": ()})
    with pytest.raises(AlphabetError) as err:
        hom.apply(concat(parse_word("a b"), letter("x", -1)))
    assert str(err.value) == "undeclared symbol: 'x'"


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
def test_walk_ball_images_are_the_applied_maps(data, rank, radius):
    source = Alphabet(("a", "b", "c")[:rank])
    h1 = data.draw(junction_maps(source))
    h2 = data.draw(junction_maps(source))
    walked = list(walk_ball(source, radius, h1, h2))
    assert walked == [(w, h1.apply(w), h2.apply(w)) for w in enumerate_ball(source, radius)]


@given(st.data(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
def test_walk_ball_asked_for_emptiness_marks_each_nonempty_image(data, rank, radius):
    # the same walk, with the second image the empty word where it is 1
    # and None elsewhere, in every layer; the outermost layer tests it
    # against the letter's inverse image instead of building it
    source = Alphabet(("a", "b", "c")[:rank])
    h1 = data.draw(junction_maps(source))
    h2 = data.draw(junction_maps(source))
    walked = list(walk_ball(source, radius, h1, h2, h2_emptiness=True))
    assert walked == [(w, i1, None if i2 else i2) for w, i1, i2 in walk_ball(source, radius, h1, h2)]


def test_walk_ball_keeps_no_outer_layer():
    # a walk holds the layer it extends and, below the outermost, the one
    # it builds; the outermost layer, 2/3 of a rank-2 ball, is yielded and
    # dropped, so consuming the walk peaks at half of what that layer's
    # words and images alone take (at 1.6 times that when it was kept)
    h = GroupHom.identity(AB)
    outer = ball_size(2, 9) - ball_size(2, 8)
    entry = 3 * sys.getsizeof(tuple(range(9)))

    def consume():
        for _ in walk_ball(AB, 9, h, h):
            pass
    assert _peak_bytes(consume) < outer * entry


def test_walk_ball_refuses_a_letter_without_an_image():
    h = GroupHom(AB, XYZ, {"a": parse_word("x"), "b": ()})
    with pytest.raises(AlphabetError, match="undeclared symbol: 'c'"):
        list(walk_ball(alphabet("a", "b", "c"), 1, h, h))


def test_walk_ball_cancels_over_several_letters_at_the_junction():
    # a -> x y and b -> y^-1 x^-1 z: x y cancels at the junction of a b,
    # and x y y^-1 x^-1 in the middle of a^-1 b^-1 a^-1
    h = GroupHom(AB, XYZ, {"a": parse_word("x y"), "b": parse_word("y^-1 x^-1 z")})
    empty = GroupHom(AB, XYZ, {"a": (), "b": parse_word("z")})
    walked = {w: (i1, i2) for w, i1, i2 in walk_ball(AB, 3, h, empty)}
    assert walked[parse_word("a b")] == (parse_word("z"), parse_word("z"))
    assert walked[parse_word("a b^-1")] == (parse_word("x y z^-1 x y"), parse_word("z^-1"))
    assert walked[parse_word("a b a")] == (parse_word("z x y"), parse_word("z"))
    assert walked[parse_word("a^-1 b^-1 a^-1")] == (parse_word("y^-1 x^-1 z^-1"),
                                                    parse_word("z^-1"))
    assert all(i1 == h.apply(w) and i2 == empty.apply(w) for w, (i1, i2) in walked.items())


# -- parsing and formatting --------------------------------------------------

def test_parse_basic():
    assert format_word(parse_word("a b^-1 a^2", AB)) == "a b^-1 a^2"
    assert parse_word("", AB) == ()
    assert parse_word("[a,b]", AB) == commutator(letter("a"), letter("b"))
    assert parse_word("[a,b]^-1", AB) == invert(commutator(letter("a"), letter("b")))


def test_parse_nested_commutator():
    w = parse_word("[[a,b],a]", AB)
    c = commutator(letter("a"), letter("b"))
    assert w == reduce_word(commutator(c, letter("a")))


def test_parse_rejects_undeclared():
    with pytest.raises(Exception):
        parse_word("z", AB)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rejected(text):
    with pytest.raises(WordError, match="too long"):
        parse_word(text, AB)


@pytest.mark.parametrize("text", ["a^1000000000", "b [a,b]^-300000000 a"])
def test_parse_caps_large_powers(text):
    # refused before a single letter of the power is built
    assert _peak_bytes(lambda: _rejected(text)) < 1 << 20


def test_parse_caps_nested_commutators():
    # 60 nested commutators describe about 2^61 letters in 241 characters
    text = "[" * 60 + "a" + ",b]" * 60
    # a few words at the cap, at most
    assert _peak_bytes(lambda: _rejected(text)) < 100 * MAX_WORD_LENGTH


def test_parse_accepts_words_at_the_cap():
    assert len(parse_word(f"a^{MAX_WORD_LENGTH}", AB)) == MAX_WORD_LENGTH
    _rejected(f"a^{MAX_WORD_LENGTH} b")


@pytest.mark.parametrize("text", ["[" * 500 + ",]" * 500, "[" * 3000])
def test_parse_caps_commutator_nesting(text):
    # empty operands stay short at any depth; the parser refuses the depth
    # before it recurses into it
    with pytest.raises(WordError, match="nested deeper"):
        parse_word(text, AB)


def test_parse_accepts_nesting_at_the_cap():
    depth = MAX_WORD_DEPTH
    assert parse_word("a " + "[" * depth + ",]" * depth + " b", AB) == (("a", 1), ("b", 1))
    with pytest.raises(WordError, match="nested deeper"):
        parse_word("[" * (depth + 1) + ",]" * (depth + 1), AB)


@given(words_over(AB))
def test_format_parse_roundtrip(w):
    r = reduce_word(w)
    assert parse_word(format_word(r), AB) == r


# -- homomorphisms -----------------------------------------------------------

def test_hom_identity_and_composition():
    ident = GroupHom.identity(AB)
    w = parse_word("a b a^-1", AB)
    assert ident.apply(w) == w
    sq = GroupHom(AB, AB, {"a": parse_word("a^2", AB), "b": parse_word("b", AB)})
    assert format_word(sq.apply(parse_word("a b", AB))) == "a^2 b"
    assert sq.then(sq).apply(letter("a")) == parse_word("a^4", AB)


def test_hom_requires_total_images():
    with pytest.raises(WordError):
        GroupHom(AB, AB, {"a": letter("a")})


def test_homs_are_equal_only_when_their_images_are():
    ident = GroupHom(AB, AB, {"a": letter("a"), "b": letter("b")})
    swap = GroupHom(AB, AB, {"a": letter("b"), "b": letter("a")})
    assert ident != swap and len({ident, swap}) == 2
    assert ident == GroupHom.identity(AB) and hash(ident) == hash(GroupHom.identity(AB))
    assert GroupHom(AB, alphabet("a", "b", "c"), dict(ident.images)) != ident


def test_applying_a_hom_does_not_change_its_value():
    # the table is compiled once from the images, so a hom that has
    # applied words equals and hashes as one that has not
    images = {"a": parse_word("x y"), "b": parse_word("y^-1 x^-1 z")}
    used, fresh = GroupHom(AB, XYZ, dict(images)), GroupHom(AB, XYZ, dict(images))
    assert used.apply(parse_word("a b a^-1 b^-1")) == parse_word("z y^-1 x^-1 z^-1 x y")
    assert used == fresh and hash(used) == hash(fresh)
    # equality reads the images as given: an unreduced image of the same
    # element makes another value
    assert GroupHom(AB, XYZ, dict(images, a=parse_word("x z z^-1 y"))) != fresh


# -- surfaces and Dehn reduction ---------------------------------------------

def test_surface_presentations():
    s = SurfacePresentation(2)
    assert s.generators == ("a1", "b1", "a2", "b2")
    assert format_word(s.relator()) == "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"
    assert s.max_piece_length() == 1  # pieces of length 1 < 8/6
    pt = SurfacePresentation(1, 1)
    assert [format_word(w) for w in pt.boundary_words()] == ["a1 b1 a1^-1 b1^-1"]
    with pytest.raises(WordError):
        SurfacePresentation(1)  # closed torus is not hyperbolic


@pytest.mark.parametrize("genus, punctures, gens", [
    (2, 0, ("a", "b", "a", "c")),
    (3, 0, ("a", "b", "c", "d", "a", "e")),
    (1, 2, ("a", "b", "a")),
])
def test_surface_generator_names_must_be_distinct(genus, punctures, gens):
    # a repeated name makes another group: [a,b][a,c] passed C'(1/6)
    with pytest.raises(WordError, match="duplicate generator name: 'a'"):
        SurfacePresentation(genus, punctures, gens)


def _max_piece_reference(s):
    """Longest common prefix over distinct pairs of cyclic relators."""
    best = 0
    for u, v in itertools.combinations(_cyclic_relators(s), 2):
        if u == v:
            continue
        k = 0
        while k < len(u) and u[k] == v[k]:
            k += 1
        best = max(best, k)
    return best


@pytest.mark.parametrize("genus", range(2, 7))
def test_max_piece_length_equals_the_pairwise_definition(genus):
    s = SurfacePresentation(genus)
    assert s.max_piece_length() == _max_piece_reference(s) == 1


def test_a_large_genus_surface_builds_in_linear_time():
    # every rotation of the relator, compared pairwise, took 5.75 s at
    # genus 800
    start = time.perf_counter()
    s = SurfacePresentation(2000)
    assert s.max_piece_length() == 1
    assert time.perf_counter() - start < 1.0


def test_surface_with_more_boundary():
    s = SurfacePresentation(1, 2)
    assert len(s.boundary_words()) == 2
    assert s.euler_characteristic == -2


def test_dehn_reduce_relator_conjugates():
    s = SurfacePresentation(2)
    r = s.relator()
    assert dehn_reduce(s, r) == ()
    assert dehn_reduce(s, invert(r)) == ()
    for i in range(len(r)):
        assert dehn_reduce(s, r[i:] + r[:i]) == ()
    g = letter("a1")
    assert dehn_reduce(s, reduce_word(concat(g, r, invert(g)))) == ()


def test_dehn_reduce_nontrivial():
    s = SurfacePresentation(2)
    for g in s.generators:
        assert dehn_reduce(s, letter(g)) != ()
    assert dehn_reduce(s, parse_word("a1 b1", s.alphabet())) != ()


def test_dehn_reduce_rejects_undeclared():
    with pytest.raises(AlphabetError):
        dehn_reduce(SurfacePresentation(2), letter("z"))


def test_dehn_reduce_long_conjugated_power():
    # each rewrite deletes a whole relator and leaves a long unchanged
    # prefix behind it; the scan must still revisit the matches before it
    s = SurfacePresentation(2)
    g = letter("a1")
    assert dehn_reduce(s, concat(g, power(s.relator(), 200), invert(g))) == ()


def test_dehn_reduce_is_linear_on_a_long_conjugated_power():
    # 100,002 letters, one rewrite per copy of the relator; copying the
    # word around each rewrite made this quadratic
    s = SurfacePresentation(2)
    g = letter("a1")
    w = concat(g, power(s.relator(), 12500), invert(g))
    start = time.perf_counter()
    assert dehn_reduce(s, w) == ()
    assert time.perf_counter() - start < 0.5


def test_dehn_reduce_is_linear_on_long_half_relator_runs():
    # runs of exactly half a relator, none rewritten: [a1,b1]^25000, and
    # runs along R and R^-1 in turn, each sharing its first letter with
    # the last letter of the run before it
    s = SurfacePresentation(2)
    half = len(s.relator()) // 2
    periodic = power(commutator(letter("a1"), letter("b1")), 25000)
    alternating = _runs(s.relator(), ("a1", 1), [half] * 33334)
    assert len(periodic) == 100000 and len(alternating) == 100003
    for w in (periodic, alternating):
        start = time.perf_counter()
        assert dehn_reduce(s, w) == w
        assert time.perf_counter() - start < 0.5


def test_dehn_reduce_rewinds_half_a_relator():
    # the first rewrite turns the letters from the second a2 on into
    # b2^-1 a1 b1; the next match, b1^-1 a1^-1 b2 a2 b2^-1, starts half a
    # relator before the first letter that changed, so a scan that
    # rewinds only half - 1 letters leaves b1^-1 a1^-1 b2 a2 b2^-1 a1 b1
    s = SurfacePresentation(2)
    w = parse_word("b1^-1 a1^-1 b2 a2 b2^-1 b2 a2 b2^-1 a2^-1 b1 a1", s.alphabet())
    out = parse_word("a1^-1 b1^-1 a2 a1 b1", s.alphabet())
    assert dehn_reduce(s, w) == out
    assert _dehn_reference(s, w) == out


def _successors(word):
    """The letter after each letter of a cyclic word whose letters are distinct."""
    return {word[i - 1]: word[i] for i in range(len(word))}


def _runs(r, first, lengths):
    """Runs along the cyclic words r and r^-1 in turn, the first along r
    from the letter `first`; each run starts at the last letter of the
    one before, and run i has lengths[i] letters, that one included."""
    succ = (_successors(r), _successors(invert(r)))
    out = [first]
    for i, n in enumerate(lengths):
        for _ in range(n - 1):
            out.append(succ[i % 2][out[-1]])
    return tuple(out)


def _cyclic_relators(s):
    """Rotations of the relator, then of its inverse."""
    out = []
    for r in (s.relator(), invert(s.relator())):
        out.extend(r[i:] + r[:i] for i in range(len(r)))
    return out


def _dehn_reference(s, w):
    """Dehn's algorithm as first written: after every rewrite, free-reduce
    the whole word and scan again from position 0."""
    sym = _cyclic_relators(s)
    rlen = len(sym[0])
    half = rlen // 2
    w = reduce_word(w)
    while True:
        replaced = False
        n = len(w)
        for i in range(n):
            best = None
            for rel in sym:
                k = 0
                while k < rlen and i + k < n and w[i + k] == rel[k]:
                    k += 1
                if k > half and (best is None or k > best[0]):
                    best = (k, rel)
            if best is not None:
                k, rel = best
                w = reduce_word(w[:i] + invert(rel[k:]) + w[i + k:])
                replaced = True
                break
        if not replaced:
            return w


@st.composite
def surface_words(draw):
    s = SurfacePresentation(draw(st.sampled_from((2, 3, 4))))
    r = s.relator()
    rels = _cyclic_relators(s)
    rlen = len(rels[0])
    letters = st.tuples(st.sampled_from(s.generators), st.sampled_from((1, -1)))
    rel = st.sampled_from(rels)
    randoms = st.lists(letters, max_size=8).map(tuple)
    sizes = st.integers(1, rlen - 1)
    piece = st.one_of(
        # a window of R R across the cyclic seam (... b_g^-1 a_1 b_1 ...),
        # or its inverse; with more than rlen letters the match stops at rlen
        st.tuples(sizes, sizes, st.sampled_from((tuple, invert)))
        .map(lambda t: t[2]((r + r)[rlen - t[0]:rlen + t[1]])),
        # runs along R and R^-1 in turn, each ending where the next starts
        st.tuples(letters, st.lists(st.integers(1, rlen + 2), min_size=1, max_size=4))
        .map(lambda t: _runs(r, *t)),
        # a whole relator between other letters: a match of k = rlen
        st.tuples(randoms, rel, randoms).map(lambda t: concat(*t)),
        # a relator cut by letters that cancel only after free reduction
        st.tuples(rel, sizes, randoms)
        .map(lambda t: concat(t[0][:t[1]], t[2], invert(t[2]), t[0][t[1]:])),
        rel,
        st.tuples(rel, st.integers(2, 4)).map(lambda t: power(*t)),
        st.tuples(rel, st.integers(rlen // 2 + 1, rlen - 1)).map(lambda t: t[0][:t[1]]),
        randoms,
        st.tuples(st.lists(letters, min_size=10, max_size=40), rel, st.integers(1, 6))
        .map(lambda t: concat(reduce_word(tuple(t[0])), power(t[1], t[2]))),
        # long rewrite chains, each rewrite rewinding into the last one
        st.tuples(rel, st.integers(2, 200)).map(lambda t: power(*t)),
        st.tuples(randoms, rel, st.integers(1, 200))
        .map(lambda t: concat(t[0], power(t[1], t[2]), invert(t[0]))),
    )
    return s, concat(*draw(st.lists(piece, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(surface_words())
def test_dehn_reduce_matches_reference(case):
    s, w = case
    out = dehn_reduce(s, w)
    assert out == _dehn_reference(s, w)
    assert reduce_word(out) == out
    # Dehn-reduced: no subword is more than half of a cyclic relator
    half = len(s.relator()) // 2
    for rel in _cyclic_relators(s):
        head = rel[:half + 1]
        assert all(out[i:i + half + 1] != head for i in range(len(out)))
