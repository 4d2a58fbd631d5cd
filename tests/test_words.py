import itertools
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
    s = SurfacePresentation(draw(st.sampled_from((2, 3))))
    rels = _cyclic_relators(s)
    rlen = len(rels[0])
    letters = st.tuples(st.sampled_from(s.generators), st.sampled_from((1, -1)))
    rel = st.sampled_from(rels)
    randoms = st.lists(letters, max_size=8).map(tuple)
    piece = st.one_of(
        rel,
        st.tuples(rel, st.integers(2, 4)).map(lambda t: power(*t)),
        st.tuples(rel, st.integers(rlen // 2 + 1, rlen - 1)).map(lambda t: t[0][:t[1]]),
        randoms,
        st.tuples(st.lists(letters, min_size=10, max_size=40), rel, st.integers(1, 6))
        .map(lambda t: concat(reduce_word(tuple(t[0])), power(t[1], t[2]))),
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
