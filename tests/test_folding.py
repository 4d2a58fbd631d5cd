import itertools

from hypothesis import given, settings, strategies as st

from rft.folding import SubgroupGraph
from rft.words import alphabet, concat, enumerate_ball, invert, parse_word, power, reduce_word

AB = alphabet("a", "b")
ABC = alphabet("a", "b", "c")


def _graph(*texts):
    return SubgroupGraph(AB, [parse_word(t, AB) for t in texts])


def _rebuild(gens, expr):
    return reduce_word(concat(*(power(gens[i], s) for i, s in expr)))


def test_membership_examples():
    H = _graph("a^2", "b")
    assert H.contains(parse_word("a^2 b", AB))
    assert H.contains(parse_word("b a^2", AB))
    assert not H.contains(parse_word("a", AB))
    assert not H.contains(parse_word("[a,b]", AB))
    assert not H.contains(parse_word("a b a^-1", AB))


def test_index_two_kernel():
    # kernel of a-exponent mod 2: generated by a^2, b, a b a^-1
    H = _graph("a^2", "b", "a b a^-1")
    for w in enumerate_ball(AB, 4):
        expected = sum(s for sym, s in w if sym == "a") % 2 == 0
        assert H.contains(w) == expected, w


def test_rank():
    assert _graph("a", "b").rank() == 2
    assert _graph("a^2", "b").rank() == 2
    assert _graph("a^2", "b", "a b a^-1").rank() == 3
    assert _graph("[a,b]").rank() == 1


def test_whole_group_graph_is_rose():
    H = _graph("a", "b")
    assert len(H.vertices) == 1


subgen_lists = st.lists(
    st.sampled_from(["a", "b", "a^2", "a b", "b a^-1", "[a,b]", "a b a^-1"]),
    min_size=1, max_size=3)


@given(subgen_lists, st.lists(st.integers(min_value=0, max_value=6), max_size=5),
       st.lists(st.booleans(), max_size=5))
def test_products_of_subgens_are_members(texts, picks, signs):
    gens = [parse_word(t, AB) for t in texts]
    H = SubgroupGraph(AB, gens)
    w = ()
    for i, inv in itertools.zip_longest(picks, signs, fillvalue=False):
        if i is False or not gens:
            break
        g = gens[i % len(gens)]
        w = concat(w, invert(g) if inv else g)
    assert H.contains(w)


@given(subgen_lists)
def test_folding_order_independent(texts):
    gens = [parse_word(t, AB) for t in texts]
    a = SubgroupGraph(AB, gens)
    b = SubgroupGraph(AB, list(reversed(gens)))
    ball = enumerate_ball(AB, 3)
    assert [a.contains(w) for w in ball] == [b.contains(w) for w in ball]


def test_express_reconstructs():
    gens = [parse_word(t, AB) for t in ("a^2", "b", "a b a^-1")]
    H = SubgroupGraph(AB, gens)
    for text in ("a^2 b", "b^3", "a b^2 a^-1", "a^2 b a^2", "[a,b]"):
        w = parse_word(text, AB)
        if not H.contains(w):
            continue
        expr = H.express(w)
        assert expr is not None
        assert _rebuild(gens, expr) == reduce_word(w)


abc_words = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                     min_size=1, max_size=4).map(tuple)
abc_subgens = st.lists(abc_words, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(abc_subgens, st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))),
                             max_size=40))
def test_long_products_rebuild_from_express(gens, picks):
    H = SubgroupGraph(ABC, gens)
    w = concat(*(power(gens[i % len(gens)], s) for i, s in picks))
    expr = H.express(w)
    assert expr is not None
    assert _rebuild(H.subgens, expr) == reduce_word(w)


BALL3 = enumerate_ball(ABC, 3)


@settings(max_examples=30, deadline=None)
@given(abc_subgens)
def test_express_exactly_on_members(gens):
    H = SubgroupGraph(ABC, gens)
    for w in BALL3:
        expr = H.express(w)
        assert (expr is None) == (not H.contains(w)), w
        if expr is not None:
            assert _rebuild(H.subgens, expr) == reduce_word(w)


def test_sixty_four_factor_product_at_three_generator_vertex():
    gens = [parse_word(t, ABC) for t in ("a b c", "b^2 a^-1", "c a c^-1")]
    picks = [(0, 1), (1, 1), (2, -1), (0, 1), (1, -1), (2, 1), (0, -1), (1, 1)]
    w = concat(*(power(gens[i], s) for i, s in picks)) * 8
    assert _rebuild(gens, SubgroupGraph(ABC, gens).express(w)) == reduce_word(w)
