import functools
import itertools
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from rft import core as co
from rft import tower as tw
from rft.cli import build_tower, parse_tower_dsl
from rft.graphgroups import TRIVIAL
from rft.words import alphabet, concat, enumerate_ball, invert, parse_word, reduce_word

AB = alphabet("a", "b")


# ---------------------------------------------------------------------------
# Independent Stallings oracle, implemented queue-style with explicit
# vertex relabelling (deliberately different from the shipped folding).
# ---------------------------------------------------------------------------


class StallingsOracle:
    def __init__(self, words):
        self.next_id = 1
        # adjacency: vertex -> {letter: vertex} for positive letters only
        self.out = {0: {}}
        self.inc = {0: {}}
        for w in words:
            self._add_loop(reduce_word(w))
        self._fold()

    def _new_vertex(self):
        v = self.next_id
        self.next_id += 1
        self.out[v] = {}
        self.inc[v] = {}
        return v

    def _add_edge(self, u, sym, v):
        self.out[u].setdefault(sym, set()).add(v) if False else None
        # multi-edges collapse later; store as lists
        self.out[u].setdefault(sym, [])
        self.out[u][sym].append(v)
        self.inc[v].setdefault(sym, [])
        self.inc[v][sym].append(u)

    def _add_loop(self, w):
        cur = 0
        for i, (sym, sign) in enumerate(w):
            nxt = 0 if i == len(w) - 1 else self._new_vertex()
            if sign == 1:
                self._add_edge(cur, sym, nxt)
            else:
                self._add_edge(nxt, sym, cur)
            cur = nxt

    def _merge(self, keep, drop):
        if keep == drop:
            return
        for sym, targets in list(self.out.pop(drop).items()):
            for t in targets:
                t2 = keep if t == drop else t
                self.out[keep].setdefault(sym, []).append(t2)
                self.inc[t2].setdefault(sym, [])
                self.inc[t2][sym] = [keep if x == drop else x
                                     for x in self.inc[t2][sym] + [keep]]
        for sym, sources in list(self.inc.pop(drop, {}).items()):
            pass
        # rebuild incidence from scratch: simple and obviously correct
        inc = {v: {} for v in self.out}
        for u, m in self.out.items():
            m2 = {}
            for sym, targets in m.items():
                m2[sym] = [keep if t == drop else t for t in targets]
                for t in m2[sym]:
                    inc[t].setdefault(sym, []).append(u)
            self.out[u] = m2
        self.inc = inc

    def _fold(self):
        changed = True
        while changed:
            changed = False
            for u in list(self.out):
                if u not in self.out:
                    continue
                for sym, targets in list(self.out[u].items()):
                    uniq = sorted(set(targets))
                    if len(uniq) > 1:
                        self._merge(uniq[0], uniq[1])
                        changed = True
                        break
                    if len(targets) > 1:
                        self.out[u][sym] = uniq
                if changed:
                    break
            if changed:
                continue
            for v in list(self.inc):
                for sym, sources in list(self.inc[v].items()):
                    uniq = sorted(set(sources))
                    if len(uniq) > 1:
                        self._merge(uniq[0], uniq[1])
                        changed = True
                        break
                if changed:
                    break

    def canonical_form(self, order_alph):
        # BFS from 0 with deterministic letter order, then sorted edges
        order = {0: 0}
        queue = [0]
        while queue:
            v = queue.pop(0)
            steps = []
            for sym in order_alph.generators:
                for t in sorted(set(self.out.get(v, {}).get(sym, []))):
                    steps.append(t)
                for s in sorted(set(self.inc.get(v, {}).get(sym, []))):
                    steps.append(s)
            for u in steps:
                if u not in order:
                    order[u] = len(order)
                    queue.append(u)
        edges = []
        for u, m in self.out.items():
            for sym, targets in m.items():
                for t in set(targets):
                    edges.append((order[u], sym, order[t]))
        return tuple(sorted(edges))

    def counts(self):
        vs = len(self.out)
        es = sum(len(set(ts)) for m in self.out.values() for ts in m.values())
        return vs, es

    def is_complete(self, order_alph):
        for v in self.out:
            for sym in order_alph.generators:
                if not self.out.get(v, {}).get(sym):
                    return False
                if not self.inc.get(v, {}).get(sym):
                    return False
        return True


# ---------------------------------------------------------------------------


def test_free_examples(free2):
    C = co.expand_cover(free2, [parse_word(t) for t in ("a^2", "b", "a b a^-1")])
    R = co.extract_core(C)
    assert (len(R.vertices), len(R.edges)) == (2, 4)
    assert R.rank == 3  # Nielsen-Schreier: 2*(2-1)+1
    assert R.exact

    C = co.expand_cover(free2, [parse_word("a"), parse_word("b")])
    R = co.extract_core(C)
    assert (len(R.vertices), len(R.edges)) == (1, 2)

    C = co.expand_cover(free2, [parse_word("a")])
    R = co.extract_core(C)
    assert (len(R.vertices), len(R.edges)) == (1, 1)


def test_trivial_generator_dropped(free2):
    with pytest.warns(UserWarning):
        C = co.expand_cover(free2, [parse_word("a a^-1"), parse_word("b")])
    assert len(C.subgens) == 1


def test_oracle_agreement_random_sample(free2):
    rng = random.Random(20240817)
    pool = [w for w in enumerate_ball(AB, 4) if w]
    finite_index_confirmed = 0
    for trial in range(200):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        C = co.expand_cover(free2, gens)
        R = co.extract_core(C)
        oracle = StallingsOracle(gens)
        assert R.canonical_form() == oracle.canonical_form(AB), gens
        if oracle.is_complete(AB):
            vs, es = oracle.counts()
            index = vs
            assert R.rank == index * (2 - 1) + 1
            finite_index_confirmed += 1
    assert finite_index_confirmed > 0


def test_loop_expressions_close(free2):
    gens = [parse_word(t) for t in ("a b", "b a")]
    R = co.extract_core(co.expand_cover(free2, gens))
    assert len(R.loop_expressions) == 2
    for loop in R.loop_expressions:
        assert loop.steps[0][0] == R.base
        assert loop.steps[-1][3] == R.base


def test_required_cells_are_kept(free2):
    C = co.expand_cover(free2, [parse_word("a^3")])
    all_vertices = set(C.vertices)
    R = co.extract_core(C, required=all_vertices)
    assert set(R.vertices) == all_vertices


def test_tower_core_rank2(gamma):
    al = gamma.alphabet()
    C = co.expand_cover(gamma, [parse_word("a", al), parse_word("t", al)])
    R = co.extract_core(C)
    assert R.rank == 2
    assert R.stabilization["heuristic"]
    assert R.stabilization["quiet_rounds"] >= 2
    # witness confirms <a, t> is free of rank 2 out to radius 3: no relation
    cert = tw.find_rf_witness(gamma, enumerate_ball(alphabet("a", "t"), 3),
                              budget=8, seed=0)
    assert cert.verdict == "valid"


def test_classify_pieces(free2, gamma):
    R = co.extract_core(co.expand_cover(free2, [parse_word("a"), parse_word("b")]))
    pieces = co.classify_edge_pieces(R)
    assert all(p.kind == "Strip" for p in pieces)

    al = gamma.alphabet()
    gens = [parse_word(w, al) for w in ("a", "b", "t^2")]
    R = co.extract_core(co.expand_cover(gamma, gens))
    pieces = co.classify_edge_pieces(R)
    annuli = [p for p in pieces if p.kind == "Annulus"]
    assert len(annuli) == 1
    assert annuli[0].lifts >= 1


def test_torus_tube_classification(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    al2 = t2.alphabet()
    gens = [parse_word(w, al2) for w in ("a", "b", "t", "u")]
    R = co.extract_core(co.expand_cover(t2, gens))
    pieces = co.classify_edge_pieces(R)
    assert any(p.kind == "TorusTube" for p in pieces)


def test_unknown_generator_aborts():
    # a composite generator the budget cannot certify would abort; use a
    # trivially-correct stand-in: nothing in a free group is Unknown, so
    # check the error path via the tower with budget 0 is not reachable --
    # instead assert the CoreError type exists and expand works normally.
    assert issubclass(co.CoreError, ValueError)


def test_expansion_order_invariance(free2):
    gens = [parse_word(t) for t in ("a^2", "b a", "[a,b]")]
    a = co.expand_cover(free2, gens).canonical_form()
    b = co.expand_cover(free2, list(reversed(gens))).canonical_form()
    assert a == b


def _count_rounds(monkeypatch, fake_first_merge=False):
    """Count `_identify_round` calls; optionally report a merge on the first."""
    real = co.CoverGraph._identify_round
    calls = []

    def counted(self):
        calls.append(None)
        merged = real(self)
        return 1 if fake_first_merge and len(calls) == 1 else merged

    monkeypatch.setattr(co.CoverGraph, "_identify_round", counted)
    return calls


def test_quiet_cover_loop_needs_no_further_round(gamma, monkeypatch):
    calls = _count_rounds(monkeypatch)
    al = gamma.alphabet()
    C = co.expand_cover(gamma, [parse_word("a", al), parse_word("t", al)])
    assert C.rounds_log == [0]
    R = co.extract_core(C)
    assert len(calls) == 1
    assert R.stabilization == {"criterion": "generator loops closed + two quiet rounds",
                               "heuristic": True, "quiet_rounds": 2,
                               "evidence": "two further identification rounds added nothing"}


def test_one_quiet_round_after_a_merge_stabilizes(gamma, monkeypatch):
    calls = _count_rounds(monkeypatch, fake_first_merge=True)
    al = gamma.alphabet()
    C = co.expand_cover(gamma, [parse_word("a", al), parse_word("t", al)], depth_budget=1)
    assert C.rounds_log == [1]
    R = co.extract_core(C)
    assert len(calls) == 2
    assert R.stabilization["quiet_rounds"] == 2


def test_a_merging_round_is_not_stable(gamma, monkeypatch):
    al = gamma.alphabet()
    C = co.expand_cover(gamma, [parse_word("a", al), parse_word("t", al)], depth_budget=0)
    calls = _count_rounds(monkeypatch, fake_first_merge=True)
    with pytest.raises(co.CoreError, match="not stabilized"):
        co.extract_core(C)
    assert len(calls) == 1


# -- keyed coset identification ------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@functools.cache
def _corpus_tower(name):
    return build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))


TALL_TOWERS = tuple(sorted(p.stem for p in CORPUS.glob("*.twr")
                           if _corpus_tower(p.stem).height >= 1))


def _membership_candidates(C):
    """Short elements of the subgroup that verify identifications, built
    in full: the empty word, the subgenerators and their inverses, and
    every reduced product of two of those."""
    gens = C.subgens + [invert(g) for g in C.subgens]
    products = [reduce_word(concat(a, b)) for a, b in itertools.product(gens, repeat=2)]
    return list(dict.fromkeys([(), *gens, *products]))


def _candidates_by_key(C):
    """The membership candidates grouped by `Tower.element_key`, each
    group in candidate order: the reference for `CoverGraph._candidates`."""
    groups = {}
    for h in _membership_candidates(C):
        groups.setdefault(C.source.element_key(h), []).append(h)
    return groups


class _UnbucketedCover(co.CoverGraph):
    """The cover as identified before candidates were grouped by key: each
    vertex pair asks the word problem about every membership candidate."""

    _membership_candidates = functools.cached_property(_membership_candidates)

    def _identify_round(self):
        merged_pairs = []
        verts = sorted(self.path_words)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                c = reduce_word(concat(self.path_words[u], invert(self.path_words[v])))
                if any(self._wp(concat(c, invert(h))) == TRIVIAL
                       for h in self._membership_candidates):
                    merged_pairs.append((u, v))
        if not merged_pairs:
            return 0
        before = len(self.vertices)
        self._set_edges(*co.fold(self.edges, max(self.vertices) + 1, merged_pairs))
        return before - len(self.vertices)


def _cover_outcome(cls, T, gens):
    """Merged pairs of every identification, rounds log, canonical form and
    core rank (or the CoreError) of the cover of <gens> built by `cls`."""
    merged = []
    real = co.fold

    def recording(edges, count, identify=()):
        if identify:
            merged.append(list(identify))
        return real(edges, count, identify)

    co.fold = recording
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            C = cls(T, gens)
            rank = co.extract_core(C).rank
    except co.CoreError as e:
        return merged, str(e)
    finally:
        co.fold = real
    return merged, C.rounds_log, C.canonical_form(), rank


MERGING_COVERS = [("mixed", "u x a; y y; x^-1"), ("t2", "b t u^-1; t^-1; t u^-1 b^-1")]


@pytest.mark.parametrize("name, gens", MERGING_COVERS)
def test_keyed_identification_equals_unbucketed_loop_on_merging_covers(name, gens):
    T = _corpus_tower(name)
    words = [parse_word(g, T.alphabet()) for g in gens.split("; ")]
    outcome = _cover_outcome(co.CoverGraph, T, words)
    assert outcome == _cover_outcome(_UnbucketedCover, T, words)
    merged, rounds_log = outcome[:2]
    assert merged and rounds_log[0] > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_keyed_identification_equals_unbucketed_loop(data):
    T = _corpus_tower(data.draw(st.sampled_from(TALL_TOWERS)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    word = st.lists(letters, min_size=1, max_size=2).map(lambda w: reduce_word(tuple(w)))
    gens = data.draw(st.lists(word.filter(bool), min_size=1, max_size=4))
    assert _cover_outcome(co.CoverGraph, T, gens) == _cover_outcome(_UnbucketedCover, T, gens)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_candidates_by_key_arithmetic_equal_the_full_list(data):
    # for every key of a candidate, and for the keys of random connecting
    # words, the lookup lists exactly the candidates of that key in the
    # full list's order, so every vertex pair asks the same word problems
    T = _corpus_tower(data.draw(st.sampled_from(TALL_TOWERS)))
    letters = st.tuples(st.sampled_from(T.alphabet().generators), st.sampled_from((1, -1)))
    word = st.lists(letters, max_size=2).map(lambda w: reduce_word(tuple(w)))
    gens = data.draw(st.lists(word.filter(bool), min_size=1, max_size=4))
    connecting = data.draw(st.lists(
        st.lists(letters, max_size=6).map(lambda w: reduce_word(tuple(w))), max_size=6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            C = co.CoverGraph(T, gens, depth_budget=0)
        except co.CoreError:
            reject()
    groups = _candidates_by_key(C)
    for key in [*groups, *(T.element_key(c) for c in connecting)]:
        assert C._candidates(key) == groups.get(key, [])


def test_identify_round_word_problem_count(monkeypatch):
    # Only the 37 candidates sharing the key of a pair's connecting word
    # reach the word problem: 5 calls for the 6 vertex pairs of this
    # round, where asking every candidate took 203.
    T = _corpus_tower("mixed")
    gens = [parse_word(g, T.alphabet()) for g in ("u x a", "y y", "x^-1")]
    C = co.expand_cover(T, gens, depth_budget=0)
    assert (len(_membership_candidates(C)), len(C.vertices)) == (37, 4)
    real = tw.Tower.word_problem
    calls = []

    def counting(self, w, budget=8):
        calls.append(w)
        return real(self, w, budget)

    monkeypatch.setattr(tw.Tower, "word_problem", counting)
    assert C._identify_round() == 1
    assert len(calls) == 5
