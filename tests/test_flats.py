import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import cli
from rft import core as co
from rft import flats as fl
from rft import tower as tw
from rft.graphgroups import NONTRIVIAL, TRIVIAL
from rft.words import commutator, concat, format_word, invert, parse_word, power, reduce_word


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------


def test_inventory_free_is_empty(free2):
    assert fl.flat_inventory(free2) == []


def test_inventory_single_a_block(gamma):
    inv = fl.flat_inventory(gamma)
    assert len(inv) == 1
    assert len(inv[0].generators) == 2
    assert inv[0].origin == "A"


def test_inventory_two_independent_a_blocks(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(gamma, tw.BlockT((parse_word("[a,t]", al),), 2, ("s",)),
                         assume=True)
    inv = fl.flat_inventory(t2)
    assert len(inv) == 2
    assert {c.stage for c in inv} == {1, 2}


def test_inventory_torus_extension_supersedes(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    inv = fl.flat_inventory(t2)
    assert len(inv) == 1
    assert len(inv[0].generators) == 3


def test_inventory_checks_commutation(gamma):
    al = gamma.alphabet()
    t2 = tw.attach_block(
        gamma, tw.BlockT((parse_word("[a,b]"), parse_word("t", al)), 3, ("u",)))
    for T in (gamma, t2):
        inv = fl.flat_inventory(T)
        assert inv
        # every recorded lattice is abelian: its generators commute pairwise
        for rec in inv:
            for u, v in itertools.combinations(rec.generators, 2):
                assert T.word_problem(commutator(u, v)) == TRIVIAL


# ---------------------------------------------------------------------------
# bound calculus
# ---------------------------------------------------------------------------


def _sample_bound():
    phi_v = [fl.Plus(fl.K(), fl.Num(1))]          # k + 1
    psi_e = [fl.Times(fl.Num(2), fl.K())]         # 2k
    psi_p = fl.K()                                # k
    diams = [fl.Num(3)]
    return fl.compose_isolation_bound(phi_v, psi_e, psi_p, diams)


def test_bound_spot_check():
    phi = _sample_bound()
    # at k=3: D(k+1)=2k+1+2k -> 6+1+6=13? no: f(2k)+2k with f=k+1 gives 7+6=13,
    # D(2k)=4k+2k=18, D(k)=2k+2k=12, diam+2k=9 -> max is 18... use f=k only:
    phi2 = fl.compose_isolation_bound([fl.K()], [], None, [fl.Num(3)])
    # D(k)(3) = 6 + 6 = 12? no: f(2k)+2k = 6+6=12; diam+2k = 3+6=9
    assert phi2.evaluate(3) == 12
    assert phi.evaluate(3) == 18


def test_bound_phi_of_three_is_eleven():
    # the worked composition: one vertex bound k, edge diameter 2
    phi = fl.compose_isolation_bound([], [fl.K()], None, [fl.Num(5)])
    assert phi.evaluate(3) == max(6 + 6, 5 + 6)
    phi = fl.compose_isolation_bound([], [], fl.Plus(fl.K(), fl.Num(2)),
                                     [fl.Num(2)])
    # D(k+2)(3) = (6+2) + 6 = 14; diam: 2+6=8
    assert phi.evaluate(3) == 14


def test_bound_render_and_atoms():
    b = fl.compose_isolation_bound([fl.Atom("f")], [], None, [fl.ConstAtom("d")])
    s = b.render()
    assert "f(2k)" in s and "+ 2k" in s and "d" in s
    assert repr(b) == s
    assert repr(fl.Plus(fl.Num(2), fl.K())) == "2 + k"
    val = b.evaluate(4, {"f": lambda k: k * k, "d": 1})
    assert val == max(64 + 8, 1 + 8)


def test_bound_empty_rejected():
    with pytest.raises(fl.FlatsError):
        fl.compose_isolation_bound([], [], None, [])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_bound_monotone_and_dominating(k1, k2):
    phi = _sample_bound()
    lo, hi = min(k1, k2), max(k1, k2)
    assert phi.evaluate(lo) <= phi.evaluate(hi)
    # the composite dominates each doubled input term and each diam + 2k
    for f in (fl.Plus(fl.K(), fl.Num(1)), fl.Times(fl.Num(2), fl.K()), fl.K()):
        assert phi.evaluate(k1) >= fl.Doubled(f).evaluate(k1)
    assert phi.evaluate(k1) >= 3 + 2 * k1
    assert phi.evaluate(k1) >= 0


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------


def _gamma_core(gamma, gens=("a", "b", "t")):
    al = gamma.alphabet()
    return co.extract_core(co.expand_cover(gamma, [parse_word(g, al) for g in gens]))


def test_color_requires_blocks(free2):
    R = co.extract_core(co.expand_cover(free2, [parse_word("a")]))
    with pytest.raises(fl.FlatsError):
        fl.color_vertices(R, free2)


def test_color_a_block_marks_old_vertices_good(gamma):
    R = _gamma_core(gamma)
    C = fl.color_vertices(R, gamma)
    for v, t in C.vertex_types.items():
        want = fl.G_COLOR if t == fl.M_TYPE else fl.B_COLOR
        assert C.colors[v] == want
    assert fl.G_COLOR in C.colors.values()


def test_color_q_block_marks_new_vertices_good(free2):
    from rft.words import SurfacePresentation
    surf = SurfacePresentation(1, 1, ("x", "y"))
    t = tw.attach_block(free2, tw.BlockQ(
        surf, (parse_word("[a,b]"),),
        {"x": parse_word("a"), "y": parse_word("b")}))
    al = t.alphabet()
    R = co.extract_core(co.expand_cover(t, [parse_word(g, al)
                                            for g in ("a", "b", "x")]))
    C = fl.color_vertices(R, t)
    for v, ty in C.vertex_types.items():
        want = fl.G_COLOR if ty == fl.N_TYPE else fl.B_COLOR
        assert C.colors[v] == want


# ---------------------------------------------------------------------------
# isolation hypotheses
# ---------------------------------------------------------------------------


def test_hypotheses_verified_on_gamma(gamma):
    C = fl.color_vertices(_gamma_core(gamma), gamma)
    rep = fl.check_isolation_hypotheses(C, gamma)
    assert rep.verdict("hypothesis-0").status == "verified"
    assert rep.verdict("hypothesis-1").status == "verified"
    assert rep.verdict("hypothesis-2").status == "verified"
    # every compared pair is logged, and the commutator settles each one
    assert rep.pair_log and all(outcome == "noncommuting" for _, _, outcome in rep.pair_log)


def test_hypothesis1_refuted_by_duplicated_edge(free2):
    # two copies of the same attaching line at one vertex: u^1 = v^1
    al0 = free2.alphabet()
    t1 = tw.attach_block(free2, tw.BlockT((parse_word("[a,b]"),), 2, ("t",)))
    t2 = tw.attach_block(t1, tw.BlockT((parse_word("[a,b] t [a,b] t^-1", t1.alphabet()),),
                                       2, ("s",)), assume=True)
    al = t2.alphabet()
    R = co.extract_core(co.expand_cover(t2, [parse_word(g, al)
                                             for g in ("a", "b", "t", "s")]))
    C = fl.color_vertices(R, t2)
    rep = fl.check_isolation_hypotheses(C, t2, power_budget=3)
    h1 = rep.verdict("hypothesis-1")
    # conjugates of the same line at the attached vertex coincide in powers
    assert h1.status in ("refuted", "verified-to-budget")


def test_hypothesis2_refuted_on_proper_power(free2):
    # construction rejects a^2 up front, so model an externally supplied
    # tower whose recorded block claims the bad attachment
    t1 = tw.attach_block(free2, tw.BlockT((parse_word("[a,b]"),), 2, ("t",)))
    t1.stages[-1].block = tw.BlockT((parse_word("a^2"),), 2, ("t",))
    al = t1.alphabet()
    R = co.extract_core(co.expand_cover(t1, [parse_word(g, al)
                                             for g in ("a", "b", "t")]))
    C = fl.color_vertices(R, t1)
    rep = fl.check_isolation_hypotheses(C, t1)
    h2 = rep.verdict("hypothesis-2")
    assert h2.status == "refuted"
    assert "proper power" in h2.witness


def test_hypothesis2_refuted_by_a_centralizing_lattice(free2):
    # the top block is recorded as attached along t, which the stage-1
    # torus <[a,b], t> centralizes; the block is replaced before the
    # lattice ledger is first read, so the ledger lists both tori
    t1 = tw.attach_block(free2, tw.BlockT((parse_word("[a,b]"),), 2, ("t",)))
    t2 = tw.attach_block(t1, tw.BlockT((parse_word("[a,t]", t1.alphabet()),), 2, ("s",)),
                         assume=True)
    t2.stages[-1].block = tw.BlockT((parse_word("t", t1.alphabet()),), 2, ("s",))
    al = t2.alphabet()
    R = co.extract_core(co.expand_cover(t2, [parse_word(g, al) for g in ("a", "b", "t", "s")]))
    rep = fl.check_isolation_hypotheses(fl.color_vertices(R, t2), t2)
    h2 = rep.verdict("hypothesis-2")
    assert (h2.status, h2.witness) == ("refuted", "centralized by lattice at stage 1")


def test_hypothesis_budget_monotone(gamma):
    C = fl.color_vertices(_gamma_core(gamma), gamma)
    lo = {v.name: v.status
          for v in fl.check_isolation_hypotheses(C, gamma, power_budget=2).verdicts}
    hi = {v.name: v.status
          for v in fl.check_isolation_hypotheses(C, gamma, power_budget=10).verdicts}
    for name, status in lo.items():
        if status == "refuted":
            assert hi[name] == "refuted"
        if status == "verified":
            assert hi[name] in ("verified",)


# ---------------------------------------------------------------------------
# hypothesis-1 by commutative transitivity
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def _corpus_tower(name):
    return cli.build_tower(cli.parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.twr")))
def test_inventory_proves_commutation_without_britton(name, monkeypatch):
    # each lattice commutator is a defining relator, or the conjugate of
    # one, of a stage at or below the top, so the tower's relator step
    # settles it and no graph-of-groups word problem runs
    T = _corpus_tower(name)
    calls = []
    real = tw.gg.word_problem
    monkeypatch.setattr(tw.gg, "word_problem", lambda G, w, budget=8:
                        calls.append(w) or real(G, w, budget))
    fl.flat_inventory(T)
    assert calls == []


def _colored(T):
    al = T.alphabet()
    R = co.extract_core(co.expand_cover(T, [parse_word(g, al) for g in al.generators]))
    return fl.color_vertices(R, T)


@pytest.mark.parametrize("name, most", [("a2", 10), ("gamma", 3), ("q1", 3)])
def test_hypotheses_ask_few_word_problems(name, most, monkeypatch):
    T = _corpus_tower(name)
    C = _colored(T)
    calls = []
    word_problem = tw.Tower.word_problem
    monkeypatch.setattr(tw.Tower, "word_problem", lambda self, w, budget=8:
                        calls.append(w) or word_problem(self, w, budget))
    rep = fl.check_isolation_hypotheses(C, T, power_budget=8)
    assert rep.verdict("hypothesis-1").status == "verified"
    assert len(calls) <= most


def test_hypothesis1_on_tall_is_budget_limited():
    # tall's stage-2 attach-maximal is assumed, so stage 2 is not certified
    # a limit group and no pair is settled by its commutator
    T = _corpus_tower("tall")
    rep = fl.check_isolation_hypotheses(_colored(T), T, 2)
    assert rep.verdict("hypothesis-1").status == "verified-to-budget"
    assert all(outcome == "no hit" for _, _, outcome in rep.pair_log)


def test_hypothesis1_falls_back_when_top_retraction_is_assumed():
    T = _corpus_tower("q1")
    for ob in T.stages[-1].obligations:
        if ob.name == "retraction-homomorphism":
            ob.status = "assumed"
    assert not T.prev_stage_csa()
    rep = fl.check_isolation_hypotheses(_colored(T), T, 2)
    assert rep.verdict("hypothesis-1").status == "verified-to-budget"
    assert rep.pair_log and all(outcome == "no hit" for _, _, outcome in rep.pair_log)


def test_hypothesis1_witness_is_a_trivial_word():
    refuted = []
    for twr in sorted(CORPUS.glob("*.twr")):
        _, text = cli.run_command(["flats", str(twr), "--power-budget", "2"])
        m = re.search(r"^hypothesis-1: refuted witness=(.*) \(\(", text, re.M)
        if m is None:
            continue
        refuted.append(twr.stem)
        code, text = cli.run_command(["wp", str(twr), "--word", m.group(1)])
        assert code == 0 and "verdict: Trivial" in text, twr.stem
    assert refuted


# ---------------------------------------------------------------------------
# hypothesis 1 from free-group images, against the full search
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"


def _reference_power_coincidence(T, u, v, budget):
    # every (k, l) in order, one tower word problem each
    for k in range(1, budget + 1):
        for l in range(1, budget + 1):
            for sl in (l, -l):
                if T.word_problem(concat(power(u, k), power(v, -sl)), budget) == TRIVIAL:
                    return k, sl
    return None


def _reference_hypothesis1(T, power_budget):
    """Hypothesis 1 with the commutator asked first and then the full
    (k, l) search: (status, detail, witness) and the pair log."""
    pair_log = []
    exact = T.prev_stage_csa()
    status, witness, detail = "verified", None, ""
    for u, v in itertools.combinations(fl._edge_generators_at_g(T), 2):
        if exact and T.word_problem(commutator(u, v), power_budget) == NONTRIVIAL:
            pair_log.append((u, v, "noncommuting"))
            continue
        hit = _reference_power_coincidence(T, u, v, power_budget)
        if hit:
            k, l = hit
            status = "refuted"
            witness = format_word(reduce_word(concat(power(u, k), power(v, -l)))) or "1"
            detail = f"({format_word(u)})^{k} = ({format_word(v)})^{l}"
            pair_log.append((u, v, "hit"))
            break
        pair_log.append((u, v, "no hit"))
        status = "verified-to-budget"
    return (status, detail, witness), pair_log


def _document_tower(path):
    # the documents of tests/data are refused without assume (pp's hidden
    # proper power), so their blocks are assumed
    text = path.read_text()
    if path.parent == DATA:
        text = re.sub(r"(block [A-Z]\s*\{)", r"\1 assume=true;", text)
    return cli.build_tower(cli.parse_tower_dsl(text))


DOCUMENTS = {p.stem: p for d in (CORPUS, DATA) for p in sorted(d.glob("*.twr"))}
TALL_DOCUMENTS = sorted(n for n, p in DOCUMENTS.items() if _document_tower(p).height >= 1)


def test_every_tall_document_is_compared():
    assert len(TALL_DOCUMENTS) == 9 and "pp" in TALL_DOCUMENTS


@pytest.mark.parametrize("budget", [0, 1, 2, 8])
@pytest.mark.parametrize("name", TALL_DOCUMENTS)
def test_hypothesis1_equals_the_full_search(name, budget):
    T = _document_tower(DOCUMENTS[name])
    rep = fl.check_isolation_hypotheses(_colored(T), T, budget)
    h1 = rep.verdict("hypothesis-1")
    assert ((h1.status, h1.detail, h1.witness), rep.pair_log) == _reference_hypothesis1(T, budget)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_planted_power_coincidence_is_found_as_by_the_full_search(data):
    # u = c r^p c^-1 and v = c r^q c^-1 satisfy u^q = v^p
    T = _document_tower(DOCUMENTS[data.draw(st.sampled_from(TALL_DOCUMENTS))])
    al = T.alphabet()
    lt = st.tuples(st.sampled_from(al.generators), st.sampled_from((1, -1)))
    r = reduce_word(data.draw(st.lists(lt, min_size=1, max_size=3)))
    c = data.draw(st.lists(lt, max_size=3))
    p, q = (data.draw(st.integers(1, 4)) * data.draw(st.sampled_from((1, -1)))
            for _ in range(2))
    u, v = (reduce_word(concat(c, power(r, n), invert(c)), al) for n in (p, q))
    relations = T.power_relations(T.free_images(u), T.free_images(v))
    assert (fl._power_coincidence(T, u, v, 8, relations)
            == _reference_power_coincidence(T, u, v, 8))


@pytest.mark.parametrize("name", ["tall", "wide"])
def test_hypotheses_at_the_default_budget_ask_few_word_problems(name, monkeypatch):
    # the commutator and the full (k, l) search asked 1,282 tower word
    # problems on tall and 258 on wide
    T = _corpus_tower(name)
    C = _colored(T)
    calls = []
    word_problem = tw.Tower.word_problem
    monkeypatch.setattr(tw.Tower, "word_problem", lambda self, w, budget=8:
                        calls.append(w) or word_problem(self, w, budget))
    fl.check_isolation_hypotheses(C, T, power_budget=8)
    assert len(calls) <= 5
