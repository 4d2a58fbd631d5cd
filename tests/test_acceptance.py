"""End-to-end acceptance checks, one per criterion.

Each test prints a single `[CRITERION n] PASS|FAIL: ...` line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import random
import time
from contextlib import contextmanager

from rft import core as co
from rft import embed as em
from rft import flats as fl
from rft import tower as tw
from rft.graphgroups import (
    EdgeGroup,
    GraphOfGroups,
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    free_vertex,
    word_problem,
)
from rft.words import (
    GroupHom,
    SurfacePresentation,
    abelianize,
    alphabet,
    commutator,
    concat,
    dehn_reduce,
    enumerate_ball,
    format_word,
    invert,
    parse_word,
    power,
    reduce_word,
)

from test_core import StallingsOracle


@contextmanager
def criterion(n, summary):
    try:
        yield
    except BaseException:
        print(f"[CRITERION {n}] FAIL: {summary}")
        raise
    print(f"[CRITERION {n}] PASS: {summary}")


def _example1_data():
    AB = alphabet("a", "b")
    cd = alphabet("c", "d")
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", cd)
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vB", (parse_word("[c,d]", cd),)))
    L = GraphOfGroups([vA, vB], [e], "vA")
    gp = tw.new_height0([tw.free_summand("a", "b")])
    rho = GroupHom(L.presentation().alphabet, gp.alphabet(), {
        "a": parse_word("a"), "b": parse_word("b"),
        "c": parse_word("a"), "d": parse_word("b")})
    D = em.StrictQuotientData(rho, GroupHom.identity(gp.alphabet()), gp)
    return em.SplittingData("amalgam", L, "E"), D


def test_criterion_1_surface_double_embedding():
    with criterion(1, "double of F2 embeds with j(c)=t a t^-1, j(d)=t b t^-1; "
                      "radius-3 certificate full; under 60s"):
        t0 = time.monotonic()
        S, D = _example1_data()
        R = em.embed_step(S, D)
        assert R.gamma.alphabet().generators == ("a", "b", "t")
        assert [format_word(r) for r in R.gamma.presentation().relators] == [
            "a b a^-1 b^-1 t b a b^-1 a^-1 t^-1"]
        assert format_word(R.j.images["c"]) == "t a t^-1"
        assert format_word(R.j.images["d"]) == "t b t^-1"
        for r in S.L.presentation().relators:
            assert R.gamma.word_problem(R.j.apply(r)) == TRIVIAL
        cert = em.certify_injectivity_on_ball(
            R, lambda w, b: word_problem(S.L, w, b), 3)
        assert cert.status == "full"
        assert not cert.refutations and not cert.unknowns
        assert time.monotonic() - t0 <= 60


def test_criterion_2_residual_freeness_witness(gamma):
    with criterion(2, "witness t -> [a,b]^N (N <= 16) separates the radius-2 "
                      "ball, rechecks by pure reduction, deterministic"):
        W = enumerate_ball(gamma.alphabet(), 2)
        cert = tw.find_rf_witness(gamma, W, budget=16, seed=0)
        assert cert.verdict == "valid"
        img = reduce_word(cert.hom.images["t"])
        base = parse_word("[a,b]")
        hits = [n for n in range(1, 17)
                if img in (reduce_word(power(base, n)),
                           reduce_word(power(base, -n)))]
        assert hits, "witness image of t is not a power of [a,b] within 16"
        assert cert.hom.images["a"] == parse_word("a")
        assert cert.recheck()
        again = tw.find_rf_witness(gamma, W, budget=16, seed=0)
        assert again.hom.images == cert.hom.images and again.trace == cert.trace


def test_criterion_3_word_problem_oracle_equivalence(gamma):
    with criterion(3, "verdicts on all reduced words of length <= 5 over (a,b) "
                      "match free reduction; zero Unknowns; under 120s"):
        t0 = time.monotonic()
        checked = 0
        for w in enumerate_ball(alphabet("a", "b"), 5):
            v = gamma.word_problem(w)
            assert v != UNKNOWN
            assert v == (TRIVIAL if not reduce_word(w) else NONTRIVIAL)
            checked += 1
        assert checked == 485  # 1 + sum 4*3^(i-1), i = 1..5
        assert time.monotonic() - t0 <= 120


def test_criterion_4_dehn_soundness():
    with criterion(4, "genus-2 Dehn reduction kills the relator, its cyclic "
                      "conjugate products; keeps generators and abelianization"):
        surf = SurfacePresentation(2)
        al = surf.alphabet()
        r = surf.relator()
        trivial_inputs = [r, invert(r)]
        trivial_inputs += [r[i:] + r[:i] for i in range(len(r))]
        rng = random.Random(42)
        ball = [w for w in enumerate_ball(al, 2) if w]
        for _ in range(100):
            c1, c2 = rng.choice(ball), rng.choice(ball)
            r1 = rng.choice((r, invert(r)))
            r2 = rng.choice((r, invert(r)))
            trivial_inputs.append(reduce_word(concat(
                c1, r1, invert(c1), c2, r2, invert(c2))))
        for w in trivial_inputs:
            assert dehn_reduce(surf, w) == ()
        for g in surf.generators:
            assert dehn_reduce(surf, parse_word(g, al)) != ()
        for w in enumerate_ball(al, 2):
            if len(reduce_word(w)) != 2:
                continue
            nz = any(abelianize(w, al))
            res = dehn_reduce(surf, w)
            if nz:
                assert res != ()
            # and never the converse contradiction:
            if res == ():
                assert not nz


def test_criterion_5_core_vs_stallings_oracle(free2):
    with criterion(5, "core of 200 seeded subgroups (plus the index-2 kernel) "
                      "is graph-isomorphic to an independent folding oracle; "
                      "rank formula holds on all finite-index cases"):
        AB = alphabet("a", "b")
        pool = [w for w in enumerate_ball(AB, 4) if w]
        rng = random.Random(20240824)
        samples = [[parse_word(t) for t in ("a^2", "b", "a b a^-1")]]
        for _ in range(200):
            samples.append([rng.choice(pool)
                            for _ in range(rng.randint(1, 3))])
        finite_index = 0
        for gens in samples:
            R = co.extract_core(co.expand_cover(free2, gens))
            oracle = StallingsOracle(gens)
            assert R.canonical_form() == oracle.canonical_form(AB)
            if oracle.is_complete(AB):
                n = oracle.counts()[0]
                assert R.rank == n * (2 - 1) + 1
                finite_index += 1
        assert finite_index >= 1


def _flat_corpus():
    """Six towers of heights 0-2 mixing A/Q/T, with expected flat counts."""
    f2 = tw.new_height0([tw.free_summand("a", "b")])
    z2 = tw.new_height0([tw.abelian_summand("x", "y")])
    surf = SurfacePresentation(1, 1, ("p", "q"))
    q1 = tw.attach_block(f2, tw.BlockQ(
        surf, (parse_word("[a,b]"),),
        {"p": parse_word("a"), "q": parse_word("b")}))
    a1 = tw.attach_block(f2, tw.BlockA(parse_word("[a,b]"), 2, ("t",)))
    t2 = tw.attach_block(a1, tw.BlockT(
        (parse_word("[a,b]"), parse_word("t", a1.alphabet())), 3, ("u",)))
    a2 = tw.attach_block(a1, tw.BlockA(
        parse_word("[a,t]", a1.alphabet()), 2, ("s",)), assume=True)
    return [(f2, 0), (z2, 1), (q1, 0), (a1, 1), (t2, 1), (a2, 2)]


def test_criterion_6_flats_bookkeeping(gamma):
    with criterion(6, "flat inventories match construction records on a "
                      "6-tower corpus; all three isolation hypotheses "
                      "verified on the rank-2 A-block example"):
        for T, want in _flat_corpus():
            inv = fl.flat_inventory(T)
            recs = [r for r in T.lattice_records()
                    if not r.superseded and len(r.generators) >= 2]
            assert len(inv) == len(recs) == want
            for c in inv:
                for u in c.lattice:
                    for v in c.lattice:
                        assert T.word_problem(commutator(u, v)) == TRIVIAL
        al = gamma.alphabet()
        R = co.extract_core(co.expand_cover(
            gamma, [parse_word(g, al) for g in ("a", "b", "t")]))
        rep = fl.check_isolation_hypotheses(fl.color_vertices(R, gamma), gamma)
        assert rep.verdict("hypothesis-0").status == "verified"
        assert rep.verdict("hypothesis-1").status == "verified"
        assert rep.verdict("hypothesis-2").status == "verified"


def test_criterion_7_bound_calculus():
    with criterion(7, "isolation bound formula: phi(3)=11 spot check, "
                      "height-2 nesting at k in {1,2,4}, and 500 seeded "
                      "monotonicity/domination checks"):
        # all-zero atoms, single edge diameter 5: max(0 + 2k, 5 + 2k)
        phi = fl.compose_isolation_bound([fl.Num(0)], [], None, [fl.Num(5)])
        assert phi.evaluate(3) == 11

        # height-2 nesting: the stage-1 bound feeds the stage-2 composition
        phi1 = fl.compose_isolation_bound([fl.K()], [fl.Num(0)], None,
                                          [fl.Num(5)])
        phi2 = fl.compose_isolation_bound([phi1], [fl.Times(fl.Num(2), fl.K())],
                                          None, [fl.Num(3)])

        def phi1_hand(k):
            return max(2 * k + 2 * k, 0 + 2 * k, 5 + 2 * k)

        def phi2_hand(k):
            return max(phi1_hand(2 * k) + 2 * k, 4 * k + 2 * k, 3 + 2 * k)

        for k in (1, 2, 4):
            assert phi1.evaluate(k) == phi1_hand(k)
            assert phi2.evaluate(k) == phi2_hand(k)

        rng = random.Random(7)
        for _ in range(500):
            coeffs = [(rng.randint(0, 5), rng.randint(0, 9)) for _ in range(3)]
            terms = [fl.Plus(fl.Times(fl.Num(a), fl.K()), fl.Num(b))
                     for a, b in coeffs]
            diam = fl.Num(rng.randint(0, 9))
            phi = fl.compose_isolation_bound(terms[:1], terms[1:], None, [diam])
            k1, k2 = sorted(rng.randint(0, 30) for _ in range(2))
            assert phi.evaluate(k1) <= phi.evaluate(k2)
            for t in terms:
                assert phi.evaluate(k1) >= fl.Doubled(t).evaluate(k1)
            assert phi.evaluate(k1) >= diam.evaluate(k1) + 2 * k1


def test_criterion_8_limit_group_properties(gamma):
    with criterion(8, "root uniqueness and conjugate-commuting checks on the "
                      "full radius-2 ball; zero counterexamples, zero Unknowns "
                      "at budget 16"):
        al = gamma.alphabet()
        ball = enumerate_ball(al, 2)
        nontrivial = []
        for w in ball:
            v = gamma.word_problem(w, 16)
            assert v != UNKNOWN
            if v == NONTRIVIAL:
                nontrivial.append(w)
        for x in nontrivial:
            for y in nontrivial:
                dxy = gamma.word_problem(reduce_word(concat(x, invert(y))), 16)
                assert dxy != UNKNOWN
                if dxy == TRIVIAL:
                    continue
                # roots are unique: x != y forces x^n != y^n
                for n in (2, 3):
                    pw = reduce_word(concat(power(x, n), power(y, -n)))
                    v = gamma.word_problem(pw, 16)
                    assert v == NONTRIVIAL, (format_word(x), format_word(y), n)
                # commuting conjugates are equal: if [x,y]=1 and y=c x c^-1
                # for some visible c, then x=y -- contrapositive: distinct
                # commuting x, y are never conjugate by a ball element
                if gamma.word_problem(commutator(x, y), 16) == TRIVIAL:
                    for c in ball:
                        conj = reduce_word(concat(c, x, invert(c), invert(y)))
                        v = gamma.word_problem(conj, 16)
                        assert v != UNKNOWN
                        assert v == NONTRIVIAL, (
                            format_word(x), format_word(y), format_word(c))
