"""Corpus set-up and the three seeded query workloads.

Each workload is an endless, seed-determined stream of queries against the
public `rft` API.  A query has a `run` step, which is the only part that is
timed, and a `check` step that compares the engine's answer with the
known answer from `oracle`.  A check returns one of

* ``DECIDED``: a definite answer that agrees with the known answer;
* ``UNDECIDED``: an honest Unknown, failed search or partial certificate;
* ``FAILED``: a definite answer that contradicts the known answer.

Exceptions raised by `run` are failures too; `run.py` counts them.
"""

from __future__ import annotations

import json
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from rft import cli, core, embed, flats, graphgroups, tower

import oracle as orc

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"
TRIVIAL, NONTRIVIAL, UNKNOWN = graphgroups.TRIVIAL, graphgroups.NONTRIVIAL, graphgroups.UNKNOWN

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    """Parsed and built corpus plus one oracle per tower."""

    manifest: dict
    towers: dict[str, tower.Tower]
    splittings: dict[str, tuple]
    oracles: dict[str, orc.Oracle] = field(default_factory=dict)


def read_manifest() -> tuple[dict, dict[str, str], dict[str, str]]:
    manifest = json.loads((CORPUS_DIR / "corpus.json").read_text(encoding="utf-8"))
    towers = {n: (CORPUS_DIR / s["file"]).read_text(encoding="utf-8")
              for n, s in manifest["towers"].items()}
    spls = {k: (CORPUS_DIR / s["file"]).read_text(encoding="utf-8")
            for k, s in manifest["splittings"].items()}
    return manifest, towers, spls


def build_corpus(manifest: dict, tower_texts: dict[str, str],
                 spl_texts: dict[str, str]) -> tuple[Corpus, float, float]:
    """Parse and build everything; returns (corpus, parse seconds, build seconds)."""
    t0 = perf_counter()
    docs = {n: cli.parse_tower_dsl(text) for n, text in tower_texts.items()}
    t1 = perf_counter()
    towers = {n: cli.build_tower(doc) for n, doc in docs.items()}
    t2 = perf_counter()
    splittings = {
        k: cli.parse_splitting(text, towers[manifest["splittings"][k]["base"]])
        for k, text in spl_texts.items()
    }
    t3 = perf_counter()
    return Corpus(manifest, towers, splittings), (t1 - t0) + (t3 - t2), t2 - t1


def attach_oracles(c: Corpus) -> None:
    """One oracle per tower; relators are the built tower's presentation."""
    for name, spec in c.manifest["towers"].items():
        c.oracles[name] = orc.Oracle(name, c.towers[name].presentation().relators,
                                     spec["homs"])


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class Query:
    tag: str  # label for the failure breakdown, e.g. "power:gamma:n>64"
    key: str  # byte-stable description of the input, for reproducibility tests
    run: Callable[[], Any]
    check: Callable[[Any, Counter], str]


def _random_word(rng: random.Random, gens, length: int) -> orc.Word:
    out: list = []
    while len(out) < length:
        lt = (rng.choice(gens), rng.choice((1, -1)))
        if out and out[-1] == (lt[0], -lt[1]):
            continue
        out.append(lt)
    return tuple(out)


def _fmt(w) -> str:
    return " ".join(s if e == 1 else f"{s}^-1" for s, e in w) or "1"


class _Deck:
    """Seeded draws from a fixed list, each value once per pass.

    `values` are listed from cheap to costly.  A pass visits them in the
    order of frac(offset + i * golden ratio), a low-discrepancy order: any
    prefix of a pass holds about the same share of cheap and costly values,
    so a run that stops mid-pass sees the same mix as a long one.
    """

    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            offset = self.rng.random()
            order = sorted(range(len(self.values)),
                           key=lambda i: (offset + i * self.GOLDEN) % 1.0, reverse=True)
            self.left = [self.values[i] for i in order]
        return self.left.pop()


def _verdict_check(expected: str) -> Callable[[Any, Counter], str]:
    def check(verdict, stats: Counter) -> str:
        if verdict == UNKNOWN:
            return UNDECIDED
        return DECIDED if verdict == expected else FAILED
    return check


# -- wordproblem --------------------------------------------------------------

# Heights 1-3; free (gamma), abelian and composite (mixed, tall) and surface
# (closed2) vertices.
WP_TOWERS = ("gamma", "mixed", "tall", "closed2")
WP_KINDS = ("relators", "power", "random", "britton")
# On tall, [w^n, t] with n > 8 can end in a budgeted exponent search through
# a composite vertex that costs about 0.08*n s before answering Unknown;
# n <= 12 keeps that slice (n = 9..12) without letting a few multi-second
# queries fill the whole run.
POWER_CAP = {"tall": 12}
# express() in rft.folding stops at 64 factors; past it a trivial word can be
# answered Nontrivial (on gamma, [[a,b]^n,t] with n > 64 is).  `wordproblem`
# keeps n within the cap; `express-cap` asks only the exponents past it,
# n = 65..96, so that defect is measured on its own.
EXPRESS_CAP = 64
OVERCAP_MAX = 96
OVERCAP_TOWERS = ("gamma", "mixed", "closed2")
RELATOR_FACTORS = 8


def wordproblem_queries(c: Corpus, seed: int) -> Iterator[Query]:
    return _wp_stream(c, seed, WP_TOWERS, WP_KINDS, 1, EXPRESS_CAP)


def express_cap_queries(c: Corpus, seed: int) -> Iterator[Query]:
    return _wp_stream(c, seed, OVERCAP_TOWERS, ("power",), EXPRESS_CAP + 1, OVERCAP_MAX)


def _wp_stream(c: Corpus, seed: int, towers, kinds, n_min: int,
               n_max: int) -> Iterator[Query]:
    rng = random.Random(seed)
    powers = {name: _Deck(rng, [(pair, n)
                                for n in range(n_min, min(POWER_CAP.get(name, n_max), n_max) + 1)
                                for pair in c.manifest["towers"][name]["powers"]])
              for name in towers}
    factors = {name: _Deck(rng, range(1, RELATOR_FACTORS + 1)) for name in towers}
    cells = [(t, k) for t in towers for k in kinds]
    while True:
        rng.shuffle(cells)
        for name, kind in cells:
            deck = powers[name] if kind == "power" else factors[name]
            yield _wp_query(c, rng, deck, name, kind)


def _wp_query(c: Corpus, rng: random.Random, deck: _Deck, name: str, kind: str) -> Query:
    T, ora = c.towers[name], c.oracles[name]
    gens = T.alphabet().generators
    tag = f"{kind}:{name}"
    if kind == "relators":
        factors = [(_random_word(rng, gens, rng.randint(0, 3)),
                    rng.randrange(len(ora.relators)), rng.choice((1, -1)))
                   for _ in range(deck.draw())]
        w, expected = ora.relator_product(factors), TRIVIAL
    elif kind == "power":
        (attach, t), n = deck.draw()
        # [w^n, t] is the product of the n conjugates w^i [w,t] w^-i of a relator
        w = orc.commutator(orc.power(orc.parse(attach), n), ((t, 1),))
        expected = TRIVIAL
        tag += ":n>64" if n > EXPRESS_CAP else ":n<=64"
    elif kind == "random":
        while True:
            w = _random_word(rng, gens, rng.randint(4, 12))
            if ora.nontrivial(w):
                break
        expected = NONTRIVIAL
    else:
        # [u, c v c^-1] with v in letters the retraction kills: the retraction
        # image is trivial, so only the full Britton scan can answer.
        killed = sorted({t for _, t in c.manifest["towers"][name]["powers"]})
        while True:
            v = _random_word(rng, killed, rng.randint(1, 2))
            cv = orc.conjugate(_random_word(rng, gens, rng.randint(0, 2)), v)
            w = orc.commutator(_random_word(rng, gens, rng.randint(1, 3)), cv)
            if ora.nontrivial(w):
                break
        expected = NONTRIVIAL
    return Query(tag, f"wp {name} {kind} {_fmt(w)} -> {expected}",
                 lambda: T.word_problem(w), _verdict_check(expected))


# -- witness-embed ------------------------------------------------------------

# Witness family dimensions 2, 3, 4, 5 and 8.
WITNESS_TOWERS = ("a2", "tall", "mixed", "closed2", "wide")
WITNESS_BUDGET = 8
# Valid witnesses on this corpus take at most about 20 attempts; a search
# that fails costs about 85 ms at 500 attempts and 320 ms at 2000.
WITNESS_ATTEMPTS = 500
EMBED_CASES = tuple((k, r) for r in (3, 4) for k in ("hnn", "abelian", "qh", "amalgam"))


def witness_embed_queries(c: Corpus, seed: int) -> Iterator[Query]:
    rng = random.Random(seed)
    cases = _Deck(rng, EMBED_CASES)
    while True:
        for name in WITNESS_TOWERS:
            yield _witness_query(c, rng, name)
        yield _embed_query(c, *cases.draw())


def _witness_query(c: Corpus, rng: random.Random, name: str) -> Query:
    T, ora = c.towers[name], c.oracles[name]
    gens = T.alphabet().generators
    words: list = []
    want = rng.randint(3, 6)
    while len(words) < want:
        w = _random_word(rng, gens, rng.randint(1, 4))
        if ora.nontrivial(w) and all(ora.distinct(w, u) for u in words):
            words.append(w)
    wseed = rng.randrange(1 << 16)

    def run():
        return tower.find_rf_witness(T, words, WITNESS_BUDGET, seed=wseed,
                                     max_attempts=WITNESS_ATTEMPTS)

    def check(cert, stats: Counter) -> str:
        stats["witness.queries"] += 1
        stats["witness.attempts"] += len(cert.trace)
        if cert.verdict != "valid":
            return UNDECIDED
        stats["witness.valid"] += 1
        return DECIDED if _witness_sound(ora, words, cert) else FAILED

    key = f"witness {name} seed={wseed} words={'; '.join(_fmt(w) for w in words)}"
    return Query(f"witness:{name}", key, run, check)


def _witness_sound(ora: orc.Oracle, words, cert) -> bool:
    """Relators die, the certificate's images are the real images, and the
    images of pairwise distinct, nontrivial words are nonempty and distinct."""
    if cert.hom is None or not orc.kills(cert.hom.images, ora.relators):
        return False
    images = [orc.apply(cert.hom.images, w) for w in words]
    if [orc.reduce(i) for i in cert.images] != images:
        return False
    return all(images) and len(set(images)) == len(images)


def _embed_query(c: Corpus, kind: str, radius: int) -> Query:
    S, D = c.splittings[kind]

    def run():
        R = embed.embed_step(S, D)
        cert = embed.certify_injectivity_on_ball(
            R, lambda w, b: graphgroups.word_problem(S.L, w, b), radius)
        return R, cert

    def check(result, stats: Counter) -> str:
        R, cert = result
        stats["embed.certificates"] += 1
        stats["embed.ball_elements"] += len(cert.entries)
        stats["embed.witness_fallbacks"] += sum(e.method != "direct" for e in cert.entries)
        # Each corpus splitting is a genuine one-edge splitting with a strict
        # quotient, so j is injective: a refutation is a wrong answer.
        if cert.status == "refuted" or cert.refutations:
            return FAILED
        if any(orc.apply(R.j.images, e.word) != orc.reduce(e.image) for e in cert.entries):
            return FAILED
        return DECIDED if cert.status == "full" else UNDECIDED

    return Query(f"embed:{kind}:r{radius}", f"embed {kind} radius={radius}",
                 run, check)


# -- core-flats ---------------------------------------------------------------

COVER_TOWERS = ("f2", "gamma", "mixed", "tall", "closed2", "wide")
# Cover cost has a heavy tail in the generator length: with words of length
# up to 3 one cover over tall or t2 took 4-7 s; up to 2 keeps the slowest
# near 0.5 s.
COVER_WORD_MAX = 2
FLATS_TOWERS = ("f2", "z2", "q1", "gamma", "t2", "a2")
# Latencies here form clusters: height-0 flats and small covers under 2 ms,
# flats on q1 and gamma near 3 ms, flats on a2 near 130 ms, and covers with
# a long random tail.  Running the flats queries on q1, gamma, t2 and a2
# twice per cycle puts the median inside the 3 ms block and the 90th
# percentile inside the a2 block, instead of in gaps where a few slow
# covers would move them by a third.
FLATS_REPEAT = ("q1", "gamma", "t2", "a2")


def core_flats_queries(c: Corpus, seed: int) -> Iterator[Query]:
    rng = random.Random(seed)
    flats_cycle = FLATS_TOWERS + FLATS_REPEAT
    while True:
        for name in COVER_TOWERS:
            yield _cover_query(c, rng, name)
        for name in flats_cycle:
            yield _flats_query(c, name)


def _cover_query(c: Corpus, rng: random.Random, name: str) -> Query:
    T, ora = c.towers[name], c.oracles[name]
    gens = T.alphabet().generators
    sub: list = []
    want = rng.randint(3, 5)
    while len(sub) < want:
        w = _random_word(rng, gens, rng.randint(1, COVER_WORD_MAX))
        if ora.nontrivial(w):
            sub.append(w)

    def run():
        try:
            C = core.expand_cover(T, sub)
            return C, core.extract_core(C)
        except core.CoreError:
            return None

    def check(result, stats: Counter) -> str:
        if result is None:
            return UNDECIDED
        C, R = result
        stats["core.covers"] += 1
        stats["core.vertices"] += len(R.vertices)
        stats["core.identify_rounds"] += len(C.rounds_log)
        return DECIDED if _cover_sound(ora, sub, C) else FAILED

    key = f"cover {name} gens={'; '.join(_fmt(w) for w in sub)}"
    return Query(f"cover:{name}", key, run, check)


def _cover_sound(ora: orc.Oracle, sub, C) -> bool:
    """Necessary conditions for a correct cover of H = <sub>:

    no generator was dropped; every edge u -x-> v closes a loop
    path(u) x path(v)^-1 that lies in H, which each checked map to a free
    group must preserve; over a free base the graph is H's Stallings graph.
    """
    if [orc.reduce(g) for g in C.subgens] != [orc.reduce(g) for g in sub]:
        return False
    loops = [C.path_words[u] + ((sym, 1),) + orc.inverse(C.path_words[v])
             for u, sym, v in C.edges]
    for h in ora.homs:
        image = orc.FreeSubgroup([orc.apply(h, g) for g in sub])
        if not all(image.contains(orc.apply(h, loop)) for loop in loops):
            return False
    if not ora.relators:
        own = orc.FreeSubgroup(sub)
        if (own.vertex_count, own.edge_count) != (len(C.vertices), len(C.edges)):
            return False
    return True


# check_isolation_hypotheses tries every power pair up to this budget.  At
# the CLI default of 8 one query on a2 takes about 6 s; at 2 it takes
# about 0.13 s and stays the slowest query of the workload.
POWER_BUDGET = 2


def _flats_query(c: Corpus, name: str) -> Query:
    T = c.towers[name]
    spec = c.manifest["towers"][name]
    expected, known = spec["flats"], spec.get("hypotheses", {})

    def run():
        inventory = flats.flat_inventory(T)
        if T.height == 0:
            return inventory, None
        gens = [((g, 1),) for g in T.alphabet().generators]
        R = core.extract_core(core.expand_cover(T, gens))
        return inventory, flats.check_isolation_hypotheses(
            flats.color_vertices(R, T), T, POWER_BUDGET)

    def check(result, stats: Counter) -> str:
        inventory, report = result
        if len(inventory) != expected:
            return FAILED
        if report is None:
            return DECIDED
        statuses = {v.name: v.status for v in report.verdicts}
        stats["flats.hypotheses"] += len(statuses)
        stats["flats.verified"] += list(statuses.values()).count("verified")
        if any(statuses.get(h) != want for h, want in known.items()):
            return FAILED
        settled = all(s in ("verified", "refuted") for s in statuses.values())
        return DECIDED if settled else UNDECIDED

    return Query(f"flats:{name}", f"flats {name} expect={expected}", run, check)


WORKLOADS: dict[str, Callable[[Corpus, int], Iterator[Query]]] = {
    "wordproblem": wordproblem_queries,
    "witness-embed": witness_embed_queries,
    "core-flats": core_flats_queries,
    # Not listed in BENCHMARK.json: on the current engine it answers some
    # trivial words Nontrivial, so its runs report correct: false.
    "express-cap": express_cap_queries,
}


def quiet():
    """CoverGraph warns about generators it drops; the check counts those."""
    warnings.simplefilter("ignore")
