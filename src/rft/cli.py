"""Command-line front end: tower-description DSL, command dispatch, and
deterministic structured reports.

Exit codes: 0 verified/complete, 2 a refutation only (a check decided
false, with witness), 3 budget-limited/partial, 1 usage or input error.
`assume` (a block's `assume=true;`, `embed --assume`) accepts a check
left undecided, never a refuted one; `embed` needs `--assume` when the
maximal abelian subgroup U it attaches along is only budget-limited.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional

from . import __version__
from . import core as core_mod
from . import embed as embed_mod
from . import flats as flats_mod
from . import tower as tower_mod
from .graphgroups import (
    EdgeGroup,
    GraphOfGroups,
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    abelian_vertex,
    free_vertex,
)
from .graphgroups import word_problem as graph_word_problem
from .words import (
    Alphabet,
    GroupHom,
    Record,
    SurfacePresentation,
    WordError,
    format_word,
    parse_word,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_BUDGET = 3


class DslError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class Token:
    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # "name" | "int" | "string" | "punct" | "eof"
        self.value = value
        self.line = line
        self.col = col


# One alternative per token kind, tried in order; `other` takes any single
# character that starts no token.
_TOKEN = re.compile(r"""
    (?P<skip>[^\S\n]+|\#[^\n]*)
  | (?P<newline>\n)
  | "(?P<string>[^"\n]*)"
  | (?P<unterminated>")
  | (?P<punct>->|[{}()=;,:])
  | (?P<int>-?\d+)
  | (?P<name>[^\W\d]\w*)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        pos = m.start()
        col = pos - line_start + 1
        if kind == "unterminated":
            raise DslError("unterminated string", line, col)
        # \w also holds digits and numerals that are not decimal; a name
        # starts with a letter or "_"
        if kind == "other" or (kind == "name" and not (text[pos].isalpha() or text[pos] == "_")):
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        toks.append(Token(kind, m[kind], line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Stream:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise DslError(f"expected {want!r}, got {t.value!r}", t.line, t.col)
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t.kind == kind and (value is None or t.value == value):
            return self.next()
        return None


# ---------------------------------------------------------------------------
# Tower document
# ---------------------------------------------------------------------------


class SummandDecl(Record):
    def __init__(self, kind: str, generators: tuple[str, ...] = (), rank: int = 0,
                 genus: int = 0, punctures: int = 0):
        self.kind = kind  # "free" | "abelian" | "surface"
        self.generators = generators
        self.rank = rank
        self.genus = genus
        self.punctures = punctures


class BlockDecl(Record):
    def __init__(self, kind: str, attach: tuple[str, ...] = (), rank: int = 0,
                 letters: tuple[str, ...] = (), surface: Optional[SummandDecl] = None,
                 boundary: tuple[tuple[str, str], ...] = (),
                 retract: tuple[tuple[str, str], ...] = (), assume: bool = False):
        self.kind = kind  # "A" | "Q" | "T"
        self.attach = attach  # word texts
        self.rank = rank
        self.letters = letters
        self.surface = surface
        self.boundary = boundary  # (circle name, word text)
        self.retract = retract  # (generator, word text)
        self.assume = assume


class TowerDocument(Record):
    def __init__(self, name: str, summands: list[SummandDecl], blocks: list[BlockDecl]):
        self.name = name
        self.summands = summands
        self.blocks = blocks


def _parse_name_list(s: _Stream) -> tuple[str, ...]:
    names = [s.expect("name").value]
    while s.accept("punct", ","):
        names.append(s.expect("name").value)
    return tuple(names)


def _parse_surface_spec(s: _Stream) -> SummandDecl:
    s.expect("punct", "(")
    s.expect("name", "genus")
    s.expect("punct", "=")
    genus = int(s.expect("int").value)
    punctures = 0
    if s.accept("punct", ","):
        s.expect("name", "punctures")
        s.expect("punct", "=")
        punctures = int(s.expect("int").value)
    gens = _parse_name_list(s) if s.accept("punct", ":") else ()
    s.expect("punct", ")")
    return SummandDecl("surface", gens, genus=genus, punctures=punctures)


def _parse_summand(s: _Stream) -> SummandDecl:
    t = s.expect("name")
    if t.value == "free":
        s.expect("punct", "(")
        gens = _parse_name_list(s)
        s.expect("punct", ")")
        return SummandDecl("free", gens)
    if t.value == "abelian":
        s.expect("punct", "(")
        s.expect("name", "rank")
        s.expect("punct", "=")
        rank = int(s.expect("int").value)
        s.expect("punct", ":")
        gens = _parse_name_list(s)
        s.expect("punct", ")")
        if len(gens) != rank:
            raise DslError(f"abelian rank {rank} with {len(gens)} generators",
                           t.line, t.col)
        return SummandDecl("abelian", gens, rank=rank)
    if t.value == "surface":
        return _parse_surface_spec(s)
    raise DslError(f"unknown summand kind {t.value!r}", t.line, t.col)


def _parse_arrow_map(s: _Stream, field: str) -> tuple[tuple[str, str], ...]:
    """The `key -> "word"` pairs of the map given for `field`; a key given
    twice is refused at its second occurrence."""
    s.expect("punct", "{")
    pairs = []
    seen: set[str] = set()
    while not s.accept("punct", "}"):
        key = s.expect("name")
        _claim(seen, key, f"{field} key")
        s.expect("punct", "->")
        val = s.expect("string").value
        pairs.append((key.value, val))
        s.accept("punct", ",")
        s.accept("punct", ";")
    return tuple(pairs)


def _claim(seen: set[str], key: Token, what: str) -> None:
    """Record a field or key name, refusing one already given."""
    if key.value in seen:
        raise DslError(f"repeated {what} {key.value!r}", key.line, key.col)
    seen.add(key.value)


def _parse_block(s: _Stream) -> BlockDecl:
    kind_tok = s.expect("name")
    kind = kind_tok.value
    if kind not in ("A", "Q", "T"):
        raise DslError(f"unknown block kind {kind!r}", kind_tok.line, kind_tok.col)
    decl = BlockDecl(kind)
    seen: set[str] = set()
    s.expect("punct", "{")
    while not s.accept("punct", "}"):
        key = s.expect("name")
        _claim(seen, key, "block field")
        s.expect("punct", "=")
        if key.value == "attach":
            if s.accept("punct", "("):
                words = [s.expect("string").value]
                while s.accept("punct", ","):
                    words.append(s.expect("string").value)
                s.expect("punct", ")")
                decl.attach = tuple(words)
            else:
                tok = s.peek()
                if tok.kind != "string":
                    raise DslError("expected a word string after attach=",
                                   tok.line, tok.col)
                decl.attach = (s.next().value,)
        elif key.value == "rank":
            decl.rank = int(s.expect("int").value)
        elif key.value == "letters":
            decl.letters = _parse_name_list(s)
        elif key.value == "surface":
            decl.surface = _parse_surface_spec(s)
        elif key.value == "boundary":
            decl.boundary = _parse_arrow_map(s, "boundary")
        elif key.value == "retract":
            decl.retract = _parse_arrow_map(s, "retract")
        elif key.value == "assume":
            tok = s.expect("name")
            if tok.value not in ("true", "false"):
                raise DslError(f"expected 'true' or 'false', got {tok.value!r}",
                               tok.line, tok.col)
            decl.assume = tok.value == "true"
        else:
            raise DslError(f"unknown block field {key.value!r}", key.line, key.col)
        s.expect("punct", ";")
    return decl


def parse_tower_dsl(text: str) -> TowerDocument:
    s = _Stream(_tokenize(text))
    s.expect("name", "tower")
    name = s.expect("name").value
    s.expect("punct", "{")
    s.expect("name", "base")
    s.expect("punct", "{")
    summands = [_parse_summand(s)]
    while s.accept("punct", ";"):
        if s.peek().kind == "punct" and s.peek().value == "}":
            break
        summands.append(_parse_summand(s))
    s.expect("punct", "}")
    blocks = []
    while s.accept("name", "block"):
        blocks.append(_parse_block(s))
    s.expect("punct", "}")
    s.expect("eof")
    return TowerDocument(name, summands, blocks)


def build_tower(doc: TowerDocument, budget: int = 8) -> tower_mod.Tower:
    summands = []
    for sm in doc.summands:
        if sm.kind == "free":
            summands.append(tower_mod.free_summand(*sm.generators))
        elif sm.kind == "abelian":
            summands.append(tower_mod.abelian_summand(*sm.generators))
        else:
            surf = SurfacePresentation(sm.genus, sm.punctures, sm.generators)
            summands.append(tower_mod.surface_vertex("", surf))
    T = tower_mod.new_height0(summands)
    for b in doc.blocks:
        alph = T.alphabet()
        if b.kind in ("A", "T"):
            # `block A` is the one-word torus block
            if b.kind == "A" and len(b.attach) != 1:
                raise WordError("block A needs exactly one attach word")
            words = tuple(parse_word(w, alph) for w in b.attach)
            block = tower_mod.BlockT(words, b.rank, b.letters)
        else:
            sm = b.surface
            if sm is None:
                raise WordError("block Q needs a surface=(...) field")
            surf = SurfacePresentation(sm.genus, sm.punctures, sm.generators)
            circles = [f"b{i + 1}" for i in range(surf.punctures)]
            given = dict(b.boundary)
            missing = [c for c in circles if c not in given]
            if missing:
                raise WordError(f"boundary circle(s) {', '.join(missing)} unassigned")
            attach = tuple(parse_word(given[c], alph) for c in circles)
            retract = {g: parse_word(w, alph) for g, w in b.retract}
            block = tower_mod.BlockQ(surf, attach, retract)
        T = tower_mod.attach_block(T, block, budget, assume=b.assume)
    return T


# ---------------------------------------------------------------------------
# Splitting documents (for `embed`)
# ---------------------------------------------------------------------------


def parse_splitting(text: str, gamma_prime: tower_mod.Tower):
    """Parse a splitting/quotient document into SplittingData and
    StrictQuotientData against the given target tower."""
    s = _Stream(_tokenize(text))
    s.expect("name", "splitting")
    s.expect("name")  # document name, unused
    s.expect("punct", "{")
    fields: dict[str, Optional[str]] = dict.fromkeys(("kind", "base", "special", "stable"))
    vertices: list = []
    edge = None
    nu_pairs: tuple[tuple[str, str], ...] = ()
    surface_decl = None
    seen: set[str] = set()
    while not s.accept("punct", "}"):
        key = s.expect("name")
        if key.value != "vertex":  # vertex blocks repeat; the edge and each field do not
            _claim(seen, key, "splitting field")
        if key.value in fields:
            s.expect("punct", "=")
            fields[key.value] = s.expect("name").value
            s.expect("punct", ";")
        elif key.value == "vertex":
            label = s.expect("name").value
            s.expect("punct", "{")
            sm = _parse_summand(s)
            s.expect("punct", "}")
            vertices.append((label, sm))
        elif key.value == "edge":
            elabel = s.expect("name").value
            s.expect("punct", "{")
            sides = {}
            while not s.accept("punct", "}"):
                which = s.expect("name")
                if which.value not in ("left", "right"):
                    raise DslError(f"unknown edge side {which.value!r}", which.line, which.col)
                if which.value in sides:
                    raise DslError(f"repeated edge side {which.value!r}", which.line, which.col)
                s.expect("punct", "=")
                vlab = s.expect("name").value
                s.expect("punct", ":")
                word = s.expect("string").value
                sides[which.value] = (vlab, word)
                s.expect("punct", ";")
            if len(sides) != 2:
                raise DslError(f"edge {elabel!r} needs a left and a right side",
                               key.line, key.col)
            edge = (elabel, sides)
        elif key.value == "nu":
            nu_pairs = _parse_arrow_map(s, "nu")
        elif key.value == "surface":
            s.expect("punct", "=")
            surface_decl = _parse_surface_spec(s)
            s.expect("punct", ";")
        else:
            raise DslError(f"unknown splitting field {key.value!r}",
                           key.line, key.col)
    s.expect("eof")
    if fields["kind"] is None or edge is None or not vertices:
        raise WordError("splitting document needs kind, vertices, and an edge")

    vgroups = []
    for label, sm in vertices:
        if sm.kind == "free":
            vgroups.append(free_vertex(label, Alphabet(sm.generators)))
        elif sm.kind == "abelian":
            vgroups.append(abelian_vertex(label, Alphabet(sm.generators)))
        else:
            raise WordError("surface vertices are declared via the qh surface field")
    by_label = {v.label: v for v in vgroups}
    elabel, sides = edge
    lv, lw = sides["left"]
    rv, rw = sides["right"]
    for v in (lv, rv):
        if v not in by_label:
            raise WordError(f"edge {elabel!r} names undeclared vertex {v!r}")
    e = EdgeGroup(elabel, 1,
                  (lv, (parse_word(lw, by_label[lv].alphabet),)),
                  (rv, (parse_word(rw, by_label[rv].alphabet),)),
                  stable_letter=fields["stable"])
    L = GraphOfGroups(vgroups, [e], fields["base"] or vgroups[0].label)
    L_alph = L.presentation().alphabet
    gp_alph = gamma_prime.alphabet()
    given = dict(nu_pairs)
    images = {}
    for g in L_alph.generators:
        if g in given:
            images[g] = parse_word(given[g], gp_alph)
        elif g in gp_alph:
            images[g] = parse_word(g, gp_alph)
        else:
            raise WordError(f"nu image missing for generator {g!r}")
    D = embed_mod.StrictQuotientData(GroupHom(L_alph, gp_alph, images), gamma_prime)
    surf = None
    if surface_decl is not None:
        surf = SurfacePresentation(surface_decl.genus, surface_decl.punctures,
                                   surface_decl.generators)
    S = embed_mod.SplittingData(fields["kind"], L, elabel, surface=surf,
                                special_vertex=fields["special"])
    return S, D


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _digest(text: str) -> str:
    # imported here: hashlib loads OpenSSL, which only rendered reports need
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Report:
    """Flat key/value report with stable ordering."""

    def __init__(self, command: str, source_text: str):
        self.lines: list[str] = [
            f"command: {command}",
            f"version: {__version__}",
            f"input-digest: {_digest(source_text)}",
        ]

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key}: {value}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _obligation_lines(rep: Report, obligations, key: str = "obligation"):
    for i, ob in enumerate(obligations):
        rep.add(f"{key}-{i}", f"{ob.name} {ob.status} ({ob.detail})")


# ---------------------------------------------------------------------------
# Commands: each handler adds its lines after the `tower:` line of `rep`
# and returns the exit code
# ---------------------------------------------------------------------------


def _word_list(text: str, T: tower_mod.Tower) -> list:
    """The words of a `;`-separated option, over the tower's alphabet."""
    alph = T.alphabet()
    return [parse_word(w, alph) for w in text.split(";") if w.strip()]


def _cmd_present(args, T: tower_mod.Tower, rep: Report) -> int:
    stage = args.stage if args.stage is not None else T.height
    if not (0 <= stage <= T.height):
        raise WordError(f"stage {stage} out of range 0..{T.height}")
    pres = T.presentation(stage)
    rep.add("height", T.height)
    rep.add("stage", stage)
    rep.add("generators", " ".join(pres.alphabet.generators))
    for i, r in enumerate(pres.relators):
        rep.add(f"relator-{i}", format_word(r))
    _obligation_lines(rep, T.obligations())
    return EXIT_OK


def _cmd_wp(args, T: tower_mod.Tower, rep: Report) -> int:
    w = parse_word(args.word, T.alphabet())
    verdict = T.word_problem(w, args.budget)
    rep.add("word", format_word(w) or "1")
    rep.add("budget", args.budget)
    rep.add("verdict", verdict)
    return EXIT_OK if verdict != UNKNOWN else EXIT_BUDGET


def _cmd_witness(args, T: tower_mod.Tower, rep: Report) -> int:
    cert = tower_mod.find_rf_witness(T, _word_list(args.words, T), args.budget,
                                     seed=args.seed)
    rep.add("budget", args.budget)
    rep.add("seed", args.seed)
    rep.add("family", cert.family or "identity")
    rep.add("verdict", cert.verdict)
    rep.add("target", " ".join(cert.target.generators))
    if cert.verdict == "valid":
        for g in sorted(cert.hom.images):
            rep.add(f"image-{g}", format_word(cert.hom.images[g]) or "1")
        for w, img in zip(cert.words, cert.images):
            rep.add(f"word-image {format_word(w) or '1'}", format_word(img) or "1")
        return EXIT_OK
    rep.add("attempts", len(cert.trace))
    if cert.trace:
        rep.add("last-collision", cert.trace[-1][1])
    return EXIT_BUDGET


def _cmd_embed(args, T: tower_mod.Tower, rep: Report, spl_text: str) -> int:
    S, D = parse_splitting(spl_text, T)
    rep.add("kind", S.kind)
    try:
        R = embed_mod.embed_step(S, D, args.budget, assume=args.assume)
    except tower_mod.RefutedError as exc:
        rep.add("verdict", "refuted")
        rep.add("witness", str(exc))
        return EXIT_REFUTED
    rep.add("gamma-generators", " ".join(R.gamma.alphabet().generators))
    for i, r in enumerate(R.gamma.presentation().relators):
        rep.add(f"gamma-relator-{i}", format_word(r))
    for g in sorted(R.j.images):
        rep.add(f"j-{g}", format_word(R.j.images[g]) or "1")
    rep.add("U", " ; ".join(format_word(g) for g in R.U.generators))
    rep.add("U-status", R.U.status)
    _obligation_lines(rep, R.obligations)
    _obligation_lines(rep, R.gamma.stages[-1].obligations, "block-obligation")
    cert = embed_mod.certify_injectivity_on_ball(
        R, lambda w, b: graph_word_problem(S.L, w, b), args.ball, args.budget)
    rep.add("ball-radius", cert.radius)
    rep.add("ball-elements", len(cert.entries))
    rep.add("ball-unknowns", len(cert.unknowns))
    rep.add("ball-refutations", len(cert.refutations))
    rep.add("certificate", cert.status)
    if cert.status == "refuted":
        rep.add("witness", format_word(cert.refutations[0].word))
        return EXIT_REFUTED
    return EXIT_BUDGET if cert.status == "partial" else EXIT_OK


def _cmd_core(args, T: tower_mod.Tower, rep: Report) -> int:
    gens = _word_list(args.gens, T)
    try:
        C = core_mod.expand_cover(T, gens, depth_budget=args.depth,
                                  budget=args.budget)
        required = set()
        if args.require:
            required = {int(x) for x in args.require.split(",") if x.strip()}
        R = core_mod.extract_core(C, required)
    except core_mod.CoreError as exc:
        rep.add("verdict", "budget-limited")
        rep.add("detail", str(exc))
        return EXIT_BUDGET
    rep.add("vertices", len(R.vertices))
    rep.add("edges", len(R.edges))
    rep.add("rank", R.rank)
    rep.add("exact", str(R.exact).lower())
    rep.add("stabilization", R.stabilization["evidence"])
    for p in core_mod.classify_edge_pieces(R):
        rep.add(f"piece-{p.edge_label}", f"{p.kind} lifts={p.lifts}")
    for i, loop in enumerate(R.loop_expressions):
        path = " ".join(f"{a}-{sym}{'' if sg == 1 else chr(39)}-{b}"
                        for a, sym, sg, b in loop.steps)
        rep.add(f"loop-{i}", f"{format_word(loop.generator)} : {path}")
    return EXIT_OK


def _cmd_flats(args, T: tower_mod.Tower, rep: Report) -> int:
    inventory = flats_mod.flat_inventory(T, args.budget)
    rep.add("flat-classes", len(inventory))
    for i, f in enumerate(inventory):
        rep.add(f"flat-{i}",
                f"rank={len(f.generators)} stage={f.stage} origin={f.origin} "
                f"lattice=({'; '.join(format_word(g) for g in f.generators)})")
    code = EXIT_OK
    if T.height >= 1:
        alph = T.alphabet()
        gens = (_word_list(args.gens, T) if args.gens
                else [parse_word(g, alph) for g in alph.generators])
        C = core_mod.expand_cover(T, gens, budget=args.budget)
        R = core_mod.extract_core(C)
        colored = flats_mod.color_vertices(R, T)
        report = flats_mod.check_isolation_hypotheses(colored, T, args.power_budget)
        for v in report.verdicts:
            val = v.status
            if v.witness:
                val += f" witness={v.witness}"
            if v.detail:
                val += f" ({v.detail})"
            rep.add(v.name, val)
        statuses = [v.status for v in report.verdicts]
        if "refuted" in statuses:
            code = EXIT_REFUTED
        elif "verified-to-budget" in statuses:
            code = EXIT_BUDGET
    return code


def _cmd_selftest() -> tuple[int, Report]:
    from .words import reduce_word, is_proper_power, enumerate_ball
    rep = Report("selftest", "")
    ab = Alphabet(("a", "b"))
    checks = [
        ("reduce", format_word(reduce_word(parse_word("a a^-1 b", ab))) == "b"),
        ("proper-power", is_proper_power(parse_word("a b a b", ab)) is not None),
        ("ball", len(enumerate_ball(ab, 2)) == 17),
    ]
    T = build_tower(parse_tower_dsl(
        'tower selftest { base { free(a,b) } '
        'block A { attach="[a,b]"; rank=2; letters=t; } }'))
    checks.append(("relator-trivial",
                   T.word_problem(parse_word("[[a,b],t]", T.alphabet())) == TRIVIAL))
    checks.append(("commutator-nontrivial",
                   T.word_problem(parse_word("[a,t]", T.alphabet())) == NONTRIVIAL))
    ok = True
    for name, passed in checks:
        rep.add(f"check-{name}", "pass" if passed else "FAIL")
        ok = ok and passed
    rep.add("verdict", "verified" if ok else "refuted")
    return (EXIT_OK if ok else EXIT_REFUTED), rep


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rft", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("present", help="print a tower presentation")
    sp.add_argument("file")
    sp.add_argument("--stage", type=int, default=None)

    sp = sub.add_parser("wp", help="tower word problem")
    sp.add_argument("file")
    sp.add_argument("--word", required=True)
    sp.add_argument("--budget", type=int, default=8)

    sp = sub.add_parser("witness", help="residual-freeness witness search")
    sp.add_argument("file")
    sp.add_argument("--words", required=True)
    sp.add_argument("--budget", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("embed", help="one-edge splitting embedding")
    sp.add_argument("file")
    sp.add_argument("--splitting", required=True)
    sp.add_argument("--ball", type=int, default=2)
    sp.add_argument("--budget", type=int, default=8)
    sp.add_argument("--assume", action="store_true")

    sp = sub.add_parser("core", help="cover expansion and core extraction")
    sp.add_argument("file")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--budget", type=int, default=8)
    sp.add_argument("--require", default="")

    sp = sub.add_parser("flats", help="flat inventory and isolation hypotheses")
    sp.add_argument("file")
    sp.add_argument("--gens", default="")
    sp.add_argument("--budget", type=int, default=8)
    sp.add_argument("--power-budget", type=int, dest="power_budget", default=8,
                    help="word-problem budget of hypotheses 1 and 2, and largest k, l tried for "
                         "u^k = v^l in hypothesis 1 (only pairs whose images in free groups "
                         "commute, and only the k, l those images allow)")

    sub.add_parser("selftest", help="quick internal checks")
    return p


_COMMANDS = {"present": _cmd_present, "wp": _cmd_wp, "witness": _cmd_witness,
             "embed": _cmd_embed, "core": _cmd_core, "flats": _cmd_flats}

# Options that bound a search or a radius: 0 is a valid bound, a negative
# value is a usage error.
BOUND_OPTIONS = ("budget", "power_budget", "depth", "ball")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def run_command(argv: list[str]) -> tuple[int, str]:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code else EXIT_OK), ""
    try:
        for name in BOUND_OPTIONS:
            value = getattr(args, name, 0)
            if value < 0:
                raise ValueError(f"--{name.replace('_', '-')} must be at least 0, got {value}")
        if args.command == "selftest":
            code, rep = _cmd_selftest()
        else:
            text = _read(args.file)
            doc = parse_tower_dsl(text)
            T = build_tower(doc)
            # the splitting is read once the tower is built, so a bad tower
            # is the error reported first; the digest covers both texts
            extra = (_read(args.splitting),) if args.command == "embed" else ()
            rep = Report(args.command, text + "".join(extra))
            rep.add("tower", doc.name)
            code = _COMMANDS[args.command](args, T, rep, *extra)
    except (DslError, WordError, ValueError, OSError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    return code, rep.render()


def main() -> None:
    code, output = run_command(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
