from pathlib import Path

import pytest

from rft import cli, graphgroups, tower, words

GAMMA_DSL = """\
tower gamma {
  base { free(a, b) }
  block A {
    attach="[a,b]";
    rank=2;
    letters=t;
  }
}
"""

QT_DSL = """\
tower mixed {
  base { free(a, b); abelian(rank=2: x, y) }
  block Q {
    surface=(genus=1, punctures=1: p, q);
    boundary={ b1 -> "[a,b]" };
    retract={ p -> "a", q -> "b" };
  }
  block T {
    attach=("x", "y");
    rank=3;
    letters=u;
  }
}
"""

SURFACE_DSL = """\
tower closed {
  base { surface(genus=2) }
}
"""

SPLITTING = """\
splitting double {
  kind=amalgam;
  vertex vA { free(a, b) }
  vertex vB { free(c, d) }
  base=vA;
  edge E { left = vA: "[a,b]"; right = vB: "[c,d]"; }
  nu { a -> "a", b -> "b", c -> "a", d -> "b" }
}
"""


@pytest.fixture
def gamma_file(tmp_path):
    p = tmp_path / "gamma.twr"
    p.write_text(GAMMA_DSL)
    return str(p)


# ---------------------------------------------------------------------------
# DSL parsing
# ---------------------------------------------------------------------------


def test_parse_surface_base():
    doc = cli.parse_tower_dsl(SURFACE_DSL)
    assert doc == cli.TowerDocument("closed", [cli.SummandDecl("surface", genus=2)], [])


def test_build_tower_from_dsl():
    T = cli.build_tower(cli.parse_tower_dsl(GAMMA_DSL))
    assert T.alphabet().generators == ("a", "b", "t")
    assert T.height == 1


def test_build_mixed_tower():
    T = cli.build_tower(cli.parse_tower_dsl(QT_DSL))
    assert T.height == 2
    assert "u" in T.alphabet().generators


def test_syntax_error_has_position():
    with pytest.raises(cli.DslError) as exc:
        cli.parse_tower_dsl("tower t {\n  base { free(a) }\n  block A { attach= }\n}")
    err = exc.value
    assert err.line == 3
    assert err.col > 0
    assert "attach" in str(err) or "word" in str(err)


F2_DSL = "tower f2 {\n  base { free(a, b) }\n}\n"
SECOND_EDGE = '  edge F { left = vA: "a"; right = vB: "c"; }'


# (tower text, splitting text or None for `present`, exact output); "MISSING"
# names a splitting file that does not exist
@pytest.mark.parametrize("tower_text, splitting_text, output", [
    pytest.param(GAMMA_DSL.replace('"[a,b]";', '"[a,b];'), None,
                 "error: 4:12: unterminated string\n", id="unterminated-string"),
    pytest.param(GAMMA_DSL.replace("rank=2;", "rank=2; @"), None,
                 "error: 5:13: unexpected character '@'\n", id="unexpected-character"),
    pytest.param(GAMMA_DSL.replace("rank=2;", "rnak=2;"), None,
                 "error: 5:5: unknown block field 'rnak'\n", id="unknown-block-field"),
    pytest.param(F2_DSL, SPLITTING.replace("base=vA;", "base=vA;\n  colour=red;"),
                 "error: 6:3: unknown splitting field 'colour'\n",
                 id="unknown-splitting-field"),
    pytest.param(F2_DSL, SPLITTING.replace("right = vB", "middle = vB"),
                 "error: 6:32: unknown edge side 'middle'\n", id="bad-edge-side"),
    pytest.param("tower t {\n  base { free(a) }\n", None,
                 "error: 3:1: expected '}', got ''\n", id="missing-brace"),
    pytest.param(GAMMA_DSL.replace("rank=2;", "rank=12 letters=t;"), None,
                 "error: 5:13: expected ';', got 'letters'\n", id="multi-digit-int"),
    pytest.param("# a comment line\ntower t {  # and a trailing one\n"
                 "  base { free(a) }\n  blok A { }\n}\n", None,
                 "error: 4:3: expected '}', got 'blok'\n", id="comment-line"),
    pytest.param("tower t { base { free(a, b); } block B { } }\n", None,
                 "error: 1:38: unknown block kind 'B'\n", id="trailing-semicolon-in-base"),
    # end of file is at column 32, past the comment that starts at column 29
    pytest.param("tower t { base { free(a) }  # x", None,
                 "error: 1:32: expected '}', got ''\n", id="comment-at-eof"),
    # the tower is read and built before the splitting file is opened
    pytest.param(GAMMA_DSL.replace("rank=2;", "rnak=2;"), "MISSING",
                 "error: 5:5: unknown block field 'rnak'\n", id="bad-tower-missing-splitting"),
    # a repeated field is refused at its second occurrence, never overwritten
    pytest.param(GAMMA_DSL.replace('attach="[a,b]";', 'attach="a"; attach="[a,b]";'), None,
                 "error: 4:17: repeated block field 'attach'\n", id="repeated-block-field"),
    pytest.param(F2_DSL, SPLITTING.replace("  nu {", SECOND_EDGE + "\n  nu {"),
                 "error: 7:3: repeated splitting field 'edge'\n", id="second-edge"),
    pytest.param(F2_DSL, SPLITTING.replace("base=vA;", "base=vA;\n  kind=hnn;"),
                 "error: 6:3: repeated splitting field 'kind'\n", id="repeated-splitting-field"),
    # so is a repeated map key or edge side, which was overwritten
    pytest.param(F2_DSL, SPLITTING.replace('nu { a -> "a",', 'nu { a -> "b", a -> "a",'),
                 "error: 7:18: repeated nu key 'a'\n", id="repeated-nu-key"),
    pytest.param(QT_DSL.replace('p -> "a", q', 'p -> "a", p -> "b", q'), None,
                 "error: 6:25: repeated retract key 'p'\n", id="repeated-retract-key"),
    pytest.param(QT_DSL.replace('{ b1 -> "[a,b]" }', '{ b1 -> "[a,b]", b1 -> "a" }'), None,
                 "error: 5:31: repeated boundary key 'b1'\n", id="repeated-boundary-key"),
    pytest.param(F2_DSL, SPLITTING.replace('right = vB: "[c,d]";',
                                           'left = vA: "a"; right = vB: "[c,d]";'),
                 "error: 6:32: repeated edge side 'left'\n", id="repeated-edge-side"),
    # assume= takes true or false, nothing else
    pytest.param(GAMMA_DSL.replace("letters=t;", "letters=t;\n    assume=ture;"), None,
                 "error: 7:12: expected 'true' or 'false', got 'ture'\n", id="bad-assume"),
])
def test_malformed_input_error_bytes(tmp_path, tower_text, splitting_text, output):
    twr = tmp_path / "t.twr"
    twr.write_text(tower_text)
    argv = ["present", str(twr)]
    if splitting_text is not None:
        spl = tmp_path / "s.spl"
        if splitting_text != "MISSING":
            spl.write_text(splitting_text)
        argv = ["embed", str(twr), "--splitting", str(spl)]
    assert cli.run_command(argv) == (1, output)


def test_unknown_field_rejected():
    bad = GAMMA_DSL.replace("rank=2;", "rnak=2;")
    with pytest.raises(cli.DslError, match="rnak"):
        cli.parse_tower_dsl(bad)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------


def test_present(gamma_file):
    code, text = cli.run_command(["present", gamma_file])
    assert code == 0
    assert "a b a^-1 b^-1 t b a b^-1 a^-1 t^-1" in text
    assert "input-digest" in text


def test_wp_verdicts(gamma_file):
    code, text = cli.run_command(["wp", gamma_file, "--word", "[[a,b],t]"])
    assert code == 0 and "Trivial" in text
    code, text = cli.run_command(["wp", gamma_file, "--word", "[a,t]"])
    assert code == 0 and "Nontrivial" in text


def test_wp_exit_codes_match_verdicts(gamma_file):
    for w in ("a", "t^2 t^-2", "[a,b] t", "[b,a] [a,b]"):
        code, text = cli.run_command(["wp", gamma_file, "--word", w])
        if "Unknown" in text:
            assert code == 3
        else:
            assert code == 0


def test_inconsistent_trivial_verdict_is_an_error(gamma_file, monkeypatch):
    # a normal form that wrongly answers Trivial trips the abelianization
    # cross-check, which the CLI reports as an error, not a traceback; t
    # retracts to the empty word, and with the tower's map to a free group
    # switched off its word problem reaches normal_form
    real = graphgroups.normal_form

    def wrong_for_t(G, w, budget=8):
        if w == (("t", 1),):
            return graphgroups.NormalForm([], graphgroups.TRIVIAL)
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "normal_form", wrong_for_t)
    monkeypatch.setattr(tower.Tower, "free_map", None)
    # a failed cross-check is never remembered: asking again raises again
    for _ in range(2):
        code, text = cli.run_command(["wp", gamma_file, "--word", "t"])
        assert code == 1
        assert text.startswith("error: internal inconsistency")


def test_oversized_word_is_a_usage_error(gamma_file):
    code, text = cli.run_command(["wp", gamma_file, "--word", "a^1000000000"])
    assert code == 1
    assert text.startswith("error: word too long")


@pytest.mark.parametrize("command, option", [
    (["wp", "gamma.twr", "--word", "a"], "--budget"),
    (["witness", "gamma.twr", "--words", "a; t"], "--budget"),
    (["embed", "f2.twr", "--splitting", "hnn.spl"], "--ball"),
    (["embed", "f2.twr", "--splitting", "hnn.spl"], "--budget"),
    (["core", "gamma.twr", "--gens", "a"], "--depth"),
    (["core", "gamma.twr", "--gens", "a"], "--budget"),
    (["flats", "gamma.twr"], "--budget"),
    (["flats", "gamma.twr"], "--power-budget")])
def test_a_negative_bound_is_a_usage_error(command, option):
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    argv = [str(corpus / a) if a.endswith((".twr", ".spl")) else a for a in command]
    code, text = cli.run_command(argv + [option, "-5"])
    assert (code, text) == (1, f"error: {option} must be at least 0, got -5\n")
    # zero is a valid bound
    code, text = cli.run_command(argv + [option, "0"])
    assert code != 1 and not text.startswith("error:")


@pytest.mark.parametrize("word", ["[" * 500 + ",]" * 500, "[" * 3000])
def test_deeply_nested_word_is_a_usage_error(gamma_file, word):
    code, text = cli.run_command(["wp", gamma_file, "--word", word])
    assert code == 1
    assert text.startswith("error: word syntax error")


@pytest.mark.parametrize("block, message", [
    ("block A { rank=2; letters=t; }", "needs exactly one attach word"),
    ('block Q { boundary={ b1 -> "[a,b]" }; retract={ p -> "a", q -> "b" }; }',
     "needs a surface"),
])
def test_block_missing_a_field_is_a_usage_error(tmp_path, block, message):
    p = tmp_path / "bad.twr"
    p.write_text(f"tower bad {{ base {{ free(a, b) }} {block} }}")
    code, text = cli.run_command(["present", str(p)])
    assert code == 1
    assert text.startswith("error: ") and message in text


@pytest.mark.parametrize("edge, message", [
    ('edge E { right = vB: "[c,d]"; }', "needs a left and a right side"),
    ('edge E { left = vA: "[a,b]"; right = vX: "[c,d]"; }', "undeclared vertex 'vX'"),
])
def test_splitting_edge_errors_are_usage_errors(tmp_path, gamma_file, edge, message):
    sp = tmp_path / "bad.spl"
    sp.write_text(SPLITTING.replace(
        'edge E { left = vA: "[a,b]"; right = vB: "[c,d]"; }', edge))
    code, text = cli.run_command(["embed", gamma_file, "--splitting", str(sp)])
    assert code == 1
    assert text.startswith("error: ") and message in text


def test_witness(gamma_file):
    code, text = cli.run_command(
        ["witness", gamma_file, "--words", "a; b; t; [a,b]", "--budget", "8"])
    assert code == 0
    assert "valid" in text


def test_witness_failure_budget_limited(gamma_file):
    # budget 0 leaves no parameters to try
    code, text = cli.run_command(
        ["witness", gamma_file, "--words", "a; t", "--budget", "0"])
    assert code == 3


def test_witness_attempt_cap_on_a_hopeless_search():
    # every member of wide's family sends x and y into one cyclic <f>, to
    # exponents Nx, Ny of norm <= 3, so x^Ny y^-Nx is among the words and
    # maps to 1; the search runs to its cap of 20,000 attempts without
    # building any parameter shell
    wide = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "wide.twr"
    words = "; ".join(f"x^{i} y^{j}" for i in range(-3, 4) for j in range(-3, 4) if i or j)
    code, text = cli.run_command(["witness", str(wide), "--words", words, "--budget", "3"])
    assert code == 3
    assert "attempts: 20000" in text.splitlines()


def test_core(gamma_file):
    code, text = cli.run_command(["core", gamma_file, "--gens", "a; t"])
    assert code == 0
    assert "rank" in text


def test_embed(tmp_path, gamma_file):
    sp = tmp_path / "double.spl"
    sp.write_text(SPLITTING)
    base = tmp_path / "base.twr"
    base.write_text("tower f2 {\n  base { free(a, b) }\n}\n")
    code, text = cli.run_command(
        ["embed", str(base), "--splitting", str(sp), "--ball", "2"])
    assert code == 0
    assert "t a t^-1" in text


def test_flats(gamma_file):
    code, text = cli.run_command(["flats", gamma_file, "--gens", "a; b; t"])
    assert code == 0
    assert "hypothesis-0" in text and "verified" in text


def test_selftest():
    code, text = cli.run_command(["selftest"])
    assert code == 0


def test_usage_error_missing_file(tmp_path):
    code, text = cli.run_command(["present", str(tmp_path / "missing.twr")])
    assert code == 1


def test_reports_are_byte_stable(gamma_file):
    runs = [cli.run_command(["flats", gamma_file, "--gens", "a; b; t"])
            for _ in range(3)]
    assert len({text for _, text in runs}) == 1
    runs = [cli.run_command(
        ["witness", gamma_file, "--words", "a; b; t", "--seed", "5"])
        for _ in range(3)]
    assert len({text for _, text in runs}) == 1


# ---------------------------------------------------------------------------
# one obligation policy: refuted raises, undecided needs assume
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def _corpus_splitting(tmp_path, name, *edits):
    text = (CORPUS / f"{name}.spl").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / f"{name}.spl"
    p.write_text(text)
    return str(p)


def _embed(tower, spl, *extra):
    return cli.run_command(["embed", str(CORPUS / f"{tower}.twr"), "--splitting", spl,
                            *extra])


def test_embed_undecided_nu_is_an_error_unless_assumed(tmp_path):
    spl = _corpus_splitting(tmp_path, "hnn", ('nu { a -> "a", s -> "a" }',
                                              'nu { a -> "[a1,b1]^12", s -> "t" }'))
    code, text = _embed("closed2", spl)
    assert code == 1
    assert text.startswith("error: nu-homomorphism")
    code, text = _embed("closed2", spl, "--assume")
    assert code == 0
    assert "obligation-0: nu-homomorphism assumed (relator s a s^-1 a^-1)" in text
    assert "obligation-1: j-homomorphism assumed (relator s a s^-1 a^-1)" in text


def test_embed_attaches_along_the_root_of_the_edge_image(tmp_path):
    # no recorded lattice is proved to centralize the edge image
    # [a1,b1]^12, so the new block is glued along the cyclic group of its
    # root [a1,b1], not of the image
    spl = _corpus_splitting(tmp_path, "hnn", ('nu { a -> "a", s -> "a" }',
                                              'nu { a -> "[a1,b1]^12", s -> "t" }'))
    code, text = _embed("closed2", spl, "--assume")
    assert code == 0
    assert "\nU: a1 b1 a1^-1 b1^-1\nU-status: budget-limited\n" in text
    assert "certificate: full" in text


def test_the_abelian_step_reads_the_edge_exponent_off_the_root(tmp_path):
    # the edge image [a,b]^2 has exponent sum 0, so no exponent sum tells
    # which power of the root [a,b] it is; x must go to the square of the
    # root, not to 1 (which made j no homomorphism and read `refuted`)
    spl = _corpus_splitting(tmp_path, "abelian", ('nu { a -> "a", x -> "a", y -> "" }',
                                                  'nu { a -> "[a,b]^2", x -> "[a,b]^2", '
                                                  'y -> "" }'))
    code, text = _embed("f2", spl)
    assert code == 0
    assert "\nj-x: a b a^-1 b^-1 a b a^-1 b^-1\n" in text
    assert "\nU: a b a^-1 b^-1\nU-status: verified\n" in text
    assert text.endswith("certificate: full\n")


def test_an_edge_image_trivial_in_a_surface_group_is_refuted(tmp_path):
    # the surface relator is a nonempty reduced word whose Dehn normal form
    # is empty: its root is empty, and the block's attach-nontrivial check
    # refutes the step instead of the proper-power test failing on it
    twr = tmp_path / "g2.twr"
    twr.write_text("tower g2 { base { surface(genus=2) } }")
    spl = _corpus_splitting(tmp_path, "hnn", ('nu { a -> "a", s -> "a" }',
                                              'nu { a -> "[a1,b1] [a2,b2]", s -> "a1" }'))
    code, text = cli.run_command(["embed", str(twr), "--splitting", spl])
    assert code == 2
    assert text.endswith("verdict: refuted\n"
                         "witness: attach-nontrivial refuted (word problem verdict Trivial)\n")


def test_embed_budget_limited_locus_needs_assume(tmp_path):
    spl = _corpus_splitting(tmp_path, "hnn", ('nu { a -> "a", s -> "a" }',
                                              'nu { a -> "a1", s -> "a1" }'))
    code, text = _embed("closed2", spl)
    assert code == 1
    assert text.startswith("error: attach-maximal")
    code, text = _embed("closed2", spl, "--assume")
    assert code == 0
    assert "U-status: budget-limited" in text and "certificate: full" in text
    # the assumed block check is shown, not only the verified nu/j lines
    assert "block-obligation-1: attach-maximal assumed (composite locus" in text


@pytest.mark.parametrize("name, edits, message", [
    ("hnn", (("stable=s;", ""), ('s -> "a"', 't1 -> "a"')), "needs a stable letter"),
    ("abelian", (("special=vB;", "special=vA;"),), "'vA' is not free-abelian"),
])
def test_malformed_splitting_is_a_usage_error(tmp_path, name, edits, message):
    code, text = _embed("f2", _corpus_splitting(tmp_path, name, *edits))
    assert code == 1
    assert text.startswith("error: ") and message in text


def test_nu_refutation_exits_2(tmp_path):
    spl = _corpus_splitting(tmp_path, "double", ('d -> "b"', 'd -> "a"'))
    code, text = _embed("f2", spl)
    assert code == 2
    assert "verdict: refuted" in text
    assert "witness: nu is not a homomorphism" in text


@pytest.mark.parametrize("image_verdict, tail, code", [
    (graphgroups.TRIVIAL, "ball-refutations: 8\ncertificate: refuted\nwitness: a\n", 2),
    (graphgroups.UNKNOWN, "ball-unknowns: 8\nball-refutations: 0\ncertificate: partial\n", 3),
])
def test_embed_certificate_exit_codes(monkeypatch, image_verdict, tail, code):
    # every image gets the forced verdict, and the witness search that
    # follows an Unknown one is allowed no attempt; the walk hands over
    # every base image, so no word is settled by a nonempty one on the
    # free base before the forced chain is asked
    real_search = tower.find_rf_witness
    monkeypatch.setattr(tower.Tower, "walk_ball", lambda self, j, radius: words.walk_ball(
        j.source, radius, j, j.then(self.retraction_to_base())))
    monkeypatch.setattr(tower.Tower, "reduced_word_problem",
                        lambda self, w, base, budget=8: image_verdict)
    monkeypatch.setattr(tower, "find_rf_witness",
                        lambda T, words, budget, seed=0:
                        real_search(T, words, budget, seed, max_attempts=0))
    got, text = _embed("f2", str(CORPUS / "double.spl"), "--ball", "1")
    assert got == code
    assert text.endswith(tail)


def test_a_hidden_surface_power_is_refused_and_assumed_only_with_assume(tmp_path):
    # pp's attaching word is a conjugate of (b2 a2)^2 in the genus-2
    # surface group, with no literal period after Dehn reduction
    text = (Path(__file__).resolve().parent / "data" / "pp.twr").read_text()
    p = tmp_path / "pp.twr"
    p.write_text(text)
    code, out = cli.run_command(["present", str(p)])
    assert code == 1 and out.startswith("error: attach-maximal could not be verified")
    p.write_text(text.replace("letters=t;", "letters=t; assume=true;"))
    code, out = cli.run_command(["present", str(p)])
    assert code == 0
    assert "obligation-1: attach-maximal assumed (surface locus: no map family member" in out
    code, out = cli.run_command(["flats", str(p)])
    hypothesis2 = next(line for line in out.splitlines() if line.startswith("hypothesis-2:"))
    assert hypothesis2 != "hypothesis-2: verified" and "verified-to-budget" in hypothesis2
    # no map to a free group can send a proper power to a non-power, so the
    # detail must not claim a proper-power check that passed
    assert "proper-power and lattice checks passed" not in hypothesis2
    assert hypothesis2 == ("hypothesis-2: verified-to-budget "
                           "(proper power undecided; lattice checks passed to budget)")


def test_a_literal_power_on_a_composite_locus_is_refuted(tmp_path):
    # [a,t]^2 over gamma is a proper power whatever the relators say, so
    # assume=true does not cover it
    p = tmp_path / "gsq.twr"
    p.write_text((CORPUS / "gamma.twr").read_text().rstrip().rstrip("}") +
                 'block A { attach="[a,t]^2"; rank=2; letters=s; assume=true; } }')
    code, out = cli.run_command(["present", str(p)])
    assert (code, out) == (1, "error: attach-maximal refuted (attaching word is a proper "
                              "power: (a t a^-1 t^-1)^2)\n")


def test_core_outside_the_cover_is_budget_limited():
    code, text = cli.run_command(["core", str(CORPUS / "gamma.twr"), "--gens", "a; t",
                                  "--require", "99"])
    assert code == 3
    assert text.endswith("tower: gamma\nverdict: budget-limited\n"
                         "detail: required cell 99 is outside the generated cover\n")


def test_assume_never_covers_a_refuted_block(tmp_path):
    p = tmp_path / "abq.twr"
    p.write_text('tower abq { base { free(a, b) } block Q { '
                 'surface=(genus=1, punctures=2: p, q, d1); '
                 'boundary={ b1 -> "a", b2 -> "a" }; '
                 'retract={ p -> "a", q -> "a", d1 -> "a" }; assume=true; } }')
    code, text = cli.run_command(["present", str(p)])
    assert code == 1
    assert text.startswith("error: retraction-nonabelian")
