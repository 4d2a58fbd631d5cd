import pytest

from rft import cli, graphgroups

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
# DSL round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [GAMMA_DSL, QT_DSL, SURFACE_DSL])
def test_dsl_round_trip(text):
    doc = cli.parse_tower_dsl(text)
    printed = cli.print_tower_dsl(doc)
    assert cli.parse_tower_dsl(printed) == doc
    # printing is idempotent
    assert cli.print_tower_dsl(cli.parse_tower_dsl(printed)) == printed


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
    # cross-check, which the CLI reports as an error, not a traceback
    real = graphgroups.normal_form

    def wrong_for_a(G, w, budget=8):
        if w == (("a", 1),):
            return graphgroups.NormalForm([], graphgroups.TRIVIAL)
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "normal_form", wrong_for_a)
    code, text = cli.run_command(["wp", gamma_file, "--word", "a"])
    assert code == 1
    assert text.startswith("error: internal inconsistency")


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
