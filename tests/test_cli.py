import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lietop import cli, dgl, freelie, qlinalg
from lietop.cli import ParseError, build, parse, run
from lietop.freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    bracket,
    format_lie,
    generator_element,
    lie_slice,
)

from helpers import checkout_env, eval_lie_expr, slice_element

A = Generator("a", 0)
B = Generator("b", 0)
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_cp2():
    pf = parse("generator x degree 1\ncell sy degree 3 attach [x,x]\n")
    assert [g.name for g in pf.generators] == ["x"]
    assert pf.cells[0][0] == "sy"
    assert pf.cells[0][1] == 3
    model = build(pf)
    assert model.attached.generator("sy").degree == 3
    assert model.attached.generator("sy").weight == 2


def test_parse_empty_file():
    with pytest.raises(ParseError, match="no generators"):
        parse("# nothing here\n")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse("generator x degree 0\ndiff sz = [x,y\n")
    assert info.value.line == 2
    assert "expected" in str(info.value)


def test_parse_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive"):
        parse("generate x degree 0\n")


def test_parse_duplicate_names():
    with pytest.raises(ParseError, match="already declared"):
        parse("generator x degree 0\ngenerator x degree 1\n")


@pytest.mark.parametrize("text, message", [
    ("generator a degree 0\n  generator a degree 1\n", "line 2, col 13: name 'a' already declared"),
    ("generator a degree 0\ngenerator b degree 0\n  cell a degree 1 attach [a,b]\n",
     "line 3, col 8: name 'a' already declared"),
    ("generator a degree 0\n word a = a\n", "line 2, col 7: name 'a' already declared"),
], ids=["generator", "cell", "word"])
def test_parse_reports_duplicate_name_at_the_name(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_comments_and_blank_lines():
    pf = parse("# hi\n\ngenerator a degree 0  # trailing\n")
    assert [g.name for g in pf.generators] == ["a"]


def test_parse_window_and_order():
    pf = parse(
        "generator x degree 0\ngenerator y degree 0\n"
        "window weight 4 degree 2\norder x > y\n"
    )
    assert pf.window == Window(4, 2)
    assert pf.order == ["x", "y"]


def test_parse_word_directive():
    pf = parse("generator a degree 0\ngenerator b degree 0\nword w = a b a^-1 b^-1\n")
    assert pf.words["w"] == [("a", 1), ("b", 1), ("a", -1), ("b", -1)]


@pytest.mark.parametrize("text, message", [
    ("generator a degree 0\nword w = a q\n", "line 2, col 12: word w: unknown generator 'q'"),
    ("generator a degree 0\norder a > q\n", "line 2, col 11: order mentions unknown generator 'q'"),
    ("generator a degree 0\ngenerator b degree 1\ndiff b = a\ndiff b = 2 a\n",
     "line 4, col 6: second diff for generator 'b'"),
    ("generator a degree 0\ngenerator b degree 0\norder a > b > a\n",
     "line 3, col 15: order repeats generator 'a'"),
], ids=["word", "order", "second-diff", "order-repeat"])
def test_parse_reports_bad_references_with_position(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("generator a degree 0\norder a\norder a\n", "line 3, col 1: second order directive"),
    ("generator a degree 0\nwindow weight 3 degree 2\n  window weight 4 degree 2\n",
     "line 3, col 3: second window directive"),
], ids=["order", "window"])
def test_parse_rejects_repeated_directives(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("generator a degree 0\ndiff q = a\n", "line 2, col 6: diff for unknown generator 'q'"),
    ("generator x degree 1\ncell sy degree 2 attach [x,x]\n",
     "line 2, col 6: cell sy has degree 2 but its target has degree 2"),
    ("generator a degree 0\ncell s degree 5 attach [a,a]\n",
     "line 2, col 6: cell s has degree 5 but its target is zero, which attaches in degree 1"),
], ids=["diff", "cell", "zero-target"])
def test_build_reports_errors_at_the_name(text, message):
    with pytest.raises(ParseError) as info:
        build(parse(text))
    assert str(info.value) == message


def test_main_unknown_diff_exit_2_with_position(tmp_path, capsys):
    f = tmp_path / "diff.lt"
    f.write_text("generator a degree 0\n  diff q = a\n")
    assert cli.main(["homology", "--file", str(f)]) == 2
    assert "line 2, col 8: diff for unknown generator 'q'" in capsys.readouterr().err


def test_parse_resolves_generators_declared_later():
    pf = parse("word w = b a\norder b > a\ngenerator a degree 0\ngenerator b degree 0\n")
    assert pf.words["w"] == [("b", 1), ("a", 1)] and pf.order == ["b", "a"]


def test_main_unknown_word_letter_exit_2_with_position(tmp_path, capsys):
    f = tmp_path / "word.lt"
    f.write_text("generator a degree 0\nword w = a q\n")
    assert cli.main(["logword", "w", "--file", str(f)]) == 2
    assert "line 2, col 12: word w: unknown generator 'q'" in capsys.readouterr().err


def test_zero_target_cell_builds_in_degree_1():
    # the one degree a zero target attaches in; any other is a ParseError
    model = build(parse("generator a degree 0\ncell s degree 1 attach [a,a]\n"))
    assert model.attached.generator("s").degree == 1


def test_cell_degree_mismatch():
    pf = parse("generator x degree 1\ncell sy degree 2 attach [x,x]\n")
    with pytest.raises(ParseError, match="degree"):
        build(pf)


def test_unknown_name_in_expression():
    pf = parse("generator x degree 1\ncell sy degree 3 attach [x,q]\n")
    with pytest.raises(ParseError, match="unknown name"):
        build(pf)


def test_word_name_resolves_in_cell_target():
    text = (
        "generator a degree 0\ngenerator b degree 0\n"
        "word r = a b a^-1 b^-1\n"
        "cell sz degree 1 attach r\n"
        "window weight 4 degree 2\n"
    )
    model = build(parse(text))
    sz = model.attached.generator("sz")
    target = model.attached.diff_of(sz)
    lead = bracket(
        generator_element(model.base.generator("a"), model.window),
        generator_element(model.base.generator("b"), model.window),
    )
    assert (target - lead.value).min_weight() in (None, 3, 4)
    assert sz.weight == 2


@pytest.mark.parametrize("command", ["lcs", "homology"])
def test_unused_word_over_odd_letter_exit_2(tmp_path, capsys, command):
    # every word is checked when the file is built, whether or not anything reads it
    f = tmp_path / "odd.lt"
    f.write_text("generator a degree 0\ngenerator x degree 1\nword w = a x\n")
    assert cli.main([command, "--file", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lietop: group words require degree-0 generators, got x\n"


def test_word_logs_taken_on_first_read(monkeypatch):
    # words.lt: s attaches along r at the model window, t along [a,r], which
    # is evaluated at a wider window; u is never read
    calls = []

    def counted(word, gens, window):
        calls.append(window)
        return freelie.log_group_word(word, gens, window)

    monkeypatch.setattr(cli, "log_group_word", counted)
    model = build(parse((GOLDEN / "words.lt").read_text()))
    assert calls == [Window(4, 2), Window(5, 2)]
    assert "u" in model.logs and list(model.logs) == ["r", "u"]
    assert calls == [Window(4, 2), Window(5, 2)]
    assert model.logs["u"] is model.logs["u"]
    assert calls == [Window(4, 2), Window(5, 2), Window(4, 2)]


# ---------------------------------------------------------------------------
# round-trip of emitted expressions
# ---------------------------------------------------------------------------


def test_lie_expr_roundtrip_random():
    rng = random.Random(41)
    W = Window(4, 0)
    gens = (A, B)
    for _ in range(20):
        out = TensorElement.zero(W)
        for w in (1, 2, 3):
            slc = lie_slice(gens, w, 0)
            for k in range(slc.dim):
                c = rng.randint(-3, 3)
                if c and rng.random() < 0.6:
                    num = Fraction(c, rng.randint(1, 4))
                    out = out + num * slice_element(slc, k, W).value
        el = LieElement(out)
        text = format_lie(el, gens)
        back = eval_lie_expr(text, gens, W)
        assert back == el, text


def test_lie_expr_roundtrip_ad_syntax():
    W = Window(5, 0)
    el = eval_lie_expr("ad^2(a)(b)", (A, B), W)
    x = generator_element(A, W)
    y = generator_element(B, W)
    assert el == bracket(x, bracket(x, y))


# ---------------------------------------------------------------------------
# run() and exit codes
# ---------------------------------------------------------------------------


def test_run_homology_cp2_records():
    code, out = run(["homology", "--file", "cp2", "--format", "records"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["homology.1.dim"] == "1"
    assert lines["homology.4.dim"] == "1"
    assert lines["homology.4.rep.0"] == "[x,sy]"
    assert lines["homology.0.dim"] == "0"


def refuse_second_elimination(monkeypatch):
    # each boundary map is eliminated once, by ChainComplex.image, which also
    # finds the cycles: no boundary matrix is built and no kernel_basis runs
    def refuse(*args, **kwargs):
        raise AssertionError("a boundary map was eliminated twice")

    monkeypatch.setattr(dgl, "kernel_basis", refuse, raising=False)
    monkeypatch.setattr(qlinalg, "kernel_basis", refuse)
    monkeypatch.setattr(dgl.ChainComplex, "boundary", refuse)


def test_homology_prints_from_chain_coordinates(monkeypatch):
    # representatives print straight from their chain coordinates: no Lie
    # element is built and format_lie is never called
    def refuse(*args, **kwargs):
        raise AssertionError("homology went through tensor words")

    monkeypatch.setattr(dgl.ChainBasis, "element", refuse)
    monkeypatch.setattr(cli, "format_lie", refuse)
    refuse_second_elimination(monkeypatch)
    code, out = run(["homology", "--file", "genus2", "--format", "records"])
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "homology-genus2.records").read_text()


def test_inert_eliminates_each_boundary_once(monkeypatch):
    refuse_second_elimination(monkeypatch)
    code, out = run(["inert", "--file", "torus", "--format", "records"])
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "inert-torus.records").read_text()


def test_run_inert_torus():
    code, out = run(["inert", "--file", "torus", "--format", "records"])
    assert code == 0
    assert "inert.status: inert-up-to-window" in out


def test_run_inert_expect_mismatch_exit_1():
    code, out = run(
        ["inert", "--file", "cp2", "--expect", "inert", "--format", "records"]
    )
    assert code == 1
    assert "inert.failing.0.degree: 4" in out
    assert "inert.failing.0.witness: [x,sy]" in out


def test_run_inert_expect_match_exit_0():
    code, _ = run(["inert", "--file", "cp2", "--expect", "not-inert"])
    assert code == 0


def test_run_bch_weight2():
    code, out = run(
        ["bch", "a", "b", "--file", "torus", "--window", "2", "3", "--format", "records"]
    )
    assert code == 0
    assert "bch: a + b + 1/2 [a,b]" in out


def test_bch_arguments_use_the_word_grammar():
    opts = ["--file", "torus", "--window", "3", "3", "--format", "records"]
    assert run(["bch", "a ^-1", "b", *opts]) == run(["bch", "a^-1", "b", *opts])
    assert run(["bch", "a^-1b", "a", *opts]) == run(["bch", "a^-1 b", "a", *opts])


@pytest.mark.parametrize("word, message", [
    ("a^-2", "line 1, col 4: only exponent -1 is supported"),
    ("a c", "line 1, col 3: unknown generator 'c' in group word 'a c'"),
    ("a ^", "line 1, col 4: expected -, got 'end of line'"),
    ("", "line 1, col 1: empty group word"),
    ("a # b", "line 1, col 3: unexpected character '#'"),
])
def test_bch_bad_argument_exit_2_with_column(capsys, word, message):
    assert cli.main(["bch", word, "b", "--file", "torus"]) == 2
    assert message in capsys.readouterr().err


def test_run_logword():
    code, out = run(["logword", "cmt", "--file", "wedge-circles", "--format", "records"])
    assert code == 0
    assert "logword.cmt: [a,b]" in out


def test_run_lcs():
    code, out = run(["lcs", "--file", "wedge-circles", "--format", "records"])
    assert code == 0
    assert "lcs.1.total: 3" in out
    assert "lcs.3.total: 8" in out


def test_run_sullivan():
    code, out = run(
        ["sullivan", "--file", "cp2", "--window", "2", "6", "--format", "records"]
    )
    assert code == 0
    assert "sullivan.d_squared: true" in out
    assert "sullivan.filtration: true" in out
    assert "sullivan.d1.[x,x]^: 1/2 x^*x^" in out


def test_run_anick_certificate_present():
    code, out = run(["inert", "--file", "anick29", "--format", "records"])
    assert code == 0
    assert "anick.passed: true" in out
    assert "anick.leading.2: x.x.x.y.y.y.z" in out


def test_run_order_flag_overrides(tmp_path):
    f = tmp_path / "two.lt"
    f.write_text(
        "generator a degree 0\ngenerator b degree 0\n"
        "cell s1 degree 1 attach [a,b]\nwindow weight 4 degree 2\n"
    )
    code, out = run(["inert", "--file", str(f), "--order", "b", "a", "--format", "records"])
    assert code == 0
    assert "anick.leading.0: b.a" in out


def test_unknown_order_name_exits_before_the_verdict(monkeypatch, capsys):
    # --order names are resolved before any verdict work: a patched verdict
    # that raises is never reached
    def refuse(*args):
        raise AssertionError("the verdict ran before --order was checked")

    monkeypatch.setattr(cli.attach_mod, "inert_homological", refuse)
    assert cli.main(["inert", "--file", "torus", "--window", "12", "3", "--order", "a", "q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order mentions unknown generators: q" in captured.err


def test_main_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.lt"
    f.write_text("diff x = [\n")
    assert cli.main(["homology", "--file", str(f)]) == 2
    assert "lietop:" in capsys.readouterr().err


def test_main_missing_file_exit_2(capsys):
    assert cli.main(["homology", "--file", "/nonexistent/file.lt"]) == 2
    capsys.readouterr()


def test_main_term_budget_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIETOP_MAX_TERMS", "2")
    f = tmp_path / "big.lt"
    f.write_text(
        "generator a degree 0\ngenerator b degree 0\nwindow weight 5 degree 1\n"
        "word w = a b a b\n"
    )
    assert cli.main(["logword", "w", "--file", str(f)]) == 2
    err = capsys.readouterr().err
    assert "LIETOP_MAX_TERMS" in err
    # a cap that is not a positive integer is an input error, not the default
    cases = [("lots", ["homology", "--file", "torus"]), ("0", ["examples"]), ("-3", ["examples"])]
    for raw, argv in cases:
        monkeypatch.setenv("LIETOP_MAX_TERMS", raw)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"LIETOP_MAX_TERMS must be a positive integer, got '{raw}'" in err
    monkeypatch.delenv("LIETOP_MAX_TERMS")
    from lietop import freelie

    freelie._reset_term_limit_cache()


def test_examples_deterministic_in_process():
    code1, out1 = run(["examples"])
    code2, out2 = run(["examples"])
    assert code1 == code2 == 0
    assert out1 == out2
    for name in cli.BUILTIN_EXAMPLES:
        assert f"==== {name} ====" in out1


def test_examples_deterministic_subprocess():
    cmd = [sys.executable, "-m", "lietop", "examples"]
    r1 = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    r2 = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    assert r1.stdout == r2.stdout
    assert r1.stdout


def test_builtin_files_parse_and_build():
    for name in cli.BUILTIN_EXAMPLES:
        _, text = cli._load_source(name)
        pf = parse(text)
        if name == "lemaire28":
            model = build(pf, Window(3, 2))
        elif name == "anick29":
            model = build(pf, Window(4, 2))
        else:
            model = build(pf)
        assert model.attached.check_d_squared() == []


def test_command_output_deterministic():
    for args in (
        ["homology", "--file", "cp2", "--format", "records"],
        ["inert", "--file", "torus", "--format", "records"],
        ["sullivan", "--file", "cp2", "--window", "2", "6"],
    ):
        assert run(list(args)) == run(list(args))


def test_invalid_window_exit_2(capsys, tmp_path):
    assert cli.main(["homology", "--file", "torus", "--window", "0", "3"]) == 2
    assert "--window 0 3: max_weight must be >= 1" in capsys.readouterr().err
    path = tmp_path / "window0.lt"
    path.write_text("generator a degree 0\nwindow weight 0 degree 3\n")
    assert cli.main(["homology", "--file", str(path)]) == 2
    assert "line 2, col 1: max_weight must be >= 1" in capsys.readouterr().err


def test_missing_file_flag_exit_2(capsys):
    assert cli.main(["homology"]) == 2
    assert "--file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lcs", "--file", "wedge-circles", "--kmax", "0"], "--kmax must be at least 1, got 0"),
        (["lcs", "--file", "wedge-circles", "--kmax", "-2"], "--kmax must be at least 1, got -2"),
        (
            ["sullivan", "--file", "wedge-circles", "--max-wedge", "-1"],
            "--max-wedge must be at least 0, got -1",
        ),
        (["inert", "--file", "torus", "--order", "b", "a", "b"], "--order repeats generator b"),
    ],
)
def test_out_of_range_caps_exit_2(argv, message, capsys):
    # the caps used to print an empty table, and a repeated --order name to
    # let its last position win
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_zero_max_wedge_prints_wedge_zero_only():
    argv = ["sullivan", "--file", "wedge-circles", "--window", "2", "2", "--max-wedge", "0"]
    code, out = run([*argv, "--format", "records"])
    assert code == 0
    assert "sullivan.wedge.0.degree.0: 1" in out
    assert "sullivan.wedge.1." not in out


def test_lcs_builds_no_slice_and_takes_no_word_log(monkeypatch):
    # lcs counts super-Lyndon words, and wedge-circles' word cmt is unused
    def refuse(*args, **kwargs):
        raise AssertionError("lcs took the log of a group word")

    monkeypatch.setattr(freelie, "_slice_cache", {})
    monkeypatch.setattr(cli, "log_group_word", refuse)
    monkeypatch.setattr(freelie, "log_group_word", refuse)
    for stem, window in (("lcs-wedge-circles", []), ("lcs-wedge-circles-8-0", ["--window", "8", "0"])):
        code, out = run(["lcs", "--file", "wedge-circles", *window, "--format", "records"])
        assert code == 0
        assert out == (GOLDEN / f"{stem}.records").read_text()
    assert freelie._slice_cache == {}


def test_lcs_rejects_cells(capsys):
    assert cli.main(["lcs", "--file", "cp2"]) == 2
    assert "free presentation" in capsys.readouterr().err


def test_builtin_cell_targets_roundtrip():
    for name in cli.BUILTIN_EXAMPLES:
        _, text = cli._load_source(name)
        pf = parse(text)
        window = Window(4, 3)
        model = build(pf, window)
        for cell_name, target in model.amap.cells:
            rendered = format_lie(target, model.base.generators)
            back = eval_lie_expr(rendered, model.base.generators, target.window)
            assert back == target, (name, cell_name)


def test_run_inert_genus2():
    code, out = run(["inert", "--file", "genus2", "--window", "4", "3", "--format", "records"])
    assert code == 0
    assert "inert.status: inert-up-to-window" in out


def test_run_sullivan_wedge_table_for_free_model():
    code, out = run(
        ["sullivan", "--file", "wedge-circles", "--window", "2", "2",
         "--max-wedge", "2", "--format", "records"]
    )
    assert code == 0
    assert "sullivan.wedge.0.degree.0: 1" in out
    assert "sullivan.wedge.1.degree.1: 3" in out
