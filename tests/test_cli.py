import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from inclogic import cli, semantics
from inclogic.cli import main
from inclogic.semantics import max_subteam

CYCLE = """
universe: 0 1 2
relation </2: (0,1) (1,2) (2,0)
"""
LINE = """
universe: 0 1 2
relation </2: (0,1) (1,2) (0,2)
"""


@pytest.fixture
def files(tmp_path):
    cycle = tmp_path / "cycle.mod"
    cycle.write_text(CYCLE)
    line = tmp_path / "line.mod"
    line.write_text(LINE)
    empty = tmp_path / "empty.team"
    empty.write_text("<empty-domain>\n")
    return {"cycle": str(cycle), "line": str(line), "empty": str(empty),
            "tmp": tmp_path}


def test_eval_cycle_true(files, capsys):
    code = main(["eval", "--model", files["cycle"], "--team", files["empty"],
                 "--formula", "E x. E y. (y <= x & y < x)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_line_false(files, capsys):
    code = main(["eval", "--model", files["line"], "--team", files["empty"],
                 "--formula", "E x. E y. (y <= x & y < x)"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_engine_both(files):
    code = main(["eval", "--model", files["cycle"], "--team", files["empty"],
                 "--engine", "both",
                 "--formula", "E x. E y. (y <= x & y < x)"])
    assert code == 0


def test_eval_max_subteam(files, capsys):
    team = files["tmp"] / "t.team"
    team.write_text("x,y\n1,2\n2,1\n3,1\n")
    model = files["tmp"] / "m.mod"
    model.write_text("universe: 1 2 3\n")
    code = main(["--format", "records", "eval", "--model", str(model),
                 "--team", str(team), "--formula", "x <= y", "--max-subteam"])
    assert code == 1
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] is False
    assert sorted(map(tuple, record["max_subteam"])) == [("1", "2"), ("2", "1")]


def test_eval_records_mode(files, capsys):
    code = main(["--format", "records", "eval", "--model", files["cycle"],
                 "--team", files["empty"],
                 "--formula", "E x. E y. (y <= x & y < x)"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] is True


def test_eval_unbound_variable_errors(files, capsys):
    code = main(["eval", "--model", files["cycle"], "--team", files["empty"],
                 "--formula", "x = x"])
    assert code == 2


def test_parse_and_errors(files, capsys):
    assert main(["parse", "--formula", "x,y <= u,v"]) == 0
    assert main(["parse", "--formula", "x,y <= u"]) == 2


def test_nf(files, capsys):
    assert main(["nf", "--formula", "x <= y"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "E w. E u. A y1. w <= u & (w = x & u = y)"


def test_check_corpus_script(files, capsys, tmp_path):
    from inclogic.suites import corpus_scripts
    name, text = corpus_scripts()[0]
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert "accepted" in capsys.readouterr().out

    bad = tmp_path / "bad.ndp"
    bad.write_text("1: |- x = y by eqI(t = x)\nqed 1\n")
    assert main(["check", str(bad)]) == 1


def test_implies_exit_codes(files):
    assert main(["implies", "--gamma", "x<=y;y<=z", "--phi", "x<=z"]) == 0
    assert main(["implies", "--gamma", "x<=y", "--phi", "y<=x"]) == 1
    # one element can never falsify a goal atom: search exhausts, verdict unknown
    assert main(["implies", "--gamma", "x<=y", "--phi", "u<=v",
                 "--rows", "1", "--elems", "1"]) == 3
    assert main(["implies", "--gamma", "x<=", "--phi", "x<=x"]) == 2


def test_implies_unknown_shows_bounds(capsys):
    assert main(["--format", "records", "implies", "--gamma", "d,c <= e,e",
                 "--phi", "d <= c", "--rows", "4", "--elems", "2"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record == {"verdict": "unknown", "searched": {"rows": 4, "elems": 2}}


def test_implies_rejects_removed_options():
    for option in ("--depth", "--seed"):
        with pytest.raises(SystemExit) as exit_info:
            main(["implies", "--gamma", "x<=y", "--phi", "x<=y", option, "8"])
        assert exit_info.value.code == 2


def test_approx(files, capsys):
    code = main(["approx", "--formula", "A x. x = x",
                 "--model", files["cycle"], "--n", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "size:" in out and "approx-stable" in out
    assert main(["approx", "--formula", "x = x"]) == 2  # not a sentence


def test_approx_independent_subgames(files, capsys):
    code = main(["approx", "--model", files["cycle"], "--n", "2",
                 "--formula", "A a. A b. E c. (a <= c)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "level 2: true" in out and "approx-stable" in out


def test_approx_strong_with_model_is_an_error(files, capsys):
    """``--model`` plays the plain levels only, so with ``--strong`` it is
    refused instead of being dropped without a word."""
    model = files["tmp"] / "p.mod"
    model.write_text("universe: a b\nrelation P/1: (a)\n")
    code = main(["approx", "--formula", "A a. P(a)", "--model", str(model),
                 "--strong", "--n", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --model evaluates plain approximations only, not --strong\n"
    assert main(["approx", "--formula", "A a. P(a)", "--model", str(model), "--n", "1"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["--n", "20000"], "approximation needs 20001 levels > cap 4000"),
    (["--model", "CYCLE", "--cap", "20000"], "approximation needs 20001 levels > cap 4000"),
    (["--model", "CYCLE", "--cap", "-1"], "approximation level must be nonnegative"),
])
def test_approx_level_bounds(files, capsys, argv, message):
    """A form without witness atoms adds no block per level, so its level
    and cap are bounded on their own."""
    argv = [files["cycle"] if a == "CYCLE" else a for a in argv]
    code = main(["approx", "--formula", "E a. a = a", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_eval_long_conjunction(files, capsys):
    team = files["tmp"] / "x.team"
    team.write_text("x\n0\n1\n")
    code = main(["eval", "--model", files["cycle"], "--team", str(team),
                 "--formula", " & ".join(["x = x"] * 600)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_flat_conjunction_of_3000(files, capsys):
    team = files["tmp"] / "x.team"
    team.write_text("x\n0\n1\n")
    code = main(["eval", "--model", files["cycle"], "--team", str(team),
                 "--formula", " & ".join(["x = x"] * 3000)])
    assert (code, capsys.readouterr().out.strip()) == (0, "true")


@pytest.mark.parametrize("connective, engine",
                         [(" | ", "fast"), (" | ", "both"), (" & ", "both")])
def test_eval_flat_chain_of_3000(files, capsys, connective, engine):
    team = files["tmp"] / "x.team"
    team.write_text("x\n0\n1\n")
    code = main(["eval", "--model", files["cycle"], "--team", str(team), "--engine", engine,
                 "--formula", connective.join(["x = x"] * 3000)])
    assert (code, capsys.readouterr().out.strip()) == (0, "true")


def test_eval_grounding_budget(files, capsys, monkeypatch):
    monkeypatch.setattr(semantics, "MAX_ROWS", 20)
    code = main(["eval", "--model", files["cycle"], "--team", files["empty"],
                 "--formula", "E x. E y. E z. (y <= x & y < z)"])
    assert code == 2
    captured = capsys.readouterr()
    assert "grounding exceeds 20 rows" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("engine", ["fast", "both"])
def test_eval_max_subteam_runs_engine_once(files, capsys, monkeypatch, engine):
    calls = []

    def counted(*args):
        calls.append(args)
        return max_subteam(*args)

    monkeypatch.setattr(cli, "max_subteam", counted)
    monkeypatch.setattr(semantics, "max_subteam", counted)
    code = main(["eval", "--model", files["cycle"], "--team", files["empty"],
                 "--engine", engine, "--max-subteam",
                 "--formula", "E x. E y. (y <= x & y < x)"])
    assert code == 0 and len(calls) == 1
    assert capsys.readouterr().out.split("\n")[0] == "true"


def test_deep_nesting_is_an_error(capsys):
    code = main(["parse", "--formula", "(" * 1200 + "bot" + ")" * 1200])
    assert code == 2
    captured = capsys.readouterr()
    assert "nested too deeply" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_corpus_quick(files, capsys):
    assert main(["corpus", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9


def test_eval_oversized_team_field(files, capsys):
    team = files["tmp"] / "long.team"
    team.write_text("x\n" + "0" * 140_000 + "\n")
    code = main(["eval", "--model", files["cycle"], "--team", str(team), "--formula", "x = x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: team file is not valid CSV:"
                            " field larger than field limit (131072)\n")


@pytest.mark.parametrize("argv", [
    ["parse", "--formula-file", "BAD"],
    ["eval", "--model", "BAD", "--team", "TEAM", "--formula", "x = x"],
    ["eval", "--model", "MODEL", "--team", "BAD", "--formula", "x = x"],
    ["nf", "--formula", "x <= y", "--model", "BAD"],
    ["approx", "--formula-file", "BAD"],
    ["check", "BAD"],
    ["check", "SCRIPT", "--model", "BAD"],
])
def test_file_that_is_not_utf8(files, capsys, argv):
    bad = files["tmp"] / "bad.txt"
    bad.write_bytes(b"\xff\xfe\n")
    team = files["tmp"] / "x.team"
    team.write_text("x\n0\n")
    script = files["tmp"] / "s.ndp"
    script.write_text("1: x = x assume\nqed 1\n")
    paths = {"BAD": str(bad), "TEAM": str(team), "MODEL": files["cycle"],
             "SCRIPT": str(script)}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot read {str(bad)!r} as UTF-8:")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("model, message", [
    ("universe: 0 1\nrelation R/1: (0)\nrelation R/1: (1)",
     "line 3: relation 'R' declared twice"),
    ("universe: 0 1\nrelation R/1: (0)\nrelation R/2: (0,1)",
     "line 3: relation 'R' declared twice"),
    ("universe: 0 1\nconstant c: 0\nconstant c: 1", "line 3: constant 'c' declared twice"),
    ("universe: 0 1\nfunction f/1: (0)->0 (0)->1 (1)->0",
     "line 2: entry '(0)->1' repeats the arguments ('0',)"),
    ("universe: a b\nuniverse: 0 1", "line 2: universe declared twice"),
])
def test_eval_repeated_declaration(files, capsys, model, message):
    path = files["tmp"] / "m.mod"
    path.write_text(model + "\n")
    team = files["tmp"] / "x.team"
    team.write_text("x\n0\n1\n")
    code = main(["eval", "--model", str(path), "--team", str(team), "--formula", "x = x"])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


# ---------------------------------------------------------------------------
# Fuzz: random argv and file contents through main

_CORPUS = Path(cli.__file__).parent / "proofs" / "corpus"
_TEXT = st.text(st.sampled_from(list("abxyzPR01(),.<=~&|[]E A:/->\n#\"")), max_size=40)
_FORMULA = st.one_of(st.sampled_from([
    "E x. E y. (y <= x & y < x)", "A a. E b. R(a,b)", "A a. A b. E c. (a <= c)",
    "x <= y", "x,y ups z", "snot P(x)", "[f(x)] <= [c]", "E x. P(x) | ~P(x)", "bot",
    "x = y & ~x = y", "E x. (", "A x. x <= ", "~(E x. x <= y)", "R(x)",
]), _TEXT)


def _file(*samples):
    """File contents: one of the samples (half the time), random text or
    random bytes."""
    sample = st.sampled_from(samples)
    return st.one_of(sample, sample, _TEXT, st.binary(max_size=20)).map(
        lambda c: c if isinstance(c, bytes) else c.encode())


_MODEL = _file(CYCLE, LINE, "universe: a b\nrelation P/1: (a)\nrelation R/2: (a,b) (b,a)\n",
               "universe: a b\nrelation P/1: (a)\nconstant P: a\n", "universe: a\n",
               "universe: a b\nfunction f/1: (a)->b (b)->a\nconstant c: a\n")
_TEAM = _file("x,y\n0,1\n1,2\n", "x\n0\n\n", "<empty-domain>\n", "x,,y\n", "x\n\"\n",
              "y\n0\n2\n")
_SCRIPT = _file(*(p.read_text() for p in sorted(_CORPUS.glob("*.ndp"))[:6]))
_NUMBER = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5", ""]))
_FORMULA_ARG = st.one_of(st.tuples(st.just("--formula"), _FORMULA),
                         st.tuples(st.just("--formula-file"), _file("x <= y", "A a. P(a)")))
# per command: arguments it needs, each left out now and then, and options
_ARGS = {
    "parse": ([_FORMULA_ARG], [("--model", _MODEL)]),
    "eval": ([_FORMULA_ARG, st.tuples(st.just("--model"), _MODEL),
              st.tuples(st.just("--team"), _TEAM)],
             [("--engine", st.sampled_from(["naive", "fast", "both", "z"])),
              ("--max-subteam", None), ("--max-rows", _NUMBER),
              ("--max-universe", _NUMBER), ("--max-depth", _NUMBER)]),
    "nf": ([_FORMULA_ARG], [("--model", _MODEL)]),
    "approx": ([_FORMULA_ARG], [("--model", _MODEL), ("--n", _NUMBER), ("--strong", None),
                                ("--cap", _NUMBER), ("--stable-bound", _NUMBER)]),
    "check": ([_SCRIPT.map(lambda c: (c,))], [("--model", _MODEL)]),
    "implies": ([st.tuples(st.just("--phi"), st.sampled_from(["x<=z", "y<=x", "x", "u<=v"]))],
                [("--gamma", st.sampled_from(["x<=y;y<=z", "x,y<=y,x", "d,c <= e,e", "",
                                              "x<=", ";"])),
                 ("--rows", _NUMBER), ("--elems", _NUMBER)]),
}


@st.composite
def _invocations(draw):
    """An argv for main, in which each file's contents stand for its path."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    needed, options = _ARGS[command]
    argv = ["--format", draw(st.sampled_from(["text", "records"]))] if draw(st.booleans()) else []
    argv.append(command)
    for arg in needed:
        if draw(st.integers(0, 9)):
            argv += draw(arg)
    for flag, kind in draw(st.lists(st.sampled_from(options), max_size=4)):
        argv += [flag] if kind is None else [flag, draw(kind)]
    return argv


@given(_invocations())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fuzz_never_crashes(argv):
    """No argv and no file contents make main print a traceback or return an
    exit code outside 0-3."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, arg in enumerate(argv):
            if isinstance(arg, bytes):
                path = os.path.join(tmp, f"f{i}")
                with open(path, "wb") as handle:
                    handle.write(arg)
                arg = path
            args.append(arg)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as e:  # argparse: usage errors exit 2
                code = e.code
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), args
