import re

import pytest
from hypothesis import example, given, settings, strategies as st

from inclogic.parser import parse_formula
from inclogic.proofs import (
    RuleApp,
    RuleError,
    ScriptError,
    Sequent,
    apply_rule,
    check_script,
    check_text,
    derived_raa_weakneg,
    format_script,
    mutants,
    parse_script,
)
from inclogic.proofs import script as script_module
from inclogic.proofs.transform import TransformError
from inclogic.suites import corpus_scripts
from inclogic.syntax import (
    EMPTY_SIGNATURE,
    Const,
    Equals,
    Var,
    weak_neg_of,
)

def f(text, sig=EMPTY_SIGNATURE):
    return parse_formula(text, sig)


def seq(ctx_texts, concl_text, sig=EMPTY_SIGNATURE):
    return Sequent(frozenset(f(t, sig) for t in ctx_texts), f(concl_text, sig))


class TestApplyRule:
    def test_transitivity(self):
        out = apply_rule(RuleApp("incTrs"),
                         [seq([], "x <= y"), seq([], "y <= z")])
        assert out == seq([], "x <= z")

    def test_forallE_rejects_non_fo_body(self):
        premise = seq([], "A x. (y <= x)")
        with pytest.raises(RuleError, match="first-order"):
            apply_rule(RuleApp("forallE", {"t": Var("z")}), [premise])

    def test_orE_condition_2(self):
        major = seq([], "x = x | y = y")
        d0 = seq(["x = x", "u <= v"], "x = x")
        d1 = seq(["y = y"], "x = x")
        with pytest.raises(RuleError, match=r"condition \(2\)"):
            apply_rule(RuleApp("orE"), [major, d0, d1])

    def test_raa_classical_instance(self):
        premise = seq(["~~x = y", "~x = y"], "bot")
        out = apply_rule(RuleApp("RAA", {"alpha": f("x = y")}), [premise])
        assert out == seq(["~~x = y"], "x = y")

    def test_raa_rejects_inc_context(self):
        premise = seq(["u <= v", "~x = y"], "bot")
        with pytest.raises(RuleError, match=r"condition \(1\)"):
            apply_rule(RuleApp("RAA", {"alpha": f("x = y")}), [premise])

    def test_forallI_eigenvariable(self):
        premise = seq(["x = y"], "x = y")
        with pytest.raises(RuleError, match=r"condition \(4\)"):
            apply_rule(RuleApp("forallI", {"var": "x"}), [premise])

    def test_existsE_eigenvariable_in_conclusion(self):
        ex = seq([], "E x. x = y")
        d = seq(["x = y"], "x = y")
        with pytest.raises(RuleError, match=r"condition \(3\)"):
            apply_rule(RuleApp("existsE"), [ex, d])

    def test_incWex_condition_3(self):
        premise = seq([], "x <= y")
        with pytest.raises(RuleError, match=r"condition \(3\)"):
            apply_rule(RuleApp("incWex", {"fresh": "x", "pad": "z"}), [premise])

    def test_incCmp_pivot_closure(self):
        # a schematic formula with a stray free variable must be rejected
        inc = seq([], "y1 <= x1")
        inst = seq([], "x1 = x1")
        app = RuleApp("incCmp", {"alpha": f("p = x1"), "pivots": ("p",)})
        with pytest.raises(RuleError, match=r"condition \(1\)"):
            apply_rule(app, [inc, inst])

    def test_incSim_fresh_sequence(self):
        premise = seq([], "A v. (v = z)")
        app = RuleApp("incSim_fwd", {"count": 1, "zseq": ("z",), "yseq": ("z",)})
        with pytest.raises(RuleError, match=r"condition \(4\)"):
            apply_rule(premise and app, [premise])

    def test_incExt_freshness(self):
        premise_f = f("(E w1. (w1 <= w1 & w1 = z)) | z = z")
        premise = Sequent(frozenset((premise_f,)), premise_f)
        app = RuleApp("incExt", {"nvars": 1, "natoms": 1, "u": "z", "v": "q"})
        with pytest.raises(RuleError, match=r"condition \(5\)"):
            apply_rule(app, [premise])

    def test_unknown_rule(self):
        with pytest.raises(RuleError, match="unknown rule"):
            apply_rule(RuleApp("modusPonens"), [])

    def test_arity_mismatch(self):
        with pytest.raises(RuleError, match="premises"):
            apply_rule(RuleApp("andI"), [seq([], "x = x")])


class TestCheckScript:
    def test_rejects_wrong_stated_sequent(self):
        text = """
1: |- x = x by eqI(t = x)
2: |- y = y by andE_l from 1
qed 2
"""
        report = check_text(text)
        assert not report.accepted

    def test_alpha_conversion_not_implicit(self):
        text = """
1: A x. (x = v) assume
2: A x. (x = v) |- A y. (y = v) by forallE0 from 1
qed 2
"""
        assert not check_text(text).accepted

    def test_premise_must_precede(self):
        text = """
1: |- x = x by andE_l from 2
2: x = x assume
qed 1
"""
        with pytest.raises(Exception):
            parse_script(text)

    def test_claim_is_qed_line(self):
        report = check_text("1: x = x assume\nqed 1\n")
        assert report.accepted
        assert report.claim == seq(["x = x"], "x = x")

    def test_deterministic(self):
        name, text = corpus_scripts()[0]
        r1 = check_script(parse_script(text))
        r2 = check_script(parse_script(text))
        assert r1 == r2


class TestCorpus:
    def test_every_script_accepted(self):
        scripts = corpus_scripts()
        assert len(scripts) >= 15
        for name, text in scripts:
            report = check_script(parse_script(text))
            assert report.accepted, f"{name}: {report.failures()}"

    def test_mutants_rejected(self):
        total = 0
        for name, text in corpus_scripts():
            script = parse_script(text)
            for mutant in mutants(script):
                total += 1
                assert not check_script(mutant.script).accepted, \
                    f"{name}: {mutant.description}"
                # every mutant prints, and its printed form is still rejected
                again = parse_script(format_script(mutant.script), script.sig)
                assert not check_script(again).accepted, \
                    f"{name}: printed {mutant.description}"
        assert total >= 100


class TestScriptMemo:
    """parse_script parses each distinct formula text once per signature."""

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        calls = []

        def counted(text, sig):
            calls.append(text)
            return parse_formula(text, sig)

        monkeypatch.setattr(script_module, "parse_formula", counted)
        parse_script("1: x = x assume\n2: x = x |- x = x by andE_l(phi = x = x) from 1\n"
                     "qed 2\n")
        assert calls == ["x = x"]

    def test_sig_line_clears_the_memo(self):
        text = "1: c = c assume\nsig: constant c\n2: c = c assume\nqed 2\n"
        first, second = parse_script(text).steps
        assert first.sequent.conclusion == Equals(Var("c"), Var("c"))
        assert second.sequent.conclusion == Equals(Const("c"), Const("c"))

    def test_text_valid_before_a_sig_line_fails_after_it(self):
        text = "1: A c. c = c assume\nsig: constant c\n2: A c. c = c assume\nqed 2\n"
        with pytest.raises(ScriptError, match="not a variable") as info:
            parse_script(text)
        assert info.value.lineno == 3

    def test_bad_formula_on_a_repeated_context_line(self):
        text = """1: x = x assume
2: x = x; y <= z |- x = x by andE_l from 1
3: x = x; y <= z |- x = x by andE_l from 1
4: x = x; y <= z; y <= $ |- x = x by andE_l from 1
qed 4
"""
        with pytest.raises(ScriptError, match="^line 4: unexpected character") as info:
            parse_script(text)
        assert info.value.lineno == 4

    def test_memo_matches_parsing_each_text_on_its_own(self, monkeypatch):
        texts = []
        for _, text in corpus_scripts():
            script = parse_script(text)
            texts.append((text, EMPTY_SIGNATURE))
            texts.extend((format_script(m.script), script.sig) for m in mutants(script))
        memoised = [parse_script(text, sig) for text, sig in texts]
        monkeypatch.setattr(script_module, "_formula",
                            lambda text, sig, parsed: parse_formula(text, sig))
        assert memoised == [parse_script(text, sig) for text, sig in texts]


class TestDerivedRaa:
    def _input_script(self):
        text = """
1: ~~u = v assume
2: E y. E y1. (y,y1 <= u,v & ~y = y1) assume
3: E y1. (y,y1 <= u,v & ~y = y1) assume
4: y,y1 <= u,v & ~y = y1 assume
5: y,y1 <= u,v & ~y = y1 |- y,y1 <= u,v by andE_l from 4
6: y,y1 <= u,v & ~y = y1 |- ~y = y1 by andE_r from 4
7: ~u = v assume
8: ~~u = v; ~u = v |- bot by negE(phi = bot) from 7, 1
9: ~~u = v |- u = v by RAA(alpha = u = v) from 8
10: ~~u = v; y,y1 <= u,v & ~y = y1 |- y = y1 by incCmp(alpha = p = q; pivots = p, q) from 5, 9
11: ~~u = v; y,y1 <= u,v & ~y = y1 |- bot by negE(phi = bot) from 10, 6
12: ~~u = v; E y1. (y,y1 <= u,v & ~y = y1) |- bot by existsE from 3, 11
13: ~~u = v; E y. E y1. (y,y1 <= u,v & ~y = y1) |- bot by existsE from 2, 12
qed 13
"""
        return parse_script(text)

    def test_transform_checks(self):
        script = self._input_script()
        out = derived_raa_weakneg(script, f("u = v"))
        report = check_script(out)
        assert report.accepted
        assert report.claim == seq(["~~u = v"], "u = v")
        # and the emitted concrete syntax round-trips
        assert check_script(parse_script(format_script(out))).accepted

    def test_rejects_non_fo(self):
        with pytest.raises(TransformError):
            derived_raa_weakneg(self._input_script(), f("u <= v"))

    def test_rejects_unaccepted_input(self):
        bad = parse_script("1: x = x assume\nqed 1\n")
        with pytest.raises(TransformError):
            derived_raa_weakneg(bad, f("u = v"))

    def test_sentence_alpha_rejected(self):
        with pytest.raises(TransformError):
            derived_raa_weakneg(self._input_script(), f("E x. x = x"))


def test_weak_neg_shape():
    weak = weak_neg_of(f("u = v"))
    assert weak == f("E y. E y1. (y,y1 <= u,v & ~y = y1)")


# ---------------------------------------------------------------------------
# parse_script's error contract: every raise site, with its exact message and
# line number

_A = "1: x = x assume\n"
SCRIPT_ERRORS = [
    # sig directive
    ("sig: relation R\n" + _A + "qed 1\n", "line 1: bad signature directive 'sig: relation R'", 1),
    ("sig: relation R/2\nsig: relation R/1\n" + _A + "qed 1\n",
     "line 2: relation 'R' declared with two arities", 2),
    ("sig: function f/1\nsig: function f/2\n" + _A + "qed 1\n",
     "line 2: function 'f' declared with two arities", 2),
    # qed
    (_A + "qed\n", "line 2: qed needs a step id", 2),
    (_A + "qed 1\nqed 1\n", "line 3: duplicate qed line", 3),
    (_A + "qed 1\n2: x = x assume\n", "line 3: steps after the qed line", 3),
    (_A, "missing final qed line", None),
    (_A + "qed 2\n", "qed refers to unknown step '2'", None),
    # step id
    ("1 x = x assume\nqed 1\n", "line 1: expected '<id>: ...', got '1 x = x assume'", 1),
    (_A + "1: y = y assume\nqed 1\n", "line 2: duplicate step id '1'", 2),
    # rule
    (_A + "2: x = x |- x = x from 1\nqed 2\n",
     "line 2: expected '... by rule(params) [from ids]'", 2),
    (_A + "2: x = x |- x = abby andE_l from 1\nqed 2\n",
     "line 2: expected '... by rule(params) [from ids]'", 2),
    (_A + "2: x = x |- x = x by nosuch from 1\nqed 2\n", "line 2: unknown rule 'nosuch'", 2),
    # |-
    (_A + "2: x = x by andE_l from 1\nqed 2\n", "line 2: expected 'context |- formula'", 2),
    # premise order
    (_A + "2: x = x |- x = x by andE_l from 3\nqed 2\n",
     "line 2: premise '3' does not precede its use", 2),
    # parameters, by kind
    (_A + "2: x = x |- x = x by andE_l(phi) from 1\nqed 2\n", "line 2: bad parameter 'phi'", 2),
    (_A + "2: x = x |- x = x by andE_l(= x = x) from 1\nqed 2\n",
     "line 2: bad parameter '= x = x'", 2),
    (_A + "2: x = x |- x = x by andE_l(nosuch = x) from 1\nqed 2\n",
     "line 2: unknown parameter 'nosuch'", 2),
    (_A + "2: x = x |- x = x by andE_l(t = f(x)) from 1\nqed 2\n",
     "line 2: unexpected trailing input '(' at position 1: ...'(x)'", 2),
    (_A + "2: x = x |- x = x by andE_l(phi = x =) from 1\nqed 2\n",
     "line 2: expected a term, found '' at position 3: ...''", 2),
    (_A + "2: x = x |- x = x by andE_l(add = (x) from 1\nqed 2\n",
     "line 2: expected '=', '<', '<=', ',' or 'ups' after term, found '' at position 2: ...''",
     2),
    (_A + "2: x = x |- x = x by andE_l(var = 1x) from 1\nqed 2\n",
     "line 2: parameter 'var' must be a variable", 2),
    (_A + "2: x = x |- x = x by andE_l(pivots = x,,y) from 1\nqed 2\n",
     "line 2: parameter 'pivots' must be a variable sequence", 2),
    (_A + "2: x = x |- x = x by andE_l(keep = -1) from 1\nqed 2\n",
     "line 2: parameter 'keep' must be an integer", 2),
    # formula errors: an assumption, a context formula, a conclusion
    ("1: x = assume\nqed 1\n", "line 1: expected a term, found '' at position 3: ...''", 1),
    (_A + "2: x = x; y <= |- x = x by andE_l from 1\nqed 2\n",
     "line 2: expected a variable, found '' at position 4: ...''", 2),
    (_A + "2: x = x |- x = $ by andE_l from 1\nqed 2\n",
     "line 2: unexpected character at position 3: ...' $'", 2),
]


@pytest.mark.parametrize("text, message, lineno", SCRIPT_ERRORS)
def test_script_error_message(text, message, lineno):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert (str(info.value), info.value.lineno) == (message, lineno)


# the step-line rule pattern as first written, with a leading \b
_RULE_RE_WITH_B = re.compile(
    r"\bby\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(?:from\s+([A-Za-z0-9_,\s]*))?$"
)
_RULE_LINE = st.lists(st.sampled_from(
    ["by", "by", "b", "y", "aby", "éby", "_by", " ", " ", "\t", "\n", "(", ")", "from",
     "1", ",", "x", "andE_l", "|-", "=", ";", "é", "-", "x = x"]), max_size=14).map("".join)


@given(_RULE_LINE)
@example("E x. xby andE_l from 1 by andE_r")
@settings(max_examples=1000, deadline=None)
def test_rule_pattern_matches_the_leading_boundary_form(line):
    old = _RULE_RE_WITH_B.search(line)
    new = script_module._RULE_RE.search(line)
    assert (old and (old.span(), old.groups())) == (new and (new.span(), new.groups()))
