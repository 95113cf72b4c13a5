import gc
import inspect
import itertools
import random
import re
import sys
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from inclogic.models import parse_model, parse_team
from inclogic.normalform import normal_form
from inclogic.parser import ParseError, parse_formula, parse_term
from inclogic.semantics import eval_fast, eval_naive
from inclogic.suites import SUITE_SIG, gen_formula, oracle_stream
from inclogic.syntax import (
    And,
    Anonymity,
    App,
    Bottom,
    CaptureError,
    Const,
    EMPTY_SIGNATURE,
    Equals,
    Exists,
    Forall,
    FormulaError,
    Inclusion,
    Not,
    Or,
    Relation,
    Signature,
    TermInclusion,
    Var,
    WeakNeg,
    alpha_equivalent,
    conj,
    desugar,
    exists_seq,
    free_vars,
    operands,
    is_first_order,
    pretty,
    quantifier_depth,
    rename_bound,
    subformulas,
    substitute,
    substitute_parallel,
    term_vars,
)

SIG = SUITE_SIG


def parse(text, sig=SIG):
    return parse_formula(text, sig)


class TestParse:
    def test_inclusion_atom(self):
        assert parse("x,y <= u,v") == Inclusion(("x", "y"), ("u", "v"))

    def test_negation_requires_first_order(self):
        with pytest.raises(ParseError):
            parse("~(E x. x <= y)")

    def test_anonymity_desugars(self):
        f = parse("x,y ups z")
        expected = Exists(
            "v",
            And(Inclusion(("x", "y", "v"), ("x", "y", "z")),
                Not(Equals(Var("v"), Var("z")))),
        )
        assert f == expected

    def test_precedence(self):
        f = parse("~x = y & u = v | bot")
        assert isinstance(f, Or)
        assert isinstance(f.left, And)
        assert isinstance(f.left.left, Not)

    def test_quantifier_scopes_right(self):
        f = parse("E x. x = y & y = y")
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_relation_arity_checked(self):
        with pytest.raises(ParseError):
            parse("R(x)")

    def test_unequal_inclusion_sides(self):
        with pytest.raises(ParseError):
            parse("x,y <= u")

    def test_functions_and_constants(self):
        sig = Signature({}, {"f": 1}, frozenset(("c",)))
        f = parse_formula("f(c) = x", sig)
        assert f == Equals(App("f", (Const("c"),)), Var("x"))

    def test_reserved_words(self):
        with pytest.raises(ParseError):
            parse("E = x")

    def test_infix_lt_needs_declaration(self):
        with pytest.raises(ParseError):
            parse_formula("x < y", EMPTY_SIGNATURE)
        sig = Signature({"<": 2}, {}, frozenset())
        assert parse_formula("x < y", sig) == Relation("<", (Var("x"), Var("y")))


_LT_SIG = Signature({"<": 2, "R": 2}, {"f": 1}, frozenset(("c",)))
_R_SIG = Signature({"R": 2}, {}, frozenset())

# (signature, text, message, position): each ParseError's exact text and offset
PARSE_ERRORS = [
    (_LT_SIG, "x = y  $", "unexpected character at position 5: ...'  $'", 5),
    (_LT_SIG, "x = y$", "unexpected character at position 5: ...'$'", 5),
    (_LT_SIG, "x = y &", "expected a formula, found '' at position 7: ...''", 7),
    (_LT_SIG, "< (x, y)", "expected a formula, found '<' at position 0: ...'< (x, y)'", 0),
    (_LT_SIG, "E bot. x = x", "'bot' is a reserved word at position 2: ...'bot. x = x'", 2),
    (_LT_SIG, "x <= ups", "'ups' is a reserved word at position 5: ...'ups'", 5),
    (_LT_SIG, "A c. x = x",
     "'c' is not a variable in this signature at position 2: ...'c. x = x'", 2),
    (_LT_SIG, "R(x, R)", "relation 'R' used as a term at position 5: ...'R)'", 5),
    (_LT_SIG, "R(x)", "relation 'R' expects 2 arguments, got 1 at position 0: ...'R(x)'", 0),
    (_LT_SIG, "f(x, y) = x",
     "function 'f' expects 1 arguments, got 2 at position 8: ...'= x'", 8),
    (_LT_SIG, "x = y y", "unexpected trailing input 'y' at position 6: ...'y'", 6),
    (_LT_SIG, "(x = y))", "unexpected trailing input ')' at position 7: ...')'", 7),
    (_R_SIG, "x < y",
     "infix '<' used but relation '<' is not declared at position 4: ...'y'", 4),
    (_LT_SIG, "x, y <= z",
     "inclusion atom sides must have equal length at position 9: ...''", 9),
    (_LT_SIG, "[x, c] <= [y]",
     "term inclusion sides must have equal length at position 13: ...''", 13),
    (_LT_SIG, "[x] = [y]", "expected '<=', found '=' at position 4: ...'= [y]'", 4),
    (_LT_SIG, "c <= x", "inclusion and anonymity atoms take variables only;"
     " use [..] <= [..] for terms at position 2: ...'<= x'", 2),
    (_LT_SIG, "", "expected a formula, found '' at position 0: ...''", 0),
    (_LT_SIG, "   ", "expected a formula, found '' at position 3: ...''", 3),
]


@pytest.mark.parametrize("sig, text, message, pos", PARSE_ERRORS)
def test_parse_error_message_and_position(sig, text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_formula(text, sig)
    assert (str(info.value), info.value.pos) == (message, pos)


class TestFreeVars:
    def test_inclusion_clause(self):
        assert free_vars(parse("x <= y")) == {"x", "y"}

    def test_binder_removes(self):
        assert free_vars(parse("A x. x <= y")) == {"y"}

    def test_bottom(self):
        assert free_vars(Bottom()) == frozenset()


def _walk_metadata(f):
    """Free variables, first-order flag and quantifier depth by a recursive
    walk: the reference for the values a node stores."""
    if isinstance(f, Bottom):
        return frozenset(), True, 0
    if isinstance(f, (Equals, Relation)):
        terms = (f.left, f.right) if isinstance(f, Equals) else f.args
        return frozenset().union(*map(term_vars, terms)), True, 0
    if isinstance(f, Inclusion):
        return frozenset(f.lhs + f.rhs), False, 0
    if isinstance(f, Not):
        return _walk_metadata(f.body)
    if isinstance(f, (And, Or)):
        (fv_l, fo_l, d_l), (fv_r, fo_r, d_r) = _walk_metadata(f.left), _walk_metadata(f.right)
        return fv_l | fv_r, fo_l and fo_r, max(d_l, d_r)
    fv, fo, d = _walk_metadata(f.body)
    return fv - {f.var}, fo, d + 1


class TestNodeMetadata:
    def test_matches_a_recursive_walk(self):
        rng = random.Random(7)
        for _ in range(2000):
            f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 12))
            assert (free_vars(f), is_first_order(f), quantifier_depth(f)) == _walk_metadata(f)
            a, b = parse(pretty(f)), parse(pretty(f))
            assert a == b and a is not b and hash(a) == hash(b)

    def test_repr_and_equality_ignore_metadata(self):
        f = parse("E x. x <= y")
        assert repr(f) == "Exists(var='x', body=Inclusion(lhs=('x',), rhs=('y',)))"
        assert f != parse("E x. y <= x")

    def test_deep_conjunction(self):
        f = parse(" & ".join(["x = x"] * 5000))
        assert hash(f) == hash(parse(" & ".join(["x = x"] * 5000)))
        assert free_vars(f) == {"x"} and is_first_order(f) and quantifier_depth(f) == 0
        assert sum(1 for _ in subformulas(f)) == 9999

    def test_deep_equality(self):
        a = parse(" & ".join(["x = x"] * 2000))
        assert a == parse(" & ".join(["x = x"] * 2000))
        assert a != parse(" & ".join(["x = x"] * 1999 + ["x = y"]))

    def test_formula_freed_once_dropped(self):
        # no cache anywhere holds a formula after its last user lets go
        model = parse_model("universe: 0 1\nrelation P/1: (0)\nrelation R/2: (0,1)")
        team = parse_team("x\n0\n1\n")
        f = parse("E z. (z <= x & R(x, z)) | P(x)", model.sig)
        eval_fast(model, team, f)
        eval_naive(model, team, f)
        normal_form(f)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None


class TestSubstitute:
    def test_basic(self):
        sig = Signature({}, {}, frozenset(("c",)))
        f = parse_formula("x = y", sig)
        assert substitute(f, "x", Const("c")) == parse_formula("c = y", sig)

    def test_capture_rejected(self):
        f = parse("E y. x = y")
        with pytest.raises(CaptureError) as err:
            substitute(f, "x", Var("y"))
        assert err.value.binder == "y"

    def test_inclusion_needs_variables(self):
        f = parse("x <= y")
        with pytest.raises(FormulaError):
            substitute(f, "x", App("f", (Var("z"),)))

    def test_variable_rename_in_inclusion(self):
        assert substitute(parse("x <= y"), "x", Var("z")) == parse("z <= y")

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_free_vars_after_substitution(self, seed):
        rng = random.Random(seed)
        f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 8))
        if "x" not in free_vars(f):
            return
        try:
            g = substitute(f, "x", Var("t"))
        except FormulaError:
            return
        assert free_vars(g) == (free_vars(f) - {"x"}) | {"t"}


class TestRenameBound:
    def test_spec_examples(self):
        f = parse("(E x. x = x) & (E x. x = x)")
        g = rename_bound(f)
        assert g == parse("(E x. x = x) & (E x1. x1 = x1)")

        f = parse("A x. E x. x = x")
        assert rename_bound(f) == parse("A x. E x1. x1 = x1")

    def test_respects_reserved(self):
        f = parse("E x. x = y")
        g = rename_bound(f, reserved={"x"})
        assert isinstance(g, Exists) and g.var == "x1"

    def test_alpha_equivalent(self):
        f = parse("E x. A y. (x = y | x <= y)")
        assert alpha_equivalent(f, rename_bound(f, reserved={"x", "y"}))

    def test_semantically_equivalent(self):
        from inclogic.semantics import eval_fast
        from inclogic.suites import gen_model, gen_team

        rng = random.Random(19)
        for _ in range(300):
            f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 9))
            g = rename_bound(f, reserved={"x", "y", "z"})
            model = gen_model(rng, max_size=3)
            team = gen_team(rng, model, ("x", "y", "z"), max_rows=6)
            assert eval_fast(model, team, f) == eval_fast(model, team, g)


class TestDesugar:
    def test_term_inclusion(self):
        sig = Signature({}, {"f": 1}, frozenset(("c",)))
        f = desugar(TermInclusion((App("f", (Var("x"),)),), (Const("c"),)),
                    reserved=sig.names())
        assert f == parse_formula("E u. E w. (u = f(x) & w = c & u <= w)", sig)

    def test_anonymity_empty_left(self):
        f = desugar(Anonymity((), ("y",)))
        assert f == parse("E v. (v <= y & ~v = y)")

    def test_anonymity_empty_right(self):
        assert desugar(Anonymity(("x",), ())) == Bottom()

    def test_weak_neg_sentence(self):
        f = desugar(WeakNeg(parse("E x. x = x")))
        assert f == Not(parse("E x. x = x"))

    def test_equal_length_invariant(self):
        for form in (
            TermInclusion((Var("x"), Var("y")), (Var("u"), Var("v"))),
            Anonymity(("x",), ("y", "z")),
            WeakNeg(parse("x = y")),
        ):
            for sub in subformulas(desugar(form)):
                if isinstance(sub, Inclusion):
                    assert len(sub.lhs) == len(sub.rhs) > 0


class TestPretty:
    def test_spec_examples(self):
        assert pretty(Inclusion(("x",), ("y",))) == "x <= y"
        assert pretty(Bottom()) == "bot"
        assert pretty(parse("E x. x = x")) == "E x. x = x"

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, seed):
        rng = random.Random(seed)
        f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 12))
        assert alpha_equivalent(f, parse(pretty(f)))

    def test_roundtrip_bulk(self):
        rng = random.Random(42)
        for _ in range(10_000):
            f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 12))
            assert alpha_equivalent(f, parse(pretty(f)))


# ---------------------------------------------------------------------------
# The node contract: frozen fields, the dataclass repr, equal nodes hashing
# alike, and construction without recursion

_TERM_SIG = Signature({"P": 1, "R": 2}, {"f": 1}, frozenset(("c",)))
_X, _Y = Var("x"), Var("y")

# one node of each kind, with its repr
NODE_REPRS = [
    (Bottom(), "Bottom()"),
    (Equals(_X, Const("c")), "Equals(left=Var(name='x'), right=Const(name='c'))"),
    (Relation("R", (_X, App("f", (_Y,)))),
     "Relation(name='R', args=(Var(name='x'), App(func='f', args=(Var(name='y'),))))"),
    (Not(Bottom()), "Not(body=Bottom())"),
    (And(Bottom(), Bottom()), "And(left=Bottom(), right=Bottom())"),
    (Or(Bottom(), Bottom()), "Or(left=Bottom(), right=Bottom())"),
    (Exists("x", Bottom()), "Exists(var='x', body=Bottom())"),
    (Forall("x", Bottom()), "Forall(var='x', body=Bottom())"),
    (Inclusion(("x",), ("y",)), "Inclusion(lhs=('x',), rhs=('y',))"),
    (TermInclusion((_X,), (Const("c"),)),
     "TermInclusion(lhs=(Var(name='x'),), rhs=(Const(name='c'),))"),
    (Anonymity(("x",), ("y",)), "Anonymity(lhs=('x',), rhs=('y',))"),
    (WeakNeg(Bottom()), "WeakNeg(body=Bottom())"),
]


class TestNodeContract:
    @pytest.mark.parametrize("node, text", NODE_REPRS)
    def test_repr(self, node, text):
        assert repr(node) == text

    @pytest.mark.parametrize("node", [node for node, _ in NODE_REPRS])
    def test_fields_are_frozen(self, node):
        for name in [*node._compared, "_hash", "_free_vars", "_first_order", "_depth"]:
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, None)

    @given(st.integers(0, 10**6), st.sampled_from(["t", "c", "f(t)", "f(c)", "f(f(y))"]))
    @settings(max_examples=300, deadline=None)
    def test_equal_nodes_hash_alike(self, seed, term_text):
        """Each formula is built by the parser and by substitution, desugaring
        or the kernel constructors; the two builds are equal, and equal nodes
        hash alike."""
        rng = random.Random(seed)
        f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 10), sig=_TERM_SIG)
        # bound variables apart from the free ones, so replacing the text
        # ``x`` replaces exactly its free occurrences
        f = rename_bound(f, reserved={"x", "y", "z", "t"})
        text = pretty(f)
        pairs = [(parse_formula(text, _TERM_SIG), f)]
        try:
            by_text = parse_formula(re.sub(r"\bx\b", term_text, text), _TERM_SIG)
        except ParseError:
            by_text = None  # a term other than a variable in an inclusion atom
        try:
            by_subst = substitute_parallel(f, {"x": parse_term(term_text, _TERM_SIG)})
        except FormulaError:
            by_subst = None
        assert (by_text is None) == (by_subst is None)
        if by_text is not None:
            pairs.append((by_text, by_subst))
        xs = sorted(free_vars(f))
        if is_first_order(f):
            pairs.append((parse_formula(f"snot ({text})", _TERM_SIG),
                          desugar(WeakNeg(f), _TERM_SIG.names())))
        if xs:
            pairs += [
                (parse_formula(f"{xs[0]} ups {','.join(xs)}", _TERM_SIG),
                 desugar(Anonymity((xs[0],), tuple(xs)), _TERM_SIG.names())),
                (parse_formula(f"[f({xs[0]})] <= [c]", _TERM_SIG),
                 desugar(TermInclusion((App("f", (Var(xs[0]),)),), (Const("c"),)),
                         _TERM_SIG.names())),
            ]
        pairs.append((parse_formula(f"E t. A w. ({text}) & ({text})", _TERM_SIG),
                      Exists("t", Forall("w", And(f, f)))))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert (free_vars(a), is_first_order(a), quantifier_depth(a)) == \
                (free_vars(b), is_first_order(b), quantifier_depth(b))

    def test_deep_chains_build_without_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            chain = Equals(_X, _Y)
            for k in range(3000):
                chain = Exists(f"v{k}", chain)
            conj_chain = Equals(_X, _Y)
            for k in range(2999):
                conj_chain = And(conj_chain, Equals(Var(f"v{k}"), _Y))
        finally:
            sys.setrecursionlimit(limit)
        assert quantifier_depth(chain) == 3000 and free_vars(chain) == {"x", "y"}
        assert free_vars(conj_chain) >= {"x", "v2998"} and quantifier_depth(conj_chain) == 0
        assert chain == exists_seq([f"v{k}" for k in reversed(range(3000))], Equals(_X, _Y))


def _operands_reference(f, kind):
    if type(f) is kind:
        return _operands_reference(f.left, kind) + _operands_reference(f.right, kind)
    return [f]


class TestOperands:
    def test_matches_recursive_reference(self):
        stream = oracle_stream(2007, Counter())
        for _, _, f in itertools.islice(stream, 2000):
            for g in subformulas(f):
                for kind in (And, Or):
                    assert list(operands(g, kind)) == _operands_reference(g, kind)

    def test_long_chain_without_recursion(self):
        atoms = [Equals(Var(f"v{k}"), _Y) for k in range(3000)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            chain = conj(atoms)
            walked = list(operands(chain, And))
            alone = list(operands(chain, Or))
        finally:
            sys.setrecursionlimit(limit)
        assert walked == atoms and alone == [chain]
