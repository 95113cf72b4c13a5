import dataclasses
import itertools
import random
from collections import Counter

import pytest

from inclogic.models import Team
from inclogic.normalform import (
    NormalFormError,
    normal_form,
    prenex,
    qf_normal,
    render,
    universalize,
)
from inclogic.parser import parse_formula
from inclogic.semantics import Guards, eval_fast, eval_naive, naive_cost_estimate
from inclogic.suites import (
    DEFAULT_SEED,
    SUITE_SIG,
    gen_formula,
    gen_model,
    gen_sentence,
    gen_team,
    normalform_stream,
)
from inclogic.syntax import (
    Exists,
    Forall,
    Inclusion,
    Signature,
    free_vars,
    is_first_order,
    pretty,
    quantifier_depth,
)


def parse(text):
    return parse_formula(text, SUITE_SIG)


class TestPrenex:
    def test_quantifier_free_unchanged(self):
        p = prenex(parse("x = y & R(x,y)"))
        assert p.prefix == () and p.matrix == parse("x = y & R(x,y)")

    def test_forall_or_trick(self):
        p = prenex(parse("(A x. x = x) | u = u"))
        kinds = [k for k, _ in p.prefix]
        assert kinds == ["E", "E", "A"]
        expected = parse("x = x & y = z | u = u & ~y = z")
        assert p.matrix == expected

    def test_exists_and_direct(self):
        p = prenex(parse("(E x. x = u) & y <= z"))
        assert p.prefix == (("E", "x"),)
        assert p.matrix == parse("x = u & y <= z")

    def test_negation_flips(self):
        p = prenex(parse("~(A x. x = u)"))
        assert p.prefix == (("E", "x"),)
        assert p.matrix == parse("~x = u")

    def test_prefix_distinct(self):
        p = prenex(parse("(E x. x = u) & (E x. x = u)"))
        names = [v for _, v in p.prefix]
        assert len(set(names)) == len(names) == 2


class TestQfNormal:
    def test_fo_case(self):
        q = qf_normal(parse("x = y"))
        assert q.w == () and q.atoms == () and q.alpha == parse("x = y")

    def test_inclusion_atom(self):
        q = qf_normal(parse("x <= y"))
        assert q.w == ("w", "u")
        assert q.atoms == ((("w",), ("u",)),)
        assert q.alpha == parse("w = x & u = y")

    def test_disjunction_padding(self):
        q = qf_normal(parse("(x <= y) | u = u"))
        # the left atom is padded with p,q; fresh p1,q1 mark the right disjunct
        assert (("w", "p", "q"), ("u1", "p", "q")) in q.atoms or \
            any(set(a[0][-2:]) == {"p", "q"} for a in q.atoms)
        assert "p" in q.w and "q" in q.w and "p1" in q.w and "q1" in q.w
        assert is_first_order(q.alpha) and quantifier_depth(q.alpha) == 0

    def test_rejects_quantifiers(self):
        with pytest.raises(NormalFormError):
            qf_normal(parse("E x. x = y"))


class TestUniversalize:
    def test_single_universal(self):
        p = prenex(parse("A x. x = x"))
        nf = universalize(p, qf_normal(p.matrix), ())
        assert nf.x == ("x",) and nf.j_indices == (1,)
        assert render(nf) == parse("E x. A y. (y <= x & x = x)")

    def test_existential_only(self):
        p = prenex(parse("E x. x = x"))
        nf = universalize(p, qf_normal(p.matrix), ())
        assert nf.j_indices == ()
        rendered = render(nf)
        assert rendered == parse("E x. A y. x = x")

    def test_empty_prefix(self):
        p = prenex(parse("x = x"))
        nf = universalize(p, qf_normal(p.matrix), ("x",))
        assert nf.w == () and nf.x == ()
        assert render(nf) == parse("A y. x = x")


class TestNormalForm:
    def test_atom_shape(self):
        nf = normal_form(parse("x <= y"))
        assert nf.w == ("w", "u")
        assert nf.i_atoms == ((("w",), ("u",)),)
        assert nf.x == () and nf.z == ("x", "y")
        assert nf.alpha == parse("w = x & u = y")

    def test_sentence_quantifier_free(self):
        nf = normal_form(parse("bot"))
        assert nf.w == nf.x == nf.z == ()
        assert render(nf) == Forall(nf.y, parse("bot"))

    def test_shape_invariants(self):
        rng = random.Random(3)
        for _ in range(300):
            f = gen_formula(rng, ("x", "y"), rng.randint(1, 10), quant_budget=2)
            nf = normal_form(f)
            rendered = render(nf)
            assert free_vars(rendered) == free_vars(f)
            # exactly one universal quantifier, innermost, fresh variable
            seen_forall = [s for s in _walk(rendered) if isinstance(s, Forall)]
            assert len(seen_forall) == 1 and seen_forall[0].var == nf.y
            assert quantifier_depth(nf.alpha) == 0 and is_first_order(nf.alpha)
            wset = set(nf.w)
            for u, v in nf.i_atoms:
                assert set(u) | set(v) <= wset

    def test_free_variables_in_j_atoms(self):
        nf = normal_form(parse("A x. x = u"))
        rendered = render(nf)
        atom = next(s for s in _walk(rendered) if isinstance(s, Inclusion))
        # z prefixes the simulation atom: z x1..x_{j-1} y <= z x1..x_{j-1} xj
        assert atom.lhs[0] == "u" and atom.rhs[0] == "u"

    def test_render_injective_on_generated_corpus(self):
        rng = random.Random(9)
        seen = {}
        for _ in range(400):
            f = gen_formula(rng, ("x", "y"), rng.randint(1, 8), quant_budget=2)
            nf = normal_form(f)
            key = pretty(render(nf))
            if key in seen:
                assert seen[key] == nf
            seen[key] = nf


def _staged_normal_form(f):
    z = tuple(sorted(free_vars(f)))
    pf = prenex(f)
    return universalize(pf, qf_normal(pf.matrix, set(z) | {v for _, v in pf.prefix}), z)


class TestOneNameSet:
    """``normal_form`` carries one name set through its stages; its result
    must be the staged public functions' composition, field by field."""

    @staticmethod
    def _assert_same(f):
        nf, staged = normal_form(f), _staged_normal_form(f)
        for field in dataclasses.fields(nf):
            assert getattr(nf, field.name) == getattr(staged, field.name), (f, field.name)

    def test_criterion_3_stream(self):
        for f, *_ in itertools.islice(normalform_stream(DEFAULT_SEED, Counter()), 1000):
            self._assert_same(f)

    def test_criterion_5_sentences(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(5000):
            self._assert_same(gen_sentence(rng))

    def test_names_of_the_signature_stay_reserved(self):
        # fresh names must avoid the relation and constant names in the formula
        sig = Signature({"w": 1, "y": 1}, {}, frozenset(("u", "p")))
        for text in ("x <= z & w(x) | (A q. y(q))", "E x. x <= z | p = x & u = x"):
            self._assert_same(parse_formula(text, sig))


def _walk(f):
    yield f
    if hasattr(f, "body"):
        yield from _walk(f.body)
    if hasattr(f, "left"):
        yield from _walk(f.left)
        yield from _walk(f.right)


class TestPreservation:
    def test_stagewise_and_composed(self):
        rng = random.Random(5)
        checked_naive = 0
        for _ in range(250):
            f = gen_formula(rng, ("x", "y"), rng.randint(1, 9), quant_budget=2)
            pf = prenex(f)
            qn = qf_normal(pf.matrix, {v for _, v in pf.prefix} | free_vars(f))
            nf = normal_form(f)
            if len(nf.w) + len(nf.x) > 10:
                continue
            stage1 = pf.to_formula()
            stage2 = qn.to_formula()
            for kind, var in reversed(pf.prefix):
                stage2 = Exists(var, stage2) if kind == "E" else Forall(var, stage2)
            rendered = render(nf)
            model = gen_model(rng, max_size=2)
            fv = tuple(sorted(free_vars(f)))
            team = gen_team(rng, model, fv, max_rows=3) if fv else \
                Team((), frozenset({()}))
            reference = eval_fast(model, team, f)
            assert eval_fast(model, team, stage1) == reference
            assert eval_fast(model, team, stage2) == reference
            assert eval_fast(model, team, rendered) == reference
            # cross-check the oracle engine on instances it can afford
            loose = Guards(max_rows=8, max_universe=4, max_depth=16,
                           max_work=5_000_000)
            if naive_cost_estimate(rendered, len(team), 2) < 30_000 and \
                    naive_cost_estimate(f, len(team), 2) < 30_000:
                assert eval_naive(model, team, rendered, loose) == reference
                assert eval_naive(model, team, f, loose) == reference
                checked_naive += 1
        assert checked_naive > 20
