import itertools
import random
import time
from collections import Counter

import pytest

from inclogic import semantics, suites
from inclogic.models import SINGLETON_EMPTY_DOMAIN, Model, Team, parse_model, parse_team
from inclogic.parser import parse_formula
from inclogic.semantics import (
    EvalError,
    GuardExceeded,
    Guards,
    _extend_row,
    _extended_domain,
    _fo,
    _positions,
    duplicate,
    eval_fast,
    eval_fo,
    eval_naive,
    max_subteam,
    supplement,
)
from inclogic.suites import gen_formula, gen_model, gen_team
from inclogic.syntax import (
    And,
    Bottom,
    Exists,
    Forall,
    Formula,
    Inclusion,
    Or,
    Signature,
    conj,
    disj,
    free_vars,
    is_first_order,
    subformulas,
)

ORDER = parse_model("""
universe: 0 1 2
relation </2: (0,1) (1,2) (0,2)
""")
CYCLE = parse_model("""
universe: 0 1 2
relation </2: (0,1) (1,2) (2,0)
""")
PLAIN = parse_model("universe: 0 1 2")


def fml(text, model=ORDER):
    return parse_formula(text, model.sig)


class TestEvalFo:
    def test_spec_examples(self):
        assert eval_fo(ORDER, {"x": "0", "y": "1"}, fml("x < y"))
        assert not eval_fo(ORDER, {"x": "1", "y": "0"}, fml("x < y"))
        assert not eval_fo(ORDER, {}, fml("bot"))

    def test_rejects_unbound(self):
        with pytest.raises(EvalError):
            eval_fo(ORDER, {}, fml("x < y"))

    def test_rejects_non_fo(self):
        with pytest.raises(EvalError):
            eval_fo(ORDER, {"x": "0", "y": "0"}, fml("x <= y"))


class TestTeamOps:
    def test_duplicate_from_singleton(self):
        team = duplicate(SINGLETON_EMPTY_DOMAIN, "x", PLAIN)
        assert team.rows == {("0",), ("1",), ("2",)}

    def test_duplicate_empty(self):
        assert duplicate(Team(("y",), frozenset()), "x", PLAIN).is_empty()

    def test_duplicate_extends_rows(self):
        team = duplicate(Team(("y",), frozenset({("0",)})), "x", PLAIN)
        assert len(team) == 3 and team.domain == ("x", "y")

    def test_supplement(self):
        base = Team(("y",), frozenset({("0",)}))
        one = supplement(base, "x", {("0",): frozenset({"1"})})
        assert one.rows == {("1", "0")}
        two = supplement(base, "x", {("0",): frozenset({"0", "1"})})
        assert len(two) == 2

    def test_supplement_rejects_empty_image(self):
        base = Team(("y",), frozenset({("0",)}))
        with pytest.raises(EvalError):
            supplement(base, "x", {("0",): frozenset()})

    def test_supplement_requires_exact_rows(self):
        base = Team(("y",), frozenset({("0",)}))
        with pytest.raises(EvalError):
            supplement(base, "x", {})


class TestEvalNaive:
    def test_inclusion_atom(self):
        team = parse_team("x,y\n1,2\n2,1\n")
        assert eval_naive(PLAIN, team, fml("x <= y", PLAIN))
        assert not eval_naive(PLAIN, parse_team("x,y\n1,2\n"), fml("x <= y", PLAIN))

    def test_bottom_on_empty(self):
        assert eval_naive(PLAIN, Team((), frozenset()), fml("bot", PLAIN))
        assert not eval_naive(PLAIN, SINGLETON_EMPTY_DOMAIN, fml("bot", PLAIN))

    def test_wellfoundedness_sentence(self):
        sentence = fml("E x. E y. (y <= x & y < x)", CYCLE)
        assert eval_naive(CYCLE, SINGLETON_EMPTY_DOMAIN, sentence)
        assert not eval_naive(ORDER, SINGLETON_EMPTY_DOMAIN, sentence)

    def test_guards(self):
        team = Team(("x",), frozenset((str(i),) for i in range(3)))
        tight = Guards(max_rows=2)
        with pytest.raises(GuardExceeded):
            eval_naive(PLAIN, team, fml("x <= x", PLAIN), tight)
        deep = fml("E x. E y. E u. E v. E w. x = y", PLAIN)
        with pytest.raises(GuardExceeded):
            eval_naive(PLAIN, SINGLETON_EMPTY_DOMAIN, deep)

    def test_unbound_free_variable_is_an_error(self):
        with pytest.raises(EvalError):
            eval_naive(PLAIN, SINGLETON_EMPTY_DOMAIN, fml("x = x", PLAIN))


class TestMaxSubteam:
    def test_fo_filter(self):
        team = parse_team("x,y\n0,1\n1,0\n")
        best = max_subteam(ORDER, team, fml("x < y"))
        assert best.rows == {("0", "1")}

    def test_spec_example(self):
        team = parse_team("x,y\n1,2\n2,1\n3,1\n")
        model = parse_model("universe: 1 2 3")
        best = max_subteam(model, team, fml("x <= y", model))
        assert best.rows == {("1", "2"), ("2", "1")}

    def test_empty(self):
        assert max_subteam(PLAIN, Team(("x",), frozenset()), fml("x = x", PLAIN)).is_empty()

    def test_fixpoint_and_maximality_brute_force(self):
        # eval_naive judges every subteam, so the engine is not checked
        # against itself
        rng = random.Random(7)
        skipped = 0
        for _ in range(150):
            model = gen_model(rng, max_size=3)
            f = gen_formula(rng, ("x", "y"), rng.randint(1, 6))
            fv = tuple(sorted(free_vars(f))) or ("x",)
            team = gen_team(rng, model, fv, max_rows=4)
            best = max_subteam(model, team, f)
            rows = sorted(team.rows)
            try:
                assert eval_naive(model, best, f)
                union = set()
                for k in range(len(rows) + 1):
                    for combo in itertools.combinations(rows, k):
                        if eval_naive(model, Team(team.domain, frozenset(combo)), f):
                            union |= set(combo)
                assert best.rows == frozenset(union)
                for removed in team.rows - best.rows:
                    bigger = Team(team.domain, best.rows | {removed})
                    assert not eval_naive(model, bigger, f)
            except GuardExceeded:
                skipped += 1
        assert skipped == SKIPPED_BRUTE_FORCE

    def test_long_flat_conjunction(self):
        team = parse_team("x,y\n0,1\n1,0\n")
        atoms = [fml("x = x", PLAIN)] * 3000
        assert eval_fast(PLAIN, team, conj(atoms))
        assert eval_fast(PLAIN, team, conj(atoms + [fml("y <= x", PLAIN)]))

    def test_grounding_budget(self, monkeypatch):
        monkeypatch.setattr(semantics, "MAX_ROWS", 50)
        team = parse_team("x\n0\n1\n2\n")
        # 3 rows, then 9 and 27 candidate rows: 39 in all
        assert eval_fast(PLAIN, team, fml("A y. A z. x <= z", PLAIN))
        with pytest.raises(GuardExceeded, match="grounding exceeds 50 rows"):
            max_subteam(PLAIN, team, fml("A y. A z. A u. x <= u", PLAIN))


# the number of the 150 brute-force instances on which eval_naive's guards trip
SKIPPED_BRUTE_FORCE = 0


class TestEngineAgreement:
    def test_flatness_of_fo(self):
        rng = random.Random(11)
        for _ in range(200):
            model = gen_model(rng, max_size=3)
            alpha = gen_formula(rng, ("x", "y"), rng.randint(1, 5), fo_only=True,
                                quant_budget=1)
            team = gen_team(rng, model, ("x", "y"), max_rows=4)
            flat = all(eval_fo(model, s, alpha) for s in team.assignments())
            assert eval_fast(model, team, alpha) == flat

    def test_guard_free_fast_engine(self):
        team = Team(("x",), frozenset((str(i % 3),) for i in range(12)))
        assert eval_fast(PLAIN, team, fml("x <= x", PLAIN))


# ---------------------------------------------------------------------------
# Differential tests against the recompute-everything fixpoint

class _MaxState:
    def __init__(self, model: Model):
        self.model = model
        self.memo: dict[tuple, Team] = {}

    def max(self, f: Formula, team: Team) -> Team:
        key = (f, team.domain, team.rows)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._max(f, team)
        self.memo[key] = out
        return out

    def _max(self, f: Formula, team: Team) -> Team:
        model = self.model
        if isinstance(f, Bottom):
            return Team(team.domain, frozenset())
        if is_first_order(f):
            keep = frozenset(
                row for row in team.rows if _fo(model, dict(zip(team.domain, row)), f)
            )
            return Team(team.domain, keep)
        if isinstance(f, Inclusion):
            return self._inclusion(f, team)
        if isinstance(f, And):
            current = team
            while True:
                nxt = self.max(f.right, self.max(f.left, current))
                if nxt.rows == current.rows:
                    return current
                current = nxt
        if isinstance(f, Or):
            return self.max(f.left, team).union(self.max(f.right, team))
        if isinstance(f, Exists):
            dup = duplicate(team, f.var, model)
            best = self.max(f.body, dup)
            dom, insert_at, replaced = _extended_domain(team.domain, f.var)
            keep = frozenset(
                row for row in team.rows
                if any(_extend_row(row, insert_at, replaced, a) in best.rows
                       for a in model.universe)
            )
            return Team(team.domain, keep)
        if isinstance(f, Forall):
            current = team
            dom, insert_at, replaced = _extended_domain(team.domain, f.var)
            while True:
                dup = duplicate(current, f.var, model)
                best = self.max(f.body, dup)
                keep = frozenset(
                    row for row in current.rows
                    if all(_extend_row(row, insert_at, replaced, a) in best.rows
                           for a in model.universe)
                )
                if keep == current.rows:
                    return current
                current = Team(team.domain, keep)
        raise EvalError(f"cannot evaluate {f!r}")

    def _inclusion(self, f: Inclusion, team: Team) -> Team:
        lpos = _positions(team.domain, f.lhs)
        rpos = _positions(team.domain, f.rhs)
        rows = set(team.rows)
        while True:
            rvalues = {tuple(row[i] for i in rpos) for row in rows}
            keep = {row for row in rows if tuple(row[i] for i in lpos) in rvalues}
            if keep == rows:
                return Team(team.domain, frozenset(rows))
            rows = keep


def _fixpoint_max_subteam(model: Model, team: Team, f: Formula) -> Team:
    """The maximal subteam by clause-wise fixpoint iteration: the engine that
    the deletion pass replaced, kept as the reference beyond eval_naive's
    guards."""
    return _MaxState(model).max(f, team)


GRAPH_SIG = Signature({"R": 2}, {}, frozenset())
GUARD_SIG = Signature({"R": 2, "P": 1}, {}, frozenset())


def _digraph(rng: random.Random, shape: str, n: int):
    if shape == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "lasso":
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - rng.randint(2, n // 4))]
    else:
        edges = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(n + n // 10)})
    names = [f"n{i}" for i in rng.sample(range(n), n)]
    edges = frozenset((names[a], names[b]) for a, b in edges)
    return Model(GRAPH_SIG, tuple(names), {"R": edges}, {}, {}), edges


class TestAgainstFixpoint:
    def test_suite_stream(self):
        rng = random.Random(2024)
        for _ in range(3000):
            model = gen_model(rng, max_size=3)
            f = gen_formula(rng, ("x", "y", "z"), rng.randint(1, 12))
            team = gen_team(rng, model, ("x", "y", "z"), max_rows=20)
            assert max_subteam(model, team, f) == _fixpoint_max_subteam(model, team, f), f

    def test_digraph_teams(self):
        rng = random.Random(99)
        edge_queries = ("y <= x", "E z. (y <= x & z = y)")
        for shape in ("chain", "lasso", "sparse"):
            for _ in range(3):
                model, edges = _digraph(rng, shape, rng.randint(20, 120))
                team = Team(("x", "y"), edges)
                # the reference is cubic on chains: keep its chains short
                for text in edge_queries if len(edges) <= 60 else edge_queries[:1]:
                    f = parse_formula(text, GRAPH_SIG)
                    assert max_subteam(model, team, f) == _fixpoint_max_subteam(model, team, f)
                nodes = Team(("x",), frozenset((v,) for v in model.universe))
                f = parse_formula("E y. (R(x,y) & y <= x)", GRAPH_SIG)
                assert max_subteam(model, nodes, f) == _fixpoint_max_subteam(model, nodes, f)

    @pytest.mark.parametrize("text", [
        "E x. (y <= x & x = y)", "E x. (x <= y | y = x)", "A x. (x <= y)",
        "A x. (y <= x & E y. x <= y)", "E y. (x <= y & R(y,x))", "A y. (R(x,y) | y <= x)",
        "E x. E x. (x <= y & R(x,y))", "A y. E y. (y <= x & ~R(x,y))",
    ])
    def test_requantified_variable(self, text):
        # the bound variable is already in the team's domain, so several
        # parent rows reach the same child row
        rng = random.Random(text)
        for _ in range(40):
            model, _ = _digraph(rng, "sparse", rng.randint(2, 5))
            f = parse_formula(text, GRAPH_SIG)
            team = gen_team(rng, model, ("x", "y"), max_rows=12)
            assert max_subteam(model, team, f) == _fixpoint_max_subteam(model, team, f)

    def test_long_chain_is_linear(self):
        model, edges = _digraph(random.Random(5), "chain", 500)
        f = parse_formula("E z. (y <= x & z = y)", GRAPH_SIG)
        start = time.perf_counter()
        best = max_subteam(model, Team(("x", "y"), edges), f)
        assert best.rows == frozenset() and len(edges) == 499
        assert time.perf_counter() - start < 2.0

    # every way a quantifier's body values are chosen: a relation atom with
    # the bound variable first, second, twice or alone, an equality with it on
    # either side, a re-quantified variable, a Forall body, nested guards, a
    # relation atom without it, and bodies with no usable conjunct at all
    @pytest.mark.parametrize("text", [
        "E y. (R(x,y) & y <= x)", "E y. (R(y,x) & x <= y)", "E y. (R(y,y) & y <= x)",
        "E y. (P(y) & x <= y)", "E y. (z = y & y <= x)", "E y. (y = z & x, y <= z, x)",
        "E x. (R(y,x) & x <= y)", "A y. (R(x,y) & y <= x)",
        "E y. (R(x,y) & E z. (R(y,z) & z <= x))", "E y. (y = z & R(x,y) & x <= y)",
        "E y. (R(x,z) & z = y & y <= x)", "A y. (R(y,x) | x <= y)",
        "E y. (~R(x,y) & y <= x)", "E y. (y = y & y <= x)",
        "E y. ((R(x,y) | z = y) & y <= x)", "E y. (R(x,y) & y <= x) | A y. (P(y) & y <= z)",
    ])
    def test_guarded_quantifier(self, text):
        rng = random.Random(text)
        f = parse_formula(text, GUARD_SIG)
        for _ in range(60):
            universe = tuple(map(str, range(rng.randint(2, 5))))
            pairs = list(itertools.product(universe, repeat=2))
            model = Model(GUARD_SIG, universe, {
                "R": frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))),
                "P": frozenset((a,) for a in universe if rng.random() < 0.5)}, {}, {})
            # the free variables alone, and x, y, z, which re-quantifies y
            for domain in (tuple(sorted(free_vars(f))), ("x", "y", "z")):
                team = gen_team(rng, model, domain, max_rows=12)
                assert max_subteam(model, team, f) == _fixpoint_max_subteam(model, team, f)

    @pytest.mark.parametrize("text", ["E y. (R(x,y) & y <= x)", "E y. (R(y,x) & x <= y)"])
    def test_guarded_chain_is_linear(self, text):
        # 999 nodes: 998,001 candidate rows, just inside the grounding budget
        model, _ = _digraph(random.Random(6), "chain", 999)
        nodes = Team(("x",), frozenset((v,) for v in model.universe))
        f = parse_formula(text, GRAPH_SIG)
        start = time.perf_counter()
        assert max_subteam(model, nodes, f).rows == frozenset()
        assert time.perf_counter() - start < 0.25


# ---------------------------------------------------------------------------
# Compiled row tests against the literal first-order reading

def _assert_row_test_matches_fo(model, dom, g, rows):
    test = semantics._row_test(model, dom, g)
    for row in rows:
        assert test(row) == _fo(model, dict(zip(dom, row)), g), (g, dom, row)


def _fo_subformulas(f):
    return [g for g in subformulas(f) if is_first_order(g)]


class TestRowTest:
    def test_criterion_1_stream(self):
        # the suite's instances: every first-order subformula, on the team's
        # rows and on random rows over the same domain
        rng = random.Random(1)
        stream = suites.oracle_stream(suites.DEFAULT_SEED, Counter())
        for model, team, f in itertools.islice(stream, 10_000):
            extra = [tuple(rng.choice(model.universe) for _ in team.domain) for _ in range(3)]
            for g in _fo_subformulas(f):
                _assert_row_test_matches_fo(model, team.domain, g, sorted(team.rows) + extra)

    def test_criterion_3_stream(self):
        # both sides of every instance; the rendered normal form's subformulas
        # read its fresh variables, so the domain is widened to them
        rng = random.Random(3)
        stream = suites.normalform_stream(suites.DEFAULT_SEED, Counter())
        for f, rendered, model, team in itertools.islice(stream, 1000):
            for g in _fo_subformulas(f) + _fo_subformulas(rendered):
                dom = tuple(sorted(free_vars(g) | set(team.domain)))
                rows = [tuple(rng.choice(model.universe) for _ in dom) for _ in range(4)]
                _assert_row_test_matches_fo(model, dom, g, rows)

    @pytest.mark.parametrize("text", [
        "E x. (R(x,y) & ~x = y)", "A y. (x = y | R(y,x))", "E x. E x. R(x,y)",
        "E y. (R(x,y) & A y. R(y,x))", "A x. E y. (R(x,y) & E x. R(y,x))",
        "x = k", "R(k,x)", "k = k", "f(x) = y", "R(f(f(x)), g(x,k))",
        "E z. g(z,x) = f(y)", "Q", "~Q", "Q & x = y", "bot", "~bot", "x = y | bot",
        "E x. bot", "A x. ~bot",
    ])
    def test_pinned(self, text):
        # re-quantified domain variables, constants, function terms, 0-ary
        # relation atoms (true and false) and bot, on every row over (x, y)
        for q in ("()", ""):
            model = parse_model(FUNC_MODEL.replace("relation Q/0: ()", f"relation Q/0: {q}"))
            dom = ("x", "y")
            rows = list(itertools.product(model.universe, repeat=2))
            _assert_row_test_matches_fo(model, dom, fml(text, model), rows)

    def test_long_flat_chains(self):
        rows = list(itertools.product(ORDER.universe, repeat=2))
        for many in (conj([fml("x = x")] * 3000 + [fml("x < y")]),
                     disj([fml("x = y")] * 3000 + [fml("x < y")]),
                     conj([fml("E x. x < y")] * 3000)):
            _assert_row_test_matches_fo(ORDER, ("x", "y"), many, rows)


FUNC_MODEL = """
universe: a b c
relation Q/0: ()
relation R/2: (a,b) (b,c) (b,b) (c,a)
function f/1: (a)->b (b)->c (c)->c
function g/2: (a,a)->a (a,b)->c (a,c)->c (b,a)->b (b,b)->a (b,c)->c (c,a)->a (c,b)->b (c,c)->b
constant k: b
"""


# ---------------------------------------------------------------------------
# The verdict run against the full run and the naive engine

def _judge(model, team, f):
    """eval_fast's verdict, checked against max_subteam and, where its guards
    allow, eval_naive."""
    verdict = eval_fast(model, team, f)
    assert verdict == (max_subteam(model, team, f).rows == team.rows), (f, team)
    try:
        assert verdict == eval_naive(model, team, f), (f, team)
    except GuardExceeded:
        pass
    return verdict


class TestVerdictRun:
    def test_criterion_1_stream(self):
        # with the empty team over the same domain, and the singleton team
        # over the empty domain for the stream's sentences
        verdicts = Counter()
        stream = suites.oracle_stream(suites.DEFAULT_SEED, Counter())
        for model, team, f in itertools.islice(stream, 3000):
            verdicts[_judge(model, team, f)] += 1
            assert _judge(model, Team(team.domain, frozenset()), f)
            if not free_vars(f):
                verdicts[_judge(model, SINGLETON_EMPTY_DOMAIN, f)] += 1
        assert verdicts[True] > 500 and verdicts[False] > 500

    def test_root_conjunct_fails_on_one_row(self):
        team = parse_team("x,y\n0,1\n1,2\n2,0\n")
        for text in ("x < y & y <= x", "y <= x & x < y", "x < y & E z. (z <= x)",
                     "x < y"):
            assert not _judge(ORDER, team, fml(text))
        assert max_subteam(ORDER, team, fml("x < y")).rows == {("0", "1"), ("1", "2")}

    def test_first_death_deep_in_a_chain(self):
        # the only failing row dies in the innermost disjunct of an
        # Or/Exists chain and reaches the root by propagation
        team = parse_team("x,y\n0,1\n1,2\n0,2\n")
        for text in ("E z. (x = z & (bot | E u. (u = y & (bot | u <= x))))",
                     "E z. (z = x & (bot | E u. (u = z & (bot | y <= u))))",
                     "bot | E u. (u = y & (bot | E v. (v = u & (bot | v <= x))))"):
            f = fml(text)
            assert not _judge(ORDER, team, f)
            assert max_subteam(ORDER, team, f) == _fixpoint_max_subteam(ORDER, team, f)
        assert _judge(ORDER, team, fml("E z. (x = z & (bot | E u. (u = x & (bot | u <= x))))"))

    def test_empty_domain_and_empty_teams(self):
        sentence = fml("E x. E y. (y <= x & y < x)", CYCLE)
        assert _judge(CYCLE, SINGLETON_EMPTY_DOMAIN, sentence)
        assert not _judge(ORDER, SINGLETON_EMPTY_DOMAIN, sentence)
        assert not _judge(ORDER, SINGLETON_EMPTY_DOMAIN, fml("bot"))
        for team in (Team((), frozenset()), Team(("x",), frozenset())):
            for text in ("bot", "A y. E z. (z <= y & y < z)", "E x. ~x = x"):
                assert _judge(ORDER, team, fml(text))

    def test_verdict_inside_the_grounding_budget(self, monkeypatch):
        # a root conjunct drops a row before the quantifiers are grounded, so
        # the verdict is false where the full run trips the budget
        monkeypatch.setattr(semantics, "MAX_ROWS", 50)
        team = parse_team("x\n0\n1\n2\n")
        f = fml("(E v. x < v) & A y. A z. A u. x <= u")
        assert not eval_fast(ORDER, team, f)
        with pytest.raises(GuardExceeded, match="grounding exceeds 50 rows"):
            max_subteam(ORDER, team, f)
        assert not eval_naive(ORDER, team, f)

    def test_budget_never_changes_a_verdict(self, monkeypatch):
        # under a small budget a verdict may come where the full run trips
        # it, and is then false; otherwise the two agree
        monkeypatch.setattr(semantics, "MAX_ROWS", 8)
        early = 0
        stream = suites.oracle_stream(suites.DEFAULT_SEED, Counter())
        for model, team, f in itertools.islice(stream, 2000):
            try:
                full = max_subteam(model, team, f).rows == team.rows
            except GuardExceeded:
                full = None
            try:
                verdict = eval_fast(model, team, f)
            except GuardExceeded:
                assert full is None
                continue
            if full is None:
                early += 1
                assert not verdict and not eval_naive(model, team, f), f
            else:
                assert verdict == full, f
        assert early > 0
