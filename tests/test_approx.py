import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from inclogic.approx import (
    ApproxError,
    ROOT,
    _subgame,
    build_approx,
    build_indices,
    check_approx,
    encode_index,
    prefix_truth,
)
from inclogic.models import SINGLETON_EMPTY_DOMAIN, parse_model
from inclogic.normalform import normal_form
from inclogic.parser import parse_formula
from inclogic.semantics import GuardExceeded, _fo, eval_fast
from inclogic.suites import DEFAULT_SEED, SUITE_SIG, gen_formula, gen_model, gen_sentence
from inclogic.syntax import (
    App,
    Const,
    Equals,
    Signature,
    Var,
    _rename,
    free_vars,
    is_first_order,
    pretty,
    quantifier_depth,
    substitute_parallel,
)

M2 = parse_model("""
universe: a b
relation P/1: (a)
relation R/2: (a,b) (b,a)
""")


M3 = parse_model("universe: e0 e1 e2\n")

# true on every model (take c = a), yet a blind prefix search over its
# level-2 approximation runs out of a 4,000,000-node budget
TRIP = "A a. A b. E c. (a <= c)"


def _dfs_prefix_truth(model, prefix, conjuncts, max_nodes=4_000_000):
    """Reference: one depth-first search over the whole prefix, testing each
    conjunct as soon as its last variable is assigned."""
    position = {v: k for k, (_, v) in enumerate(prefix)}
    triggers = [[] for _ in prefix]
    ground = []
    for c in conjuncts:
        if not (is_first_order(c) and quantifier_depth(c) == 0):
            raise ApproxError("prefix_truth needs quantifier-free first-order conjuncts")
        fv = free_vars(c)
        if not fv:
            ground.append(c)
            continue
        triggers[max(position[v] for v in fv)].append(c)
    env = {}
    budget = [max_nodes]

    def rec(k):
        if k == len(prefix):
            return True
        kind, var = prefix[k]
        result = kind == "A"
        for a in model.universe:
            budget[0] -= 1
            if budget[0] < 0:
                raise GuardExceeded(f"approximation evaluation budget {max_nodes} exhausted")
            env[var] = a
            good = all(_fo(model, env, c) for c in triggers[k]) and rec(k + 1)
            if kind == "E" and good:
                result = True
                break
            if kind == "A" and not good:
                result = False
                break
        env.pop(var, None)
        return result

    return all(_fo(model, {}, c) for c in ground) and rec(0)


def _scan_prefix_truth(model, prefix, conjuncts, max_nodes=4_000_000):
    """Reference: the miniscoping of ``prefix_truth`` with each quantifier
    scanning the whole item list for the items that read its variable."""
    items = []
    for c in conjuncts:
        if not (is_first_order(c) and quantifier_depth(c) == 0):
            raise ApproxError("prefix_truth needs quantifier-free first-order conjuncts")
        if isinstance(c, Equals) and isinstance(c.left, Var) and isinstance(c.right, Var):
            a, b = c.left.name, c.right.name
            items.append((free_vars(c), (a, b), lambda env, a=a, b=b: env[a] == env[b]))
        else:
            items.append((free_vars(c), None, lambda env, c=c: _fo(model, env, c)))
    budget = [max_nodes]
    for kind, var in reversed(prefix):
        inner = [item for item in items if var in item[0]]
        if not inner:
            continue
        items = [item for item in items if var not in item[0]]
        reads = frozenset().union(*(fv for fv, _, _ in inner)) - {var}
        pin = None
        if kind == "E":
            pin = next((eq[1] if eq[0] == var else eq[0] for _, eq, _ in inner
                        if eq and var in eq and eq[0] != eq[1]), None)
        items.append((reads, None, _subgame(model.universe, kind == "E", var, pin,
                                            tuple(reads), [t for _, _, t in inner],
                                            budget, max_nodes)))
    return all(test({}) for _, _, test in items)


def _criterion_5_stream(count=400):
    """Criterion 5's sentences under its size filter, each with its model."""
    rng = random.Random(DEFAULT_SEED)
    out = []
    while len(out) < count:
        f = gen_sentence(rng)
        if free_vars(f):
            continue
        nf = normal_form(f)
        try:
            book = build_indices(nf, 2, max_blocks=30)
        except GuardExceeded:
            continue
        if book.total_blocks() * (len(nf.w) + len(nf.x)) > 120:
            continue
        out.append((f, nf, gen_model(rng, max_size=3)))
    return out


def sentence(text):
    return parse_formula(text, SUITE_SIG)


def nf_of(text):
    return normal_form(sentence(text))


class TestIndexBooks:
    def test_pure_i_recursion(self):
        # one i-atom, no universal positions: E_{n+1} = E_n x I
        nf = nf_of("E a. E b. (a <= b)")
        assert len(nf.i_atoms) == 1 and nf.j_indices == ()
        book = build_indices(nf, 2)
        assert book.levels[1].e == ((("e", 0),),)
        assert book.levels[1].u == ()
        assert book.levels[2].e == ((("e", 0), ("e", 0)),)

    def test_no_atoms_all_levels_empty(self):
        nf = nf_of("E a. P(a)")
        book = build_indices(nf, 3)
        for level in book.levels[1:]:
            assert level.e == () and level.u == () and level.a == ()

    def test_universal_pairs(self):
        # J = {1}, I = empty: A_1 pairs the root block with y0 only
        nf = nf_of("A a. P(a)")
        book = build_indices(nf, 1)
        assert book.levels[1].a == ((ROOT, 0),)
        assert book.levels[1].u == ((("u", 0, 0),),)
        assert book.levels[1].e == ()
        # level 2 pairs: root with y1, and the level-1 block with y0 and y1
        book2 = build_indices(nf, 2)
        a2 = book2.levels[2].a
        assert (ROOT, 1) in a2
        child = (("u", 0, 0),)
        assert (child, 0) in a2 and (child, 1) in a2
        assert len(a2) == 3

    def test_block_cap(self):
        nf = nf_of("A a. A b. (a <= b & R(a,b))")
        with pytest.raises(GuardExceeded):
            build_indices(nf, 3, max_blocks=10)

    def test_sentences_only(self):
        with pytest.raises(ApproxError):
            build_indices(normal_form(sentence("P(x)")), 1)

    def test_encoding_stable(self):
        assert encode_index(ROOT) == "0"
        assert encode_index((("e", 1), ("u", 2, 0))) == "0e1u2x0"


class TestBuildApprox:
    def test_level0_shape(self):
        nf = nf_of("E a. P(a)")
        af = build_approx(nf, 0)
        assert pretty(af.formula) == "E a_0. A y0. P(a_0)"

    def test_level0_strong_adds_mu(self):
        nf = nf_of("A a. P(a)")
        af = build_approx(nf, 0, strong=True)
        assert pretty(af.formula) == "E a_0. A y0. P(a_0) & y0 <= a_0"
        assert not is_first_order(af.formula)

    def test_plain_is_first_order(self):
        nf = nf_of("A a. E b. R(a,b)")
        for n in range(3):
            af = build_approx(nf, n)
            assert is_first_order(af.formula)
            assert not free_vars(af.formula)

    def test_no_atoms_keeps_vacuous_universals(self):
        nf = nf_of("E a. P(a)")
        af = build_approx(nf, 2)
        assert pretty(af.formula) == "E a_0. A y0. P(a_0) & (A y1. A y2. ~bot)"

    def test_variable_families_distinct_and_reproducible(self):
        nf = nf_of("A a. E b. (a <= b)")
        af1 = build_approx(nf, 2)
        af2 = build_approx(nf, 2)
        assert af1.formula == af2.formula
        names = [v for _, v in af1.prefix]
        assert len(names) == len(set(names))


class TestCheckApprox:
    def test_matches_direct_evaluation_small(self):
        # the prefix evaluator agrees with the team engines on tiny instances
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            f = gen_sentence(rng)
            if free_vars(f):
                continue
            nf = normal_form(f)
            try:
                af = build_approx(nf, 1, max_blocks=8)
            except GuardExceeded:
                continue
            if len(af.prefix) > 9:
                continue
            model = gen_model(rng, max_size=2)
            direct = eval_fast(model, SINGLETON_EMPTY_DOMAIN, af.formula)
            via_prefix = prefix_truth(model, af.prefix, af.conjuncts)
            assert direct == via_prefix
            checked += 1

    def test_true_sentence_passes_all_levels(self):
        nf = nf_of("A a. E b. R(a,b)")
        model = parse_model("""
universe: a b
relation P/1: (a)
relation R/2: (a,b) (b,a)
""")
        assert eval_fast(model, SINGLETON_EMPTY_DOMAIN, sentence("A a. E b. R(a,b)"))
        for n in range(3):
            assert check_approx(model, nf, n)

    def test_monotone_failure_point(self):
        # on the model where P holds of one element only, forall a P(a) has
        # a true 0-approximation and false deeper ones
        nf = nf_of("A a. P(a)")
        values = [check_approx(M2, nf, n) for n in range(3)]
        assert values == [True, False, False]

    def test_strong_implies_plain(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            f = gen_sentence(rng)
            if free_vars(f):
                continue
            nf = normal_form(f)
            try:
                af_strong = build_approx(nf, 1, max_blocks=8)
            except GuardExceeded:
                continue
            if len(af_strong.prefix) > 8:
                continue
            af_strong = build_approx(nf, 1, strong=True, max_blocks=8)
            model = gen_model(rng, max_size=2)
            strong = eval_fast(model, SINGLETON_EMPTY_DOMAIN, af_strong.formula)
            plain = check_approx(model, nf, 1)
            assert plain or not strong
            checked += 1

    def test_matches_dfs_on_criterion_5_stream(self):
        # criterion 5's sentence stream and size filter; the reference search
        # is capped, and the levels it cannot decide within the cap are counted
        rng = random.Random(DEFAULT_SEED)
        sentences = compared = skipped = 0
        while sentences < 400:
            f = gen_sentence(rng)
            if free_vars(f):
                continue
            nf = normal_form(f)
            try:
                book = build_indices(nf, 2, max_blocks=30)
            except GuardExceeded:
                continue
            if book.total_blocks() * (len(nf.w) + len(nf.x)) > 120:
                continue
            model = gen_model(rng, max_size=3)
            sentences += 1
            for n in range(3):
                af = build_approx(nf, n)
                try:
                    expected = _dfs_prefix_truth(model, af.prefix, af.conjuncts,
                                                 max_nodes=20_000)
                except GuardExceeded:
                    skipped += 1
                    continue
                assert prefix_truth(model, af.prefix, af.conjuncts) == expected, (f, n)
                compared += 1
        assert (compared, skipped) == (1177, 23)

    def test_independent_subgames_stay_within_budget(self):
        nf = nf_of(TRIP)
        for n in range(4):
            assert check_approx(M3, nf, n, max_nodes=10_000)

    def test_budget_still_guards(self):
        af = build_approx(nf_of(TRIP), 2)
        with pytest.raises(GuardExceeded):
            prefix_truth(M3, af.prefix, af.conjuncts, max_nodes=1)


class TestAgainstReferences:
    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_renaming_matches_substitution(self, seed):
        # a quantifier-free matrix over variables, constants and function
        # terms, some of its variables renamed and some left alone
        rng = random.Random(seed)
        sig = Signature({"P": 1, "R": 2}, {"f": 1}, frozenset(("c",)))
        f = gen_formula(rng, ("a", "b", "d"), rng.randint(1, 12), fo_only=True,
                        quant_budget=0, sig=sig)
        f = substitute_parallel(f, {"d": rng.choice([Const("c"), App("f", (Var("a"),))])})
        ren = {v: Var(f"{v}_0e{rng.randint(0, 2)}") for v in ("a", "b") if rng.random() < 0.8}
        assert _rename(f, ren, set()) == substitute_parallel(f, ren)

    def test_formula_is_assembled_on_first_read(self):
        af = build_approx(nf_of("A a. E b. (a <= b & R(a,b))"), 2)
        prefix_truth(M2, af.prefix, af.conjuncts)
        assert "formula" not in vars(af)
        assert af.formula is af.formula and "formula" in vars(af)

    def test_lazy_formula_matches_eager_assembly(self):
        # the digest of repr(af.formula) over criterion 5's stream, levels 0-2,
        # plain and strong, taken when build_approx still assembled the
        # formula on every call
        digest = hashlib.sha256()
        for _, nf, _ in _criterion_5_stream():
            for n in range(3):
                for strong in (False, True):
                    af = build_approx(nf, n, strong=strong)
                    digest.update(repr(af.formula).encode() + b"\n")
        assert digest.hexdigest() == (
            "9e1bab4fe14722bff421ea09a0b4380d686cecf885907c0c2a8fc182cd041401")

    def test_indexed_miniscoping_matches_scan(self):
        outcomes = set()
        for f, nf, model in _criterion_5_stream():
            for n in range(3):
                af = build_approx(nf, n)
                for max_nodes in (10, 100, 1000, 4_000_000):
                    results = []
                    for truth in (prefix_truth, _scan_prefix_truth):
                        try:
                            results.append(truth(model, af.prefix, af.conjuncts,
                                                 max_nodes=max_nodes))
                        except GuardExceeded:
                            results.append("trip")
                    assert results[0] == results[1], (f, n, max_nodes)
                    outcomes.add(results[0])
        assert outcomes == {True, False, "trip"}
