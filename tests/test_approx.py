import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from inclogic import approx
from inclogic.approx import (
    ApproxError,
    ROOT,
    _levels,
    approx_report,
    build_approx,
    build_indices,
    encode_index,
    prefix_truth,
)
from inclogic.models import SINGLETON_EMPTY_DOMAIN, parse_model
from inclogic.normalform import NormalForm, normal_form
from inclogic.parser import parse_formula
from inclogic.semantics import GuardExceeded, _fo, eval_fast
from inclogic.suites import (
    DEFAULT_SEED,
    SUITE_SIG,
    approx_stream,
    gen_formula,
    gen_model,
    gen_sentence,
)
from inclogic.syntax import (
    And,
    App,
    Const,
    Equals,
    Forall,
    Inclusion,
    Signature,
    TRUE,
    Var,
    _rename,
    conj,
    exists_seq,
    free_vars,
    is_first_order,
    operands,
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


def _scan_subgame(universe, exists, names, reads, tests, budget, max_nodes):
    memo = {}

    def play(env):
        key = tuple(env[u] for u in reads)
        if key not in memo:
            memo[key] = not exists
            for a in universe:
                budget[0] -= 1
                if budget[0] < 0:
                    raise GuardExceeded(f"approximation evaluation budget {max_nodes} exhausted")
                env.update(dict.fromkeys(names, a))
                if all(test(env) for test in tests) == exists:
                    memo[key] = exists
                    break
        return memo[key]

    return play


def _scan_prefix_truth(model, prefix, conjuncts, max_nodes=4_000_000):
    """Reference: the miniscoping of ``prefix_truth``, folding the same
    equality-pinned existentials, with each quantifier scanning the whole
    item list for the items that read its variable."""
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
    folded = {}
    for kind, var in reversed(prefix):
        inner = [item for item in items if var in item[0]]
        if not inner:
            continue
        items = [item for item in items if var not in item[0]]
        names = (var,) + folded.pop(var, ())
        pin = None
        if kind == "E":
            pin = next((eq[1] if eq[0] == var else eq[0] for _, eq, _ in inner
                        if eq and var in eq and eq[0] != eq[1]), None)
        if pin is not None:
            folded[pin] = folded.get(pin, ()) + names
            for fv, eq, test in inner:
                if eq is not None:
                    eq = tuple(pin if v == var else v for v in eq)
                if eq != (pin, pin):
                    items.append(((fv - {var}) | {pin}, eq, test))
            continue
        reads = frozenset().union(*(fv for fv, _, _ in inner)) - {var}
        items.append((reads, None, _scan_subgame(model.universe, kind == "E", names,
                                                 tuple(reads), [t for _, _, t in inner],
                                                 budget, max_nodes)))
    return all(test({}) for _, _, test in items)


def _whole_matrix_approx(nf, n, strong=False):
    """Reference: ``build_approx``'s (prefix, conjuncts, formula), renaming
    the whole matrix per block and splitting each copy into its conjuncts."""
    book = build_indices(nf, n)
    w_of = {xi: tuple(f"{v}_{encode_index(xi)}" for v in nf.w)
            for m in range(n + 1) for xi in book.blocks(m)}
    x_of = {xi: tuple(f"{v}_{encode_index(xi)}" for v in nf.x) for xi in w_of}
    ys = [f"y{m}" for m in range(n + 1)]
    prefix, conjuncts, levels = [], [], []
    for m in range(n + 1):
        blocks = book.blocks(m)
        prefix += [("E", v) for xi in blocks for v in x_of[xi]]
        prefix += [("E", v) for xi in blocks for v in w_of[xi]]
        prefix.append(("A", ys[m]))
        parts = [substitute_parallel(nf.alpha, {v: Var(u) for v, u in
                                                zip(nf.w + nf.x, w_of[xi] + x_of[xi])})
                 for xi in blocks]
        split = [c for part in parts for c in operands(part, And)]
        for xi in book.levels[m].e if m else ():
            rho, sigma = nf.i_atoms[xi[-1][1]]
            pw, cw = dict(zip(nf.w, w_of[xi[:-1]])), dict(zip(nf.w, w_of[xi]))
            parts += [Equals(Var(pw[a]), Var(cw[b])) for a, b in zip(rho, sigma)]
        for xi in book.levels[m].u if m else ():
            (_, eta, jpos), px = xi[-1], x_of[xi[:-1]]
            j = nf.j_indices[jpos]
            parts += [Equals(Var(px[k]), Var(x_of[xi][k])) for k in range(j - 1)]
            parts.append(Equals(Var(ys[eta]), Var(x_of[xi][j - 1])))
        if strong and m == 0:
            root_w = dict(zip(nf.w, w_of[ROOT]))
            parts += [Inclusion(tuple(root_w[a] for a in rho), tuple(root_w[b] for b in sigma))
                      for rho, sigma in nf.i_atoms]
            parts += [Inclusion(x_of[ROOT][: j - 1] + (ys[0],), x_of[ROOT][:j])
                      for j in nf.j_indices]
        elif strong and w_of[ROOT] + x_of[ROOT]:
            parts += [Inclusion(w_of[xi] + x_of[xi], w_of[ROOT] + x_of[ROOT]) for xi in blocks]
        conjuncts += split + parts[len(blocks):]
        names = [v for xi in blocks for v in w_of[xi]] + [v for xi in blocks for v in x_of[xi]]
        levels.append((names, ys[m], parts))
    formula = None
    for names, y, parts in reversed(levels):
        parts = parts if formula is None else parts + [formula]
        formula = exists_seq(names, Forall(y, conj(parts) if parts else TRUE))
    return tuple(prefix), tuple(conjuncts), formula


def _criterion_5_stream(count=400):
    """Criterion 5's sentences under its size filter, each with its normal
    form, its level-2 build and its model."""
    return list(itertools.islice(approx_stream(DEFAULT_SEED, Counter()), count))


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

    def test_w_and_x_sharing_a_name_clash(self):
        nf = NormalForm(z=(), w=("a", "b"), x=("a",), y="y", i_atoms=(), j_indices=(),
                        alpha=TRUE)
        with pytest.raises(ApproxError, match="^variable name clash 'a'$"):
            build_approx(nf, 1)


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
        assert approx_report(model, nf, cap=2).values == (True, True, True)

    def test_monotone_failure_point(self):
        # on the model where P holds of one element only, forall a P(a) has
        # a true 0-approximation and false deeper ones
        nf = nf_of("A a. P(a)")
        assert approx_report(M2, nf, cap=2).values == (True, False, False)

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
            plain = approx_report(model, nf, cap=1).values[1]
            assert plain or not strong
            checked += 1

    def test_matches_dfs_on_criterion_5_stream(self):
        # criterion 5's sentence stream and size filter; the reference search
        # is capped, and the levels it cannot decide within the cap are counted
        compared = skipped = 0
        for f, _, built, model in _criterion_5_stream():
            for n, af in enumerate(_levels(built)):
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
        assert all(approx_report(M3, nf_of(TRIP), cap=3, max_nodes=10_000).values)

    def test_budget_still_guards(self):
        # every existential of TRIP's level 2 is pinned, so the game folds
        # them and decides without trying a value
        af = build_approx(nf_of(TRIP), 2)
        assert prefix_truth(M3, af.prefix, af.conjuncts, max_nodes=0) is True
        af = build_approx(nf_of("A a. E b. R(a,b)"), 2)
        with pytest.raises(GuardExceeded):
            prefix_truth(M2, af.prefix, af.conjuncts, max_nodes=10)
        assert prefix_truth(M2, af.prefix, af.conjuncts, max_nodes=100) is True

    def test_folded_existentials_try_no_values(self):
        v = {name: Var(name) for name in "abcd"}
        # d = c = b = a: a chain folded into the universal a, whose game
        # assigns all four
        prefix = (("A", "a"), ("E", "b"), ("E", "c"), ("E", "d"))
        chain = (Equals(v["d"], v["c"]), Equals(v["c"], v["b"]), Equals(v["b"], v["a"]))
        assert prefix_truth(M2, prefix, chain, max_nodes=0) is True
        p_d = chain + (sentence("P(d)"),)
        assert prefix_truth(M2, prefix, p_d, max_nodes=2) is False
        assert prefix_truth(M2, prefix[:1] + (("A", "b"),) + prefix[2:], p_d) is False
        with pytest.raises(GuardExceeded):
            prefix_truth(M2, prefix, p_d, max_nodes=1)

    @pytest.mark.parametrize("texts", [("x = q",), ("R(x,q)",), ("P(q)", "x = x")])
    def test_unbound_variables_named(self, texts):
        conjuncts = tuple(sentence(t) for t in texts)
        with pytest.raises(ApproxError, match="^the prefix does not bind q$"):
            prefix_truth(M2, (("E", "x"),), conjuncts, max_nodes=0)
        with pytest.raises(ApproxError, match="^the prefix does not bind q, x$"):
            prefix_truth(M2, (), conjuncts)

    @given(st.data())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_folding_matches_dfs(self, data):
        # random prefixes over chained equalities, pins to universals and
        # equalities between variables folded into the same one
        k = data.draw(st.integers(1, 7), "variables")
        names = [f"v{i}" for i in range(k)]
        prefix = tuple((data.draw(st.sampled_from("EEA")), v) for v in names)
        var = st.sampled_from(names)
        back = st.integers(1, k - 1).flatmap(
            lambda i: st.tuples(st.just(names[i]), st.sampled_from(names[:i])))
        atom = st.one_of(
            back.map(lambda p: f"{p[0]} = {p[1]}"),
            back.map(lambda p: f"{p[1]} = {p[0]}"),
            st.tuples(var, var).map(lambda p: f"{p[0]} = {p[1]}"),
            st.tuples(var, var).map(lambda p: f"~{p[0]} = {p[1]}"),
            var.map(lambda a: f"P({a})"),
            st.tuples(var, var).map(lambda p: f"R({p[0]},{p[1]})"),
        ) if k > 1 else st.sampled_from(["v0 = v0", "P(v0)", "~P(v0)", "R(v0,v0)"])
        conjuncts = tuple(sentence(t) for t in data.draw(st.lists(atom, max_size=9), "atoms"))
        model = gen_model(random.Random(data.draw(st.integers(0, 99), "model")), max_size=3)
        expected = _dfs_prefix_truth(model, prefix, conjuncts)
        assert prefix_truth(model, prefix, conjuncts) == expected
        assert _scan_prefix_truth(model, prefix, conjuncts) == expected


class TestAgainstReferences:
    def test_levels_sliced_from_one_build_match_fresh_builds(self):
        for _, nf, _, _ in _criterion_5_stream():
            for strong in (False, True):
                levels = list(_levels(build_approx(nf, 2, strong=strong)))
                assert len(levels) == 3
                for m, sliced in enumerate(levels):
                    fresh = build_approx(nf, m, strong=strong)
                    assert (sliced.prefix, sliced.conjuncts, sliced.book.levels,
                            sliced.formula) == (fresh.prefix, fresh.conjuncts,
                                                fresh.book.levels, fresh.formula), (nf, m)

    def test_report_matches_fresh_levels(self):
        for _, nf, _, model in _criterion_5_stream():
            fresh = [build_approx(nf, m) for m in range(3)]
            report = approx_report(model, nf, cap=2)
            assert report.values == tuple(prefix_truth(model, af.prefix, af.conjuncts)
                                          for af in fresh), nf
            assert report.sizes == tuple(af.size() for af in fresh), nf

    def test_report_builds_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_indices(*args, **kwargs)

        monkeypatch.setattr(approx, "build_indices", counted)
        report = approx_report(M2, nf_of("E a. a = a"), cap=50)
        assert len(calls) == 1
        assert len(report.values) == 51 and all(report.values) and report.stable

    def test_report_keeps_one_level_at_a_time(self):
        """Only each level's (value, size) pair outlives its play: at cap 1000
        the report peaks at about 0.5 MB, against 12.2 MB when every level's
        slices are held at once."""
        nf = nf_of("E a. a = a")
        tracemalloc.start()
        try:
            report = approx_report(M2, nf, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.values) == 1001 and all(report.values)
        assert peak < 4 * 2**20, peak

    def test_split_once_matches_whole_matrix_renaming(self):
        for _, nf, _, _ in _criterion_5_stream():
            for n in range(3):
                for strong in (False, True):
                    af = build_approx(nf, n, strong=strong)
                    assert (af.prefix, af.conjuncts, af.formula) == \
                        _whole_matrix_approx(nf, n, strong), (nf, n, strong)

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
        for _, nf, _, _ in _criterion_5_stream():
            for n in range(3):
                for strong in (False, True):
                    af = build_approx(nf, n, strong=strong)
                    digest.update(repr(af.formula).encode() + b"\n")
        assert digest.hexdigest() == (
            "9e1bab4fe14722bff421ea09a0b4380d686cecf885907c0c2a8fc182cd041401")

    def test_indexed_miniscoping_matches_scan(self):
        outcomes = set()
        for f, nf, _, model in _criterion_5_stream():
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
