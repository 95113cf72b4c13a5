"""Seeded random generators and the bundled property suites.

Each suite function mirrors one acceptance criterion; the CLI ``corpus``
subcommand and the acceptance tests both call them.  All randomness flows
from the seed argument.  Instance generators sample within the naive
engine's feasibility envelope (see ``naive_cost_estimate``) wherever the
literal-definition oracle is part of the check.
"""

from __future__ import annotations

import importlib.resources
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .approx import _report, build_approx, GuardExceeded as ApproxGuard
from .inddep import (
    ind_implies,
    parse_ind_problem,
    replay_counterexample,
    replay_derivation,
)
from .models import SINGLETON_EMPTY_DOMAIN, Model, Team
from .normalform import normal_form, render
from .proofs import check_script, mutants, parse_script
from .semantics import (
    Guards,
    eval_fast,
    eval_fo,
    eval_naive,
    max_subteam,
    naive_cost_estimate,
)
from .syntax import (
    And,
    Anonymity,
    Equals,
    Exists,
    Forall,
    Formula,
    Inclusion,
    Not,
    Or,
    Relation,
    Signature,
    Var,
    desugar,
    free_vars,
)

DEFAULT_SEED = 2007

SUITE_SIG = Signature({"P": 1, "R": 2}, {}, frozenset())


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)  # reason -> instances dropped

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def skips(self) -> str:
        """The skip counts as text: ``; skipped N (reason)`` per reason."""
        return "".join(f"; skipped {n} ({reason})" for reason, n in self.skipped.items())

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        extra = f" ({'; '.join(self.notes[:3])})" if self.notes else ""
        return (f"[{verdict}] {self.name}: {self.passed} checks,"
                f" {self.failed} violations, {self.elapsed:.1f}s{self.skips()}{extra}")


@contextmanager
def _suite(name: str) -> Iterator[SuiteResult]:
    """The result of the suite ``name``; ``elapsed`` is set when the block ends."""
    result = SuiteResult(name)
    start = time.monotonic()
    try:
        yield result
    finally:
        result.elapsed = time.monotonic() - start


def _tally(result: SuiteResult, ok: bool, note: str):
    if ok:
        result.passed += 1
    else:
        result.failed += 1
        if len(result.notes) < 5:
            result.notes.append(note)


# ---------------------------------------------------------------------------
# Random generators

def gen_model(rng: random.Random, max_size: int = 3, sig: Signature = SUITE_SIG) -> Model:
    size = rng.randint(2, max_size)
    elems = tuple(f"e{i}" for i in range(size))
    relations = {}
    for name, arity in sig.relations.items():
        tuples = list(itertools.product(elems, repeat=arity))
        relations[name] = frozenset(t for t in tuples if rng.random() < 0.5)
    return Model(sig, elems, relations, {}, {})


def gen_team(rng: random.Random, model: Model, variables: tuple[str, ...],
             max_rows: int) -> Team:
    """Up to ``max_rows`` rows, each drawn in ``variables`` order, as a team
    over their sorted order."""
    order = sorted(range(len(variables)), key=variables.__getitem__)
    rows = {tuple(rng.choice(model.universe) for _ in variables)
            for _ in range(rng.randint(0, max_rows))}
    return Team(tuple(sorted(variables)),
                frozenset(tuple(r[i] for i in order) for r in rows))


def gen_atom(rng: random.Random, pool: tuple[str, ...], fo_only: bool,
             sig: Signature = SUITE_SIG) -> Formula:
    kinds = ["eq", "rel", "rel"]
    if not fo_only:
        kinds += ["inc", "inc"]
    kind = rng.choice(kinds)
    if kind == "eq":
        return Equals(Var(rng.choice(pool)), Var(rng.choice(pool)))
    if kind == "rel":
        name = rng.choice(sorted(sig.relations))
        args = tuple(Var(rng.choice(pool)) for _ in range(sig.relations[name]))
        return Relation(name, args)
    width = rng.randint(1, 2)
    return Inclusion(
        tuple(rng.choice(pool) for _ in range(width)),
        tuple(rng.choice(pool) for _ in range(width)),
    )


def gen_formula(rng: random.Random, pool: tuple[str, ...], size: int,
                fo_only: bool = False, quant_budget: int = 3,
                sig: Signature = SUITE_SIG) -> Formula:
    if size <= 1:
        return gen_atom(rng, pool, fo_only, sig)
    roll = rng.random()
    if roll < 0.10:
        return gen_atom(rng, pool, fo_only, sig)
    if roll < 0.22:
        return Not(gen_formula(rng, pool, size - 1, fo_only=True,
                               quant_budget=0, sig=sig))
    if roll < 0.47:
        k = rng.randint(1, size - 1)
        return And(gen_formula(rng, pool, k, fo_only, quant_budget, sig),
                   gen_formula(rng, pool, size - k, fo_only, quant_budget, sig))
    if roll < 0.68:
        k = rng.randint(1, size - 1)
        return Or(gen_formula(rng, pool, k, fo_only, quant_budget, sig),
                  gen_formula(rng, pool, size - k, fo_only, quant_budget, sig))
    if quant_budget <= 0:
        return gen_atom(rng, pool, fo_only, sig)
    var = rng.choice(pool)
    body = gen_formula(rng, pool, size - 1, fo_only, quant_budget - 1, sig)
    return Exists(var, body) if roll < 0.85 else Forall(var, body)


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence

def oracle_stream(seed: int, skipped: Counter, cost_cap: float = 60_000.0):
    """Criterion 1's instances (model, team, formula) drawn from ``seed``; a
    draw over the naive cost cap is counted in ``skipped`` and dropped."""
    rng = random.Random(seed)
    pool = ("x", "y", "z")
    while True:
        model = gen_model(rng, max_size=3)
        team = gen_team(rng, model, pool, max_rows=6)
        f = gen_formula(rng, pool, rng.randint(1, 12))
        if naive_cost_estimate(f, len(team), len(model.universe)) > cost_cap:
            skipped["over the naive cost cap"] += 1
            continue
        yield model, team, f


def suite_oracle_equivalence(seed: int = DEFAULT_SEED, count: int = 10_000,
                             cost_cap: float = 60_000.0) -> SuiteResult:
    guards = Guards(max_rows=8, max_universe=4, max_depth=4, max_work=10_000_000)
    with _suite("oracle equivalence eval_fast = eval_naive") as result:
        stream = oracle_stream(seed, result.skipped, cost_cap)
        for model, team, f in itertools.islice(stream, count):
            _tally(result, eval_naive(model, team, f, guards) == eval_fast(model, team, f),
                   f"disagreement on {f!r}")
    return result


# ---------------------------------------------------------------------------
# Criterion 2: semantic groundwork properties

def suite_lemma_properties(seed: int = DEFAULT_SEED, count: int = 10_000) -> SuiteResult:
    rng = random.Random(seed)
    with _suite("locality / union closure / flatness / downward / empty team") as result:
        pool = ("x", "y", "z")
        extra = ("x", "y", "z", "t1", "t2")
        for _ in range(count):
            model = gen_model(rng, max_size=3)

            # locality: junk columns beyond the free variables never matter
            f = gen_formula(rng, pool, rng.randint(1, 10))
            fv = tuple(sorted(free_vars(f))) or ("x",)
            base = gen_team(rng, model, fv, max_rows=5)
            wide_a = _pad_team(rng, model, base, extra)
            wide_b = _pad_team(rng, model, base, extra)
            ok = (eval_fast(model, wide_a, f) == eval_fast(model, base, f)
                  == eval_fast(model, wide_b, f))
            _tally(result, ok, f"locality violated on {f!r}")

            # union closure via maximal satisfying subteams
            big = gen_team(rng, model, fv, max_rows=6)
            part_a = max_subteam(model, big, f)
            part_b = max_subteam(model, gen_team(rng, model, fv, max_rows=6), f)
            union = Team(part_a.domain, part_a.rows | part_b.rows)
            ok = eval_fast(model, union, f)
            _tally(result, ok, f"union closure violated on {f!r}")

            # flatness and downward closure of first-order formulas, with the
            # team-clause recursion forced (fo_flat=False) so the check is real;
            # a pair too costly for the naive engine is redrawn
            while True:
                alpha = gen_formula(rng, pool, rng.randint(1, 6), fo_only=True,
                                    quant_budget=2)
                small = gen_team(rng, model, pool, max_rows=3)
                if naive_cost_estimate(alpha, len(small), len(model.universe),
                                       fo_flat=False) < 20_000:
                    break
                result.skipped["flatness pair over the naive cost cap, redrawn"] += 1
            flat = all(eval_fo(model, s, alpha) for s in small.assignments())
            teamwise = eval_naive(model, small, alpha, fo_flat=False)
            _tally(result, flat == teamwise, f"flatness violated on {alpha!r}")
            sub_rows = frozenset(r for r in small.rows if rng.random() < 0.5)
            sub = Team(small.domain, sub_rows)
            down = (not teamwise) or eval_naive(model, sub, alpha, fo_flat=False)
            _tally(result, down, f"downward closure violated on {alpha!r}")

            # empty team satisfies everything
            empty = Team(tuple(sorted(free_vars(f))), frozenset())
            ok = eval_fast(model, empty, f) and eval_naive(model, empty, f)
            _tally(result, ok, f"empty team property violated on {f!r}")
    return result


def _pad_team(rng: random.Random, model: Model, base: Team,
              columns: tuple[str, ...]) -> Team:
    dom = tuple(sorted(set(base.domain) | set(columns)))
    rows = set()
    for row in base.rows:
        for _ in range(rng.randint(1, 2)):
            values = dict(zip(base.domain, row))
            for v in dom:
                if v not in values:
                    values[v] = rng.choice(model.universe)
            rows.add(tuple(values[v] for v in dom))
    return Team(dom, frozenset(rows))


# ---------------------------------------------------------------------------
# Criterion 3: normal-form preservation

def normalform_stream(seed: int, skipped: Counter):
    """Criterion 3's instances (formula, rendered normal form, model, team)
    drawn from ``seed``; a normal form over 11 variables is counted in
    ``skipped`` and dropped."""
    rng = random.Random(seed)
    pool = ("x", "y")
    while True:
        f = gen_formula(rng, pool, rng.randint(1, 10), quant_budget=2)
        nf = normal_form(f)
        if len(nf.w) + len(nf.x) > 11:
            skipped["normal form over 11 variables"] += 1
            continue
        model = gen_model(rng, max_size=2 if len(nf.w) + len(nf.x) > 7 else 3)
        fv = tuple(sorted(free_vars(f)))
        team = gen_team(rng, model, fv or ("x",), max_rows=4)
        if fv:
            team = team.restrict(fv)
        else:
            team = Team((), frozenset({()}) if rng.random() < 0.8 else frozenset())
        yield f, render(nf), model, team


def suite_normalform(seed: int = DEFAULT_SEED, count: int = 1000) -> SuiteResult:
    with _suite("normal-form semantic preservation") as result:
        stream = normalform_stream(seed, result.skipped)
        for f, rendered, model, team in itertools.islice(stream, count):
            if free_vars(rendered) != free_vars(f):
                _tally(result, False, f"free variables changed on {f!r}")
                continue
            ok = eval_fast(model, team, f) == eval_fast(model, team, rendered)
            _tally(result, ok, f"normal form changed satisfaction on {f!r}")
    return result


# ---------------------------------------------------------------------------
# Criterion 4: non-well-foundedness sentence vs cycle detection

def _digraph_model(elems: tuple[str, ...], edges: frozenset[tuple[str, str]]) -> Model:
    sig = Signature({"<": 2}, {}, frozenset())
    return Model(sig, elems, {"<": edges}, {}, {})


def _has_cycle(elems: tuple[str, ...], edges: frozenset[tuple[str, str]]) -> bool:
    succ = {e: [b for a, b in edges if a == e] for e in elems}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {e: WHITE for e in elems}

    def visit(node: str) -> bool:
        color[node] = GRAY
        for nxt in succ[node]:
            if color[nxt] == GRAY:
                return True
            if color[nxt] == WHITE and visit(nxt):
                return True
        color[node] = BLACK
        return False

    return any(color[e] == WHITE and visit(e) for e in elems)


def suite_wellfoundedness() -> SuiteResult:
    from .parser import parse_formula

    with _suite("non-well-foundedness sentence = cycle detection") as result:
        sig = Signature({"<": 2}, {}, frozenset())
        sentence = parse_formula("E x. E y. (y <= x & y < x)", sig)
        for size in (2, 3):
            elems = tuple(str(i) for i in range(size))
            pairs = list(itertools.product(elems, repeat=2))
            for bits in range(1 << len(pairs)):
                edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
                model = _digraph_model(elems, edges)
                truth = eval_fast(model, SINGLETON_EMPTY_DOMAIN, sentence)
                _tally(result, truth == _has_cycle(elems, edges),
                       f"mismatch on edges {sorted(edges)}")
    return result


# ---------------------------------------------------------------------------
# Criterion 5: approximation direction and monotonicity

def gen_sentence(rng: random.Random) -> Formula:
    pool = ("a", "b", "c")[: rng.randint(2, 3)]
    prefix = [(rng.choice("EA"), v) for v in pool]
    parts: list[Formula] = []
    for _ in range(rng.randint(1, 2)):
        parts.append(gen_atom(rng, pool, fo_only=rng.random() < 0.5))
    matrix: Formula = parts[0]
    for p in parts[1:]:
        matrix = And(matrix, p) if rng.random() < 0.7 else Or(matrix, p)
    f = matrix
    for kind, var in reversed(prefix):
        f = Exists(var, f) if kind == "E" else Forall(var, f)
    return f


def approx_stream(seed: int, skipped: Counter, max_level: int = 2):
    """Criterion 5's (sentence, normal form, build at ``max_level``, model)
    from ``seed``; skipped draws are counted, by reason, in ``skipped``."""
    rng = random.Random(seed)
    while True:
        f = gen_sentence(rng)
        if free_vars(f):
            skipped["not a sentence"] += 1
            continue
        nf = normal_form(f)
        try:
            af = build_approx(nf, max_level, max_blocks=30)
        except ApproxGuard:
            skipped["over the block cap"] += 1
            continue
        if af.book.total_blocks() * (len(nf.w) + len(nf.x)) > 120:
            skipped["over the size filter"] += 1
            continue
        yield f, nf, af, gen_model(rng, max_size=3)


def suite_approximations(seed: int = DEFAULT_SEED, count: int = 200,
                         max_level: int = 2) -> SuiteResult:
    with _suite("approximation direction and monotonicity") as result:
        positives = 0
        stream = approx_stream(seed, result.skipped, max_level)
        for f, _, af, model in itertools.islice(stream, count * 200):
            values = _report(model, af).values
            for lower, higher in zip(values, values[1:]):
                _tally(result, lower or not higher, f"monotonicity failed on {f!r}")
            if not eval_fast(model, SINGLETON_EMPTY_DOMAIN, f):
                continue
            positives += 1
            _tally(result, all(values), f"approximation failed on true sentence {f!r}")
            if positives == count:
                break
        if positives < count:
            result.failed += 1
            result.notes.append(f"only {positives} positive instances generated")
    return result


# ---------------------------------------------------------------------------
# Criterion 6: corpus acceptance and mutation rejection

def corpus_scripts() -> list[tuple[str, str]]:
    package = importlib.resources.files("inclogic.proofs") / "corpus"
    out = []
    for entry in sorted(package.iterdir()):
        if entry.name.endswith(".ndp"):
            out.append((entry.name, entry.read_text()))
    return out


def suite_proof_corpus(min_scripts: int = 15, min_mutants: int = 100) -> SuiteResult:
    with _suite("proof corpus accepted, mutants rejected") as result:
        scripts = []
        for name, text in corpus_scripts():
            script = parse_script(text)
            report = check_script(script)
            _tally(result, report.accepted, f"{name} rejected")
            scripts.append((name, script))
        if len(scripts) < min_scripts:
            result.failed += 1
            result.notes.append(f"only {len(scripts)} corpus scripts")
        total_mutants = 0
        for name, script in scripts:
            for mutant in mutants(script):
                total_mutants += 1
                report = check_script(mutant.script)
                _tally(result, not report.accepted,
                       f"{name}: mutant accepted ({mutant.description})")
        if total_mutants < min_mutants:
            result.failed += 1
            result.notes.append(f"only {total_mutants} mutants generated")
        result.notes.append(f"{len(scripts)} scripts, {total_mutants} mutants")
    return result


# ---------------------------------------------------------------------------
# Criterion 7: no countermodels for corpus conclusions

def _all_models(sig: Signature, size: int) -> Iterator[Model]:
    """Each model of ``sig`` over ``size`` elements, one at a time."""
    elems = tuple(str(i) for i in range(size))
    rel_options = []
    names = sorted(sig.relations)
    for name in names:
        tuples = list(itertools.product(elems, repeat=sig.relations[name]))
        options = [
            frozenset(t for i, t in enumerate(tuples) if bits >> i & 1)
            for bits in range(1 << len(tuples))
        ]
        rel_options.append(options)
    for combo in itertools.product(*rel_options):
        yield Model(sig, elems, dict(zip(names, combo)), {}, {})


def _small_teams(dom: tuple[str, ...], universe: tuple[str, ...],
                 max_rows: int) -> Iterator[Team]:
    """Each team over ``dom`` of 1 to ``max_rows`` rows of ``universe``
    values, one at a time; over the empty domain, only ``{()}``."""
    assignments = list(itertools.product(universe, repeat=len(dom)))
    for r in range(1, max_rows + 1):
        for rows in itertools.combinations(assignments, r):
            yield Team(dom, frozenset(rows))


def suite_corpus_soundness(max_rows: int = 4) -> SuiteResult:
    with _suite("empirical soundness of corpus conclusions") as result:
        for name, text in corpus_scripts():
            script = parse_script(text)
            report = check_script(script)
            if not report.accepted or report.claim is None:
                _tally(result, False, f"{name} rejected")
                continue
            claim = report.claim
            dom = tuple(sorted(frozenset().union(
                *map(free_vars, (*claim.context, claim.conclusion)))))
            countermodel = any(
                all(eval_fast(model, team, g) for g in claim.context)
                and not eval_fast(model, team, claim.conclusion)
                for model in _all_models(script.sig, 2)
                for team in _small_teams(dom, model.universe, max_rows))
            _tally(result, not countermodel, f"{name}: countermodel found")
    return result


# ---------------------------------------------------------------------------
# Criterion 8: inclusion-dependency implication

def suite_ind_implication() -> SuiteResult:
    with _suite("inclusion-dependency implication axioms") as result:
        for label, gamma, phi in (("identity", "", "x,y <= x,y"),
                                  ("projection/permutation", "x1,x2 <= y1,y2", "x2,x1 <= y2,y1"),
                                  ("transitivity", "x <= y; y <= z", "x <= z")):
            problem = parse_ind_problem(gamma, phi)
            v = ind_implies(problem)
            _tally(result, v.kind == "derivable" and replay_derivation(problem, v.derivation),
                   f"{label} not derivable")

        converse = parse_ind_problem("x <= y", "y <= x")
        v = ind_implies(converse, max_rows=2, max_elems=2)
        ok = (v.kind == "refuted" and v.team is not None and len(v.team) <= 2
              and replay_counterexample(converse, v.team))
        _tally(result, ok, "converse not refuted with a two-row team")
    return result


# ---------------------------------------------------------------------------
# Criterion 9: anonymity atoms

def suite_anonymity(seed: int = DEFAULT_SEED, count: int = 1000) -> SuiteResult:
    rng = random.Random(seed)
    with _suite("anonymity desugaring matches the direct clause") as result:
        for _ in range(count):
            model = gen_model(rng, max_size=3)
            nx, ny = rng.randint(0, 2), rng.randint(0, 2)
            pool = ("x1", "x2", "y1", "y2")
            xs = pool[:nx]
            ys = pool[2:2 + ny]
            team = gen_team(rng, model, tuple(sorted(set(xs) | set(ys))) or ("x1",),
                            max_rows=5)
            sugar = desugar(Anonymity(tuple(xs), tuple(ys)))
            via_kernel = eval_fast(model, team, sugar)
            direct = _anonymity_direct(team, xs, ys)
            _tally(result, via_kernel == direct,
                   f"anonymity mismatch at x={xs} y={ys}")
    return result


def _anonymity_direct(team: Team, xs, ys) -> bool:
    dom = team.domain
    xpos = tuple(dom.index(v) for v in xs)
    ypos = tuple(dom.index(v) for v in ys)
    for s in team.rows:
        if not any(
            tuple(t[i] for i in xpos) == tuple(s[i] for i in xpos)
            and tuple(t[i] for i in ypos) != tuple(s[i] for i in ypos)
            for t in team.rows
        ):
            return False
    return True


# ---------------------------------------------------------------------------

def run_all(seed: int = DEFAULT_SEED, quick: bool = False) -> list[SuiteResult]:
    scale = 0.02 if quick else 1.0

    def n(full: int) -> int:
        return max(10, int(full * scale))

    return [
        suite_oracle_equivalence(seed, count=n(10_000)),
        suite_lemma_properties(seed, count=n(10_000)),
        suite_normalform(seed, count=n(1000)),
        suite_wellfoundedness(),
        suite_approximations(seed, count=n(200)),
        suite_proof_corpus(),
        suite_corpus_soundness(),
        suite_ind_implication(),
        suite_anonymity(seed, count=n(1000)),
    ]
