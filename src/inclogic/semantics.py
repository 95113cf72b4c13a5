"""Team-semantics evaluation over finite models.

Two engines:

* ``eval_naive`` follows the satisfaction definition literally — it
  searches every cover for a disjunction and every supplement function for
  a lax existential.  It is the oracle: slow, guarded, and trusted.
* the maximal-subteam engine deletes rows of the grounded formula to the
  greatest fixpoint, the maximal satisfying subteam (inclusion logic is
  closed under unions).  ``max_subteam`` runs it to the end; ``eval_fast``
  is true at once on an empty team and stops at the first team row dropped,
  by a root first-order conjunct before anything below it is grounded or in
  the deletion loop.  So it may be false where ``max_subteam`` raises
  ``GuardExceeded``; it never gives the other verdict.

Both engines treat first-order subformulas with the flat clause
"every row satisfies it", which is itself a clause of the definition; the
fast engine compiles each one once per call to a test on row tuples.
``eval_naive(..., fo_flat=False)`` forces team-style recursion through
first-order connectives too, which is what the flatness property tests
exercise.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Mapping

from .models import Model, Team, check_team
from .syntax import (
    And,
    Bottom,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    Inclusion,
    Not,
    Or,
    Relation,
    Term,
    Var,
    free_vars,
    is_first_order,
    operands,
    quantifier_depth,
)


class EvalError(ValueError):
    pass


class GuardExceeded(EvalError):
    """A naive-engine guard or the grounding budget tripped; no verdict."""


@dataclass(frozen=True)
class Guards:
    """Instance-size limits for the naive engine (configuration, not truth)."""

    max_rows: int = 8
    max_universe: int = 4
    max_depth: int = 4
    max_work: int = 2_000_000


DEFAULT_GUARDS = Guards()


# ---------------------------------------------------------------------------
# First-order (Tarski) evaluation

def eval_term(model: Model, s: Mapping[str, str], t: Term) -> str:
    if isinstance(t, Var):
        try:
            return s[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        return model.constants[t.name]
    args = tuple(eval_term(model, s, a) for a in t.args)
    return model.functions[t.func][args]


def eval_fo(model: Model, s: Mapping[str, str], f: Formula) -> bool:
    """Classical satisfaction of a first-order formula by one assignment."""
    if not is_first_order(f):
        raise EvalError("eval_fo requires a first-order formula")
    if not free_vars(f) <= set(s):
        missing = sorted(free_vars(f) - set(s))
        raise EvalError(f"assignment does not bind {missing}")
    return _fo(model, dict(s), f)


def _fo(model: Model, s: dict[str, str], f: Formula) -> bool:
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Equals):
        return eval_term(model, s, f.left) == eval_term(model, s, f.right)
    if isinstance(f, Relation):
        args = tuple(eval_term(model, s, a) for a in f.args)
        return args in model.relations[f.name]
    if isinstance(f, Not):
        return not _fo(model, s, f.body)
    if isinstance(f, (And, Or)):
        # walk a chain of one connective on a stack, left to right, so a long
        # flat conjunction or disjunction does not recurse once per operand;
        # the first operand equal to ``decisive`` settles the chain
        chain, decisive = type(f), isinstance(f, Or)
        stack = [f]
        while stack:
            g = stack.pop()
            if type(g) is chain:
                stack.append(g.right)
                stack.append(g.left)
            elif _fo(model, s, g) is decisive:
                return decisive
        return not decisive
    if isinstance(f, Exists):
        return any(_fo(model, {**s, f.var: a}, f.body) for a in model.universe)
    if isinstance(f, Forall):
        return all(_fo(model, {**s, f.var: a}, f.body) for a in model.universe)
    raise EvalError(f"not first-order: {f!r}")


# ---------------------------------------------------------------------------
# Team operations

def duplicate(team: Team, var: str, model: Model) -> Team:
    """X(M/x): extend (or overwrite) ``var`` with every universe element."""
    dom, insert_at, replaced = _extended_domain(team.domain, var)
    return Team(dom, frozenset(_extend_row(row, insert_at, replaced, a)
                               for row in team.rows for a in model.universe))


def supplement(team: Team, var: str, choice: Mapping[tuple[str, ...], frozenset[str]]) -> Team:
    """X(F/x) for F given per row; every image must be a nonempty set."""
    if set(choice) != set(team.rows):
        raise EvalError("supplement function must be defined on exactly the team rows")
    if not all(choice.values()):
        raise EvalError("supplement function images must be nonempty")
    dom, insert_at, replaced = _extended_domain(team.domain, var)
    return Team(dom, frozenset(_extend_row(row, insert_at, replaced, a)
                               for row in team.rows for a in choice[row]))


def _extended_domain(domain: tuple[str, ...], var: str) -> tuple[tuple[str, ...], int, bool]:
    if var in domain:
        return domain, domain.index(var), True
    dom = tuple(sorted(domain + (var,)))
    return dom, dom.index(var), False


def _extend_row(row: tuple[str, ...], at: int, replaced: bool, value: str) -> tuple[str, ...]:
    return row[:at] + (value,) + row[at + replaced:]  # a replaced value is skipped


def _check_input(team: Team, f: Formula):
    check_team(team)
    missing = free_vars(f) - set(team.domain)
    if missing:
        raise EvalError(f"team domain does not cover free variables {sorted(missing)}")


def _positions(domain: tuple[str, ...], names: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(map(domain.index, names))


def inclusion_holds(rows: Collection[tuple[str, ...]], lpos: tuple[int, ...],
                    rpos: tuple[int, ...]) -> bool:
    """The inclusion atom's clause on raw rows: every row's values at
    ``lpos`` are some row's values at ``rpos``."""
    rvalues = {tuple(row[i] for i in rpos) for row in rows}
    return all(tuple(row[i] for i in lpos) in rvalues for row in rows)


# ---------------------------------------------------------------------------
# Naive (literal) engine

def eval_naive(model: Model, team: Team, f: Formula,
               guards: Guards = DEFAULT_GUARDS, fo_flat: bool = True) -> bool:
    """Literal evaluation of the satisfaction definition, with guards."""
    _check_input(team, f)
    if len(team) > guards.max_rows:
        raise GuardExceeded(f"team has {len(team)} rows > guard {guards.max_rows}")
    if len(model.universe) > guards.max_universe:
        raise GuardExceeded(
            f"universe has {len(model.universe)} elements > guard {guards.max_universe}")
    if quantifier_depth(f) > guards.max_depth:
        raise GuardExceeded(
            f"quantifier depth {quantifier_depth(f)} > guard {guards.max_depth}")
    state = _NaiveState(model, guards, fo_flat)
    return state.eval(f, team)


class _NaiveState:
    def __init__(self, model: Model, guards: Guards, fo_flat: bool):
        self.model = model
        self.guards = guards
        self.fo_flat = fo_flat
        self.memo: dict[tuple, bool] = {}
        self.work = 0

    def tick(self, amount: int = 1):
        self.work += amount
        if self.work > self.guards.max_work:
            raise GuardExceeded(f"naive work budget {self.guards.max_work} exhausted")

    def eval(self, f: Formula, team: Team) -> bool:
        key = (f, team.domain, team.rows)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.tick()
        out = self._eval(f, team)
        self.memo[key] = out
        return out

    def _eval(self, f: Formula, team: Team) -> bool:
        model = self.model
        if isinstance(f, Bottom):
            return team.is_empty()
        if isinstance(f, (Equals, Relation, Not)) or (self.fo_flat and is_first_order(f)):
            self.tick(len(team))
            return all(_fo(model, dict(zip(team.domain, row)), f) for row in team.rows)
        if isinstance(f, Inclusion):
            self.tick(len(team))
            return inclusion_holds(team.rows, _positions(team.domain, f.lhs),
                                   _positions(team.domain, f.rhs))
        if isinstance(f, And):
            return self.eval(f.left, team) and self.eval(f.right, team)
        if isinstance(f, Or):
            return self._disjunction(f, team)
        if isinstance(f, Exists):
            return self._exists(f, team)
        if isinstance(f, Forall):
            return self.eval(f.body, duplicate(team, f.var, model))
        raise EvalError(f"cannot evaluate {f!r}")

    def _disjunction(self, f: Or, team: Team) -> bool:
        rows = sorted(team.rows)
        n = len(rows)
        # all covers X = Y ∪ Z, factored through the satisfying subteams of
        # each disjunct (memoised, so each subteam is evaluated once)
        left_sat = []
        for bits in range(1 << n):
            self.tick()
            sub = Team(team.domain, frozenset(rows[i] for i in range(n) if bits >> i & 1))
            if self.eval(f.left, sub):
                left_sat.append(bits)
        full = (1 << n) - 1
        for bits in left_sat:
            rest = full & ~bits
            extras = [i for i in range(n) if bits >> i & 1]
            for k in range(len(extras) + 1):
                for extra in itertools.combinations(extras, k):
                    self.tick()
                    zbits = rest
                    for i in extra:
                        zbits |= 1 << i
                    sub = Team(team.domain,
                               frozenset(rows[i] for i in range(n) if zbits >> i & 1))
                    if self.eval(f.right, sub):
                        return True
        return False

    def _exists(self, f: Exists, team: Team) -> bool:
        dom, insert_at, replaced = _extended_domain(team.domain, f.var)
        if team.is_empty():
            # the empty supplement function yields the empty team
            return self.eval(f.body, Team(dom, frozenset()))
        rows, universe = sorted(team.rows), self.model.universe
        subsets = [c for k in range(1, len(universe) + 1)
                   for c in itertools.combinations(universe, k)]
        # every supplement function, smallest images first
        for images in itertools.product(subsets, repeat=len(rows)):
            self.tick()
            out = frozenset(_extend_row(row, insert_at, replaced, a)
                            for row, image in zip(rows, images) for a in image)
            if self.eval(f.body, Team(dom, out)):
                return True
        return False


_COST_SATURATION = 1e18


def naive_cost_estimate(f: Formula, rows: int, universe: int,
                        fo_flat: bool = True) -> float:
    """Rough upper bound on naive clause expansions, saturating at 1e18;
    used to sample feasible instances for the oracle-equivalence suites."""
    rows = min(rows, 4096)
    if isinstance(f, (Bottom, Equals, Relation, Inclusion, Not)) or fo_flat and is_first_order(f):
        return max(rows, 1)
    if isinstance(f, And):
        return min(naive_cost_estimate(f.left, rows, universe, fo_flat)
                   + naive_cost_estimate(f.right, rows, universe, fo_flat),
                   _COST_SATURATION)
    if isinstance(f, Or):
        splits = 2.0 ** min(rows, 64)
        return min(splits * (naive_cost_estimate(f.left, rows, universe, fo_flat)
                             + naive_cost_estimate(f.right, rows, universe, fo_flat)),
                   _COST_SATURATION)
    if isinstance(f, Exists):
        choices = (2.0 ** universe - 1) ** min(rows, 64)
        return min(choices * naive_cost_estimate(f.body, rows * universe, universe,
                                                 fo_flat),
                   _COST_SATURATION)
    if isinstance(f, Forall):
        return naive_cost_estimate(f.body, rows * universe, universe, fo_flat)
    return _COST_SATURATION


# ---------------------------------------------------------------------------
# Maximal-subteam engine

# The most candidate rows (a quantifier body's keys x universe) max_subteam grounds
# in one call; a body is grounded, and its dying rows spread, only at the values
# that its relation atom or equality allows.
MAX_ROWS = 1_000_000


def max_subteam(model: Model, team: Team, f: Formula) -> Team:
    """The largest subteam of ``team`` satisfying ``f``."""
    return Team(team.domain, team.rows.difference(_dropped(model, team, f)))


def eval_fast(model: Model, team: Team, f: Formula) -> bool:
    """Satisfaction: no team row leaves the maximal subteam."""
    return next(_dropped(model, team, f), None) is None


def _dropped(model: Model, team: Team, f: Formula):
    """Yields each team row outside the maximal subteam as soon as it is known.

    A first-order ``f`` is one row test.  Otherwise ``f`` is grounded top down
    into cells, the rows of an ``And`` chain that pass its first-order
    conjuncts, a quantifier body only at the values its relation atom or
    equality allows (``MAX_ROWS`` counts candidate rows), and rows are deleted
    to the greatest fixpoint in time linear in the grounding."""
    _check_input(team, f)
    if not team.rows:
        return
    if f._first_order:  # the flat clause
        yield from itertools.filterfalse(_row_test(model, team.domain, f), team.rows)
        return
    universe = model.universe
    grounded = len(team.rows)
    root, edges, dead = [], [], []
    stack = [(f, team.domain, team.rows, None, root)]
    while stack:
        g, dom, rows, at, siblings = stack.pop()
        fo, incs, branches = [], [], []
        for h in operands(g, And):
            (fo if h._first_order else incs if isinstance(h, Inclusion)
             else branches).append(h)
        values = None if at is None else _values(model, dom, at, fo)
        if values:  # ``rows`` are keys to extend at ``at``
            rows = (k[:at] + (a,) + k[at:] for k in rows for a in values(k))
        for h in fo:
            # filter before anything below this cell is grounded
            test = _row_test(model, dom, h)
            rows = [r for r in rows if test(r)]
        # live rows, the watches they feed, whether deaths matter below, ``values``
        cell = (set(rows), [], not g._first_order, values)
        if siblings is root and len(cell[0]) < len(team.rows):
            yield from team.rows.difference(cell[0])
        siblings.append(cell)
        for h in incs:
            # AC-4: a row lives while some row supports its left value
            lget = itemgetter(*_positions(dom, h.lhs))
            rget = itemgetter(*_positions(dom, h.rhs))
            index = defaultdict(list)
            for r in cell[0]:
                index[lget(r)].append((cell, r))
            _watch([cell], rget, [cell], lget, index.__getitem__, 1, dead)
        for h in branches:
            kids = []
            if isinstance(h, Or):
                grounded += 2 * len(cell[0])
                stack += [(h.right, dom, cell[0], None, kids), (h.left, dom, cell[0], None, kids)]
                edges.append((cell, kids, None, None, 1))
            else:
                dom2, at, replaced = _extended_domain(dom, h.var)
                keys = set(map(_key(at), cell[0])) if replaced else cell[0]
                grounded += len(keys) * len(universe)
                stack.append((h.body, dom2, keys, at, kids))
                need = len(universe) if isinstance(h, Forall) else 1
                edges.append((cell, kids, at, at if replaced else None, need))
            if grounded > MAX_ROWS:
                raise GuardExceeded(f"grounding exceeds {MAX_ROWS} rows")
    for parent, kids, at, pat, need in edges:
        # a parent row needs ``need`` live child rows of its key, a child row one
        ckey, pkey, below = _key(at), _key(pat), [k for k in kids if k[2]]
        _watch(kids, ckey, [parent], pkey, _spread([parent], pat, lambda k: universe), need, dead)
        _watch([parent], pkey, [], None, _spread(below, at, kids[0][3]), 1, dead)
    top = root[0]
    try:
        while dead:
            cell, row = dead.pop()
            if row in cell[0]:
                cell[0].remove(row)
                if cell is top:
                    yield row
                for key, counts, targets, need in cell[1]:
                    k = key(row)
                    counts[k] -= 1
                    if counts[k] == need - 1:
                        dead += targets(k)
    finally:
        for cell in root + [kid for _, kids, *_ in edges for kid in kids]:
            cell[1].clear()  # the watches refer back to the cells: free the cycles now


def _watch(src: list, skey, dst: list, dkey, targets, need: int, dead: list) -> None:
    """Let the rows of the ``src`` cells hold up the ``dst`` rows of the same
    key, listed by ``targets(key)``: they die once fewer than ``need`` live.
    Only the death that takes a count below ``need`` kills, so each key once."""
    counts: dict = {}
    for c in src:
        for r in c[0]:
            k = skey(r)
            counts[k] = counts.get(k, 0) + 1
    dead += [(c, r) for c in dst for r in c[0] if counts.get(dkey(r), 0) < need]
    for c in src:
        c[1].append((skey, counts, targets, need))


def _key(at: int | None):
    """Row -> its group key: the row without position ``at``."""
    return (lambda r: r) if at is None else (lambda r: r[:at] + r[at + 1:])


def _spread(cells: list, at: int | None, values):
    """Group key -> the rows of ``cells`` with that key and one of ``values(key)`` at ``at``."""
    if at is None:
        return lambda k: [(c, k) for c in cells]
    return lambda k: [(c, k[:at] + (a,) + k[at:]) for c in cells for a in values(k)]


def _values(model: Model, dom: tuple[str, ...], at: int, fo: list):
    """Key -> the values the variable at ``at`` may take in rows over ``dom``
    passing the first-order conjuncts ``fo``: read off the first relation atom
    over variables that names it (anywhere, repeats allowed), else the first
    equality with another variable, as the diagonal, else every element."""
    var = dom[at]
    atoms = [h for h in fo if var in h._free_vars and isinstance(h, (Relation, Equals))]
    for h in sorted(atoms, key=lambda h: isinstance(h, Equals)):  # relation atoms first
        terms = h.args if isinstance(h, Relation) else (h.left, h.right)
        names = [t.name for t in terms if isinstance(t, Var)]
        if len(names) == len(terms) and (isinstance(h, Relation) or names[0] != names[1]):
            table = (model.relations[h.name] if isinstance(h, Relation)
                     else [(a, a) for a in model.universe])
            kdom, same = dom[:at] + dom[at + 1:], [i for i, n in enumerate(names) if n == var]
            other = [i for i, n in enumerate(names) if n != var]
            if len(same) > 1:
                table = [t for t in table if len({t[i] for i in same}) == 1]
            index = defaultdict(list)  # values at ``other`` -> values of ``var``
            tget = itemgetter(*other) if other else lambda t: ()
            kget = itemgetter(*[kdom.index(names[i]) for i in other]) if other else lambda k: ()
            for t in table:
                index[tget(t)].append(t[same[0]])
            return lambda k: index.get(kget(k), ())
    return lambda k: model.universe


def _row_test(model: Model, names: tuple[str, ...], f: Formula):
    """First-order ``f`` compiled to a test on rows holding ``names[i]`` at
    position ``i``.  A quantifier appends its value to the row, so a variable
    reads the last position that names it."""
    if isinstance(f, Equals):
        if isinstance(f.left, Var) and isinstance(f.right, Var):
            i, j = _last(names, f.left.name), _last(names, f.right.name)
            return lambda r: r[i] == r[j]
        left, right = _term(model, names, f.left), _term(model, names, f.right)
        return lambda r: left(r) == right(r)
    if isinstance(f, Relation):
        args, table = _args(model, names, f.args), model.relations[f.name]
        return lambda r: args(r) in table
    if isinstance(f, Not):
        body = _row_test(model, names, f.body)
        return lambda r: not body(r)
    if isinstance(f, (And, Or)):
        tests = []  # a loop: a comprehension costs a frame on this per-call path
        for g in operands(f, type(f)):
            tests.append(_row_test(model, names, g))
        if len(tests) == 2:
            a, b = tests
            return (lambda r: a(r) or b(r)) if isinstance(f, Or) else lambda r: a(r) and b(r)
        join = any if isinstance(f, Or) else all
        return lambda r: join(t(r) for t in tests)
    if isinstance(f, (Exists, Forall)):
        body, universe = _row_test(model, names + (f.var,), f.body), model.universe
        join = any if isinstance(f, Exists) else all
        return lambda r: join(body(r + (a,)) for a in universe)
    return lambda r: False  # ``bot``


def _last(names: tuple[str, ...], var: str) -> int:
    return len(names) - 1 - names[::-1].index(var)


def _term(model: Model, names: tuple[str, ...], t: Term):
    """Row -> the value of ``t``."""
    if isinstance(t, Var):
        return itemgetter(_last(names, t.name))
    if isinstance(t, Const):
        value = model.constants[t.name]
        return lambda r: value
    args, table = _args(model, names, t.args), model.functions[t.func]
    return lambda r: table[args(r)]


def _args(model: Model, names: tuple[str, ...], terms: tuple[Term, ...]):
    """Row -> the tuple of the values of ``terms``."""
    if terms and all(isinstance(t, Var) for t in terms):
        pos = [_last(names, t.name) for t in terms]
        return itemgetter(*pos) if len(pos) > 1 else lambda r: (r[pos[0]],)
    gets = [_term(model, names, t) for t in terms]
    return lambda r: tuple([g(r) for g in gets])


def evaluate(model: Model, team: Team, f: Formula, engine: str = "fast",
             guards: Guards = DEFAULT_GUARDS, subteam: Team | None = None) -> bool:
    """Dispatch by engine name; ``both`` asserts the engines agree.  The fast
    verdict is read off ``subteam``, the maximal subteam, when it is given."""
    if engine not in ("fast", "naive", "both"):
        raise EvalError(f"unknown engine {engine!r}")
    if engine == "naive":
        return eval_naive(model, team, f, guards)
    fast = eval_fast(model, team, f) if subteam is None else subteam.rows == team.rows
    if engine == "both":
        naive = eval_naive(model, team, f, guards)
        if fast != naive:
            raise EvalError(f"engine disagreement: fast={fast} naive={naive} on {f!r}")
    return fast
