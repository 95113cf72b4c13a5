"""Implication for inclusion atoms: a chain search for derivations and a
bounded chase for counterexamples.

Under identity, projection/permutation (positions may repeat) and
transitivity, X <= Y is derivable iff a chain X = Z0, ..., Zm = Y of tuples
of its width has each Zi <= Zi+1 project one premise (Casanova, Fagin and
Papadimitriou, JCSS 1984); a breadth-first search finds the chain.  Else a
chase (Maier, Mendelzon and Sagiv, TODS 1979) looks for a counterexample
with at most ``max_rows`` rows over ``max_elems`` elements and finds one if
any exists, so ``unknown`` means: not derivable, and no counterexample
within those bounds.  Both verdict kinds carry a replayable certificate.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .models import Model, Team
from .parser import parse_formula
from .syntax import EMPTY_SIGNATURE, FormulaError, Inclusion
from .semantics import Guards, eval_naive


class IndError(ValueError):
    pass


@dataclass(frozen=True)
class IndProblem:
    gamma: tuple[Inclusion, ...]
    goal: Inclusion

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for a in self.gamma + (self.goal,) for v in a.lhs + a.rhs}))


@dataclass(frozen=True)
class DerivStep:
    atom: Inclusion
    rule: str  # given | identity | project | transitive
    parents: tuple[int, ...]
    indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class IndVerdict:
    kind: str  # derivable | refuted | unknown
    derivation: tuple[DerivStep, ...] | None = None
    team: Team | None = None


def parse_ind_atom(text: str) -> Inclusion:
    f = parse_formula(text, EMPTY_SIGNATURE)
    if not isinstance(f, Inclusion):
        raise IndError(f"not an inclusion atom: {text!r}")
    return f


def parse_ind_problem(gamma_text: str, goal_text: str) -> IndProblem:
    try:
        gamma = tuple(
            parse_ind_atom(part) for part in gamma_text.split(";") if part.strip()
        )
        goal = parse_ind_atom(goal_text)
    except FormulaError as e:
        raise IndError(str(e)) from None
    return IndProblem(gamma, goal)


# The chain search visits at most this many tuples, and the chase tries at
# most this many rows, else IndError.  Five variables give at most 5^3 = 125
# tuples of width 3, and the chase's default bounds (3 rows, 3 elements) at
# most 41 start rows x (1 + 81 + 81^2) = 272,363 rows.
MAX_NODES = 300_000


# ---------------------------------------------------------------------------
# Derivations: breadth-first search over chains

def ind_implies(problem: IndProblem, max_rows: int = 3, max_elems: int = 3) -> IndVerdict:
    """A derivation of the goal, else a counterexample within the bounds."""
    derivation = _derive(problem)
    if derivation is not None:
        return IndVerdict("derivable", derivation=derivation)
    team = find_counterexample(problem, max_rows, max_elems)
    if team is not None:
        return IndVerdict("refuted", team=team)
    return IndVerdict("unknown")


def _derive(problem: IndProblem) -> tuple[DerivStep, ...] | None:
    start, target = problem.goal.lhs, problem.goal.rhs
    if start == target:
        return (DerivStep(problem.goal, "identity", ()),)
    # tuple -> (previous tuple, premise index, picked premise positions)
    parent: dict[tuple[str, ...], tuple | None] = {start: None}
    queue = deque([start])
    while queue and target not in parent:
        z = queue.popleft()
        for k, atom in enumerate(problem.gamma):
            # each coordinate of z may be matched at any premise position;
            # one position per reachable value is enough
            options = [list({atom.rhs[j]: j for j, v in enumerate(atom.lhs) if v == x}.values())
                       for x in z]
            for picks in itertools.product(*options):
                nxt = tuple(atom.rhs[j] for j in picks)
                if nxt not in parent:
                    if len(parent) >= MAX_NODES:
                        raise IndError(f"chain search exceeded {MAX_NODES} tuples")
                    parent[nxt] = (z, k, picks)
                    queue.append(nxt)
    if target not in parent:
        return None
    links = []
    z = target
    while parent[z] is not None:
        links.append((parent[z], z))
        z = parent[z][0]
    # each link projects a premise, and transitivity joins the links
    steps: list[DerivStep] = []
    for (prev, k, picks), z in reversed(links):
        atom = problem.gamma[k]
        steps.append(DerivStep(atom, "given", ()))
        if (prev, z) != (atom.lhs, atom.rhs):
            steps.append(DerivStep(Inclusion(prev, z), "project", (len(steps) - 1,), picks))
        if prev != start:  # join to the step proving start <= prev
            steps.append(DerivStep(Inclusion(start, z), "transitive", (proved, len(steps) - 1)))
        proved = len(steps) - 1
    return tuple(steps)


_ARITY = {"given": 0, "identity": 0, "project": 1, "transitive": 2}


def replay_derivation(problem: IndProblem, derivation: tuple[DerivStep, ...]) -> bool:
    """Re-check a derivation step by step; the last atom must be the goal."""
    if not derivation:
        return False
    for i, step in enumerate(derivation):
        # each rule's parent count; a parent must be an earlier step
        if len(step.parents) != _ARITY.get(step.rule) or \
                any(not 0 <= p < i for p in step.parents):
            return False
        if step.rule == "given":
            if step.atom not in problem.gamma:
                return False
        elif step.rule == "identity":
            if step.atom.lhs != step.atom.rhs:
                return False
        elif step.rule == "project":
            (p,) = step.parents
            parent = derivation[p].atom
            if step.indices is None:
                return False
            n = len(parent.lhs)
            if any(not 0 <= k < n for k in step.indices):
                return False
            expected = Inclusion(
                tuple(parent.lhs[k] for k in step.indices),
                tuple(parent.rhs[k] for k in step.indices),
            )
            if expected != step.atom:
                return False
        elif step.rule == "transitive":
            a, b = (derivation[p].atom for p in step.parents)
            if a.rhs != b.lhs or Inclusion(a.lhs, b.rhs) != step.atom:
                return False
    return derivation[-1].atom == problem.goal


# ---------------------------------------------------------------------------
# Counterexample search: a bounded chase

def _labelled_rows(width: int, forced: dict[int, int], used: int, max_elems: int):
    """Rows that agree with ``forced``; each free position, left to right,
    takes one of the ``used`` values or the next unused one, below
    ``max_elems``.  Every row is one of these up to renaming unused values."""
    def extend(row: tuple[int, ...], n: int):
        if len(row) == width:
            yield row
        elif len(row) in forced:
            yield from extend(row + (forced[len(row)],), n)
        else:
            for v in range(min(n + 1, max_elems)):
                yield from extend(row + (v,), max(n, v + 1))
    return extend((), used)


def find_counterexample(problem: IndProblem, max_rows: int, max_elems: int) -> Team | None:
    """A team satisfying every gamma atom and falsifying the goal, or None
    when none has at most ``max_rows`` rows over ``max_elems`` elements.

    Any counterexample has a row s that falsifies the goal, and closing s
    under one witness row per premise demand gives a counterexample inside
    it, which the chase enumerates up to renaming.  A found team is
    re-verified with eval_naive (``replay_counterexample``) before being
    returned.
    """
    if max_rows < 1 or max_elems < 1:
        raise IndError("search bounds must be at least 1")
    variables = problem.variables()
    pos = {v: i for i, v in enumerate(variables)}
    premises = [(tuple(pos[v] for v in a.lhs), tuple(pos[v] for v in a.rhs))
                for a in problem.gamma]
    goal_lhs = tuple(pos[v] for v in problem.goal.lhs)
    goal_rhs = tuple(pos[v] for v in problem.goal.rhs)
    nodes = 0

    def chase(rows: list[tuple[int, ...]], used: int, banned: tuple[int, ...] | None):
        # ``banned``: the start row's goal left values, which no row's goal
        # right values may meet
        nonlocal nodes
        demand = None if rows else {}  # forced positions; a start row has none
        for lhs, rhs in premises:
            need = {tuple(r[i] for i in lhs) for r in rows} - \
                {tuple(r[j] for j in rhs) for r in rows}
            # a new row meets one demand per premise
            if len(rows) + len(need) > max_rows:
                return None
            for values in need:
                forced: dict[int, int] = {}
                for j, v in zip(rhs, values):
                    if forced.setdefault(j, v) != v:
                        return None
                if all(j in forced for j in goal_rhs) and \
                        tuple(forced[j] for j in goal_rhs) == banned:
                    return None
                # meet first the demand that leaves the fewest free positions
                if demand is None or len(forced) > len(demand):
                    demand = forced
        if demand is None:
            return rows
        for row in _labelled_rows(len(variables), demand, used, max_elems):
            nodes += 1
            if nodes > MAX_NODES:
                raise IndError(f"counterexample chase exceeded {MAX_NODES} rows tried;"
                               " lower --rows or --elems")
            goal_values = banned if rows else tuple(row[i] for i in goal_lhs)
            if tuple(row[j] for j in goal_rhs) != goal_values:
                found = chase(rows + [row], max(used, max(row) + 1), goal_values)
                if found is not None:
                    return found
        return None

    found = chase([], 0, None)
    if found is None:
        return None
    team = Team(variables, frozenset(tuple(str(v) for v in row) for row in found))
    if not replay_counterexample(problem, team):
        raise IndError("internal error: the chase's team is not a counterexample")
    return team


def replay_counterexample(problem: IndProblem, team: Team) -> bool:
    size = max((int(e) + 1 for row in team.rows for e in row), default=2)
    model = Model(EMPTY_SIGNATURE, tuple(str(i) for i in range(max(size, 2))), {}, {}, {})
    guards = Guards(max_rows=max(len(team), 8), max_universe=max(size, 4))
    ok = all(eval_naive(model, team, a, guards) for a in problem.gamma)
    return ok and not eval_naive(model, team, problem.goal, guards)
