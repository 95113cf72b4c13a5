"""Implication for inclusion atoms: axiom closure plus counterexample search.

The three axioms — identity, projection/permutation (index tuples may
repeat positions), transitivity — never introduce new variables, so the
closure over the problem's variables at bounded width is finite.  A goal
outside the closure is attacked by searching small teams that satisfy
every premise atom and falsify the goal.  Both verdict kinds carry a
replayable certificate.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .models import Model, Team
from .parser import parse_formula
from .syntax import EMPTY_SIGNATURE, FormulaError, Inclusion
from .semantics import Guards, eval_naive, inclusion_holds


class IndError(ValueError):
    pass


@dataclass(frozen=True)
class IndProblem:
    gamma: tuple[Inclusion, ...]
    goal: Inclusion

    def variables(self) -> tuple[str, ...]:
        out: set[str] = set()
        for atom in self.gamma + (self.goal,):
            out |= set(atom.lhs) | set(atom.rhs)
        return tuple(sorted(out))

    def max_width(self) -> int:
        return max(len(a.lhs) for a in self.gamma + (self.goal,))


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


# ---------------------------------------------------------------------------
# Closure under the three axioms

def ind_implies(problem: IndProblem, depth: int = 8,
                max_rows: int = 3, max_elems: int = 3,
                seed: int = 2007) -> IndVerdict:
    """Iterative closure of gamma under the axioms, else counterexample search."""
    if depth < 1:
        raise IndError("depth bound must be at least 1")
    derivation = _derive(problem, depth)
    if derivation is not None:
        return IndVerdict("derivable", derivation=derivation)
    team = find_counterexample(problem, max_rows, max_elems, seed=seed)
    if team is not None:
        return IndVerdict("refuted", team=team)
    return IndVerdict("unknown")


def _derive(problem: IndProblem, depth: int) -> tuple[DerivStep, ...] | None:
    goal = (problem.goal.lhs, problem.goal.rhs)
    steps: list[DerivStep] = []
    # keyed on (lhs, rhs): most derived atoms are duplicates, and an
    # Inclusion is built only for a recorded step
    index_of: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def add(lhs: tuple[str, ...], rhs: tuple[str, ...], rule: str,
            parents: tuple[int, ...], indices: tuple[int, ...] | None = None) -> bool:
        if (lhs, rhs) in index_of:
            return False
        index_of[lhs, rhs] = len(steps)
        steps.append(DerivStep(Inclusion(lhs, rhs), rule, parents, indices))
        return True

    if goal[0] == goal[1]:
        add(*goal, "identity", ())
        return _extract(steps, index_of[goal])

    for atom in problem.gamma:
        add(atom.lhs, atom.rhs, "given", ())

    width = problem.max_width()
    for _ in range(depth):
        changed = False
        frontier = list(index_of.items())
        # projection and permutation, with repeated positions allowed
        for (lhs, rhs), i in frontier:
            n = len(lhs)
            for k in range(1, width + 1):
                for picks in itertools.product(range(n), repeat=k):
                    changed |= add(tuple(lhs[p] for p in picks),
                                   tuple(rhs[p] for p in picks), "project", (i,), picks)
        by_lhs: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
        for (lhs, rhs), i in list(index_of.items()):
            by_lhs.setdefault(lhs, []).append((rhs, i))
        for (lhs, rhs), i in list(index_of.items()):
            for other_rhs, j in by_lhs.get(rhs, []):
                changed |= add(lhs, other_rhs, "transitive", (i, j))
        if goal in index_of:
            return _extract(steps, index_of[goal])
        if not changed:
            break
    if goal in index_of:
        return _extract(steps, index_of[goal])
    return None


def _extract(steps: list[DerivStep], target: int) -> tuple[DerivStep, ...]:
    """Trim the closure record to the steps the target depends on."""
    needed: set[int] = set()
    stack = [target]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        stack.extend(steps[i].parents)
    order = sorted(needed)
    renumber = {old: new for new, old in enumerate(order)}
    return tuple(
        DerivStep(steps[i].atom, steps[i].rule,
                  tuple(renumber[p] for p in steps[i].parents), steps[i].indices)
        for i in order
    )


def replay_derivation(problem: IndProblem, derivation: tuple[DerivStep, ...]) -> bool:
    """Re-check a derivation step by step; the last atom must be the goal."""
    if not derivation:
        return False
    for i, step in enumerate(derivation):
        if any(p >= i for p in step.parents):
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
        else:
            return False
    return derivation[-1].atom == problem.goal


# ---------------------------------------------------------------------------
# Counterexample search

def _universe_model(size: int) -> Model:
    return Model(EMPTY_SIGNATURE, tuple(str(i) for i in range(max(size, 2))), {}, {}, {})


def find_counterexample(problem: IndProblem, max_rows: int, max_elems: int,
                        seed: int = 2007, exhaustive_limit: int = 400_000,
                        samples: int = 50_000) -> Team | None:
    """A team satisfying every gamma atom and falsifying the goal, or None.

    Exhaustive over all teams within the bounds when that is small enough,
    otherwise seeded random sampling.  A found team is re-verified with
    eval_naive before being returned.
    """
    if max_rows < 1 or max_elems < 1:
        raise IndError("search bounds must be at least 1")
    variables = problem.variables()
    elems = tuple(str(i) for i in range(max_elems))
    assignments = list(itertools.product(elems, repeat=len(variables)))
    pos = {v: i for i, v in enumerate(variables)}

    def atom_positions(atom: Inclusion):
        return (tuple(pos[v] for v in atom.lhs), tuple(pos[v] for v in atom.rhs))

    gamma_idx = [atom_positions(a) for a in problem.gamma]
    goal_idx = atom_positions(problem.goal)

    def is_counterexample(rows: tuple[tuple[str, ...], ...]) -> bool:
        return all(inclusion_holds(rows, *idx) for idx in gamma_idx) and \
            not inclusion_holds(rows, *goal_idx)

    total = sum(math.comb(len(assignments), r) for r in range(1, max_rows + 1))
    found: tuple[tuple[str, ...], ...] | None = None
    if total <= exhaustive_limit:
        for r in range(1, max_rows + 1):
            for rows in itertools.combinations(assignments, r):
                if is_counterexample(rows):
                    found = rows
                    break
            if found:
                break
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            r = rng.randint(1, max_rows)
            rows = tuple(sorted(set(rng.choice(assignments) for _ in range(r))))
            if is_counterexample(rows):
                found = rows
                break
    if found is None:
        return None
    team = Team(variables, frozenset(found))
    model = _universe_model(max_elems)
    guards = Guards(max_rows=max(len(team), 8), max_universe=max(max_elems, 4))
    for atom in problem.gamma:
        if not eval_naive(model, team, atom, guards):
            raise IndError("internal error: counterexample fails a premise")
    if eval_naive(model, team, problem.goal, guards):
        raise IndError("internal error: counterexample satisfies the goal")
    return team


def replay_counterexample(problem: IndProblem, team: Team,
                          universe_size: int | None = None) -> bool:
    size = universe_size or max(
        (int(e) + 1 for row in team.rows for e in row), default=2)
    model = _universe_model(size)
    guards = Guards(max_rows=max(len(team), 8), max_universe=max(size, 4))
    ok = all(eval_naive(model, team, a, guards) for a in problem.gamma)
    return ok and not eval_naive(model, team, problem.goal, guards)
