import itertools
import random

import pytest

from inclogic import inddep
from inclogic.inddep import (
    DerivStep,
    IndError,
    IndProblem,
    find_counterexample,
    ind_implies,
    parse_ind_problem,
    replay_counterexample,
    replay_derivation,
)
from inclogic.models import Team
from inclogic.syntax import Inclusion


class TestVerdicts:
    def test_identity(self):
        p = parse_ind_problem("", "x <= x")
        v = ind_implies(p)
        assert v.kind == "derivable"
        assert replay_derivation(p, v.derivation)

    def test_projection_permutation(self):
        p = parse_ind_problem("x1,x2 <= y1,y2", "x2,x1 <= y2,y1")
        v = ind_implies(p)
        assert v.kind == "derivable"
        assert replay_derivation(p, v.derivation)

    def test_projection_with_repeats(self):
        p = parse_ind_problem("x1,x2 <= y1,y2", "x1,x1 <= y1,y1")
        v = ind_implies(p)
        assert v.kind == "derivable"
        assert replay_derivation(p, v.derivation)

    def test_transitivity(self):
        p = parse_ind_problem("x <= y; y <= z", "x <= z")
        v = ind_implies(p)
        assert v.kind == "derivable"
        assert replay_derivation(p, v.derivation)

    def test_refuted_converse(self):
        p = parse_ind_problem("x <= y", "y <= x")
        v = ind_implies(p, max_rows=2, max_elems=2)
        assert v.kind == "refuted"
        assert v.team is not None and len(v.team) <= 2
        assert replay_counterexample(p, v.team)

    def test_single_row_refutation(self):
        p = parse_ind_problem("", "x <= y")
        v = ind_implies(p, max_rows=1, max_elems=2)
        assert v.kind == "refuted" and len(v.team) == 1

    def test_derivable_has_no_counterexample(self):
        p = parse_ind_problem("x <= y; y <= z", "x <= z")
        assert find_counterexample(p, max_rows=3, max_elems=3) is None

    def test_search_bounds_validation(self):
        with pytest.raises(IndError):
            ind_implies(parse_ind_problem("", "x <= y"), max_rows=0)

    def test_search_budgets(self, monkeypatch):
        monkeypatch.setattr(inddep, "MAX_NODES", 1000)
        p = parse_ind_problem("c,d <= a,e; e,a,e <= a,a,a; a <= d; e,e,c <= c,c,b",
                              "c,a <= b,d")
        with pytest.raises(IndError, match="chase exceeded 1000"):
            ind_implies(p, max_rows=8, max_elems=8)
        # 3^7 tuples of x, y and z are reachable from x,...,x
        wide = parse_ind_problem("x,x,x <= x,y,z", ",".join("x" * 7) + " <= " + ",".join("w" * 7))
        with pytest.raises(IndError, match="chain search exceeded 1000"):
            ind_implies(wide)


class TestCertificates:
    def test_tampered_derivation_rejected(self):
        p = parse_ind_problem("x <= y; y <= z", "x <= z")
        v = ind_implies(p)
        steps = list(v.derivation)
        bad = steps[:-1] + [steps[-1].__class__(
            Inclusion(("z",), ("x",)), steps[-1].rule, steps[-1].parents,
            steps[-1].indices)]
        assert not replay_derivation(p, tuple(bad))

    def test_malformed_derivation_rejected(self):
        p = parse_ind_problem("", "x <= y")
        goal = p.goal
        # a step that projects itself, through a negative parent index
        assert not replay_derivation(p, (DerivStep(goal, "project", (-1,), (0,)),))
        # wrong parent counts for the rule
        assert not replay_derivation(p, (DerivStep(goal, "identity", (0,)),))
        q = parse_ind_problem("x <= y", "x <= y")
        given = DerivStep(q.goal, "given", ())
        assert not replay_derivation(q, (given, DerivStep(goal, "project", (0, 0), (0,))))
        assert not replay_derivation(q, (given, DerivStep(goal, "transitive", (0,))))

    def test_tampered_counterexample_rejected(self):
        p = parse_ind_problem("x <= y", "y <= x")
        team = Team(("x", "y"), frozenset({("0", "0")}))
        assert not replay_counterexample(p, team)


class TestSoundnessSmall:
    # the chase is complete within its bounds: a problem is refuted exactly
    # when some team of at most 3 rows over 3 elements refutes it
    def test_derivable_verdicts_hold_on_all_small_teams(self):
        rng = random.Random(23)
        variables = ("x", "y", "z", "u")
        derivable = 0
        refuted = 0
        for _ in range(120):
            atoms = []
            for _ in range(rng.randint(1, 2)):
                width = rng.randint(1, 2)
                atoms.append(Inclusion(
                    tuple(rng.choice(variables) for _ in range(width)),
                    tuple(rng.choice(variables) for _ in range(width))))
            goal_width = rng.randint(1, 2)
            goal = Inclusion(
                tuple(rng.choice(variables) for _ in range(goal_width)),
                tuple(rng.choice(variables) for _ in range(goal_width)))
            problem = IndProblem(tuple(atoms), goal)
            verdict = ind_implies(problem, max_rows=3, max_elems=3)
            assert (verdict.kind == "refuted") != _holds_on_all_small_teams(problem)
            if verdict.kind == "derivable":
                derivable += 1
                assert replay_derivation(problem, verdict.derivation)
                # never both: the search must not find a counterexample
                assert find_counterexample(problem, 3, 3) is None
            elif verdict.kind == "refuted":
                refuted += 1
                assert replay_counterexample(problem, verdict.team)
        assert derivable > 5 and refuted > 5


def _holds_on_all_small_teams(problem: IndProblem) -> bool:
    """No team of 1-3 distinct rows over three elements refutes the goal."""
    variables = problem.variables()
    assignments = list(itertools.product("012", repeat=len(variables)))
    pos = {v: i for i, v in enumerate(variables)}

    def sides(atom):
        # the atom's left and right value tuples, per assignment
        return ([tuple(r[pos[v]] for v in atom.lhs) for r in assignments],
                [tuple(r[pos[v]] for v in atom.rhs) for r in assignments])

    def sat(team, atom_sides):
        lhs, rhs = atom_sides
        return {lhs[i] for i in team} <= {rhs[i] for i in team}

    gamma = [sides(a) for a in problem.gamma]
    goal = sides(problem.goal)
    for r in range(1, 4):
        for team in itertools.combinations(range(len(assignments)), r):
            if all(sat(team, a) for a in gamma) and not sat(team, goal):
                return False
    return True
