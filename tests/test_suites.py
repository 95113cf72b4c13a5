"""The acceptance layer's own parts: the timed harness, criterion 7's model
and team enumerations, and the seeded team generator."""

import inspect
import random
import time
from math import comb

import pytest

from inclogic import suites
from inclogic.models import Team
from inclogic.suites import SUITE_SIG, _all_models, _small_teams, _suite, gen_model, gen_team


@pytest.mark.parametrize("k", range(5))
def test_small_teams_count(k):
    dom = tuple(f"v{i}" for i in range(k))
    teams = list(_small_teams(dom, ("0", "1"), 4))
    assert len(teams) == len(set(teams)) == sum(comb(2 ** k, r) for r in range(1, 5))
    assert all(t.domain == dom and 1 <= len(t.rows) <= 4 for t in teams)


def test_small_teams_over_the_empty_domain():
    assert list(_small_teams((), ("0", "1"), 4)) == [Team((), frozenset({()}))]


def test_small_teams_is_lazy():
    # 10 variables over 2 elements have about 4.6 * 10^10 teams of at most 4 rows
    dom = tuple(f"v{i}" for i in range(10))
    teams = _small_teams(dom, ("0", "1"), 4)
    assert inspect.isgenerator(teams)
    start = time.monotonic()
    first = next(teams)
    assert time.monotonic() - start < 1.0
    assert first == Team(dom, frozenset({("0",) * 10}))


def test_all_models_is_lazy_and_complete():
    models = _all_models(SUITE_SIG, 2)
    assert inspect.isgenerator(models)
    relations = [tuple(sorted(m.relations.items())) for m in models]
    assert len(relations) == len(set(relations)) == 2 ** 2 * 2 ** 4


def _gen_team_reference(rng, model, variables, max_rows):
    """``gen_team`` with its rows collected in a set and a separate sort index."""
    rows = set()
    for _ in range(rng.randint(0, max_rows)):
        rows.add(tuple(rng.choice(model.universe) for _ in variables))
    order = sorted(range(len(variables)), key=lambda i: variables[i])
    return Team(tuple(sorted(variables)), frozenset(tuple(r[i] for i in order) for r in rows))


def test_gen_team_rows_from_the_same_draws():
    for seed in range(300):
        rng = random.Random(seed)
        model = gen_model(rng)
        variables = tuple(rng.sample(("x", "y", "z", "t"), rng.randint(1, 4)))
        a, b = random.Random(seed), random.Random(seed)
        assert gen_team(a, model, variables, 6) == _gen_team_reference(b, model, variables, 6)
        assert a.random() == b.random()  # and no draw more or fewer


def test_suite_times_its_block():
    with _suite("napping") as result:
        time.sleep(0.02)
    assert result.name == "napping" and result.elapsed >= 0.02


def test_oracle_disagreements_are_tallied(monkeypatch):
    def contrary(model, team, f, guards):
        return not suites.eval_fast(model, team, f)

    monkeypatch.setattr(suites, "eval_naive", contrary)
    result = suites.suite_oracle_equivalence(count=10)
    assert (result.passed, result.failed, len(result.notes)) == (0, 10, 5)
