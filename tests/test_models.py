import pytest

from inclogic import check_team
from inclogic.models import (
    ModelError,
    SINGLETON_EMPTY_DOMAIN,
    Team,
    format_model,
    format_team,
    parse_model,
    parse_team,
)
from inclogic.parser import parse_formula
from inclogic.semantics import eval_fast, eval_naive, max_subteam
MODEL_TEXT = """\
# a small ordered structure
universe: a b c
relation </2: (a,b) (b,c) (a,c)
function f/1: (a)->b (b)->c (c)->a
constant zero: a
"""


def test_model_roundtrip():
    model = parse_model(MODEL_TEXT)
    assert model.universe == ("a", "b", "c")
    assert ("a", "b") in model.relations["<"]
    assert model.functions["f"][("c",)] == "a"
    assert model.constants["zero"] == "a"
    again = parse_model(format_model(model))
    assert again == model


def test_universe_must_have_two_elements():
    with pytest.raises(ModelError):
        parse_model("universe: a")


def test_function_must_be_total():
    with pytest.raises(ModelError):
        parse_model("universe: a b\nfunction f/1: (a)->b")


def test_relation_tuple_arity():
    with pytest.raises(ModelError):
        parse_model("universe: a b\nrelation P/1: (a,b)")


def test_team_roundtrip():
    team = parse_team("x,y\n0,1\n1,0\n")
    assert team.domain == ("x", "y")
    assert len(team) == 2
    assert parse_team(format_team(team)) == team


def test_empty_body_team():
    team = parse_team("x,y\n")
    assert team.domain == ("x", "y") and team.is_empty()


def test_empty_domain_team():
    team = parse_team("<empty-domain>\n")
    assert team == SINGLETON_EMPTY_DOMAIN
    assert format_team(team).strip() == "<empty-domain>"


def test_rows_are_a_set():
    team = parse_team("x\n0\n0\n1\n")
    assert len(team) == 2


def test_from_assignments_rejects_mixed_domains():
    with pytest.raises(ModelError):
        Team.from_assignments([{"x": "0"}, {"y": "1"}])


def test_restrict_and_union():
    team = parse_team("x,y\n0,1\n1,1\n")
    assert team.restrict(("y",)).rows == frozenset({("1",)})
    other = parse_team("x,y\n0,0\n")
    assert len(team.union(other)) == 3


@pytest.mark.parametrize("team", [
    Team(("y", "x"), frozenset({("0", "1")})),      # unsorted domain
    Team(("x", "x"), frozenset({("0", "1")})),      # repeated variable
    Team(("x", "y"), frozenset({("0",)})),          # short row
])
def test_engines_check_the_team(team):
    model = parse_model("universe: 0 1")
    f = parse_formula("x <= y", model.sig)
    for engine in (eval_fast, eval_naive, max_subteam):
        with pytest.raises(ModelError):
            engine(model, team, f)
    with pytest.raises(ModelError):
        check_team(team)


def test_duplicate_domain_rejected():
    with pytest.raises(ModelError):
        Team.from_assignments([{"x": "0"}], domain=["x", "x"])
