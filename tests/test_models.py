import csv
import io
import itertools
import re
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from inclogic import check_team, models
from inclogic.models import (
    Model,
    ModelError,
    SINGLETON_EMPTY_DOMAIN,
    Team,
    check_team_in_model,
    format_model,
    format_team,
    parse_model,
    parse_team,
)
from inclogic.parser import parse_formula
from inclogic.semantics import eval_fast, eval_naive, max_subteam
from inclogic.syntax import Signature

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


def _model(tables):
    """A model over {a, b} with signature R/2, f/1, built directly from its
    (relations, functions) tables, so that they need not match the signature."""
    relations, functions = tables
    return Model(Signature({"R": 2}, {"f": 1}, frozenset()), ("a", "b"),
                 relations, functions, {})


_R, _F = {"R": frozenset({("a", "b")})}, {"f": {("a",): "b", ("b",): "a"}}


_LONG_FIELD = "x\n" + "a" * 140_000 + "\n"

# Every raise site of the model and team readers, with its exact message.
MODEL_ERRORS = [
    # parse_model
    (parse_model, "universe: a b\nfoo bar", "line 2: unrecognized declaration 'foo bar'"),
    (parse_model, "universe a b", "line 1: expected 'universe: a b c'"),
    (parse_model, "universe: a b\nconstant c", "line 2: expected 'constant NAME: elem'"),
    (parse_model, "universe: a b\nconstant : a", "line 2: expected 'constant NAME: elem'"),
    (parse_model, "universe: a b\nuniverse: a b c", "line 2: universe declared twice"),
    (parse_model, "universe: a b\nrelation R/1: (a)\nrelation R/1: (b)",
     "line 3: relation 'R' declared twice"),
    (parse_model, "universe: a b\nrelation R/1: (a)\nrelation R/2: (a,b)",
     "line 3: relation 'R' declared twice"),
    (parse_model, "universe: a b\nfunction f/1: (a)->a (b)->a\nfunction f/1: (a)->b (b)->b",
     "line 3: function 'f' declared twice"),
    (parse_model, "universe: a b\nconstant c: a\nconstant c: b",
     "line 3: constant 'c' declared twice"),
    # _parse_decl_head
    (parse_model, "universe: a b\nrelation R: (a)",
     "line 2: expected 'NAME/ARITY: ...', got 'R: (a)'"),
    (parse_model, "universe: a b\nfunction 1f/1: (a)->a",
     "line 2: expected 'NAME/ARITY: ...', got '1f/1: (a)->a'"),
    # _parse_tuples
    (parse_model, "universe: a b\nrelation R/2: (a,b) (a)",
     "line 2: tuple (a) does not match arity 2"),
    (parse_model, "universe: a b\nrelation R/1: ()", "line 2: tuple () does not match arity 1"),
    (parse_model, "universe: a b\nrelation R/1: (a) b (b)",
     "line 2: unexpected text 'b' in table"),
    # _parse_map_entries
    (parse_model, "universe: a b\nfunction f/1: a->b",
     "line 2: expected '(args)->value', got 'a->b'"),
    (parse_model, "universe: a b\nfunction f/1: (a,b)->a",
     "line 2: entry '(a,b)->a' does not match arity 1"),
    (parse_model, "universe: a b\nfunction f/1: (a)->a (a)->b (b)->a",
     "line 2: entry '(a)->b' repeats the arguments ('a',)"),
    (parse_model, "universe: a b\nfunction f/1: (a)->a (b)->a (a)->a",
     "line 2: entry '(a)->a' repeats the arguments ('a',)"),
    # Model.__post_init__
    (parse_model, "universe: a", "model universe must have at least two elements"),
    (parse_model, "", "model universe must have at least two elements"),
    (parse_model, "universe: a b a", "duplicate universe elements"),
    (_model, ({}, _F), "missing table for relation 'R'"),
    (parse_model, "universe: a b\nrelation R/1: (a) (c)", "bad tuple ('c',) in relation 'R'"),
    (_model, ({"R": frozenset({("a", "b"), ("a",)})}, _F), "bad tuple ('a',) in relation 'R'"),
    (_model, (_R, {}), "missing table for function 'f'"),
    (parse_model, "universe: a b\nfunction f/1: (a)->b",
     "function 'f' not total: missing ('b',)"),
    (parse_model, "universe: a b\nfunction f/1: (a)->b (b)->c",
     "bad entry ('b',)->'c' in function 'f'"),
    (parse_model, "universe: a b\nfunction f/1: (a)->b (b)->a (c)->a",
     "bad entry ('c',)->'a' in function 'f'"),
    (parse_model, "universe: a b\nconstant c: z", "constant 'c' has no interpretation"),
    # parse_team
    (parse_team, "", "team file needs a header row (or the line '<empty-domain>')"),
    (parse_team, "\n  \n , \n", "team file needs a header row (or the line '<empty-domain>')"),
    (parse_team, "x,y, x\n", "duplicate variables in team header"),
    (parse_team, "x,y\n0,1\n\n0\n1,0\n", "team row ['0'] does not match header"),
    (parse_team, "y,x\n0,1\n0, 1 ,2\n", "team row ['0', ' 1 ', '2'] does not match header"),
    (parse_team, _LONG_FIELD,
     "team file is not valid CSV: field larger than field limit (131072)"),
    # check_team
    (check_team, Team(("y", "x"), frozenset()),
     "team domain must be sorted, without repeated variables"),
    (check_team, Team(("x", "x"), frozenset()),
     "team domain must be sorted, without repeated variables"),
    (check_team, Team(("x", "y"), frozenset({("0", "1"), ("0",)})),
     "team row length does not match domain"),
    # later additions, kept at the end so that the cases above keep their ids
    (parse_model, "universe: a b\nrelation P/1: (a)\nconstant P: a",
     "line 3: constant 'P' is already declared as a relation"),
    (parse_model, "constant f: a\nuniverse: a b\nfunction f/1: (a)->a (b)->a",
     "line 3: function 'f' is already declared as a constant"),
    (parse_model, "universe: a b\nfunction f/0:", "line 2: function 'f' must have arity >= 1"),
    (parse_team, "x, ,y\n0,1,2\n", "empty variable name in team header"),
    # format_team: a cell that parse_team would strip or skip
    (format_team, Team(("x",), frozenset({("",)})),
     "team cell '' is empty or padded with whitespace"),
    (format_team, Team(("x", "y"), frozenset({("a", "b "), ("a", "b")})),
     "team cell 'b ' is empty or padded with whitespace"),
    (format_team, Team((" x",), frozenset({("a",)})),
     "team cell ' x' is empty or padded with whitespace"),
]


@pytest.mark.parametrize("read, data, message", MODEL_ERRORS)
def test_model_error_message(read, data, message):
    with pytest.raises(ModelError) as info:
        read(data)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Round trips through the file formats

_ELEM = st.text("ab01_.-", min_size=1, max_size=3)
_NAME = st.one_of(st.just("<"), st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True))


@st.composite
def _models(draw):
    universe = draw(st.lists(_ELEM, min_size=2, max_size=4, unique=True))
    elem = st.sampled_from(universe)
    arities: tuple[dict, dict] = ({}, {})
    relations, functions, constants = {}, {}, {}
    for name in draw(st.lists(_NAME, max_size=5, unique=True)):
        kind = draw(st.sampled_from(("relation", "function", "constant")))
        if kind == "relation":
            arity = arities[0][name] = draw(st.integers(0, 3))
            relations[name] = frozenset(draw(st.lists(st.tuples(*[elem] * arity),
                                                      max_size=6)))
        elif kind == "function":
            arity = arities[1][name] = draw(st.integers(1, 2))
            functions[name] = {args: draw(elem)
                               for args in itertools.product(universe, repeat=arity)}
        else:
            constants[name] = draw(elem)
    sig = Signature(arities[0], arities[1], frozenset(constants))
    return Model(sig, tuple(universe), relations, functions, constants)


@given(_models())
@settings(max_examples=200, deadline=None)
def test_model_file_roundtrip(model):
    assert parse_model(format_model(model)) == model


_VAR = st.from_regex(r"[a-z][a-z0-9_]{0,2}", fullmatch=True)
_ANY_CELL = st.text('ab1,"; \t', max_size=3)
_CELL = _ANY_CELL.filter(lambda c: c and c == c.strip())


@st.composite
def _teams(draw, cell=_CELL):
    """A checked team other than the empty team over the empty domain."""
    domain = tuple(sorted(draw(st.lists(_VAR, max_size=3, unique=True))))
    row = st.tuples(*[cell] * len(domain))
    rows = frozenset(draw(st.lists(row, min_size=0 if domain else 1, max_size=5)))
    return check_team(Team(domain, rows))


@given(_teams(_ANY_CELL))
@settings(max_examples=300, deadline=None)
def test_team_file_roundtrip(team):
    """A team reads back from its file unchanged, or, when one of its cells is
    empty or padded with whitespace, has no file form."""
    writable = all(c and c == c.strip() for row in team.rows for c in row)
    if writable:
        assert parse_team(format_team(team)) == team
    else:
        with pytest.raises(ModelError):
            format_team(team)


@given(_teams().filter(lambda t: t.domain), st.data())
@settings(max_examples=200, deadline=None)
def test_team_file_roundtrip_variants(team, data):
    """Shuffled columns, padded or quoted cells and blank lines read back
    as the same team."""
    order = data.draw(st.permutations(range(len(team.domain))))

    def cell(text):
        pad = " " * data.draw(st.integers(0, 2))
        if data.draw(st.booleans()) or "," in text or '"' in text:
            return '"' + pad + text.replace('"', '""') + pad + '"'
        return pad + text + pad

    lines = [",".join(cell(row[i]) for i in order)
             for row in [team.domain, *sorted(team.rows)]]
    for _ in range(data.draw(st.integers(0, 3))):
        blank = data.draw(st.sampled_from(["", "  ", " , ", ","]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    assert parse_team("\n".join(lines) + "\n") == team


def test_team_over_the_marker_variable_round_trips():
    # the variable '<empty-domain>' and no rows: not the team {∅}
    team = check_team(Team(("<empty-domain>",), frozenset()))
    assert parse_team(format_team(team)) == team


def test_empty_team_over_empty_domain_has_no_file_form():
    team = check_team(Team((), frozenset()))
    assert format_team(team) == "\n"
    with pytest.raises(ModelError):
        parse_team(format_team(team))


def test_team_value_outside_the_universe():
    model = parse_model("universe: a b")
    check_team_in_model(parse_team("x,y\na,b\nb,b\n"), model)
    with pytest.raises(ModelError) as info:
        check_team_in_model(parse_team("x,y\na,b\nb,c\n"), model)
    assert str(info.value) == "team element 'c' not in the model universe"


# ---------------------------------------------------------------------------
# Differential tests: the whole-table readers against per-tuple and per-row
# readings, kept here as the references

_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def _ref_parse_tuples(body, arity):
    for chunk in _TUPLE_RE.findall(body):
        items = tuple(map(str.strip, chunk.split(","))) if chunk.strip() else ()
        if len(items) != arity:
            raise ModelError(f"tuple ({chunk}) does not match arity {arity}")
        yield items
    stray = _TUPLE_RE.sub("", body).strip()
    if stray:
        raise ModelError(f"unexpected text {stray!r} in table")


def _ref_parse_team(text: str) -> Team:
    if text.strip() == "<empty-domain>":
        return SINGLETON_EMPTY_DOMAIN
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if "".join(row).strip()]
    except csv.Error as e:
        raise ModelError(f"team file is not valid CSV: {e}") from None
    if not rows:
        raise ModelError("team file needs a header row (or the line '<empty-domain>')")
    header = [h.strip() for h in rows[0]]
    width, body = len(header), rows[1:]
    if len(set(header)) != width:
        raise ModelError("duplicate variables in team header")
    if "" in header:
        raise ModelError("empty variable name in team header")
    if not set(map(len, body)) <= {width}:
        row = next(r for r in body if len(r) != width)
        raise ModelError(f"team row {row!r} does not match header")
    order = sorted(range(width), key=header.__getitem__)
    if order != list(range(width)):
        body = map(itemgetter(*order), body)
    rows = frozenset([tuple(map(str.strip, row)) for row in body])
    return check_team(Team(tuple(sorted(header)), rows))


def _outcome(read, *args):
    try:
        return read(*args)
    except ModelError as e:
        return f"ModelError: {e}"


# \xa0 and \u3000 are whitespace to str.split and str.strip alike
_PAD = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", "\u3000"])
_CELL_TEXT = st.sampled_from(["a", "b", "1", "ab", "a b", "", "'"])
_STRAY = st.sampled_from(["b", ")", "(", "((a)", "a)", ",", "x y", "()(", "#c"])


@st.composite
def _tables(draw):
    """A relation arity and a table body: chunks with padded or blank cells,
    and, in half the bodies, chunks of another arity, blank chunks and stray
    text."""
    arity = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
    faulty = draw(st.booleans())
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        fault = faulty and draw(st.integers(0, 3)) == 0
        if fault and draw(st.booleans()):
            parts.append(draw(_STRAY))
            continue
        width = draw(st.integers(0, 3)) if fault else arity
        cells = [draw(_PAD) + draw(_CELL_TEXT) + draw(_PAD) for _ in range(width)]
        parts.append("(" + (",".join(cells) if cells else draw(_PAD)) + ")")
    seps = [draw(st.sampled_from(["", " ", "  ", "\t", "\xa0"])) for _ in parts]
    body = "".join(sep + part for sep, part in zip(seps, parts)) + draw(_PAD)
    return arity, body


@given(st.one_of(_tables(), st.tuples(st.integers(0, 3),
                                      st.text("(),ab \t\xa0#", max_size=24))),
       st.sampled_from(["\n", "\r\n"]))
@example((2, "(a,b,1) (a)"), "\n")  # the comma counts balance over the table
@example((3, "(a,b) (a,b,1,a)"), "\n")
@example((1, ""), "\n")
@example((0, "() ( )"), "\n")
@settings(max_examples=600, deadline=None)
def test_parse_model_matches_per_tuple_reading(table, newline):
    """parse_model gives the model, or the ModelError message, that a
    per-tuple reading of each relation table gives."""
    arity, body = table
    text = newline.join(["universe: a b 1 ab", f"relation R/{arity}: {body}",
                         "relation E/2:", "constant c: a", ""])
    with mock.patch.object(models, "_parse_tuples",
                           lambda b, k: frozenset(_ref_parse_tuples(b, k))):
        want = _outcome(parse_model, text)
    assert _outcome(parse_model, text) == want
    assert _outcome(models._parse_tuples, body, arity) == _outcome(
        lambda: frozenset(_ref_parse_tuples(body, arity)))


_TEAM_CELL = st.sampled_from(["0", "1", "a b", "", ",", '"', "x\ny", "<empty-domain>"])
_BLANK_ROW = st.sampled_from(["", " ", "\t", ",", " , ", ",,", '""', '" "'])


@st.composite
def _team_texts(draw):
    """A team file: a header of one to three variables and rows of padded,
    quoted or empty cells, blank and all-comma rows; in half the files, a
    repeated or empty variable or rows of another width."""
    width = draw(st.integers(1, 3))
    faulty = draw(st.booleans())
    header = draw(st.permutations(["x", "y", "z"]))[:width]
    if faulty and draw(st.booleans()):
        header[-1] = draw(st.sampled_from(["", header[0]]))

    def cell(text):
        pad = draw(_PAD)
        if draw(st.booleans()) or text in (",", '"') or "\n" in text:
            return '"' + pad + text.replace('"', '""') + pad + '"'
        return pad + text + pad

    lines = [",".join(map(cell, header))]
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 4)) if faulty and draw(st.integers(0, 3)) == 0 else width
        lines.append(",".join(cell(draw(_TEAM_CELL)) for _ in range(n)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK_ROW))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(st.one_of(_team_texts(), st.text('ab1,"\n\r \t', max_size=30)))
@settings(max_examples=600, deadline=None)
def test_parse_team_matches_per_row_reading(text):
    """parse_team gives the team, or the ModelError message, that a per-row
    reading gives."""
    assert _outcome(parse_team, text) == _outcome(_ref_parse_team, text)
