"""Finite first-order structures, teams, and their text file formats.

Model file format (``#`` starts a comment)::

    universe: a b c
    relation <=/2: (a,a) (a,b)
    function f/1: (a)->b (b)->a (c)->c
    constant zero: a

Team file: CSV with a header row of variable names and one row of element
ids per assignment.  An empty body is the empty team over that domain; a
file whose only content is the line ``<empty-domain>`` is the team {∅}.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .syntax import Signature


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Model:
    sig: Signature
    universe: tuple[str, ...]
    relations: Mapping[str, frozenset[tuple[str, ...]]]
    functions: Mapping[str, Mapping[tuple[str, ...], str]]
    constants: Mapping[str, str]

    def __post_init__(self):
        elems = set(self.universe)
        if len(self.universe) < 2:
            raise ModelError("model universe must have at least two elements")
        if len(elems) != len(self.universe):
            raise ModelError("duplicate universe elements")
        for name, arity in self.sig.relations.items():
            rows = self.relations.get(name)
            if rows is None:
                raise ModelError(f"missing table for relation {name!r}")
            if not (set(map(len, rows)) <= {arity}
                    and elems.issuperset(itertools.chain.from_iterable(rows))):
                row = next(r for r in rows if len(r) != arity or not set(r) <= elems)
                raise ModelError(f"bad tuple {row!r} in relation {name!r}")
        for name, arity in self.sig.functions.items():
            table = self.functions.get(name)
            if table is None:
                raise ModelError(f"missing table for function {name!r}")
            for args in itertools.product(self.universe, repeat=arity):
                if args not in table:
                    raise ModelError(f"function {name!r} not total: missing {args!r}")
            for args, out in table.items():
                if len(args) != arity or not set(args) <= elems or out not in elems:
                    raise ModelError(f"bad entry {args!r}->{out!r} in function {name!r}")
        for name in self.sig.constants:
            if self.constants.get(name) not in elems:
                raise ModelError(f"constant {name!r} has no interpretation")


@dataclass(frozen=True)
class Team:
    """A set of assignments sharing a variable domain.

    Rows are tuples of element ids aligned with the sorted domain.
    ``Team((), frozenset({()}))`` is the singleton team with empty domain.
    The constructor does not check this; ``check_team`` does, once, where a
    team enters the package. A team built directly is unchecked, so check it
    before handing it to ``duplicate``, ``supplement`` or ``restrict``.
    """

    domain: tuple[str, ...]
    rows: frozenset[tuple[str, ...]]

    @staticmethod
    def from_assignments(assignments: Iterable[Mapping[str, str]],
                         domain: Iterable[str] | None = None) -> "Team":
        rows = []
        dom: tuple[str, ...] | None = tuple(sorted(domain)) if domain is not None else None
        for s in assignments:
            if dom is None:
                dom = tuple(sorted(s))
            elif set(s) != set(dom):
                raise ModelError("assignments with differing domains")
            rows.append(tuple(s[v] for v in dom))
        if dom is None:
            raise ModelError("cannot infer a domain from no assignments")
        return check_team(Team(dom, frozenset(rows)))

    def assignments(self) -> Iterator[dict[str, str]]:
        for row in sorted(self.rows):
            yield dict(zip(self.domain, row))

    def is_empty(self) -> bool:
        return not self.rows

    def restrict(self, variables: Iterable[str]) -> "Team":
        keep = tuple(sorted(set(variables) & set(self.domain)))
        idx = [self.domain.index(v) for v in keep]
        return Team(keep, frozenset(tuple(row[i] for i in idx) for row in self.rows))

    def union(self, other: "Team") -> "Team":
        if self.domain != other.domain:
            raise ModelError("cannot union teams with different domains")
        return Team(self.domain, self.rows | other.rows)

    def __len__(self) -> int:
        return len(self.rows)


SINGLETON_EMPTY_DOMAIN = Team((), frozenset({()}))


def check_team(team: Team) -> Team:
    """Return ``team`` if its domain is sorted without repeats and every row
    matches the domain; raise ModelError otherwise."""
    if tuple(sorted(set(team.domain))) != team.domain:
        raise ModelError("team domain must be sorted, without repeated variables")
    if not set(map(len, team.rows)) <= {len(team.domain)}:
        raise ModelError("team row length does not match domain")
    return team


# ---------------------------------------------------------------------------
# Model files

_DECL_RE = re.compile(
    r"^(universe|relation|function|constant)\s*(.*)$"
)
_NAME = r"(?:[A-Za-z_][A-Za-z0-9_']*|<)"
_HEAD_RE = re.compile(rf"^({_NAME})\s*/\s*(\d+)\s*:\s*(.*)$")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_ENTRY_RE = re.compile(r"^\(([^()]*)\)->(\S+)$")


def parse_model(text: str) -> Model:
    """Parse a model file; its declarations, each made once, define the signature."""
    universe: list[str] = []
    relations: dict[str, frozenset[tuple[str, ...]]] = {}
    rel_arities: dict[str, int] = {}
    functions: dict[str, dict[tuple[str, ...], str]] = {}
    fun_arities: dict[str, int] = {}
    constants: dict[str, str] = {}
    kind_of: dict[str, str] = {}  # the kind of each declared name; "" names the universe

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise ModelError(f"line {lineno}: unrecognized declaration {line!r}")
        kind, rest = m.groups()  # the line is stripped and \s* takes the blanks after kind
        try:
            if kind == "universe":
                if not rest.startswith(":"):
                    raise ModelError("expected 'universe: a b c'")
                name, universe = "", rest[1:].split()
            elif kind == "relation":
                name, arity, body = _parse_decl_head(rest)
                relations[name] = _parse_tuples(body, arity)
                rel_arities[name] = arity
            elif kind == "function":
                name, arity, body = _parse_decl_head(rest)
                if arity < 1:
                    raise ModelError(f"function {name!r} must have arity >= 1")
                functions[name] = _parse_map_entries(body, arity)
                fun_arities[name] = arity
            else:
                name, _, value = rest.partition(":")
                name, value = name.strip(), value.strip()
                if not name or not value:
                    raise ModelError("expected 'constant NAME: elem'")
                constants[name] = value
            first = kind_of.get(name)
            if first == kind:
                raise ModelError(f"{kind} {name!r} declared twice" if name
                                 else "universe declared twice")
            if first:
                raise ModelError(f"{kind} {name!r} is already declared as a {first}")
            kind_of[name] = kind
        except ModelError as e:
            raise ModelError(f"line {lineno}: {e}") from None

    sig = Signature(rel_arities, fun_arities, frozenset(constants))
    return Model(sig, tuple(universe), relations, functions, constants)


def _parse_decl_head(rest: str) -> tuple[str, int, str]:
    m = _HEAD_RE.match(rest)
    if m is None:
        raise ModelError(f"expected 'NAME/ARITY: ...', got {rest!r}")
    name, arity, body = m.groups()
    return name, int(arity), body


def _parse_tuples(body: str, arity: int) -> frozenset[tuple[str, ...]]:
    """The tuples of a relation table, read in whole-table passes.  A blank chunk
    is the empty tuple; any other has one stripped cell per comma and one more."""
    chunks = _TUPLE_RE.findall(body)
    if not (chunks or body.strip()):
        return frozenset()
    joined = ",".join(chunks)
    packed = "".join(joined.split())
    if arity > 1:
        ok = set(map(str.count, chunks, itertools.repeat(","))) == {arity - 1}
    elif arity:
        ok = joined.count(",") == len(chunks) - 1 and all(map(str.strip, chunks))
    else:
        ok = not any(map(str.strip, chunks))
    # no stray text: the body's non-blank characters are the chunks' and 2 per
    # chunk (packed adds n - 1 commas); str.split and str.strip agree on blanks
    if not (chunks and ok and len("".join(body.split())) == len(packed) + len(chunks) + 1):
        for chunk in chunks:  # name the first fault, as a per-tuple reading would
            if (len(chunk.split(",")) if chunk.strip() else 0) != arity:
                raise ModelError(f"tuple ({chunk}) does not match arity {arity}")
        raise ModelError(f"unexpected text {_TUPLE_RE.sub('', body).strip()!r} in table")
    if not arity:
        return frozenset({()})
    cells = joined.split(",")
    if len(packed) != len(joined):
        cells = map(str.strip, cells)
    return frozenset(zip(*[iter(cells)] * arity))


def _parse_map_entries(body: str, arity: int) -> dict[tuple[str, ...], str]:
    table: dict[tuple[str, ...], str] = {}
    for part in body.split():
        m = _ENTRY_RE.match(part)
        if m is None:
            raise ModelError(f"expected '(args)->value', got {part!r}")
        args = tuple(map(str.strip, m.group(1).split(",")))
        if len(args) != arity:
            raise ModelError(f"entry {part!r} does not match arity {arity}")
        if args in table:
            raise ModelError(f"entry {part!r} repeats the arguments {args!r}")
        table[args] = m.group(2)
    return table


def format_model(model: Model) -> str:
    lines = [f"universe: {' '.join(model.universe)}"]
    for name in sorted(model.sig.relations):
        rows = " ".join(f"({','.join(t)})" for t in sorted(model.relations[name]))
        lines.append(f"relation {name}/{model.sig.relations[name]}: {rows}".rstrip())
    for name in sorted(model.sig.functions):
        entries = " ".join(
            f"({','.join(a)})->{v}" for a, v in sorted(model.functions[name].items())
        )
        lines.append(f"function {name}/{model.sig.functions[name]}: {entries}")
    for name in sorted(model.constants):
        lines.append(f"constant {name}: {model.constants[name]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Team files

def parse_team(text: str) -> Team:
    if text.strip() == "<empty-domain>":
        return SINGLETON_EMPTY_DOMAIN
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:
        raise ModelError(f"team file is not valid CSV: {e}") from None
    cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
    if [] in rows or "" in cells:  # skip the rows whose cells are all blank, if any
        rows = [row for row in rows if "".join(row).strip()]
        cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
    if not rows:
        raise ModelError("team file needs a header row (or the line '<empty-domain>')")
    width = len(rows[0])
    header, body = cells[:width], cells[width:]
    if len(set(header)) != width:
        raise ModelError("duplicate variables in team header")
    if "" in header:
        raise ModelError("empty variable name in team header")
    if not set(map(len, rows)) <= {width}:
        row = next(r for r in rows if len(r) != width)
        raise ModelError(f"team row {row!r} does not match header")
    body = zip(*[iter(body)] * width)
    order = sorted(range(width), key=header.__getitem__)
    if order != list(range(width)):
        body = map(itemgetter(*order), body)
    return Team(tuple(sorted(header)), frozenset(body))  # the checks above are check_team's


def format_team(team: Team) -> str:
    """Write ``team`` as a team file that ``parse_team`` reads back.  The
    empty team over the empty domain has no file form: it is written as an
    empty line, which ``parse_team`` rejects.  Nor has a team with a variable
    or value that is empty or padded with whitespace, which ``parse_team``
    would strip or skip as a blank row: it raises ModelError."""
    if team.domain == () and team.rows:
        return "<empty-domain>\n"
    if team.domain == ("<empty-domain>",) and not team.rows:
        return '"<empty-domain>"\n'  # quoted, so not read as the line above
    bad = next((c for c in itertools.chain(team.domain, *team.rows)
                if not c or c != c.strip()), None)
    if bad is not None:
        raise ModelError(f"team cell {bad!r} is empty or padded with whitespace")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(team.domain)
    for row in sorted(team.rows):
        writer.writerow(row)
    return out.getvalue()


def check_team_in_model(team: Team, model: Model):
    elems = set(model.universe)
    if not elems.issuperset(itertools.chain.from_iterable(team.rows)):
        value = next(v for v in itertools.chain.from_iterable(team.rows) if v not in elems)
        raise ModelError(f"team element {value!r} not in the model universe")
