"""Terms, formulas, and the syntactic operations everything else builds on.

The kernel formula language is first-order logic with a built-in equality
symbol plus inclusion atoms ``x1,...,xn <= y1,...,yn`` over variables.
Negation is restricted to first-order bodies.  Surface sugar (term
inclusion, anonymity atoms, weak classical negation) is eliminated by
``desugar`` and never reaches the kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Mapping, Union


class FormulaError(ValueError):
    """Malformed term or formula."""


class CaptureError(FormulaError):
    """Substitution would capture a variable; carries the offending binder."""

    def __init__(self, binder: str, var: str):
        super().__init__(f"substituting for {var!r} would be captured by binder {binder!r}")
        self.binder = binder
        self.var = var


# ---------------------------------------------------------------------------
# Signatures

@dataclass(frozen=True)
class Signature:
    """Relation/function arities and constant names; '=' is built in."""

    relations: Mapping[str, int]
    functions: Mapping[str, int]
    constants: frozenset[str]

    def __post_init__(self):
        rel, fun, con = set(self.relations), set(self.functions), set(self.constants)
        overlap = (rel & fun) | (rel & con) | (fun & con)
        if overlap:
            raise FormulaError(f"signature names used in more than one kind: {sorted(overlap)}")
        for name, k in self.relations.items():
            if k < 0:
                raise FormulaError(f"relation {name!r} has negative arity")
        for name, k in self.functions.items():
            if k < 1:
                raise FormulaError(f"function {name!r} must have arity >= 1")

    def names(self) -> frozenset[str]:
        return frozenset(self.relations) | frozenset(self.functions) | self.constants


EMPTY_SIGNATURE = Signature({}, {}, frozenset())


def signature_union(a: Signature, b: Signature) -> Signature:
    for name in set(a.relations) & set(b.relations):
        if a.relations[name] != b.relations[name]:
            raise FormulaError(f"relation {name!r} declared with two arities")
    for name in set(a.functions) & set(b.functions):
        if a.functions[name] != b.functions[name]:
            raise FormulaError(f"function {name!r} declared with two arities")
    return Signature(
        {**a.relations, **b.relations},
        {**a.functions, **b.functions},
        a.constants | b.constants,
    )


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["Term", ...]


Term = Union[Var, Const, App]


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_names(t: Term) -> frozenset[str]:
    """Every identifier in the term (variables, constants, function symbols)."""
    if isinstance(t, Var) or isinstance(t, Const):
        return frozenset((t.name,))
    out = frozenset((t.func,))
    for a in t.args:
        out |= term_names(a)
    return out


def subst_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Const):
        return t
    return App(t.func, tuple(subst_term(a, mapping) for a in t.args))


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True, init=False)
class _Node:
    """A formula node's hash, free variables, first-order flag and quantifier
    depth, computed once at construction from its children's stored values,
    so reading them never walks the tree.  Each class's ``__init__`` writes
    its fields and these values straight into ``__dict__``."""

    _hash: int = field(init=False, repr=False, compare=False)
    _free_vars: frozenset[str] = field(init=False, repr=False, compare=False)
    _first_order: bool = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # an explicit stack, so two deep trees compare without recursion; the
        # stored hashes reject most unequal pairs at their roots
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a._compared:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


def _node(cls):
    """Make ``cls`` a frozen dataclass that keeps its own ``__init__``, the
    stored hash and the stack-based equality, in place of the generated ones
    that would recurse through the fields, and so the whole tree."""
    cls = dataclass(frozen=True, init=False)(cls)
    cls.__hash__ = _Node.__hash__
    cls.__eq__ = _Node.__eq__
    cls._compared = tuple(f.name for f in fields(cls) if f.compare)
    return cls


@_node
class Bottom(_Node):
    def __init__(self):
        d = self.__dict__
        d["_hash"], d["_free_vars"], d["_first_order"], d["_depth"] = 0, frozenset(), True, 0


@_node
class Equals(_Node):
    left: Term
    right: Term

    def __init__(self, left: Term, right: Term):
        d = self.__dict__
        d["left"], d["right"] = left, right
        # variables, the common case, hash by name, without calling Var.__hash__
        if type(left) is Var and type(right) is Var:
            a, b = left.name, right.name
            d["_hash"], d["_free_vars"] = hash((a, b)), frozenset((a, b))
        else:
            d["_hash"], d["_free_vars"] = hash((left, right)), term_vars(left) | term_vars(right)
        d["_first_order"], d["_depth"] = True, 0


@_node
class Relation(_Node):
    name: str
    args: tuple[Term, ...]

    def __init__(self, name: str, args: tuple[Term, ...]):
        d = self.__dict__
        d["name"], d["args"], d["_first_order"], d["_depth"] = name, args, True, 0
        names = [t.name for t in args if type(t) is Var]
        if len(names) == len(args):
            d["_hash"], d["_free_vars"] = hash((name, *names)), frozenset(names)
        else:
            d["_hash"] = hash((name, args))
            d["_free_vars"] = frozenset().union(*map(term_vars, args))


@_node
class Not(_Node):
    body: "Formula"

    def __init__(self, body: "Formula"):
        if not body._first_order:
            raise FormulaError("negation applies to first-order formulas only")
        d = self.__dict__
        d["body"], d["_hash"], d["_free_vars"] = body, hash((body._hash,)), body._free_vars
        d["_first_order"], d["_depth"] = True, body._depth


@dataclass(frozen=True, init=False)
class _Binary(_Node):
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        d = self.__dict__
        d["left"], d["right"], d["_hash"] = left, right, hash((left._hash, right._hash))
        d["_free_vars"] = left._free_vars | right._free_vars
        d["_first_order"] = left._first_order and right._first_order
        d["_depth"] = max(left._depth, right._depth)


@_node
class And(_Binary):
    pass


@_node
class Or(_Binary):
    pass


@dataclass(frozen=True, init=False)
class _Quantifier(_Node):
    var: str
    body: "Formula"

    def __init__(self, var: str, body: "Formula"):
        free = body._free_vars
        d = self.__dict__
        d["var"], d["body"], d["_hash"] = var, body, hash((var, body._hash))
        # the body's own set when the binder is not free in it
        d["_free_vars"] = free - {var} if var in free else free
        d["_first_order"], d["_depth"] = body._first_order, body._depth + 1


@_node
class Exists(_Quantifier):
    pass


@_node
class Forall(_Quantifier):
    pass


@_node
class Inclusion(_Node):
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __init__(self, lhs: tuple[str, ...], rhs: tuple[str, ...]):
        if len(lhs) != len(rhs):
            raise FormulaError("inclusion atom sides must have equal length")
        if not lhs:
            raise FormulaError("inclusion atom sides must be nonempty")
        _set_atom(self, lhs, rhs, frozenset(lhs + rhs))


def _set_atom(node: _Node, lhs: tuple, rhs: tuple, free: frozenset[str]) -> None:
    # the fields and metadata of a two-sided atom, which is not first-order
    d = node.__dict__
    d["lhs"], d["rhs"], d["_hash"], d["_free_vars"] = lhs, rhs, hash((lhs, rhs)), free
    d["_first_order"], d["_depth"] = False, 0


Formula = Union[Bottom, Equals, Relation, Not, And, Or, Exists, Forall, Inclusion]


def is_first_order(f: Formula) -> bool:
    return f._first_order


def free_vars(f: Formula) -> frozenset[str]:
    return f._free_vars


def quantifier_depth(f: Formula) -> int:
    return f._depth


TRUE: Formula = Not(Bottom())


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, parents before children, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (Not, Exists, Forall)):
            stack.append(g.body)
        elif isinstance(g, (And, Or)):
            stack += (g.right, g.left)


def all_names(f: Formula) -> frozenset[str]:
    """Every identifier occurring in the formula, free or bound."""
    out: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Equals):
            out |= term_names(g.left) | term_names(g.right)
        elif isinstance(g, Relation):
            out.add(g.name)
            out.update(*map(term_names, g.args))
        elif isinstance(g, Inclusion):
            out.update(g.lhs, g.rhs)
        elif isinstance(g, (Exists, Forall)):
            out.add(g.var)
    return frozenset(out)


def operands(f: Formula, kind: type) -> Iterator[Formula]:
    """The operands of ``f``'s maximal chain of ``kind`` nodes, left to right,
    walked on a stack so a long chain does not recurse once per operand;
    ``f`` alone when it is not a ``kind``."""
    if type(f) is not kind:
        yield f
        return
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is kind:
            stack += (g.right, g.left)
        else:
            yield g


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction of a nonempty list."""
    return _fold(And, parts, "conjunction")


def disj(parts: Iterable[Formula]) -> Formula:
    return _fold(Or, parts, "disjunction")


def _fold(kind: type, parts: Iterable[Formula], what: str) -> Formula:
    parts = list(parts)
    if not parts:
        raise FormulaError(f"empty {what}")
    return functools.reduce(kind, parts)


def fo_implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def fo_iff(a: Formula, b: Formula) -> Formula:
    return And(fo_implies(a, b), fo_implies(b, a))


def exists_seq(names: Iterable[str], body: Formula) -> Formula:
    for v in reversed(list(names)):
        body = Exists(v, body)
    return body


def forall_seq(names: Iterable[str], body: Formula) -> Formula:
    for v in reversed(list(names)):
        body = Forall(v, body)
    return body


# ---------------------------------------------------------------------------
# Fresh names

def fresh_name(base: str, used: set[str]) -> str:
    """Lowest unused suffix on the base name's stem; deterministic."""
    if base not in used:
        return base
    stem = base.rstrip("0123456789") or base
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


def fresh_names(base: str, count: int, used: set[str]) -> list[str]:
    """Fresh variants of ``base``; extends ``used`` in place."""
    out = []
    for _ in range(count):
        v = fresh_name(base, used)
        used.add(v)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Substitution

def substitute_parallel(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneous capture-checked substitution of terms for variables.

    Raises CaptureError if replacement would be captured by a binder, and
    FormulaError if a non-variable term hits an inclusion atom (the caller
    should desugar to term inclusion instead).
    """
    live = {v: t for v, t in mapping.items() if not (isinstance(t, Var) and t.name == v)}
    return _subst(f, live)


def substitute(f: Formula, var: str, t: Term) -> Formula:
    return substitute_parallel(f, {var: t})


def _subst(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    mapping = {v: t for v, t in mapping.items() if v in free_vars(f)}
    if not mapping:
        return f
    if isinstance(f, Equals):
        return Equals(subst_term(f.left, mapping), subst_term(f.right, mapping))
    if isinstance(f, Relation):
        return Relation(f.name, tuple(subst_term(a, mapping) for a in f.args))
    if isinstance(f, Inclusion):
        return Inclusion(_subst_varseq(f.lhs, mapping), _subst_varseq(f.rhs, mapping))
    if isinstance(f, Not):
        return Not(_subst(f.body, mapping))
    if isinstance(f, (And, Or)):
        return type(f)(_subst(f.left, mapping), _subst(f.right, mapping))
    if isinstance(f, (Exists, Forall)):
        inner = {v: t for v, t in mapping.items() if v != f.var}
        for v, t in inner.items():
            if f.var in term_vars(t):
                raise CaptureError(f.var, v)
        return type(f)(f.var, _subst(f.body, inner))
    raise FormulaError(f"cannot substitute in {f!r}")


def _subst_varseq(seq: tuple[str, ...], mapping: Mapping[str, Term]) -> tuple[str, ...]:
    out = []
    for v in seq:
        t = mapping.get(v)
        if t is None:
            out.append(v)
        elif isinstance(t, Var):
            out.append(t.name)
        else:
            raise FormulaError(
                "inclusion atoms take variables only; use term-inclusion desugaring"
            )
    return tuple(out)


def rename_bound(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    """Alpha-variant with pairwise-distinct bound variables.

    Bound names end up disjoint from ``reserved`` and the free variables;
    fresh names come from the deterministic gensym.
    """
    used = set(reserved) | set(free_vars(f))
    return _rename(f, {}, used)


def _rename(f: Formula, ren: Mapping[str, Var], used: set[str]) -> Formula:
    """Copy of ``f`` with each free variable in ``ren`` replaced by its Var and
    each binder renamed to a fresh name from ``used``; so a quantifier-free
    ``f`` is renamed without any capture check."""
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Equals):
        return Equals(subst_term(f.left, ren), subst_term(f.right, ren))
    if isinstance(f, Relation):
        return Relation(f.name, tuple([subst_term(a, ren) for a in f.args]))
    if isinstance(f, Inclusion):
        return Inclusion(_subst_varseq(f.lhs, ren), _subst_varseq(f.rhs, ren))
    if isinstance(f, Not):
        return Not(_rename(f.body, ren, used))
    if isinstance(f, (And, Or)):
        return type(f)(_rename(f.left, ren, used), _rename(f.right, ren, used))
    if isinstance(f, (Exists, Forall)):
        new = fresh_name(f.var, used)
        used.add(new)
        return type(f)(new, _rename(f.body, {**ren, f.var: Var(new)}, used))
    raise FormulaError(f"cannot rename in {f!r}")


def alpha_equivalent(a: Formula, b: Formula) -> bool:
    return _alpha(a, b, {}, {})


def _alpha(a: Formula, b: Formula, ra: Mapping[str, str], rb: Mapping[str, str]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Bottom):
        return True

    def tv(t: Term, r: Mapping[str, str]) -> Term:
        return subst_term(t, {v: Var(w) for v, w in r.items()})

    if isinstance(a, Equals):
        return tv(a.left, ra) == tv(b.left, rb) and tv(a.right, ra) == tv(b.right, rb)
    if isinstance(a, Relation):
        return a.name == b.name and all(
            tv(x, ra) == tv(y, rb) for x, y in zip(a.args, b.args)
        ) and len(a.args) == len(b.args)
    if isinstance(a, Inclusion):
        ren_a = tuple(ra.get(v, v) for v in a.lhs + a.rhs)
        ren_b = tuple(rb.get(v, v) for v in b.lhs + b.rhs)
        return len(a.lhs) == len(b.lhs) and ren_a == ren_b
    if isinstance(a, Not):
        return _alpha(a.body, b.body, ra, rb)
    if isinstance(a, (And, Or)):
        return _alpha(a.left, b.left, ra, rb) and _alpha(a.right, b.right, ra, rb)
    # quantifiers: map both binders onto one canonical placeholder
    mark = f"#{len(ra)}"
    return _alpha(a.body, b.body, {**ra, a.var: mark}, {**rb, b.var: mark})


# ---------------------------------------------------------------------------
# Sugar

# Sugar forms carry the same metadata as kernel nodes, read off the form as
# written; none of them counts as first-order.

@_node
class TermInclusion(_Node):
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]

    def __init__(self, lhs: tuple[Term, ...], rhs: tuple[Term, ...]):
        if len(lhs) != len(rhs) or not lhs:
            raise FormulaError("term inclusion sides must be nonempty and equal length")
        _set_atom(self, lhs, rhs, frozenset().union(*map(term_vars, lhs + rhs)))


@_node
class Anonymity(_Node):
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __init__(self, lhs: tuple[str, ...], rhs: tuple[str, ...]):
        _set_atom(self, lhs, rhs, frozenset(lhs + rhs))


@_node
class WeakNeg(_Node):
    body: Formula

    def __init__(self, body: Formula):
        if not body._first_order:
            raise FormulaError("weak negation applies to first-order formulas only")
        d = self.__dict__
        d["body"], d["_hash"], d["_free_vars"] = body, hash((body._hash,)), body._free_vars
        d["_first_order"], d["_depth"] = False, body._depth


SugarForm = Union[TermInclusion, Anonymity, WeakNeg]


def desugar(s: SugarForm, reserved: Iterable[str] = ()) -> Formula:
    """Expand sugar into the kernel language with deterministic fresh names."""
    if isinstance(s, TermInclusion):
        return _desugar_term_inclusion(s, reserved)
    if isinstance(s, Anonymity):
        return _desugar_anonymity(s, reserved)
    if isinstance(s, WeakNeg):
        return _desugar_weak_neg(s, reserved)
    raise FormulaError(f"not a sugar form: {s!r}")


def _desugar_term_inclusion(s: TermInclusion, reserved: Iterable[str]) -> Formula:
    # [t1..tn] <= [t1'..tn']  ~~>  E u.. E w.. (u = t & w = t' & u <= w)
    used = set(reserved)
    for t in s.lhs + s.rhs:
        used |= term_names(t)
    us = fresh_names("u", len(s.lhs), used)
    ws = fresh_names("w", len(s.rhs), used)
    parts: list[Formula] = [Equals(Var(u), t) for u, t in zip(us, s.lhs)]
    parts += [Equals(Var(w), t) for w, t in zip(ws, s.rhs)]
    parts.append(Inclusion(tuple(us), tuple(ws)))
    return exists_seq(us + ws, conj(parts))


def _desugar_anonymity(s: Anonymity, reserved: Iterable[str]) -> Formula:
    # x ups y  ~~>  E v.. (x,v <= x,y & (v1 != y1 | ... | vm != ym));  x ups <> is bot
    if not s.rhs:
        return Bottom()
    used = set(reserved) | set(s.lhs) | set(s.rhs)
    vs = fresh_names("v", len(s.rhs), used)
    atom = Inclusion(s.lhs + tuple(vs), s.lhs + s.rhs)
    diffs = disj([Not(Equals(Var(v), Var(y))) for v, y in zip(vs, s.rhs)])
    return exists_seq(vs, And(atom, diffs))


def _desugar_weak_neg(s: WeakNeg, reserved: Iterable[str]) -> Formula:
    # snot a(x)  ~~>  E y.. (y <= x & ~a(y/x)); for sentences plain ~a is equivalent
    xs = sorted(free_vars(s.body))
    if not xs:
        return Not(s.body)
    used = set(reserved) | set(all_names(s.body))
    ys = fresh_names("y", len(xs), used)
    negated = Not(substitute_parallel(s.body, {x: Var(y) for x, y in zip(xs, ys)}))
    return exists_seq(ys, And(Inclusion(tuple(ys), tuple(xs)), negated))


def weak_neg_of(body: Formula) -> Formula:
    """The canonical kernel form of the weak classical negation of ``body``."""
    return desugar(WeakNeg(body))


# ---------------------------------------------------------------------------
# Pretty printing

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def pretty_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.func}({', '.join(pretty_term(a) for a in t.args)})"


def pretty(f: Formula) -> str:
    """Concrete syntax that reparses to an alpha-equivalent formula."""
    # an explicit stack of (formula, context precedence) pairs and the text
    # still to follow them, so a long conjunction prints without recursion
    out, stack = [], [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        kind = type(g)
        if kind is And or kind is Or:
            prec, op = (_PREC_AND, " & ") if kind is And else (_PREC_OR, " | ")
            rest = [(g.right, prec + 1), op, (g.left, prec)]
        elif kind is Exists or kind is Forall:
            prec, rest = 0, [(g.body, 0), f"{'E' if kind is Exists else 'A'} {g.var}. "]
        elif kind is Not:
            prec, rest = _PREC_NOT, [(g.body, _PREC_NOT), "~"]
        else:
            out.append(_pp_atom(g))
            continue
        stack += [")", *rest, "("] if prec < ctx else rest
    return "".join(out)


def _pp_atom(f: Formula) -> str:
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Equals):
        return f"{pretty_term(f.left)} = {pretty_term(f.right)}"
    if isinstance(f, Relation):
        if f.name == "<" and len(f.args) == 2:
            return f"{pretty_term(f.args[0])} < {pretty_term(f.args[1])}"
        return f"{f.name}({', '.join(pretty_term(a) for a in f.args)})"
    if isinstance(f, Inclusion):
        return f"{','.join(f.lhs)} <= {','.join(f.rhs)}"
    raise FormulaError(f"cannot print {f!r}")
