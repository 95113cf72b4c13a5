"""Sequent-style checker for the natural-deduction rules of inclusion logic.

Each rule application carries explicit instantiation parameters, so
checking is deterministic: ``apply_rule`` recomputes the conclusion
sequent from the premises and parameters, enforcing every side condition
syntactically.  Contexts are sets of formulas (the undischarged
assumptions); discharge rules remove the designated assumption from the
relevant premise context and union the rest.

Freshness means: not occurring, free or bound, in any premise formula
(for the backward direction of an invertible rule, in the reconstructed
source material instead — the premise necessarily contains the fresh
variables there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..syntax import (
    And,
    App,
    Bottom,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Inclusion,
    Not,
    Or,
    Relation,
    Term,
    Var,
    all_names,
    conj,
    exists_seq,
    fo_iff,
    forall_seq,
    free_vars,
    is_first_order,
    pretty,
    substitute,
    substitute_parallel,
)

_FORMULA_TYPES = (Bottom, Equals, Relation, Not, And, Or, Exists, Forall, Inclusion)
_TERM_TYPES = (Var, Const, App)


class RuleError(ValueError):
    """A rule application is malformed or violates a side condition."""


@dataclass(frozen=True)
class Sequent:
    context: frozenset[Formula]
    conclusion: Formula

    def __str__(self) -> str:
        ctx = "; ".join(sorted(pretty(f) for f in self.context))
        return f"{ctx} |- {pretty(self.conclusion)}"


@dataclass(frozen=True)
class RuleApp:
    rule: str
    params: Mapping[str, object] = field(default_factory=dict)


def apply_rule(app: RuleApp, premises: Sequence[Sequent]) -> Sequent:
    """Conclusion sequent of the rule application, or RuleError."""
    handler = RULES.get(app.rule)
    if handler is None:
        raise RuleError(f"unknown rule {app.rule!r}")
    arity, fn = handler
    if len(premises) != arity:
        raise RuleError(f"{app.rule} takes {arity} premises, got {len(premises)}")
    try:
        return fn(_Params(app.rule, app.params), list(premises))
    except FormulaError as e:
        raise RuleError(f"{app.rule}: {e}") from None


# ---------------------------------------------------------------------------
# Parameter and side-condition helpers

class _Params:
    def __init__(self, rule: str, params: Mapping[str, object]):
        self.rule = rule
        self.params = params

    def formula(self, key: str) -> Formula:
        v = self.params.get(key)
        if isinstance(v, _FORMULA_TYPES):
            return v
        raise RuleError(f"{self.rule} needs formula parameter {key!r}")

    def formulas(self, key: str) -> tuple[Formula, ...]:
        v = self.params.get(key)
        if isinstance(v, tuple) and v and all(isinstance(x, _FORMULA_TYPES) for x in v):
            return v
        raise RuleError(f"{self.rule} needs formula-list parameter {key!r}")

    def term(self, key: str) -> Term:
        v = self.params.get(key)
        if isinstance(v, _TERM_TYPES):
            return v
        raise RuleError(f"{self.rule} needs term parameter {key!r}")

    def var(self, key: str) -> str:
        v = self.params.get(key)
        if isinstance(v, str) and v:
            return v
        raise RuleError(f"{self.rule} needs variable parameter {key!r}")

    def varseq(self, key: str) -> tuple[str, ...]:
        v = self.params.get(key)
        if isinstance(v, tuple) and all(isinstance(x, str) for x in v):
            return v
        raise RuleError(f"{self.rule} needs variable-sequence parameter {key!r}")

    def int_(self, key: str) -> int:
        v = self.params.get(key)
        if isinstance(v, int):
            return v
        raise RuleError(f"{self.rule} needs integer parameter {key!r}")


def _fo_context(rule: str, cond: str, ctx: frozenset[Formula]):
    bad = [f for f in ctx if not is_first_order(f)]
    if bad:
        raise RuleError(
            f"{rule} condition {cond}: undischarged assumptions must be first-order")


def _not_free(rule: str, cond: str, var: str, formulas) -> None:
    for f in formulas:
        if var in free_vars(f):
            raise RuleError(f"{rule} condition {cond}: {var!r} occurs free in {f!r}")


def _fresh(rule: str, cond: str, names: Sequence[str], occupied: set[str]) -> None:
    for v in names:
        if v in occupied:
            raise RuleError(f"{rule} condition {cond}: {v!r} is not fresh")
    if len(set(names)) != len(names):
        raise RuleError(f"{rule} condition {cond}: fresh variables must be distinct")


def _names_of(formulas) -> set[str]:
    out: set[str] = set()
    for f in formulas:
        out |= all_names(f)
    return out


def _union(*contexts: frozenset[Formula]) -> frozenset[Formula]:
    out: frozenset[Formula] = frozenset()
    for c in contexts:
        out |= c
    return out


def _expect_inclusion(rule: str, f: Formula) -> Inclusion:
    if not isinstance(f, Inclusion):
        raise RuleError(f"{rule}: premise must be an inclusion atom")
    return f


def _expect_fo(rule: str, f: Formula, what: str = "formula"):
    if not is_first_order(f):
        raise RuleError(f"{rule}: {what} must be first-order")


# ---------------------------------------------------------------------------
# Equality

def _eq_i(p: _Params, prem) -> Sequent:
    t = p.term("t")
    return Sequent(frozenset(), Equals(t, t))


def _eq_sub(p: _Params, prem) -> Sequent:
    phi, pivot = p.formula("phi"), p.var("var")
    eq, inst = prem
    if not isinstance(eq.conclusion, Equals):
        raise RuleError("eqSub: first premise must conclude an equality")
    t, t2 = eq.conclusion.left, eq.conclusion.right
    if substitute(phi, pivot, t) != inst.conclusion:
        raise RuleError("eqSub: second premise does not match phi(t/x)")
    return Sequent(_union(eq.context, inst.context), substitute(phi, pivot, t2))


# ---------------------------------------------------------------------------
# Negation

def _neg_i(p: _Params, prem) -> Sequent:
    alpha = p.formula("alpha")
    _expect_fo("negI", alpha, "discharged assumption")
    (d,) = prem
    if d.conclusion != Bottom():
        raise RuleError("negI: premise must conclude bot")
    ctx = d.context - {alpha}
    _fo_context("negI", "(1)", ctx)
    return Sequent(ctx, Not(alpha))


def _neg_e(p: _Params, prem) -> Sequent:
    phi = p.formula("phi")
    pos, neg = prem
    if not isinstance(neg.conclusion, Not) or neg.conclusion.body != pos.conclusion:
        raise RuleError("negE: premises must be alpha and ~alpha")
    return Sequent(_union(pos.context, neg.context), phi)


def _raa(p: _Params, prem) -> Sequent:
    alpha = p.formula("alpha")
    _expect_fo("RAA", alpha, "conclusion")
    (d,) = prem
    if d.conclusion != Bottom():
        raise RuleError("RAA: premise must conclude bot")
    ctx = d.context - {Not(alpha)}
    _fo_context("RAA", "(1)", ctx)
    return Sequent(ctx, alpha)


# ---------------------------------------------------------------------------
# Conjunction and disjunction

def _and_i(p: _Params, prem) -> Sequent:
    a, b = prem
    return Sequent(_union(a.context, b.context), And(a.conclusion, b.conclusion))


def _and_e_l(p: _Params, prem) -> Sequent:
    (d,) = prem
    if not isinstance(d.conclusion, And):
        raise RuleError("andE_l: premise must conclude a conjunction")
    return Sequent(d.context, d.conclusion.left)


def _and_e_r(p: _Params, prem) -> Sequent:
    (d,) = prem
    if not isinstance(d.conclusion, And):
        raise RuleError("andE_r: premise must conclude a conjunction")
    return Sequent(d.context, d.conclusion.right)


def _or_i_l(p: _Params, prem) -> Sequent:
    (d,) = prem
    return Sequent(d.context, Or(d.conclusion, p.formula("other")))


def _or_i_r(p: _Params, prem) -> Sequent:
    (d,) = prem
    return Sequent(d.context, Or(p.formula("other"), d.conclusion))


def _or_e(p: _Params, prem) -> Sequent:
    major, d0, d1 = prem
    if not isinstance(major.conclusion, Or):
        raise RuleError("orE: first premise must conclude a disjunction")
    if d0.conclusion != d1.conclusion:
        raise RuleError("orE: case derivations must conclude the same formula")
    ctx0 = d0.context - {major.conclusion.left}
    ctx1 = d1.context - {major.conclusion.right}
    _fo_context("orE", "(2)", ctx0)
    _fo_context("orE", "(2)", ctx1)
    return Sequent(_union(major.context, ctx0, ctx1), d0.conclusion)


# ---------------------------------------------------------------------------
# Quantifiers

def _exists_i(p: _Params, prem) -> Sequent:
    phi, pivot, t = p.formula("phi"), p.var("var"), p.term("t")
    (d,) = prem
    if substitute(phi, pivot, t) != d.conclusion:
        raise RuleError("existsI: premise does not match phi(t/x)")
    return Sequent(d.context, Exists(pivot, phi))


def _exists_e(p: _Params, prem) -> Sequent:
    ex, d = prem
    if not isinstance(ex.conclusion, Exists):
        raise RuleError("existsE: first premise must conclude an existential")
    x, body = ex.conclusion.var, ex.conclusion.body
    ctx = d.context - {body}
    _not_free("existsE", "(3)", x, [d.conclusion])
    _not_free("existsE", "(3)", x, ctx)
    return Sequent(_union(ex.context, ctx), d.conclusion)


def _forall_i(p: _Params, prem) -> Sequent:
    x = p.var("var")
    (d,) = prem
    _not_free("forallI", "(4)", x, d.context)
    return Sequent(d.context, Forall(x, d.conclusion))


def _forall_e(p: _Params, prem) -> Sequent:
    t = p.term("t")
    (d,) = prem
    if not isinstance(d.conclusion, Forall):
        raise RuleError("forallE: premise must conclude a universal")
    body = d.conclusion.body
    _expect_fo("forallE", body, "the quantified body")
    return Sequent(d.context, substitute(body, d.conclusion.var, t))


def _forall_e0(p: _Params, prem) -> Sequent:
    (d,) = prem
    if not isinstance(d.conclusion, Forall):
        raise RuleError("forallE0: premise must conclude a universal")
    x, body = d.conclusion.var, d.conclusion.body
    if x in free_vars(body):
        raise RuleError(f"forallE0 condition (5): {x!r} occurs free in the body")
    return Sequent(d.context, body)


def _forall_sub(p: _Params, prem) -> Sequent:
    y = p.var("var")
    fa, d = prem
    if not isinstance(fa.conclusion, Forall):
        raise RuleError("forallSub: first premise must conclude a universal")
    x, body = fa.conclusion.var, fa.conclusion.body
    discharged = substitute(body, x, Var(y))
    ctx = d.context - {discharged}
    _not_free("forallSub", "(6)", y, [fa.conclusion])
    _not_free("forallSub", "(6)", y, ctx)
    return Sequent(_union(fa.context, ctx), Forall(y, d.conclusion))


def _forall_exc(p: _Params, prem) -> Sequent:
    (d,) = prem
    f = d.conclusion
    if not (isinstance(f, Forall) and isinstance(f.body, Forall)):
        raise RuleError("forallExc: premise must conclude A x. A y. phi")
    return Sequent(d.context, Forall(f.body.var, Forall(f.var, f.body.body)))


def _forall_and_ext(p: _Params, prem) -> Sequent:
    a, b = prem
    if not (isinstance(a.conclusion, Forall) and isinstance(b.conclusion, Forall)):
        raise RuleError("forallAndExt: premises must conclude universals")
    if a.conclusion.var != b.conclusion.var:
        raise RuleError("forallAndExt: premises must quantify the same variable")
    x = a.conclusion.var
    return Sequent(_union(a.context, b.context),
                   Forall(x, And(a.conclusion.body, b.conclusion.body)))


def _or_ext_shape(x: str, phi: Formula, psi: Formula, y: str, z: str) -> Formula:
    eq = Equals(Var(y), Var(z))
    return Exists(y, Exists(z, Forall(x, Or(And(phi, eq), And(psi, Not(eq))))))


def _forall_or_ext_fwd(p: _Params, prem) -> Sequent:
    y, z = p.var("y"), p.var("z")
    (d,) = prem
    f = d.conclusion
    if not (isinstance(f, Or) and isinstance(f.left, Forall)):
        raise RuleError("forallOrExt: premise must conclude (A x. phi) | psi")
    x, phi, psi = f.left.var, f.left.body, f.right
    _not_free("forallOrExt", "(7)", x, [psi])
    _fresh("forallOrExt", "(7)", [y, z], _names_of(list(d.context) + [f]))
    return Sequent(d.context, _or_ext_shape(x, phi, psi, y, z))


def _forall_or_ext_bwd(p: _Params, prem) -> Sequent:
    (d,) = prem
    f = d.conclusion
    if not (isinstance(f, Exists) and isinstance(f.body, Exists)
            and isinstance(f.body.body, Forall)):
        raise RuleError("forallOrExt (inverted): premise shape mismatch")
    y, z, x = f.var, f.body.var, f.body.body.var
    body = f.body.body.body
    if not (isinstance(body, Or) and isinstance(body.left, And)
            and isinstance(body.right, And)):
        raise RuleError("forallOrExt (inverted): premise shape mismatch")
    phi, eq1 = body.left.left, body.left.right
    psi, neq = body.right.left, body.right.right
    if eq1 != Equals(Var(y), Var(z)) or neq != Not(Equals(Var(y), Var(z))):
        raise RuleError("forallOrExt (inverted): y=z pattern mismatch")
    _not_free("forallOrExt", "(7)", x, [psi])
    _fresh("forallOrExt", "(7)", [y, z], _names_of([phi, psi]) | {x})
    return Sequent(d.context, Or(Forall(x, phi), psi))


# ---------------------------------------------------------------------------
# Inclusion atoms

def _inc_exc(p: _Params, prem) -> Sequent:
    n1, n2 = p.int_("len1"), p.int_("len2")
    (d,) = prem
    atom = _expect_inclusion("incExc", d.conclusion)
    n = len(atom.lhs)
    if n1 < 0 or n2 < 0 or n1 + n2 > n:
        raise RuleError("incExc: block lengths do not fit the atom")

    def swap(seq: tuple[str, ...]) -> tuple[str, ...]:
        return seq[n1:n1 + n2] + seq[:n1] + seq[n1 + n2:]

    return Sequent(d.context, Inclusion(swap(atom.lhs), swap(atom.rhs)))


def _inc_ctr(p: _Params, prem) -> Sequent:
    keep = p.int_("keep")
    (d,) = prem
    atom = _expect_inclusion("incCtr", d.conclusion)
    if not 1 <= keep <= len(atom.lhs):
        raise RuleError("incCtr: keep count out of range")
    return Sequent(d.context, Inclusion(atom.lhs[:keep], atom.rhs[:keep]))


def _inc_trs(p: _Params, prem) -> Sequent:
    a, b = prem
    ab = _expect_inclusion("incTrs", a.conclusion)
    bc = _expect_inclusion("incTrs", b.conclusion)
    if ab.rhs != bc.lhs:
        raise RuleError("incTrs: middle sequences do not match")
    return Sequent(_union(a.context, b.context), Inclusion(ab.lhs, bc.rhs))


def _check_pivots(rule: str, cond: str, alpha: Formula, pivots: tuple[str, ...]):
    _expect_fo(rule, alpha, "the schematic formula")
    if len(set(pivots)) != len(pivots):
        raise RuleError(f"{rule}: pivot variables must be distinct")
    if not free_vars(alpha) <= set(pivots):
        raise RuleError(
            f"{rule} condition {cond}: free variables of the schematic formula"
            " must be among the pivots")


def _inc_cmp(p: _Params, prem) -> Sequent:
    alpha, pivots = p.formula("alpha"), p.varseq("pivots")
    inc, inst = prem
    atom = _expect_inclusion("incCmp", inc.conclusion)
    yseq, xseq = atom.lhs, atom.rhs
    if len(pivots) != len(xseq):
        raise RuleError("incCmp: pivot count must match the atom width")
    _check_pivots("incCmp", "(1)", alpha, pivots)
    expected = substitute_parallel(alpha, {pv: Var(x) for pv, x in zip(pivots, xseq)})
    if expected != inst.conclusion:
        raise RuleError("incCmp: second premise does not match alpha(x/z)")
    result = substitute_parallel(alpha, {pv: Var(y) for pv, y in zip(pivots, yseq)})
    return Sequent(_union(inc.context, inst.context), result)


def _inc_exp(p: _Params, prem) -> Sequent:
    alpha, pivots = p.formula("alpha"), p.varseq("pivots")
    xseq, yseq = p.varseq("xseq"), p.varseq("yseq")
    (d,) = prem
    if d.conclusion != Bottom():
        raise RuleError("incExp: premise must conclude bot")
    if not (len(pivots) == len(xseq) == len(yseq)) or not pivots:
        raise RuleError("incExp: pivot/x/y sequences must be nonempty, equal length")
    _check_pivots("incExp", "(2)", alpha, pivots)
    if len(set(yseq)) != len(yseq) or set(yseq) & set(xseq):
        raise RuleError("incExp: y must be distinct variables disjoint from x")
    atom = Inclusion(yseq, xseq)
    neg = Not(substitute_parallel(alpha, {pv: Var(y) for pv, y in zip(pivots, yseq)}))
    ctx = d.context - {atom, neg}
    for v in yseq:
        _not_free("incExp", "(2)", v, ctx)
    result = substitute_parallel(alpha, {pv: Var(x) for pv, x in zip(pivots, xseq)})
    return Sequent(ctx, result)


def _inc_wex(p: _Params, prem) -> Sequent:
    w, pad = p.var("fresh"), p.var("pad")
    (d,) = prem
    atom = _expect_inclusion("incWex", d.conclusion)
    if w in set(atom.lhs) | set(atom.rhs) | {pad}:
        raise RuleError(f"incWex condition (3): {w!r} occurs among x, y, z")
    return Sequent(d.context,
                   Exists(w, Inclusion(atom.lhs + (w,), atom.rhs + (pad,))))


def _inc_wall(p: _Params, prem) -> Sequent:
    w, pad = p.var("fresh"), p.var("pad")
    (d,) = prem
    atom = _expect_inclusion("incWall", d.conclusion)
    if w in set(atom.lhs) | set(atom.rhs) | {pad}:
        raise RuleError(f"incWall condition (3): {w!r} occurs among x, y, z")
    return Sequent(d.context,
                   Forall(w, Inclusion(atom.lhs + (pad,), atom.rhs + (w,))))


def _strip_quant(f: Formula, kind, count: int, rule: str) -> tuple[tuple[str, ...], Formula]:
    out = []
    for _ in range(count):
        if not isinstance(f, kind):
            raise RuleError(f"{rule}: expected {count} leading quantifiers")
        out.append(f.var)
        f = f.body
    return tuple(out), f


def _sim_conditions(rule: str, xs: tuple[str, ...], ys: tuple[str, ...],
                    zs: tuple[str, ...], phi: Formula, occupied: set[str]):
    if len(set(xs)) != len(xs):
        raise RuleError(f"{rule}: quantified variables must be distinct")
    if len(ys) != len(xs) or not xs:
        raise RuleError(f"{rule}: need one fresh variable per quantified variable")
    if set(zs) & set(xs) or len(set(zs)) != len(zs):
        raise RuleError(f"{rule}: z must be distinct variables disjoint from x")
    if not free_vars(phi) <= set(xs) | set(zs):
        raise RuleError(f"{rule}: free variables of the body must be among x and z")
    _fresh(rule, "(4)", list(ys), occupied)


def _inc_sim_fwd(p: _Params, prem) -> Sequent:
    count, zs, ys = p.int_("count"), p.varseq("zseq"), p.varseq("yseq")
    (d,) = prem
    xs, phi = _strip_quant(d.conclusion, Forall, count, "incSim")
    _sim_conditions("incSim", xs, ys, zs, phi,
                    _names_of(list(d.context) + [d.conclusion]))
    atom = Inclusion(zs + ys, zs + xs)
    return Sequent(d.context, exists_seq(xs, forall_seq(ys, And(atom, phi))))


def _inc_sim_bwd(p: _Params, prem) -> Sequent:
    count = p.int_("count")
    (d,) = prem
    xs, rest = _strip_quant(d.conclusion, Exists, count, "incSim (inverted)")
    ys, body = _strip_quant(rest, Forall, count, "incSim (inverted)")
    if not isinstance(body, And) or not isinstance(body.left, Inclusion):
        raise RuleError("incSim (inverted): body must be an atom conjoined with phi")
    atom, phi = body.left, body.right
    width = len(atom.lhs)
    if width < count or atom.lhs[width - count:] != ys \
            or atom.rhs[width - count:] != xs \
            or atom.lhs[:width - count] != atom.rhs[:width - count]:
        raise RuleError("incSim (inverted): atom must be z,y <= z,x")
    zs = atom.lhs[:width - count]
    _sim_conditions("incSim", xs, ys, zs, phi, all_names(phi) | set(zs) | set(xs))
    return Sequent(d.context, forall_seq(xs, phi))


def _peel_conjuncts(body: Formula, count: int, rule: str) -> tuple[list[Formula], Formula]:
    """Split a left-associated chain a1 & ... & ak & alpha into atoms and alpha."""
    if count == 0:
        return [], body
    rights = []
    node = body
    for _ in range(count):
        if not isinstance(node, And):
            raise RuleError(f"{rule}: expected {count} leading atom conjuncts")
        rights.append(node.right)
        node = node.left
    alpha = rights[0]
    atoms = [node] + rights[:0:-1]
    return atoms, alpha


def _inc_ext(p: _Params, prem) -> Sequent:
    nvars, natoms = p.int_("nvars"), p.int_("natoms")
    u, v = p.var("u"), p.var("v")
    (d,) = prem
    f = d.conclusion
    if not isinstance(f, Or):
        raise RuleError("incExt: premise must conclude a disjunction")
    xs, body = _strip_quant(f.left, Exists, nvars, "incExt")
    raw_atoms, alpha = _peel_conjuncts(body, natoms, "incExt")
    atoms = [_expect_inclusion("incExt", a) for a in raw_atoms]
    for atom in atoms:
        if not set(atom.lhs) | set(atom.rhs) <= set(xs):
            raise RuleError("incExt: atom variables must come from the quantified block")
    _expect_fo("incExt", alpha, "the first-order part")
    _fresh("incExt", "(5)", [u, v], _names_of(list(d.context) + [f]))
    padded = [Inclusion(a.lhs + (u, v), a.rhs + (u, v)) for a in atoms]
    matrix = conj(padded + [fo_iff(alpha, Equals(Var(u), Var(v))), Or(alpha, f.right)])
    return Sequent(d.context, exists_seq(list(xs) + [u, v], matrix))


# ---------------------------------------------------------------------------
# Administrative weakening (context extension; every rule admits extra premises)

def _weaken(p: _Params, prem) -> Sequent:
    extra = p.formulas("add")
    (d,) = prem
    return Sequent(d.context | frozenset(extra), d.conclusion)


RULES: dict[str, tuple[int, Callable[[_Params, list], Sequent]]] = {
    "eqI": (0, _eq_i),
    "eqSub": (2, _eq_sub),
    "negI": (1, _neg_i),
    "negE": (2, _neg_e),
    "RAA": (1, _raa),
    "andI": (2, _and_i),
    "andE_l": (1, _and_e_l),
    "andE_r": (1, _and_e_r),
    "orI_l": (1, _or_i_l),
    "orI_r": (1, _or_i_r),
    "orE": (3, _or_e),
    "existsI": (1, _exists_i),
    "existsE": (2, _exists_e),
    "forallI": (1, _forall_i),
    "forallE": (1, _forall_e),
    "forallE0": (1, _forall_e0),
    "forallSub": (2, _forall_sub),
    "forallExc": (1, _forall_exc),
    "forallAndExt": (2, _forall_and_ext),
    "forallOrExt_fwd": (1, _forall_or_ext_fwd),
    "forallOrExt_bwd": (1, _forall_or_ext_bwd),
    "incExc": (1, _inc_exc),
    "incCtr": (1, _inc_ctr),
    "incTrs": (2, _inc_trs),
    "incCmp": (2, _inc_cmp),
    "incExp": (1, _inc_exp),
    "incWex": (1, _inc_wex),
    "incWall": (1, _inc_wall),
    "incSim_fwd": (1, _inc_sim_fwd),
    "incSim_bwd": (1, _inc_sim_bwd),
    "incExt": (1, _inc_ext),
    "weaken": (1, _weaken),
}
