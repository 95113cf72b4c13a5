"""Compilation into the ∃w ∃x ∀y (inclusion atoms ∧ quantifier-free core) shape.

Four stages: prenexing by exhaustive outward quantifier extraction,
quantifier-free normalization of the matrix, simulation of the universal
prefix positions by inclusion atoms under a single fresh universal, and
the composition of the three.  Every stage preserves team-semantics
satisfaction; the universal-disjunction extraction step relies on the
model invariant |M| >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Bottom,
    Equals,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Inclusion,
    Not,
    Or,
    Relation,
    Var,
    all_names,
    conj,
    exists_seq,
    fo_iff,
    forall_seq,
    free_vars,
    fresh_name,
    fresh_names,
    is_first_order,
    quantifier_depth,
    rename_bound,
)

EXISTS = "E"
FORALL = "A"


class NormalFormError(FormulaError):
    pass


@dataclass(frozen=True)
class PrenexForm:
    """Quantifier prefix (kind, variable) over a quantifier-free matrix."""

    prefix: tuple[tuple[str, str], ...]
    matrix: Formula

    def __post_init__(self):
        names = [v for _, v in self.prefix]
        if len(set(names)) != len(names):
            raise NormalFormError("prenex prefix variables must be pairwise distinct")
        if quantifier_depth(self.matrix):
            raise NormalFormError("prenex matrix must be quantifier free")

    def to_formula(self) -> Formula:
        out = self.matrix
        for kind, var in reversed(self.prefix):
            out = Exists(var, out) if kind == EXISTS else Forall(var, out)
        return out


@dataclass(frozen=True)
class QfNormal:
    """∃w (⋀ u_i ⊆ v_i ∧ alpha) with every atom variable drawn from w."""

    w: tuple[str, ...]
    atoms: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    alpha: Formula

    def __post_init__(self):
        wset = set(self.w)
        for u, v in self.atoms:
            if not set(u) | set(v) <= wset:
                raise NormalFormError("atom variables must come from the witness block")
        if not (is_first_order(self.alpha) and quantifier_depth(self.alpha) == 0):
            raise NormalFormError("alpha must be first-order and quantifier free")

    def to_formula(self) -> Formula:
        parts = [Inclusion(u, v) for u, v in self.atoms]
        return exists_seq(self.w, conj(parts + [self.alpha]))


@dataclass(frozen=True)
class NormalForm:
    """The combined shape; j_indices are the universally-simulated positions."""

    z: tuple[str, ...]
    w: tuple[str, ...]
    x: tuple[str, ...]
    y: str
    i_atoms: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    j_indices: tuple[int, ...]
    alpha: Formula

    def __post_init__(self):
        if any(j < 1 or j > len(self.x) for j in self.j_indices):
            raise NormalFormError("j indices must address positions in the x block")
        others = set(self.z) | set(self.w) | set(self.x) | set(all_names(self.alpha))
        if self.y in others:
            raise NormalFormError("the universal variable must be fresh")
        if not (is_first_order(self.alpha) and quantifier_depth(self.alpha) == 0):
            raise NormalFormError("alpha must be first-order and quantifier free")


# ---------------------------------------------------------------------------
# Stage 1: prenex form

def prenex(f: Formula) -> PrenexForm:
    """Equivalent prenex form via the five extraction equivalences."""
    return _prenex(f, set())


def _prenex(f: Formula, used: set[str]) -> PrenexForm:
    """``prenex(f)``, leaving in ``used`` every name of its prefix and matrix."""
    renamed = rename_bound(f)
    used |= all_names(renamed)
    prefix, matrix = _pull(renamed, used)
    return PrenexForm(tuple(prefix), matrix)


def _pull(f: Formula, used: set[str]) -> tuple[list[tuple[str, str]], Formula]:
    if isinstance(f, (Bottom, Equals, Relation, Inclusion)):
        return [], f
    if isinstance(f, Not):
        prefix, matrix = _pull(f.body, used)
        flipped = [(FORALL if k == EXISTS else EXISTS, v) for k, v in prefix]
        return flipped, Not(matrix)
    if isinstance(f, Exists):
        prefix, matrix = _pull(f.body, used)
        return [(EXISTS, f.var)] + prefix, matrix
    if isinstance(f, Forall):
        prefix, matrix = _pull(f.body, used)
        return [(FORALL, f.var)] + prefix, matrix
    if isinstance(f, And):
        pl, ml = _pull(f.left, used)
        pr, mr = _pull(f.right, used)
        return pl + pr, And(ml, mr)
    if isinstance(f, Or):
        pl, ml = _pull(f.left, used)
        pr, mr = _pull(f.right, used)
        return _pull_or(pl, ml, pr, mr, used)
    raise NormalFormError(f"cannot prenex {f!r}")


def _pull_or(pl: list, ml: Formula, pr: list, mr: Formula,
             used: set[str]) -> tuple[list[tuple[str, str]], Formula]:
    """Move both prefixes out of a disjunction, leftmost quantifier first.

    Universal quantifiers cross the disjunction by the fresh-pair trick
    forall x phi | psi == E y E z A x ((phi & y=z) | (psi & y!=z)).
    """
    if pl:
        (kind, var), rest = pl[0], pl[1:]
        if kind == EXISTS:
            prefix, matrix = _pull_or(rest, ml, pr, mr, used)
            return [(EXISTS, var)] + prefix, matrix
        y, z = fresh_names("y", 1, used)[0], fresh_names("z", 1, used)[0]
        eq = Equals(Var(y), Var(z))
        prefix, matrix = _pull_or(rest, And(ml, eq), pr, And(mr, Not(eq)), used)
        return [(EXISTS, y), (EXISTS, z), (FORALL, var)] + prefix, matrix
    if pr:
        (kind, var), rest = pr[0], pr[1:]
        if kind == EXISTS:
            prefix, matrix = _pull_or([], ml, rest, mr, used)
            return [(EXISTS, var)] + prefix, matrix
        y, z = fresh_names("y", 1, used)[0], fresh_names("z", 1, used)[0]
        eq = Equals(Var(y), Var(z))
        prefix, matrix = _pull_or([], And(ml, Not(eq)), rest, And(mr, eq), used)
        return [(EXISTS, y), (EXISTS, z), (FORALL, var)] + prefix, matrix
    return [], Or(ml, mr)


# ---------------------------------------------------------------------------
# Stage 2: quantifier-free normal form

def qf_normal(theta: Formula, reserved: set[str] | None = None) -> QfNormal:
    """Equivalent ∃w(atoms ∧ alpha) form of a quantifier-free formula."""
    if quantifier_depth(theta):
        raise NormalFormError("qf_normal requires a quantifier-free formula")
    used = set(all_names(theta)) | (reserved or set())
    return _qfn(theta, used)


def _qfn(theta: Formula, used: set[str]) -> QfNormal:
    if is_first_order(theta):
        return QfNormal((), (), theta)
    if isinstance(theta, Inclusion):
        ws = fresh_names("w", len(theta.lhs), used)
        us = fresh_names("u", len(theta.rhs), used)
        alpha = conj(
            [Equals(Var(w), Var(x)) for w, x in zip(ws, theta.lhs)]
            + [Equals(Var(u), Var(y)) for u, y in zip(us, theta.rhs)]
        )
        return QfNormal(tuple(ws + us), ((tuple(ws), tuple(us)),), alpha)
    if isinstance(theta, And):
        left = _qfn(theta.left, used)
        right = _qfn(theta.right, used)
        return QfNormal(left.w + right.w, left.atoms + right.atoms,
                        And(left.alpha, right.alpha))
    if isinstance(theta, Or):
        left = _qfn(theta.left, used)
        right = _qfn(theta.right, used)
        p, q = fresh_names("p", 1, used)[0], fresh_names("q", 1, used)[0]
        p2, q2 = fresh_names("p", 1, used)[0], fresh_names("q", 1, used)[0]
        atoms_l = tuple((u + (p, q), v + (p, q)) for u, v in left.atoms)
        atoms_r = tuple((u + (p2, q2), v + (p2, q2)) for u, v in right.atoms)
        alpha = And(
            And(Or(left.alpha, right.alpha),
                fo_iff(left.alpha, Equals(Var(p), Var(q)))),
            fo_iff(right.alpha, Equals(Var(p2), Var(q2))),
        )
        return QfNormal(left.w + right.w + (p, q, p2, q2), atoms_l + atoms_r, alpha)
    raise NormalFormError(f"cannot normalize {theta!r}")


# ---------------------------------------------------------------------------
# Stage 3: one universal quantifier

def universalize(p: PrenexForm, matrix: QfNormal, z: tuple[str, ...]) -> NormalForm:
    """Turn the whole prefix existential; universal positions become
    inclusion-atom constraints under one fresh universal variable."""
    used = set(z) | {v for _, v in p.prefix} | set(matrix.w) | set(all_names(matrix.alpha))
    for u, v in matrix.atoms:
        used |= set(u) | set(v)
    return _universalize(p, matrix, z, used)


def _universalize(p: PrenexForm, matrix: QfNormal, z: tuple[str, ...],
                  used: set[str]) -> NormalForm:
    xs = tuple(v for _, v in p.prefix)
    j_indices = tuple(i + 1 for i, (kind, _) in enumerate(p.prefix) if kind == FORALL)
    return NormalForm(z, matrix.w, xs, fresh_name("y", used), matrix.atoms, j_indices,
                      matrix.alpha)


# ---------------------------------------------------------------------------
# Stage 4: composition and rendering

def normal_form(f: Formula) -> NormalForm:
    """The three stages, with the names of the prenex form (which each later
    stage would gather again) carried through them as one set."""
    used: set[str] = set()
    pf = _prenex(f, used)
    return _universalize(pf, _qfn(pf.matrix, used), tuple(sorted(free_vars(f))), used)


def render(nf: NormalForm) -> Formula:
    """The literal ∃w ∃x ∀y (⋀ i-atoms ∧ ⋀ j-atoms ∧ alpha) formula."""
    parts: list[Formula] = [Inclusion(u, v) for u, v in nf.i_atoms]
    for j in nf.j_indices:
        stem = nf.z + nf.x[: j - 1]
        parts.append(Inclusion(stem + (nf.y,), stem + (nf.x[j - 1],)))
    body = conj(parts + [nf.alpha])
    return exists_seq(nf.w, exists_seq(nf.x, forall_seq([nf.y], body)))
