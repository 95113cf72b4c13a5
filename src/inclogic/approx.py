"""Finite approximations of the game expression of a sentence in normal form.

Level n introduces fresh copies of the witness blocks for every index in
E_n (witnesses for the w-side inclusion atoms, one per atom and per parent
block) and U_n (witnesses for the universal-simulation atoms, one per atom
and per new pair of an existing x-block with an already-quantified
universal variable).  The plain approximation is a first-order sentence;
the strong variant also asserts that every block is included in the root
block, which makes it an inclusion-logic formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from .models import Model
from .normalform import NormalForm
from .semantics import GuardExceeded, _fo
from .syntax import (
    And,
    Equals,
    Forall,
    Formula,
    FormulaError,
    Inclusion,
    TRUE,
    Var,
    conj,
    exists_seq,
    free_vars,
    is_first_order,
    quantifier_depth,
    _rename,
)

# An index is a path of tags from the root; ("e", i) spawns the witness for
# i-atom i, ("u", eta, j) the witness for j-atom j against universal level eta.
Index = tuple[tuple, ...]
ROOT: Index = ()


class ApproxError(FormulaError):
    pass


@dataclass(frozen=True)
class Level:
    e: tuple[Index, ...]
    u: tuple[Index, ...]
    a: tuple[tuple[Index, int], ...]


@dataclass(frozen=True)
class IndexBook:
    levels: tuple[Level, ...]

    def blocks(self, m: int) -> tuple[Index, ...]:
        return self.levels[m].e + self.levels[m].u

    def total_blocks(self) -> int:
        return sum(len(self.blocks(m)) for m in range(len(self.levels)))


def encode_index(index: Index) -> str:
    """Stable text encoding; the root is "0", child tags are appended."""
    out = "0"
    for tag in index:
        if tag[0] == "e":
            out += f"e{tag[1]}"
        else:
            out += f"u{tag[1]}x{tag[2]}"
    return out


def build_indices(nf: NormalForm, n: int, max_blocks: int = 4000) -> IndexBook:
    """Index books E_0..E_n, U_0..U_n, A_1..A_n for a sentence-level form."""
    if nf.z:
        raise ApproxError("game approximations are defined for sentences only")
    if n < 0:
        raise ApproxError("approximation level must be nonnegative")
    # trips only forms without witness atoms: the others add a block per level
    if n + 1 > max_blocks:
        raise GuardExceeded(f"approximation needs {n + 1} levels > cap {max_blocks}")
    i_range = range(len(nf.i_atoms))
    j_range = range(len(nf.j_indices))
    levels = [Level((ROOT,), (), ())]
    nodes: list[Index] = [ROOT]  # creation order; level = len(index)
    total = 1
    for m in range(1, n + 1):
        parents = levels[m - 1].e + levels[m - 1].u
        e_m = tuple(xi + (("e", i),) for xi in parents for i in i_range)
        # new pairs: an x-block from levels < m with a universal y_eta,
        # eta < m, not seen at an earlier level; empty when there are no
        # j-atoms to witness
        a_m = tuple(
            (xi, eta)
            for xi in nodes
            for eta in range(m)
            if max(len(xi), eta) == m - 1
        ) if j_range else ()
        u_m = tuple(xi + (("u", eta, j),) for (xi, eta) in a_m for j in j_range)
        levels.append(Level(e_m, u_m, a_m))
        nodes.extend(e_m + u_m)
        total += len(e_m) + len(u_m)
        if total > max_blocks:
            raise GuardExceeded(
                f"approximation needs {total} witness blocks > cap {max_blocks}")
    return IndexBook(tuple(levels))


@dataclass(frozen=True)
class ApproxFormula:
    book: IndexBook
    prefix: tuple[tuple[str, str], ...]
    conjuncts: tuple[Formula, ...]
    # per level: its existential names in display order, its universal
    # variable and its conjuncts, from which ``formula`` is assembled
    levels: tuple[tuple[tuple[str, ...], str, tuple[Formula, ...]], ...]

    def size(self) -> tuple[int, int]:
        """(quantified variables, matrix conjuncts)"""
        return len(self.prefix), len(self.conjuncts)

    @cached_property
    def formula(self) -> Formula:
        """The approximation as one sentence, assembled the first time it is
        read: the game itself plays the (prefix, conjuncts) view."""
        formula: Formula | None = None
        for names, y, parts in reversed(self.levels):
            parts = parts if formula is None else (*parts, formula)
            formula = exists_seq(names, Forall(y, conj(parts) if parts else TRUE))
        assert formula is not None
        return formula


def build_approx(nf: NormalForm, n: int, strong: bool = False,
                 max_blocks: int = 4000) -> ApproxFormula:
    book = build_indices(nf, n, max_blocks)
    w_of: dict[Index, tuple[str, ...]] = {}
    x_of: dict[Index, tuple[str, ...]] = {}
    seen: set[str] = set()
    for m in range(n + 1):
        for xi in book.blocks(m):
            enc = encode_index(xi)
            w_of[xi] = tuple(f"{v}_{enc}" for v in nf.w)
            x_of[xi] = tuple(f"{v}_{enc}" for v in nf.x)
            for name in w_of[xi] + x_of[xi]:
                if name in seen:
                    raise ApproxError(f"variable name clash {name!r}")
                seen.add(name)
    ys = tuple(f"y{m}" for m in range(n + 1))
    if set(ys) & seen:
        raise ApproxError("universal variable name clash")
    var = {name: Var(name) for name in (*seen, *ys)}
    wx = nf.w + nf.x

    def alpha_at(xi: Index) -> Formula:
        # nf.alpha is quantifier-free, so this only renames its variables
        return _rename(nf.alpha, {v: var[u] for v, u in zip(wx, w_of[xi] + x_of[xi])}, set())

    def gamma_eq(parent: Index, i: int, child: Index) -> Iterator[Formula]:
        rho, sigma = nf.i_atoms[i]
        pmap = dict(zip(nf.w, w_of[parent]))
        cmap = dict(zip(nf.w, w_of[child]))
        for a, b in zip(rho, sigma):
            yield Equals(var[pmap[a]], var[cmap[b]])

    def delta_eq(parent: Index, eta: int, j: int, child: Index) -> Iterator[Formula]:
        # pi^j over the parent block extended by y_eta equals tau^j over the child
        for k in range(j - 1):
            yield Equals(var[x_of[parent][k]], var[x_of[child][k]])
        yield Equals(var[ys[eta]], var[x_of[child][j - 1]])

    def mu_root() -> list[Formula]:
        out: list[Formula] = []
        root_w = dict(zip(nf.w, w_of[ROOT]))
        for rho, sigma in nf.i_atoms:
            out.append(Inclusion(tuple(root_w[a] for a in rho),
                                 tuple(root_w[b] for b in sigma)))
        for j in nf.j_indices:
            stem = x_of[ROOT][: j - 1]
            out.append(Inclusion(stem + (ys[0],), stem + (x_of[ROOT][j - 1],)))
        return out

    # evaluation prefix: x-parts before w-parts inside each existential run
    # (the alpha equalities then determine most w-components immediately);
    # the emitted formula keeps the w-then-x display order, which is
    # equivalent because consecutive existentials commute
    prefix: list[tuple[str, str]] = []
    levels: list[tuple[tuple[str, ...], str, tuple[Formula, ...]]] = []
    split_conjuncts: list[Formula] = []
    for m in range(n + 1):
        blocks = book.blocks(m)
        for xi in blocks:
            for name in x_of[xi]:
                prefix.append(("E", name))
        for xi in blocks:
            for name in w_of[xi]:
                prefix.append(("E", name))
        prefix.append(("A", ys[m]))
        parts: list[Formula] = [alpha_at(xi) for xi in blocks]
        for part in parts:
            split_conjuncts.extend(_split_and(part))
        if m > 0:
            for xi in book.levels[m].e:
                parent, (_, i) = xi[:-1], xi[-1]
                for eq in gamma_eq(parent, i, xi):
                    parts.append(eq)
                    split_conjuncts.append(eq)
            for xi in book.levels[m].u:
                parent, (_, eta, jpos) = xi[:-1], xi[-1]
                for eq in delta_eq(parent, eta, nf.j_indices[jpos], xi):
                    parts.append(eq)
                    split_conjuncts.append(eq)
        if strong:
            if m == 0:
                for atom in mu_root():
                    parts.append(atom)
                    split_conjuncts.append(atom)
            else:
                root = w_of[ROOT] + x_of[ROOT]
                if root:
                    for xi in blocks:
                        atom = Inclusion(w_of[xi] + x_of[xi], root)
                        parts.append(atom)
                        split_conjuncts.append(atom)
        names = (*(v for xi in blocks for v in w_of[xi]),
                 *(v for xi in blocks for v in x_of[xi]))
        levels.append((names, ys[m], tuple(parts)))

    return ApproxFormula(
        book=book,
        prefix=tuple(prefix),
        conjuncts=tuple(split_conjuncts),
        levels=tuple(levels),
    )


def _split_and(f: Formula) -> Iterator[Formula]:
    if isinstance(f, And):
        yield from _split_and(f.left)
        yield from _split_and(f.right)
    else:
        yield f


# ---------------------------------------------------------------------------
# Classical truth of the (prefix, conjuncts) view

Test = Callable[[dict[str, str]], bool]


def prefix_truth(model: Model, prefix: tuple[tuple[str, str], ...],
                 conjuncts: tuple[Formula, ...], max_nodes: int = 4_000_000) -> bool:
    """Classical truth of ``prefix . conj(conjuncts)`` by miniscoped subgames.

    Innermost first, each quantifier ``Q v`` takes the conjuncts and subgames
    that read ``v`` and becomes one subgame; the rest stay outside it, so
    parts of the matrix that share no variable are played independently.  A
    quantifier nothing reads is dropped (a model has at least two elements).
    Each subgame is memoised for this call on the outer values it reads, and
    an ``E v`` holding a conjunct ``v = u`` tries only the value of ``u``.
    ``max_nodes`` bounds the values tried over all subgames.
    """
    # items by number, in the order they were made: (free variables, variable
    # equality or None, test of an assignment); ``readers`` lists the numbers
    # of the items that read each variable, so a quantifier finds its items
    # without scanning the others
    items: dict[int, tuple[frozenset[str], tuple[str, str] | None, Test]] = {}
    readers: dict[str, list[int]] = {}
    numbers = itertools.count()

    def add(fv, eq, test):
        k = next(numbers)
        items[k] = (fv, eq, test)
        for v in fv:
            readers.setdefault(v, []).append(k)

    for c in conjuncts:
        if not (is_first_order(c) and quantifier_depth(c) == 0):
            raise ApproxError("prefix_truth needs quantifier-free first-order conjuncts")
        if isinstance(c, Equals) and isinstance(c.left, Var) and isinstance(c.right, Var):
            a, b = c.left.name, c.right.name
            add(free_vars(c), (a, b), lambda env, a=a, b=b: env[a] == env[b])
        else:
            add(free_vars(c), None, lambda env, c=c: _fo(model, env, c))
    budget = [max_nodes]
    for kind, var in reversed(prefix):
        inner = [items.pop(k) for k in readers.pop(var, ()) if k in items]
        if not inner:
            continue
        reads = frozenset().union(*(fv for fv, _, _ in inner)) - {var}
        pin = None
        if kind == "E":
            pin = next((eq[1] if eq[0] == var else eq[0] for _, eq, _ in inner
                        if eq and var in eq and eq[0] != eq[1]), None)
        add(reads, None, _subgame(model.universe, kind == "E", var, pin, tuple(reads),
                                  [t for _, _, t in inner], budget, max_nodes))
    return all(test({}) for _, _, test in items.values())


def _subgame(universe: tuple[str, ...], exists: bool, var: str, pin: str | None,
             reads: tuple[str, ...], tests: list[Test], budget: list[int],
             max_nodes: int) -> Test:
    """The game of one quantifier over ``tests``, memoised on ``reads``."""
    memo: dict[tuple[str, ...], bool] = {}

    def play(env: dict[str, str]) -> bool:
        key = tuple(env[u] for u in reads)
        value = memo.get(key)
        if value is None:
            value = not exists
            for a in (env[pin],) if pin else universe:
                budget[0] -= 1
                if budget[0] < 0:
                    raise GuardExceeded(f"approximation evaluation budget {max_nodes} exhausted")
                env[var] = a
                if all(test(env) for test in tests) == exists:
                    value = exists
                    break
            memo[key] = value
        return value

    return play


def check_approx(model: Model, nf: NormalForm, n: int,
                 max_blocks: int = 4000, max_nodes: int = 4_000_000) -> bool:
    """Truth of the level-n approximation of ``nf`` in the model."""
    af = build_approx(nf, n, strong=False, max_blocks=max_blocks)
    return prefix_truth(model, af.prefix, af.conjuncts, max_nodes=max_nodes)


@dataclass(frozen=True)
class ApproxReport:
    values: tuple[bool, ...]
    sizes: tuple[tuple[int, int], ...]
    stable: bool


def approx_report(model: Model, nf: NormalForm, cap: int = 3,
                  stable_bound: int = 2, max_blocks: int = 4000,
                  max_nodes: int = 4_000_000) -> ApproxReport:
    """Evaluate levels 0..cap; report "approx-stable" when every level up to
    a cap beyond the stabilization bound holds.  No equivalence with the
    sentence itself is claimed."""
    build_indices(nf, cap, max_blocks)  # a cap the guard refuses fails before any level runs
    values = []
    sizes = []
    for m in range(cap + 1):
        af = build_approx(nf, m, strong=False, max_blocks=max_blocks)
        sizes.append(af.size())
        values.append(prefix_truth(model, af.prefix, af.conjuncts, max_nodes=max_nodes))
    stable = all(values) and cap >= stable_bound
    return ApproxReport(tuple(values), tuple(sizes), stable)
