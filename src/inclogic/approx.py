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
    operands,
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
        if len(nodes) > max_blocks:
            raise GuardExceeded(
                f"approximation needs {len(nodes)} witness blocks > cap {max_blocks}")
    return IndexBook(tuple(levels))


@dataclass(frozen=True)
class ApproxFormula:
    book: IndexBook
    prefix: tuple[tuple[str, str], ...]
    conjuncts: tuple[Formula, ...]
    # per level: its existential names in display order, its universal
    # variable, how many renamed copies of ``alpha``'s conjuncts open its run
    # of ``conjuncts`` and how many conjuncts follow them; from these and
    # ``alpha``'s shape ``formula`` is assembled
    levels: tuple[tuple[tuple[str, ...], str, int, int], ...]
    alpha: Formula

    def size(self) -> tuple[int, int]:
        """(quantified variables, matrix conjuncts)"""
        return len(self.prefix), len(self.conjuncts)

    @cached_property
    def formula(self) -> Formula:
        """The approximation as one sentence, assembled the first time it is
        read: the game itself plays the (prefix, conjuncts) view."""
        rest = iter(self.conjuncts)
        bodies = [(names, y, [*(_join(self.alpha, rest) for _ in range(copies)),
                              *itertools.islice(rest, extra)])
                  for names, y, copies, extra in self.levels]
        formula: Formula | None = None
        for names, y, parts in reversed(bodies):
            parts = parts if formula is None else (*parts, formula)
            formula = exists_seq(names, Forall(y, conj(parts) if parts else TRUE))
        assert formula is not None
        return formula


def build_approx(nf: NormalForm, n: int, strong: bool = False,
                 max_blocks: int = 4000) -> ApproxFormula:
    book = build_indices(nf, n, max_blocks)
    # no two "{v}_{encode_index(xi)}" or y{m} names meet unless w + x repeats a v
    wx = nf.w + nf.x
    if len(set(wx)) < len(wx):
        raise ApproxError(f"variable name clash {next(v for v in wx if wx.count(v) > 1)!r}")
    w_of: dict[Index, tuple[str, ...]] = {}
    x_of: dict[Index, tuple[str, ...]] = {}
    for m in range(n + 1):
        for xi in book.blocks(m):
            enc = encode_index(xi)
            w_of[xi] = tuple(f"{v}_{enc}" for v in nf.w)
            x_of[xi] = tuple(f"{v}_{enc}" for v in nf.x)
    ys = tuple(f"y{m}" for m in range(n + 1))
    var = {u: Var(u) for us in (*w_of.values(), *x_of.values(), ys) for u in us}
    alpha_parts = tuple(operands(nf.alpha, And))

    # evaluation prefix: x-parts before w-parts inside each existential run
    # (the alpha equalities then determine most w-components immediately);
    # the emitted formula keeps the w-then-x display order, which is
    # equivalent because consecutive existentials commute
    prefix: list[tuple[str, str]] = []
    levels: list[tuple[tuple[str, ...], str, int, int]] = []
    split_conjuncts: list[Formula] = []
    root = w_of[ROOT] + x_of[ROOT]
    for m in range(n + 1):
        blocks = book.blocks(m)
        prefix += [("E", v) for xi in blocks for v in x_of[xi]]
        prefix += [("E", v) for xi in blocks for v in w_of[xi]]
        prefix.append(("A", ys[m]))
        for xi in blocks:
            # nf.alpha is quantifier-free, so this only renames its variables
            ren = {v: var[u] for v, u in zip(wx, w_of[xi] + x_of[xi])}
            split_conjuncts += [_rename(part, ren, set()) for part in alpha_parts]
        opened = len(split_conjuncts)
        for xi in book.levels[m].e if m else ():
            # gamma: rho^i over the parent block equals sigma^i over the child
            rho, sigma = nf.i_atoms[xi[-1][1]]
            pw, cw = dict(zip(nf.w, w_of[xi[:-1]])), dict(zip(nf.w, w_of[xi]))
            split_conjuncts += [Equals(var[pw[a]], var[cw[b]]) for a, b in zip(rho, sigma)]
        for xi in book.levels[m].u:
            # delta: pi^j over the parent block extended by y_eta equals tau^j
            # over the child
            (_, eta, jpos), px, cx = xi[-1], x_of[xi[:-1]], x_of[xi]
            j = nf.j_indices[jpos]
            split_conjuncts += [Equals(var[px[k]], var[cx[k]]) for k in range(j - 1)]
            split_conjuncts.append(Equals(var[ys[eta]], var[cx[j - 1]]))
        if strong and m == 0:
            root_w = dict(zip(nf.w, w_of[ROOT]))
            split_conjuncts += [Inclusion(tuple(root_w[a] for a in rho),
                                          tuple(root_w[b] for b in sigma))
                                for rho, sigma in nf.i_atoms]
            split_conjuncts += [Inclusion(x_of[ROOT][: j - 1] + (ys[0],), x_of[ROOT][:j])
                                for j in nf.j_indices]
        elif strong and root:
            split_conjuncts += [Inclusion(w_of[xi] + x_of[xi], root) for xi in blocks]
        names = (*(v for xi in blocks for v in w_of[xi]),
                 *(v for xi in blocks for v in x_of[xi]))
        levels.append((names, ys[m], len(blocks), len(split_conjuncts) - opened))

    return ApproxFormula(
        book=book,
        prefix=tuple(prefix),
        conjuncts=tuple(split_conjuncts),
        levels=tuple(levels),
        alpha=nf.alpha,
    )


def _join(shape: Formula, parts: Iterator[Formula]) -> Formula:
    """``shape``'s ``And`` tree over the next conjuncts of ``parts``; the
    inverse of ``operands(shape, And)``."""
    if isinstance(shape, And):
        left = _join(shape.left, parts)
        return And(left, _join(shape.right, parts))
    return next(parts)


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
    An ``E v`` holding a conjunct ``v = u`` is folded into ``u``, since
    ``E v (v = u & phi)`` is ``phi[u/v]``: its items are filed under ``u``
    and ``u``'s subgame assigns ``v`` along with ``u``, so ``v`` tries no
    value.  Each subgame is memoised for this call on the outer values it
    reads.  ``max_nodes`` bounds the values tried over all subgames.  A
    conjunct variable the prefix does not bind is an ``ApproxError``.
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
    if unbound := readers.keys() - {v for _, v in prefix}:
        raise ApproxError(f"the prefix does not bind {', '.join(sorted(unbound))}")
    budget = [max_nodes]
    folded: dict[str, tuple[str, ...]] = {}  # variables assigned along with a variable
    for kind, var in reversed(prefix):
        inner = [items.pop(k) for k in readers.pop(var, ()) if k in items]
        if not inner:
            continue
        names = (var, *folded.pop(var, ()))
        u = next((eq[1] if eq[0] == var else eq[0] for _, eq, _ in inner
                  if eq and var in eq and eq[0] != eq[1]), None) if kind == "E" else None
        if u is not None:
            folded[u] = folded.get(u, ()) + names
            for fv, eq, test in inner:
                eq = eq and (u if eq[0] == var else eq[0], u if eq[1] == var else eq[1])
                if eq != (u, u):
                    add(fv - {var} | {u}, eq, test)
            continue
        reads = frozenset().union(*(fv for fv, _, _ in inner)) - {var}
        add(reads, None, _subgame(model.universe, kind == "E", names, tuple(reads),
                                  [t for _, _, t in inner], budget, max_nodes))
    return all(test({}) for _, _, test in items.values())


def _subgame(universe: tuple[str, ...], exists: bool, names: tuple[str, ...],
             reads: tuple[str, ...], tests: list[Test], budget: list[int],
             max_nodes: int) -> Test:
    """The game of one quantifier over ``tests``, memoised on ``reads``; each
    value goes to every variable in ``names``."""
    memo: dict[tuple[str, ...], bool] = {}

    def play(env: dict[str, str]) -> bool:
        key = tuple(env[u] for u in reads)
        value = memo.get(key)
        if value is None:
            value = not exists
            for a in universe:
                budget[0] -= 1
                if budget[0] < 0:
                    raise GuardExceeded(f"approximation evaluation budget {max_nodes} exhausted")
                for v in names:
                    env[v] = a
                if all(test(env) for test in tests) == exists:
                    value = exists
                    break
            memo[key] = value
        return value

    return play


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
    return _report(model, build_approx(nf, cap, max_blocks=max_blocks), stable_bound, max_nodes)


def _report(model: Model, af: ApproxFormula, stable_bound: int = 2,
            max_nodes: int = 4_000_000) -> ApproxReport:
    """``approx_report`` on the levels of the one build ``af``, each played as
    ``_levels`` yields it and kept only as its (value, size) pair, so a
    level's slices are freed before the next level is cut."""
    values, sizes = zip(*((prefix_truth(model, lv.prefix, lv.conjuncts, max_nodes), lv.size())
                          for lv in _levels(af)))
    return ApproxReport(values, sizes, all(values) and len(values) > stable_bound)


def _levels(af: ApproxFormula) -> Iterator[ApproxFormula]:
    """Levels 0, 1, ... of ``af`` as slices of it: a level-n build opens with
    the prefix, conjuncts and index book of every lower level."""
    width = sum(1 for _ in operands(af.alpha, And))
    p = c = 0
    for m, (names, _, copies, extra) in enumerate(af.levels, 1):
        p, c = p + len(names) + 1, c + copies * width + extra
        yield ApproxFormula(IndexBook(af.book.levels[:m]), af.prefix[:p],
                            af.conjuncts[:c], af.levels[:m], af.alpha)
