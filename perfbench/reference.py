"""Reference computations the benchmark checks the package against.

None of these call into the package: they work on the generator's own data
(graphs, IND atoms) or, for the approximation game, walk the conjuncts the
package handed back and evaluate them with their own code.
"""

from __future__ import annotations

from collections import deque


# ---------------------------------------------------------------------------
# Digraphs

def infinite_walk_nodes(nodes, edges) -> set:
    """Nodes that start an infinite walk: prune nodes without a successor
    until none is left to prune."""
    succ = {v: set() for v in nodes}
    pred = {v: set() for v in nodes}
    for a, b in edges:
        succ[a].add(b)
        pred[b].add(a)
    out_degree = {v: len(succ[v]) for v in nodes}
    alive = set(nodes)
    queue = deque(v for v in nodes if out_degree[v] == 0)
    while queue:
        v = queue.popleft()
        alive.discard(v)
        for p in pred[v]:
            out_degree[p] -= 1
            if out_degree[p] == 0:
                queue.append(p)
    return alive


def has_cycle(nodes, edges) -> bool:
    """Kahn's topological sort: a cycle is what it cannot remove."""
    succ = {v: [] for v in nodes}
    in_degree = {v: 0 for v in nodes}
    for a, b in set(edges):
        succ[a].append(b)
        in_degree[b] += 1
    queue = deque(v for v in nodes if in_degree[v] == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for b in succ[v]:
            in_degree[b] -= 1
            if in_degree[b] == 0:
                queue.append(b)
    return removed < len(in_degree)


# ---------------------------------------------------------------------------
# Inclusion dependencies

def chain_derivable(premises, goal) -> bool:
    """Derivability of ``goal`` from ``premises`` under identity,
    projection/permutation (positions may repeat) and transitivity.

    A derivation of X <= Y is a chain X = Z0, Z1, ..., Zm = Y of tuples of
    the goal's width in which every step Zi <= Zi+1 projects one premise.
    Breadth-first search over those tuples decides it.
    """
    start, target = tuple(goal[0]), tuple(goal[1])
    if start == target:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        z = queue.popleft()
        for lhs, rhs in premises:
            # each coordinate of z may be matched at any premise position
            options = [[rhs[j] for j in range(len(lhs)) if lhs[j] == v] for v in z]
            if any(not o for o in options):
                continue
            for nxt in _product(options):
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def _product(options):
    out = [()]
    for o in options:
        out = [t + (v,) for t in out for v in dict.fromkeys(o)]
    return out


def satisfies_atom(domain, rows, atom) -> bool:
    """The inclusion atom's clause: every lhs value tuple occurs as an rhs
    value tuple somewhere in the team."""
    index = {v: i for i, v in enumerate(domain)}
    lhs = [index[v] for v in atom[0]]
    rhs = [index[v] for v in atom[1]]
    rvalues = {tuple(r[i] for i in rhs) for r in rows}
    return all(tuple(r[i] for i in lhs) in rvalues for r in rows)


def refutes(premises, goal, domain, rows) -> bool:
    """The team satisfies every premise and falsifies the goal."""
    return (bool(rows) and all(satisfies_atom(domain, rows, p) for p in premises)
            and not satisfies_atom(domain, rows, goal))


# ---------------------------------------------------------------------------
# Approximation game

class OverCap(Exception):
    """The game tree has more nodes than the cap allows."""


def compile_conjunct(f, relations):
    """(variables, predicate over an environment) for a quantifier-free
    first-order conjunct whose terms are variables."""
    kind = type(f).__name__
    if kind == "Bottom":
        return frozenset(), lambda env: False
    if kind == "Equals":
        a, b = _var(f.left), _var(f.right)
        return frozenset((a, b)), lambda env: env[a] == env[b]
    if kind == "Relation":
        names = tuple(_var(t) for t in f.args)
        table = relations[f.name]
        return frozenset(names), lambda env: tuple(env[n] for n in names) in table
    if kind == "Not":
        vs, g = compile_conjunct(f.body, relations)
        return vs, lambda env: not g(env)
    if kind in ("And", "Or"):
        lv, lf = compile_conjunct(f.left, relations)
        rv, rf = compile_conjunct(f.right, relations)
        if kind == "And":
            return lv | rv, lambda env: lf(env) and rf(env)
        return lv | rv, lambda env: lf(env) or rf(env)
    raise ValueError(f"not a quantifier-free first-order conjunct: {kind}")


def _var(t) -> str:
    if type(t).__name__ != "Var":
        raise ValueError("approximation conjuncts compare variables only")
    return t.name


def game_value(universe, relations, prefix, conjuncts, cap: int) -> tuple[bool, int]:
    """(truth, nodes) of ``prefix . conj(conjuncts)`` over the universe.

    Depth-first over the prefix in universe order, testing each conjunct as
    soon as its last variable is bound; one node per value tried.  Raises
    OverCap once more than ``cap`` nodes are needed.
    """
    position = {v: k for k, (_, v) in enumerate(prefix)}
    triggers: list[list] = [[] for _ in prefix]
    ground = []
    for c in conjuncts:
        vs, fn = compile_conjunct(c, relations)
        if vs:
            triggers[max(position[v] for v in vs)].append(fn)
        else:
            ground.append(fn)
    if not all(fn({}) for fn in ground):
        return False, 0
    env: dict[str, str] = {}
    nodes = 0

    def rec(k: int) -> bool:
        nonlocal nodes
        if k == len(prefix):
            return True
        kind, var = prefix[k]
        for a in universe:
            nodes += 1
            if nodes > cap:
                raise OverCap
            env[var] = a
            good = all(fn(env) for fn in triggers[k]) and rec(k + 1)
            if kind == "E" and good:
                return True
            if kind == "A" and not good:
                return False
        return kind == "A"

    return rec(0), nodes
