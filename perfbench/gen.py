"""Seeded input generators.

Every input leaves here as text in the package's own formats (model files,
team CSV, formula syntax, proof scripts, IND atoms), so the package sees only
what a user would hand it.  Formulas are built as small tuple trees first:

    ("eq", a, b)  ("rel", name, args)  ("inc", lhs, rhs)  ("not", f)
    ("and", f, g)  ("or", f, g)  ("E", var, f)  ("A", var, f)

The shapes follow the package's seeded suites (criteria 1 and 5) but are
generated here, so a change to the package cannot change the inputs.
"""

from __future__ import annotations

import itertools
import math
import random

ARITY = {"P": 1, "R": 2}


# ---------------------------------------------------------------------------
# Formulas

def gen_atom(rng: random.Random, pool: tuple[str, ...], fo_only: bool) -> tuple:
    kinds = ["eq", "rel", "rel"] + ([] if fo_only else ["inc", "inc"])
    kind = rng.choice(kinds)
    if kind == "eq":
        return ("eq", rng.choice(pool), rng.choice(pool))
    if kind == "rel":
        name = rng.choice(sorted(ARITY))
        return ("rel", name, tuple(rng.choice(pool) for _ in range(ARITY[name])))
    width = rng.randint(1, 2)
    return ("inc", tuple(rng.choice(pool) for _ in range(width)),
            tuple(rng.choice(pool) for _ in range(width)))


def gen_formula(rng: random.Random, pool: tuple[str, ...], size: int,
                fo_only: bool = False, quant_budget: int = 3) -> tuple:
    """Random formula in the shape of criterion 1's stream."""
    if size <= 1:
        return gen_atom(rng, pool, fo_only)
    roll = rng.random()
    if roll < 0.10:
        return gen_atom(rng, pool, fo_only)
    if roll < 0.22:
        return ("not", gen_formula(rng, pool, size - 1, True, 0))
    if roll < 0.68:
        k = rng.randint(1, size - 1)
        return ("and" if roll < 0.47 else "or",
                gen_formula(rng, pool, k, fo_only, quant_budget),
                gen_formula(rng, pool, size - k, fo_only, quant_budget))
    if quant_budget <= 0:
        return gen_atom(rng, pool, fo_only)
    var = rng.choice(pool)
    body = gen_formula(rng, pool, size - 1, fo_only, quant_budget - 1)
    return ("E" if roll < 0.85 else "A", var, body)


def gen_sentence(rng: random.Random) -> tuple:
    """Random sentence in the shape of criterion 5's stream."""
    pool = ("a", "b", "c")[: rng.randint(2, 3)]
    prefix = [(rng.choice("EA"), v) for v in pool]
    parts = [gen_atom(rng, pool, rng.random() < 0.5) for _ in range(rng.randint(1, 2))]
    f = parts[0]
    for p in parts[1:]:
        f = ("and" if rng.random() < 0.7 else "or", f, p)
    for kind, var in reversed(prefix):
        f = (kind, var, f)
    return f


def formula_text(f: tuple) -> str:
    """Concrete syntax; every compound part is parenthesised."""
    tag = f[0]
    if tag == "eq":
        return f"{f[1]} = {f[2]}"
    if tag == "rel":
        if f[1] == "<":
            return f"{f[2][0]} < {f[2][1]}"
        return f"{f[1]}({','.join(f[2])})"
    if tag == "inc":
        return f"{','.join(f[1])} <= {','.join(f[2])}"
    if tag == "not":
        return f"~({formula_text(f[1])})"
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return f"({formula_text(f[1])}){op}({formula_text(f[2])})"
    return f"{tag} {f[1]}. ({formula_text(f[2])})"


def is_first_order(f: tuple) -> bool:
    tag = f[0]
    if tag == "inc":
        return False
    if tag in ("eq", "rel"):
        return True
    if tag == "not":
        return is_first_order(f[1])
    if tag in ("and", "or"):
        return is_first_order(f[1]) and is_first_order(f[2])
    return is_first_order(f[2])


_SATURATION = 1e18


def naive_cost(f: tuple, rows: int, universe: int) -> float:
    """Criterion 1's feasibility filter: a rough bound on the literal
    engine's clause expansions, saturating at 1e18."""
    rows = min(rows, 4096)
    tag = f[0]
    if tag in ("eq", "rel", "inc", "not") or is_first_order(f):
        return max(rows, 1)
    if tag == "and":
        return min(naive_cost(f[1], rows, universe) + naive_cost(f[2], rows, universe),
                   _SATURATION)
    if tag == "or":
        return min(2.0 ** min(rows, 64) * (naive_cost(f[1], rows, universe)
                                           + naive_cost(f[2], rows, universe)),
                   _SATURATION)
    if tag == "E":
        choices = (2.0 ** universe - 1) ** min(rows, 64)
        return min(choices * naive_cost(f[2], rows * universe, universe), _SATURATION)
    return naive_cost(f[2], rows * universe, universe)


# ---------------------------------------------------------------------------
# Models and teams

def gen_relations(rng: random.Random, elems: tuple[str, ...]) -> dict[str, frozenset]:
    return {
        name: frozenset(t for t in itertools.product(elems, repeat=arity)
                        if rng.random() < 0.5)
        for name, arity in sorted(ARITY.items())
    }


def model_text(elems, relations: dict[str, frozenset]) -> str:
    lines = [f"universe: {' '.join(elems)}"]
    for name in sorted(relations):
        arity = ARITY.get(name, 2)
        body = " ".join(f"({','.join(t)})" for t in sorted(relations[name]))
        lines.append(f"relation {name}/{arity}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def team_text(domain: tuple[str, ...], rows) -> str:
    """CSV team file; ``domain`` must be sorted, rows aligned with it."""
    return "\n".join([",".join(domain)] + [",".join(r) for r in sorted(rows)]) + "\n"


# ---------------------------------------------------------------------------
# Digraphs

def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def lasso(n: int, cycle: int) -> list[tuple[int, int]]:
    """A path of ``n - cycle`` nodes running into a cycle of ``cycle`` nodes."""
    return chain(n) + [(n - 1, n - cycle)]


def sparse(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(m)})


def small_digraph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Half acyclic (edges only go up a random order), half unrestricted."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if rng.random() < 0.5:
        return [(a, b) for a, b in pairs if a < b and rng.random() < 2.0 / n]
    return [(a, b) for a, b in pairs if rng.random() < 1.5 / n]


def node_names(rng: random.Random, n: int) -> list[str]:
    """Shuffled element names, so no input arrives in generation order."""
    labels = list(range(n))
    rng.shuffle(labels)
    return [f"n{i}" for i in labels]


# ---------------------------------------------------------------------------
# Inclusion dependencies

IND_VARS = ("a", "b", "c", "d", "e")


def gen_ind_atom(rng: random.Random) -> tuple[tuple[str, ...], tuple[str, ...]]:
    width = rng.randint(1, 3)
    return (tuple(rng.choice(IND_VARS) for _ in range(width)),
            tuple(rng.choice(IND_VARS) for _ in range(width)))


def gen_ind_problem(rng: random.Random):
    """(premises, goal): width <= 3 over five variables, 1-4 premises."""
    premises = tuple(gen_ind_atom(rng) for _ in range(rng.randint(1, 4)))
    return premises, gen_ind_atom(rng)


def atom_text(atom) -> str:
    return f"{','.join(atom[0])} <= {','.join(atom[1])}"


def search_work(premises, goal, max_rows: int = 3, max_elems: int = 3,
                exhaustive_limit: int = 400_000, samples: int = 50_000) -> int:
    """Cost of an IND problem: the number of candidate teams a search for a
    refuting team examines before it finds one or gives up.  It walks every
    team of at most ``max_rows`` rows over ``max_elems`` elements when there
    are at most ``exhaustive_limit`` of them, else draws ``samples`` teams
    from ``random.Random(2007)``.

    The package's documented counterexample search works the same way, so
    the count tracks its cost.  The count is computed here, from the input
    alone, so a change to the package never changes which problems a seed
    selects; it can only make the count a poorer guide to the cost."""
    variables = sorted({v for atom in premises + (goal,) for side in atom for v in side})
    elems = tuple(str(i) for i in range(max_elems))
    assignments = list(itertools.product(elems, repeat=len(variables)))
    pos = {v: i for i, v in enumerate(variables)}
    atoms = [(tuple(pos[v] for v in lhs), tuple(pos[v] for v in rhs))
             for lhs, rhs in premises + (goal,)]

    def holds(rows, atom):
        lhs, rhs = atom
        rvalues = {tuple(r[i] for i in rhs) for r in rows}
        return all(tuple(r[i] for i in lhs) in rvalues for r in rows)

    def refutes(rows):
        return all(holds(rows, a) for a in atoms[:-1]) and not holds(rows, atoms[-1])

    total = sum(math.comb(len(assignments), r) for r in range(1, max_rows + 1))
    work = 0
    if total <= exhaustive_limit:
        for r in range(1, max_rows + 1):
            for rows in itertools.combinations(assignments, r):
                work += 1
                if refutes(rows):
                    return work
        return work
    rng = random.Random(2007)
    for _ in range(samples):
        work += 1
        r = rng.randint(1, max_rows)
        if refutes(tuple(sorted(set(rng.choice(assignments) for _ in range(r))))):
            return work
    return work
