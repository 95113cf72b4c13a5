"""The four workloads.

A workload hands out rounds.  A round yields operations
``(label, run, check)``: ``run`` is the timed call into the package and
``check`` validates its output afterwards, returning ``None`` or a message.
Inputs are generated one operation at a time, as the round is consumed, so
set-up covers only the first one and the input set never piles up in memory.
Every round has the same make-up (the same count of each kind of operation,
and for the approximation and IND streams the same count per cost class), so
a run's figures do not depend on which seed drew which instance.  Variable
names carry a per-operation suffix, so no two operations share a formula and
the package's formula caches see every instance cold.
"""

from __future__ import annotations

import math
import random
import re

import inclogic as ic
from inclogic import approx as ic_approx
from inclogic import inddep as ic_inddep
from inclogic import proofs as ic_proofs

import gen
import reference

SMALL_VARS = ("x", "y", "z")
SUITE_SIG = ic.Signature(gen.ARITY, {}, frozenset())
# criterion 1's oracle guards and feasibility cap
NAIVE_GUARDS = ic.Guards(max_rows=8, max_universe=4, max_depth=4, max_work=10_000_000)
NAIVE_COST_CAP = 60_000.0


def stratified(draw, quotas: dict):
    """Yield items from ``draw()``, which returns ``(bin, item)`` pairs, until
    every bin has had its quota; an item whose bin is full is dropped."""
    need = dict(quotas)
    while any(need.values()):
        b, item = draw()
        if need.get(b, 0) > 0:
            need[b] -= 1
            yield item


def interleave(*streams):
    """Merge ``(count, chunks)`` streams, each an iterator of ``count`` lists
    of operations, so that every stream is spread evenly over the round and
    each kind of operation samples the whole run, not one stretch of it."""
    done = [0] * len(streams)
    while True:
        live = [i for i, (count, _) in enumerate(streams) if done[i] < count]
        if not live:
            return
        i = min(live, key=lambda i: (done[i] + 0.5) / streams[i][0])
        done[i] += 1
        yield from next(streams[i][1])


def cost_class(n: int) -> int:
    """Stratum of a cost count: 0 for none, then decades below 128 (1-9: 1,
    10-99: 2, 100-127: 3), then powers of two (128-255: 17, 256-511: 18,
    ...).  From there on, where the percentiles and most of the time fall,
    the cost within a stratum varies at most twofold."""
    if n < 1:
        return 0
    if n < 128:
        return 1 + int(math.log10(n))
    return n.bit_length() + 9


class Workload:
    name = ""
    # nominal duration of one round's timed operations on the machine the
    # README names; a run of S seconds does round(S / round_seconds) rounds
    round_seconds = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.count = 0

    def tag(self) -> str:
        """A fresh suffix for the variable names of one operation."""
        self.count += 1
        return str(self.count)

    def make_round(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------

class EvalSmall(Workload):
    """Criterion 1's stream: parse model, team and formula, then eval_fast
    and max_subteam."""

    name = "eval-small"
    round_size = 200
    round_seconds = 0.085

    def make_round(self):
        for _ in range(self.round_size):
            yield self.instance()

    def instance(self):
        rng = self.rng
        while True:
            size = rng.randint(2, 3)
            elems = tuple(f"e{i}" for i in range(size))
            relations = gen.gen_relations(rng, elems)
            rows = frozenset(tuple(rng.choice(elems) for _ in SMALL_VARS)
                             for _ in range(rng.randint(0, 6)))
            f = gen.gen_formula(rng, SMALL_VARS, rng.randint(1, 12))
            if gen.naive_cost(f, len(rows), size) <= NAIVE_COST_CAP:
                break
        k = self.tag()
        names = tuple(v + k for v in SMALL_VARS)
        ren = dict(zip(SMALL_VARS, names))
        f_text = re.sub(r"\b[xyz]\b", lambda m: ren[m.group(0)], gen.formula_text(f))
        m_text = gen.model_text(elems, relations)
        t_text = gen.team_text(names, rows)

        def run():
            model = ic.parse_model(m_text)
            team = ic.parse_team(t_text)
            phi = ic.parse_formula(f_text, model.sig)
            return model, team, phi, ic.eval_fast(model, team, phi), ic.max_subteam(model, team, phi)

        def check(out):
            model, team, phi, verdict, sub = out
            if team.domain != names or team.rows != rows:
                return "parse_team changed the rows"
            if verdict != ic.eval_naive(model, team, phi, NAIVE_GUARDS):
                return "eval_fast disagrees with eval_naive"
            if sub.domain != team.domain or not sub.rows <= team.rows:
                return "max_subteam is not a subteam"
            if (sub.rows == team.rows) != verdict:
                return "eval_fast disagrees with max_subteam"
            # a whole-team answer was judged by the first eval_naive call
            if sub.rows != team.rows and not ic.eval_naive(model, sub, phi, NAIVE_GUARDS):
                return "max_subteam does not satisfy the formula"
            return None

        return f_text, run, check


# ---------------------------------------------------------------------------

class EvalLarge(Workload):
    """Short formulas on large teams over seeded digraphs."""

    name = "eval-large"
    round_seconds = 0.53
    # node counts: the chain edge query is quadratic and the node queries
    # build n * n rows, so their sizes vary little and every round costs
    # about the same; the light edge queries spread over a wide range
    LIGHT_NODES = (200, 800)
    CHAIN_NODES = (480, 520)
    NODE_NODES = (130, 150)
    SENTENCES = 3             # small-digraph sentences per round

    def make_round(self):
        # three light edge queries per shape that converges at once, so that
        # the median falls inside the light, parse-bound operations and the
        # 90th percentile inside the heavy fixpoints.  Each of the six takes
        # its size from its own sixth of LIGHT_NODES, so every round has the
        # same spread of sizes and the median does not depend on the seed.
        low, high = self.LIGHT_NODES
        step = (high - low) // 6
        for i in range(6):
            shape = ("lasso", "sparse")[i % 2]
            yield self.edge_query(shape, (low + i * step, low + (i + 1) * step - 1))
        yield self.edge_query("chain", self.CHAIN_NODES)
        for shape in ("chain", "lasso", "sparse"):
            yield self.node_query(shape)
        for _ in range(self.SENTENCES):
            yield self.sentence()

    def graph(self, shape: str, n: int):
        rng = self.rng
        if shape == "chain":
            edges = gen.chain(n)
        elif shape == "lasso":
            edges = gen.lasso(n, rng.randint(2, max(2, n // 10)))
        else:
            edges = gen.sparse(rng, n, n + n // 10)
        names = gen.node_names(rng, n)
        return names, [(names[a], names[b]) for a, b in edges]

    def team_query(self, label, names, edges, t_text, f_text, expected):
        m_text = gen.model_text(names, {"R": frozenset(edges)})

        def run():
            model = ic.parse_model(m_text)
            team = ic.parse_team(t_text)
            return ic.max_subteam(model, team, ic.parse_formula(f_text, model.sig))

        def check(sub):
            want = expected()
            if sub.rows != want:
                return (f"max subteam has {len(sub.rows)} rows, the graph reference"
                        f" {len(want)}")
            return None

        return label, run, check

    def edge_query(self, shape, sizes):
        names, edges = self.graph(shape, self.rng.randint(*sizes))
        k = self.tag()
        x, y = f"x{k}", f"y{k}"

        def expected():
            alive = reference.infinite_walk_nodes(names, edges)
            return frozenset((a, b) for a, b in edges if b in alive)

        return self.team_query(f"{shape} edges n={len(names)}", names, edges,
                               gen.team_text((x, y), edges), f"{y} <= {x}", expected)

    def node_query(self, shape):
        names, edges = self.graph(shape, self.rng.randint(*self.NODE_NODES))
        k = self.tag()
        x, y = f"x{k}", f"y{k}"

        def expected():
            return frozenset((v,) for v in reference.infinite_walk_nodes(names, edges))

        return self.team_query(f"{shape} nodes n={len(names)}", names, edges,
                               gen.team_text((x,), [(v,) for v in names]),
                               f"E {y}. (R({x},{y}) & {y} <= {x})", expected)

    def sentence(self):
        n = self.rng.randint(5, 8)
        names = [f"n{i}" for i in range(n)]
        edges = [(names[a], names[b]) for a, b in gen.small_digraph(self.rng, n)]
        m_text = gen.model_text(names, {"<": frozenset(edges)})
        k = self.tag()
        f_text = f"E x{k}. E y{k}. (y{k} <= x{k} & y{k} < x{k})"

        def run():
            model = ic.parse_model(m_text)
            team = ic.parse_team("<empty-domain>")
            return ic.eval_fast(model, team, ic.parse_formula(f_text, model.sig))

        def check(verdict):
            if verdict != reference.has_cycle(names, edges):
                return "non-well-foundedness verdict disagrees with the cycle test"
            return None

        return f"digraph sentence n={n}", run, check


# ---------------------------------------------------------------------------

class ApproxGame(Workload):
    """Approximation levels 0-2 of criterion-5 sentences and of the
    non-well-foundedness sentence; one operation is one level."""

    name = "approx-game"
    # one round per run of 15 s: the budget trip below once (about 8 s) and
    # two to three seconds of operations that succeed
    round_seconds = 12.0
    LEVELS = (0, 1, 2)
    # Sentences per round by the cost class of their level-2 game tree's node
    # count, in the stream's natural shares below the cap, measured on 3,000
    # sentences of seeds 11 and 12.  The cap keeps each class common enough
    # to be filled within a few hundred draws; the 3% of the stream above it
    # is dropped (see the README).
    QUOTAS = {1: 20, 2: 138, 3: 5, 17: 59, 18: 36, 19: 13, 20: 8, 21: 5, 22: 3, 23: 3,
              24: 2, 25: 4, 26: 2, 27: 1}
    NODE_CAP = 2**18 - 1
    DIGRAPHS = 30
    # A fixed sentence whose level-2 game exhausts prefix_truth's node budget
    # on any 3-element model; it is in every round and always fails there.
    TRIP = ("A a. A b. E c. (a <= c)", "universe: e0 e1 e2\n")

    def make_round(self):
        sentences = (list(self.level_ops(s))
                     for s in stratified(self.draw_sentence, self.QUOTAS))
        digraphs = (list(self.level_ops(self.draw_digraph())) for _ in range(self.DIGRAPHS))
        trip = (list(self.level_ops(self.prepare(*self.TRIP, None, screened=False)))
                for _ in range(1))
        yield from interleave((sum(self.QUOTAS.values()), sentences),
                              (self.DIGRAPHS, digraphs), (1, trip))

    def draw_sentence(self):
        rng = self.rng
        while True:
            text = gen.formula_text(gen.gen_sentence(rng))
            nf = ic.normal_form(ic.parse_formula(text, SUITE_SIG))
            width = len(nf.w) + len(nf.x)
            try:
                blocks = ic.build_approx(nf, 2, max_blocks=30).book.total_blocks()
            except ic.GuardExceeded:
                continue
            # criterion 5's size filter, and room for the render check
            if blocks * width > 120 or width > 11:
                continue
            size = 2 if width > 7 else rng.randint(2, 3)
            elems = tuple(f"e{i}" for i in range(size))
            s = self.prepare(text, gen.model_text(elems, gen.gen_relations(rng, elems)), None,
                             nf=nf)
            if s is not None:
                return cost_class(s["nodes"]), s

    def draw_digraph(self):
        rng = self.rng
        while True:
            n = rng.randint(3, 6)
            names = [f"n{i}" for i in range(n)]
            edges = [(names[a], names[b]) for a, b in gen.small_digraph(rng, n)]
            s = self.prepare("E x. E y. (y <= x & y < x)",
                             gen.model_text(names, {"<": frozenset(edges)}),
                             reference.has_cycle(names, edges))
            if s is not None:
                return s

    def prepare(self, text, m_text, cyclic, screened=True, nf=None):
        """Parse the instance and, when screened, play every level with the
        reference game; None when a level needs more than NODE_CAP nodes."""
        model = ic.parse_model(m_text)
        s = {"text": text, "model": model, "cyclic": cyclic, "ref": {}, "nodes": 0,
             "out": {}}
        if screened:
            if nf is None:
                nf = ic.normal_form(ic.parse_formula(text, model.sig))
            for level in self.LEVELS:
                af = ic.build_approx(nf, level)
                try:
                    s["ref"][level], nodes = reference.game_value(
                        model.universe, model.relations, af.prefix, af.conjuncts,
                        self.NODE_CAP)
                except reference.OverCap:
                    return None
            s["nodes"] = nodes
        return s

    def level_ops(self, s):
        for level in self.LEVELS:
            k = self.tag()
            # the same sentence under fresh names for every level
            text = re.sub(r"\b([a-z])\b", rf"\g<1>{k}", s["text"])
            phi = ic.parse_formula(text, s["model"].sig)
            yield (f"{s['text']} level {level}", self.run(s["model"], phi, level),
                   self.checker(s, phi, level))

    @staticmethod
    def run(model, phi, level):
        def run():
            nf = ic.normal_form(phi)
            af = ic.build_approx(nf, level)
            return nf, ic_approx.prefix_truth(model, af.prefix, af.conjuncts)
        return run

    def checker(self, s, phi, level):
        def check(out):
            nf, value = out
            if level in s["ref"] and value != s["ref"][level]:
                return f"level {level} disagrees with the reference game"
            s["out"][level] = value
            if any(v is False for lower, v in s["out"].items() if lower < level) and value:
                return "approximation levels are not monotone"
            model, empty = s["model"], ic.SINGLETON_EMPTY_DOMAIN
            if "truth" not in s:
                # once per sentence; the levels differ only in variable names
                s["truth"] = ic.eval_fast(model, empty, phi)
                if ic.eval_fast(model, empty, ic.render(nf)) != s["truth"]:
                    return "render(normal_form(phi)) changes the verdict"
            if s["truth"] and not value:
                return "a level fails on a true sentence"
            if s["cyclic"] and not value:
                return "a level fails on a digraph with a cycle"
            return None
        return check


# ---------------------------------------------------------------------------

_RULE_RE = re.compile(
    r"\s+by\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(?:from\s+([A-Za-z0-9_,\s]*))?$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_SIG_RE = re.compile(r"^sig:\s*(?:relation|function|constant)\s+([^\s/:]+)")
RESERVED = {"E", "A", "bot", "ups", "snot"}


def rename_script(text: str, suffix: str) -> str:
    """Append ``suffix`` to every variable of a sugar-free proof script:
    formulas, sequents and rule parameters; step ids, rule names, parameter
    keys and signature symbols stay."""
    fixed = set(RESERVED)
    for line in text.splitlines():
        m = _SIG_RE.match(line)
        if m:
            fixed.add(m.group(1))

    def ren(s: str) -> str:
        return _NAME_RE.sub(lambda m: m.group(0) if m.group(0) in fixed
                            else m.group(0) + suffix, s)

    out = []
    for line in text.splitlines():
        if line.startswith(("sig:", "qed")) or not line.strip():
            out.append(line)
            continue
        step_id, _, rest = line.partition(":")
        if rest.endswith(" assume"):
            out.append(f"{step_id}:{ren(rest[:-len(' assume')])} assume")
            continue
        m = _RULE_RE.search(rest)
        params = []
        for chunk in (m.group(2) or "").split(";"):
            key, eq, value = chunk.partition("=")
            if eq:
                params.append(f"{key.strip()} = {ren(value.strip())}")
        tail = f" from {m.group(3).strip()}" if m.group(3) else ""
        out.append(f"{step_id}:{ren(rest[:m.start()])} by {m.group(1)}"
                   f"({'; '.join(params)}){tail}")
    return "\n".join(out) + "\n"


class ProofsInd(Workload):
    """Renamed copies of the proof corpus with their single-point mutants,
    mixed with seeded IND implication problems."""

    name = "proofs-ind"
    round_seconds = 17.0
    # Two renamed copies of the corpus (with their mutants) per round, and
    # IND problems by the cost class of their counterexample search
    # (gen.search_work; class 0: derivable) in the stream's natural shares,
    # measured on 1,200 problems of seed 2007.  Without the strata the IND
    # time of a round would spread about 24% between seeds, with them 6%.
    # The IND problems carry most of the time; the slowest tenth of the
    # operations starts inside the cluster of anon_perm mutant checks, whose
    # cost is the same in every round, so the 90th percentile is steady.
    COPIES = 2
    IND_QUOTAS = {0: 39, 1: 40, 2: 60, 3: 9, 17: 7, 18: 7, 19: 9, 20: 5, 21: 9, 22: 4,
                  23: 4, 24: 4, 25: 16, 26: 1}
    scripts = None

    def corpus(self):
        """(canonical text, mutant texts) per corpus script, without sugar so
        that renaming cannot clash with names that desugaring picks."""
        if self.scripts is None:
            import importlib.resources
            scripts = []
            folder = importlib.resources.files("inclogic.proofs") / "corpus"
            for entry in sorted(folder.iterdir(), key=lambda e: e.name):
                if not entry.name.endswith(".ndp"):
                    continue
                text = entry.read_text()
                sig = "".join(l + "\n" for l in text.splitlines() if l.startswith("sig:"))
                script = ic_proofs.parse_script(text)
                mutants = []
                for m in ic_proofs.mutants(script):
                    try:
                        mutants.append(sig + ic_proofs.format_script(m.script))
                    except TypeError:
                        # format_script cannot print a mutant whose "add"
                        # parameter was replaced by a single formula
                        continue
                scripts.append((entry.name, sig + ic_proofs.format_script(script), mutants))
            self.scripts = scripts
        return self.scripts

    def make_round(self):
        scripts = self.corpus()
        count = self.COPIES * sum(1 + len(mutants) for _, _, mutants in scripts)
        ind = ([op] for op in stratified(self.draw_ind, self.IND_QUOTAS))
        yield from interleave((count, self.script_ops(scripts)),
                              (sum(self.IND_QUOTAS.values()), ind))

    def script_ops(self, scripts):
        for _ in range(self.COPIES):
            suffix = f"_{self.seed}c{self.tag()}"
            for name, text, mutants in scripts:
                yield [self.script_op(name, rename_script(text, suffix), True)]
                for i, mutant in enumerate(mutants):
                    yield [self.script_op(f"{name} mutant {i}", rename_script(mutant, suffix),
                                          False)]

    @staticmethod
    def script_op(label, text, expected):
        def run():
            try:
                script = ic_proofs.parse_script(text)
            except ic_proofs.ScriptError:
                return False
            return ic_proofs.check_script(script).accepted

        def check(accepted):
            if accepted != expected:
                return "renamed corpus script rejected" if expected else "mutant accepted"
            return None

        return label, run, check

    def draw_ind(self):
        premises, goal = gen.gen_ind_problem(self.rng)
        derivable = reference.chain_derivable(premises, goal)
        cost_bin = cost_class(0 if derivable else gen.search_work(premises, goal))
        g_text = "; ".join(gen.atom_text(a) for a in premises)
        f_text = gen.atom_text(goal)

        def run():
            return ic_inddep.ind_implies(ic_inddep.parse_ind_problem(g_text, f_text))

        def check(verdict):
            if (verdict.kind == "derivable") != derivable:
                return f"verdict {verdict.kind} but the chain search says {derivable}"
            if verdict.kind == "refuted":
                team = verdict.team
                if not reference.refutes(premises, goal, team.domain, team.rows):
                    return "refutation team does not refute the goal"
            elif verdict.kind not in ("derivable", "unknown"):
                return f"unexpected verdict {verdict.kind}"
            return None

        return cost_bin, (f"{g_text} |= {f_text}", run, check)


WORKLOADS = {w.name: w for w in (EvalSmall, EvalLarge, ApproxGame, ProofsInd)}
