"""Show that every output check can fail.

    python3 perfbench/selftest.py

Each check is first given the package's real output, which it must accept,
and then a planted wrong answer (a flipped verdict, a missing or foreign
row, a team that satisfies the goal, a non-monotone run of levels), which it
must reject.  The reference computations are also tested on inputs whose
answers are known by hand.  Exits 0 when every planted wrong answer is
caught.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inclogic as ic  # noqa: E402
from inclogic import inddep as ic_inddep  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(name: str, got, want_problem: bool):
    caught = bool(got)
    if caught != want_problem:
        failures.append(name)
    status = "ok " if caught == want_problem else "BAD"
    print(f"{status} {name}: {got if got else 'accepted'}")


def known(name: str, holds: bool):
    if not holds:
        failures.append(name)
    print(f"{'ok ' if holds else 'BAD'} {name}: {'as computed by hand' if holds else 'wrong'}")


def test_references():
    lasso = [("a", "b"), ("b", "c"), ("c", "b")]
    known("infinite walks of a lasso", reference.infinite_walk_nodes("abcd", lasso)
          == {"a", "b", "c"})
    known("infinite walks of a chain",
          not reference.infinite_walk_nodes("abc", [("a", "b"), ("b", "c")]))
    known("cycle test", reference.has_cycle("abc", lasso)
          and not reference.has_cycle("abc", [("a", "b"), ("b", "c")]))
    chain = ((("x",), ("y",)), (("y",), ("z",)))
    known("chain search: transitivity", reference.chain_derivable(chain, (("x",), ("z",))))
    known("chain search: converse", not reference.chain_derivable(chain, (("z",), ("x",))))
    known("chain search: projection and permutation", reference.chain_derivable(
        ((("x", "y"), ("u", "v")),), (("y", "x", "y"), ("v", "u", "v"))))
    # d,c <= e,e forces d = c, but no chain of axioms reaches d <= c
    known("chain search: repeated variables",
          not reference.chain_derivable(((("d", "c"), ("e", "e")),), (("d",), ("c",))))
    known("refutation check: a team that satisfies the goal refutes nothing",
          not reference.refutes(((("x",), ("y",)),), (("y",), ("x",)), ("x", "y"),
                                {("0", "0")}))
    known("refutation check: a real refutation", reference.refutes(
        ((("x",), ("y",)),), (("y",), ("x",)), ("x", "y"), {("0", "0"), ("0", "1")}))


def test_eval_small():
    w = workloads.EvalSmall(1)
    label, run, check = w.instance()
    out = run()
    model, team, phi, verdict, sub = out
    expect("eval-small real output", check(out), False)
    expect("eval-small flipped verdict", check((model, team, phi, not verdict, sub)), True)
    foreign = ic.Team(sub.domain, sub.rows | {("zz",) * len(sub.domain)})
    expect("eval-small subteam with a foreign row",
           check((model, team, phi, verdict, foreign)), True)


def test_eval_large():
    w = workloads.EvalLarge(1)
    label, run, check = w.edge_query("lasso", w.LIGHT_NODES)
    sub = run()
    expect("eval-large real output", check(sub), False)
    missing = ic.Team(sub.domain, frozenset(sorted(sub.rows)[1:]))
    expect("eval-large max subteam missing a row", check(missing), True)
    label, run, check = w.sentence()
    verdict = run()
    expect("eval-large real sentence verdict", check(verdict), False)
    expect("eval-large flipped sentence verdict", check(not verdict), True)


def test_approx_game():
    w = workloads.ApproxGame(1)
    s = w.draw_digraph()
    ops = list(w.level_ops(s))
    for i, (label, run, check) in enumerate(ops):
        expect(f"approx-game real output, level {i}", check(run()), False)
    # the same instance again, fed wrong verdicts
    ops = list(w.level_ops(w.prepare(s["text"], workloads.gen.model_text(
        s["model"].universe, s["model"].relations), s["cyclic"])))
    nf, value = ops[0][1]()
    expect("approx-game level against the reference game", ops[0][2]((nf, not value)), True)

    empty_r = "universe: e0 e1\nrelation P/1:\nrelation R/2:\n"
    false_s = w.prepare("A a. E b. R(a,b)", empty_r, None, screened=False)
    ops = list(w.level_ops(false_s))
    nf, _ = ops[0][1]()
    expect("approx-game level 0 false on a false sentence", ops[0][2]((nf, False)), False)
    expect("approx-game non-monotone levels", ops[1][2]((nf, True)), True)

    true_s = w.prepare("A a. E b. a = b", empty_r, None, screened=False)
    ops = list(w.level_ops(true_s))
    expect("approx-game render of the wrong normal form", ops[0][2]((nf, True)), True)
    true_s = w.prepare("A a. E b. a = b", empty_r, None, screened=False)
    ops = list(w.level_ops(true_s))
    nf, _ = ops[0][1]()
    expect("approx-game false level on a true sentence", ops[0][2]((nf, False)), True)


def test_proofs_ind():
    w = workloads.ProofsInd(1)
    name, text, mutants = w.corpus()[0]
    label, run, check = w.script_op(name, workloads.rename_script(text, "_t"), True)
    expect("proofs-ind renamed copy", check(run()), False)
    expect("proofs-ind copy reported rejected", check(False), True)
    name, text, mutants = next(c for c in w.corpus() if c[2])
    label, run, check = w.script_op(name, workloads.rename_script(mutants[0], "_t"), False)
    expect("proofs-ind mutant", check(run()), False)
    expect("proofs-ind mutant reported accepted", check(True), True)

    kinds = {}
    while len(kinds) < 2:
        cost_bin, (label, run, check) = w.draw_ind()
        verdict = run()
        if verdict.kind in ("derivable", "refuted"):
            kinds.setdefault(verdict.kind, (verdict, check))
    verdict, check = kinds["derivable"]
    expect("proofs-ind derivable verdict", check(verdict), False)
    expect("proofs-ind flipped derivable verdict", check(ic_inddep.IndVerdict("unknown")), True)
    verdict, check = kinds["refuted"]
    expect("proofs-ind refutation", check(verdict), False)
    constant = ic.Team(verdict.team.domain, frozenset({("0",) * len(verdict.team.domain)}))
    expect("proofs-ind team that satisfies the goal",
           check(ic_inddep.IndVerdict("refuted", team=constant)), True)


def main() -> int:
    for test in (test_references, test_eval_small, test_eval_large, test_approx_game,
                 test_proofs_ind):
        test()
    print(f"\n{len(failures)} check(s) misbehaved" if failures else "\nevery check can fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
