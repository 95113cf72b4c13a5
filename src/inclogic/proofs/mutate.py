"""Single-point mutations of proof scripts for the rejection harness.

Every mutant perturbs exactly one rule id or one parameter while the
stated sequents stay fixed, so an accepted mutant would mean the checker
derived the same sequent from a different justification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..syntax import Bottom, Not, Var
from .kernel import RuleApp, RULES
from .script import ProofScript, Step


@dataclass(frozen=True)
class Mutant:
    description: str
    script: ProofScript


_RULE_NAMES = sorted(RULES)


def mutants(script: ProofScript, per_step: int = 4) -> Iterator[Mutant]:
    for idx, step in enumerate(script.steps):
        if step.rule is None:
            continue
        emitted = 0
        for mutated, description in _step_mutations(step):
            steps = list(script.steps)
            steps[idx] = mutated
            yield Mutant(f"step {step.step_id}: {description}",
                         ProofScript(tuple(steps), script.qed, script.sig))
            emitted += 1
            if emitted >= per_step:
                break


def _step_mutations(step: Step) -> Iterator[tuple[Step, str]]:
    rule = step.rule
    assert rule is not None
    same_arity = [
        name for name in _RULE_NAMES
        if name != rule.rule and RULES[name][0] == RULES[rule.rule][0]
    ]
    for name in same_arity[:2]:
        yield (
            Step(step.step_id, step.sequent, RuleApp(name, rule.params),
                 step.premises, step.lineno),
            f"rule {rule.rule} -> {name}",
        )
    for key in sorted(rule.params):
        params = dict(rule.params)
        params[key] = _perturb(rule.params[key])
        yield (
            Step(step.step_id, step.sequent, RuleApp(rule.rule, params),
                 step.premises, step.lineno),
            f"parameter {key} perturbed",
        )
    if len(step.premises) >= 2:
        swapped = (step.premises[1], step.premises[0]) + step.premises[2:]
        yield (
            Step(step.step_id, step.sequent, rule, swapped, step.lineno),
            "premise order swapped",
        )


def _perturb(value: object) -> object:
    """A different value of the same kind, so the mutant still prints."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "_mut"
    if isinstance(value, tuple) and value:
        return (_perturb(value[0]),) + value[1:]
    if isinstance(value, Var):
        return Var(value.name + "_mut")
    if value == Bottom():
        return Not(Bottom())
    return Bottom()
