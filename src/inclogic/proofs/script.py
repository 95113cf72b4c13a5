"""Proof script (.ndp) parsing and checking.

One step per line::

    <id>: <formula> assume
    <id>: ctx1; ctx2 |- <formula> by <rule>(key = value; key = value) from id1, id2
    qed <id>

Blank lines and ``#`` comments are skipped.  ``sig:`` lines extend the
ambient signature (``sig: relation </2``, ``sig: function f/1``,
``sig: constant c``) so scripts can be self-contained.  Context formulas
and rule parameters are separated by ``;`` because formulas themselves
contain commas.  Sequence-valued parameters are comma-separated variable
lists; formula- and term-valued parameters use the formula grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from ..parser import parse_formula, parse_term
from ..syntax import EMPTY_SIGNATURE, Formula, FormulaError, Signature, signature_union
from .kernel import RuleApp, RuleError, RULES, Sequent


class ScriptError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


@dataclass(frozen=True)
class Step:
    step_id: str
    sequent: Sequent
    rule: RuleApp | None  # None marks an assumption
    premises: tuple[str, ...]
    lineno: int


@dataclass(frozen=True)
class ProofScript:
    steps: tuple[Step, ...]
    qed: str
    sig: Signature

    def claim(self) -> Sequent:
        by_id = {s.step_id: s for s in self.steps}
        return by_id[self.qed].sequent


@dataclass(frozen=True)
class LineStatus:
    step_id: str
    ok: bool
    message: str


@dataclass(frozen=True)
class CheckReport:
    accepted: bool
    lines: tuple[LineStatus, ...]
    claim: Sequent | None

    def failures(self) -> list[LineStatus]:
        return [l for l in self.lines if not l.ok]


# parameter value kinds, keyed by parameter name
_PARAM_KINDS: Mapping[str, str] = {
    "t": "term",
    "phi": "formula",
    "alpha": "formula",
    "other": "formula",
    "add": "formula+",
    "var": "var",
    "fresh": "var",
    "pad": "var",
    "u": "var",
    "v": "var",
    "y": "var",
    "z": "var",
    "pivots": "varseq",
    "xseq": "varseq",
    "yseq": "varseq",
    "zseq": "varseq",
    "len1": "int",
    "len2": "int",
    "keep": "int",
    "count": "int",
    "nvars": "int",
    "natoms": "int",
}

_SIG_RE = re.compile(
    r"^sig:\s*(?:(relation|function)\s+([A-Za-z_][A-Za-z0-9_']*|<)\s*/\s*(\d+)"
    r"|constant\s+([A-Za-z_][A-Za-z0-9_']*))\s*$"
)
_STEP_RE = re.compile(r"^([A-Za-z0-9_]+)\s*:\s*(.*)$")
# the literal prefix "by" lets search skip ahead; the lookbehind is a leading \b
_RULE_RE = re.compile(
    r"by(?<!\wby)\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(?:from\s+([A-Za-z0-9_,\s]*))?$"
)
_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")
_INT_RE = re.compile(r"^\d+$")
_VARSEQ_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*(\s*,\s*[A-Za-z_][A-Za-z0-9_']*)*$")


def parse_script(text: str, sig: Signature = EMPTY_SIGNATURE) -> ProofScript:
    steps: list[Step] = []
    qed: str | None = None
    seen: set[str] = set()
    # formula text -> Formula under the current signature: context formulas
    # repeat line after line, so each distinct one is parsed once
    parsed: dict[str, Formula] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("sig:"):
            sig = _extend_sig(sig, line, lineno)
            parsed.clear()
            continue
        if line.startswith("qed"):
            target = line[3:].strip()
            if not target:
                raise ScriptError("qed needs a step id", lineno)
            if qed is not None:
                raise ScriptError("duplicate qed line", lineno)
            qed = target
            continue
        if qed is not None:
            raise ScriptError("steps after the qed line", lineno)
        step = _parse_step(line, sig, lineno, seen, parsed)
        steps.append(step)
        seen.add(step.step_id)
    if qed is None:
        raise ScriptError("missing final qed line")
    if qed not in seen:
        raise ScriptError(f"qed refers to unknown step {qed!r}")
    return ProofScript(tuple(steps), qed, sig)


def _extend_sig(sig: Signature, line: str, lineno: int) -> Signature:
    m = _SIG_RE.match(line)
    if m is None:
        raise ScriptError(f"bad signature directive {line!r}", lineno)
    if m.group(4):
        extra = Signature({}, {}, frozenset((m.group(4),)))
    elif m.group(1) == "relation":
        extra = Signature({m.group(2): int(m.group(3))}, {}, frozenset())
    else:
        extra = Signature({}, {m.group(2): int(m.group(3))}, frozenset())
    try:
        return signature_union(sig, extra)
    except FormulaError as e:
        raise ScriptError(str(e), lineno) from None


def _formula(text: str, sig: Signature, parsed: dict[str, Formula]) -> Formula:
    f = parsed.get(text)
    if f is None:
        f = parsed[text] = parse_formula(text, sig)
    return f


def _parse_step(line: str, sig: Signature, lineno: int, seen: set[str],
                parsed: dict[str, Formula]) -> Step:
    m = _STEP_RE.match(line)
    if m is None:
        raise ScriptError(f"expected '<id>: ...', got {line!r}", lineno)
    step_id, rest = m.group(1), m.group(2).strip()
    if step_id in seen:
        raise ScriptError(f"duplicate step id {step_id!r}", lineno)

    if rest.endswith("assume"):
        formula_text = rest[: -len("assume")].strip()
        try:
            f = _formula(formula_text, sig, parsed)
        except FormulaError as e:
            raise ScriptError(str(e), lineno) from None
        return Step(step_id, Sequent(frozenset((f,)), f), None, (), lineno)

    rm = _RULE_RE.search(rest)
    if rm is None:
        raise ScriptError("expected '... by rule(params) [from ids]'", lineno)
    seq_text = rest[: rm.start()].strip()
    rule_name, params_text, ids_text = rm.group(1), rm.group(2), rm.group(3)
    if rule_name not in RULES:
        raise ScriptError(f"unknown rule {rule_name!r}", lineno)

    if "|-" not in seq_text:
        raise ScriptError("expected 'context |- formula'", lineno)
    ctx_text, _, concl_text = seq_text.partition("|-")
    try:
        ctx = frozenset(
            _formula(part.strip(), sig, parsed)
            for part in ctx_text.split(";")
            if part.strip()
        )
        concl = _formula(concl_text.strip(), sig, parsed)
        params = _parse_params(params_text or "", sig, parsed)
    except FormulaError as e:
        raise ScriptError(str(e), lineno) from None

    premises = tuple(x.strip() for x in (ids_text or "").split(",") if x.strip())
    for pid in premises:
        if pid not in seen:
            raise ScriptError(f"premise {pid!r} does not precede its use", lineno)
    return Step(step_id, Sequent(ctx, concl), RuleApp(rule_name, params), premises, lineno)


def _parse_params(text: str, sig: Signature, parsed: dict[str, Formula]) -> dict:
    params: dict = {}
    adds: list = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise FormulaError(f"bad parameter {chunk!r}")
        kind = _PARAM_KINDS.get(key)
        if kind is None:
            raise FormulaError(f"unknown parameter {key!r}")
        if kind == "term":
            params[key] = parse_term(value, sig)
        elif kind == "formula":
            params[key] = _formula(value, sig, parsed)
        elif kind == "formula+":
            adds.append(_formula(value, sig, parsed))
        elif kind == "var":
            if not _VAR_RE.match(value):
                raise FormulaError(f"parameter {key!r} must be a variable")
            params[key] = value
        elif kind == "varseq":
            if not _VARSEQ_RE.match(value):
                raise FormulaError(f"parameter {key!r} must be a variable sequence")
            params[key] = tuple(v.strip() for v in value.split(","))
        else:
            if not _INT_RE.match(value):
                raise FormulaError(f"parameter {key!r} must be an integer")
            params[key] = int(value)
    if adds:
        params["add"] = tuple(adds)
    return params


def format_params(params: Mapping[str, object]) -> str:
    from ..syntax import pretty, pretty_term, Var, Const, App

    parts = []
    for key in sorted(params):
        value = params[key]
        if key == "add":
            parts.extend(f"add = {pretty(f)}" for f in value)  # type: ignore[union-attr]
        elif isinstance(value, (Var, Const, App)):
            parts.append(f"{key} = {pretty_term(value)}")
        elif isinstance(value, str):
            parts.append(f"{key} = {value}")
        elif isinstance(value, tuple):
            parts.append(f"{key} = {', '.join(value)}")
        elif isinstance(value, int):
            parts.append(f"{key} = {value}")
        else:
            parts.append(f"{key} = {pretty(value)}")  # type: ignore[arg-type]
    return "; ".join(parts)


def format_script(script: ProofScript) -> str:
    from ..syntax import pretty

    lines = []
    for step in script.steps:
        if step.rule is None:
            lines.append(f"{step.step_id}: {pretty(step.sequent.conclusion)} assume")
            continue
        ctx = "; ".join(sorted(pretty(f) for f in step.sequent.context))
        head = f"{step.step_id}: {ctx} |- {pretty(step.sequent.conclusion)}"
        tail = f"by {step.rule.rule}({format_params(step.rule.params)})"
        if step.premises:
            tail += f" from {', '.join(step.premises)}"
        lines.append(f"{head} {tail}")
    lines.append(f"qed {script.qed}")
    return "\n".join(lines) + "\n"


def check_script(script: ProofScript) -> CheckReport:
    """Accepted iff every step recomputes exactly from its justification."""
    from .kernel import apply_rule

    statuses: list[LineStatus] = []
    checked: dict[str, Sequent] = {}
    all_ok = True
    for step in script.steps:
        if step.rule is None:
            checked[step.step_id] = step.sequent
            statuses.append(LineStatus(step.step_id, True, "assumption"))
            continue
        missing = [pid for pid in step.premises if pid not in checked]
        if missing:
            all_ok = False
            statuses.append(
                LineStatus(step.step_id, False, f"premise(s) {missing} not established"))
            continue
        try:
            derived = apply_rule(step.rule, [checked[pid] for pid in step.premises])
        except RuleError as e:
            all_ok = False
            statuses.append(LineStatus(step.step_id, False, str(e)))
            continue
        if derived != step.sequent:
            all_ok = False
            statuses.append(
                LineStatus(
                    step.step_id,
                    False,
                    f"stated sequent differs from the derived one: {derived}",
                ))
            continue
        checked[step.step_id] = step.sequent
        statuses.append(LineStatus(step.step_id, True, step.rule.rule))
    claim = checked.get(script.qed)
    accepted = all_ok and claim is not None
    return CheckReport(accepted, tuple(statuses), claim)


def check_text(text: str, sig: Signature = EMPTY_SIGNATURE) -> CheckReport:
    return check_script(parse_script(text, sig))
