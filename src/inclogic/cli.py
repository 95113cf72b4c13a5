"""Command-line interface.

Subcommands: parse, eval, nf, approx, check, implies, corpus.
Exit codes: 0 success/accepted/true, 1 false/rejected/refuted, 2 error,
3 unknown.  ``--format records`` emits one JSON object per result.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .approx import approx_report, build_approx
from .inddep import IndError, ind_implies, parse_ind_problem
from .models import (
    Model,
    ModelError,
    check_team_in_model,
    format_team,
    parse_model,
    parse_team,
)
from .normalform import normal_form, render
from .parser import parse_formula
from .proofs import check_script, parse_script, ScriptError
from .semantics import EvalError, Guards, GuardExceeded, evaluate, max_subteam
from .suites import DEFAULT_SEED, run_all
from .syntax import (
    EMPTY_SIGNATURE,
    FormulaError,
    Signature,
    free_vars,
    pretty,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


@dataclass
class Output:
    fmt: str

    def emit(self, text: str, **record):
        if self.fmt == "records":
            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as e:
            raise OSError(f"cannot read {path!r} as UTF-8: {e}") from None


def _load_model(path: str | None) -> Model | None:
    return None if path is None else parse_model(_read(path))


def _formula_text(args) -> str:
    return args.formula if args.formula is not None else _read(args.formula_file)


def _signature(model: Model | None) -> Signature:
    return model.sig if model is not None else EMPTY_SIGNATURE


def _guards(args) -> Guards:
    return Guards(max_rows=args.max_rows, max_universe=args.max_universe,
                  max_depth=args.max_depth)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="inclogic",
        description="Inclusion logic toolkit: evaluation, normal forms,"
                    " approximations, proof checking, implication.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("text", "records"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_args(p, require_model=False):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file containing the formula")
        p.add_argument("--model", required=require_model,
                       help="model file (also provides the signature)")

    p_parse = sub.add_parser("parse", help="parse a formula and dump the AST")
    add_formula_args(p_parse)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a model and team")
    add_formula_args(p_eval, require_model=True)
    p_eval.add_argument("--team", required=True, help="team file (CSV)")
    p_eval.add_argument("--engine", choices=("naive", "fast", "both"), default="fast")
    p_eval.add_argument("--max-subteam", action="store_true",
                        help="also print the maximal satisfying subteam")
    p_eval.add_argument("--max-rows", type=int, default=8)
    p_eval.add_argument("--max-universe", type=int, default=4)
    p_eval.add_argument("--max-depth", type=int, default=4)

    p_nf = sub.add_parser("nf", help="print the combined normal form")
    add_formula_args(p_nf)

    p_approx = sub.add_parser("approx", help="build level-n approximations")
    add_formula_args(p_approx)
    p_approx.add_argument("--n", type=int, default=0, help="approximation level")
    p_approx.add_argument("--strong", action="store_true",
                          help="strengthened variant with inclusion conjuncts")
    p_approx.add_argument("--cap", type=int, default=3,
                          help="highest level evaluated with --model")
    p_approx.add_argument("--stable-bound", type=int, default=2)

    p_check = sub.add_parser("check", help="check a proof script")
    p_check.add_argument("script", help="proof script (.ndp)")
    p_check.add_argument("--model", help="model file providing the signature")

    p_imp = sub.add_parser("implies", help="inclusion-dependency implication")
    p_imp.add_argument("--gamma", default="", help="premise atoms, ';'-separated")
    p_imp.add_argument("--phi", required=True, help="goal atom")
    p_imp.add_argument("--rows", type=int, default=3, help="counterexample row bound")
    p_imp.add_argument("--elems", type=int, default=3, help="counterexample element bound")

    p_corpus = sub.add_parser("corpus", help="run the proof corpus and property suites")
    p_corpus.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_corpus.add_argument("--quick", action="store_true",
                          help="reduced instance counts")

    args = parser.parse_args(argv)
    out = Output(args.format)
    try:
        return _dispatch(args, out)
    except (FormulaError, ModelError, ScriptError, IndError, EvalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: formula is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args, out: Output) -> int:
    if args.command == "parse":
        model = _load_model(args.model)
        f = parse_formula(_formula_text(args), _signature(model))
        out.emit(f"{pretty(f)}\n{f!r}", pretty=pretty(f), ast=repr(f))
        return EXIT_TRUE

    if args.command == "eval":
        model = _load_model(args.model)
        assert model is not None
        team = parse_team(_read(args.team))
        check_team_in_model(team, model)
        f = parse_formula(_formula_text(args), model.sig)
        try:
            sub = max_subteam(model, team, f) if args.max_subteam else None
            verdict = evaluate(model, team, f, engine=args.engine, guards=_guards(args),
                               subteam=sub)
        except GuardExceeded as e:
            raise EvalError(str(e)) from None
        record = {"verdict": verdict, "engine": args.engine, "formula": pretty(f)}
        lines = [str(verdict).lower()]
        if sub is not None:
            record["max_subteam"] = sorted(sub.rows)
            record["max_subteam_domain"] = list(sub.domain)
            lines.append(format_team(sub).rstrip())
        out.emit("\n".join(lines), **record)
        return EXIT_TRUE if verdict else EXIT_FALSE

    if args.command == "nf":
        model = _load_model(args.model)
        f = parse_formula(_formula_text(args), _signature(model))
        nf = normal_form(f)
        rendered = render(nf)
        out.emit(
            pretty(rendered),
            normal_form=pretty(rendered),
            w=list(nf.w), x=list(nf.x), y=nf.y, z=list(nf.z),
            i_atoms=[[list(u), list(v)] for u, v in nf.i_atoms],
            j_indices=list(nf.j_indices),
        )
        return EXIT_TRUE

    if args.command == "approx":
        if args.strong and args.model is not None:
            raise FormulaError("--model evaluates plain approximations only, not --strong")
        model = _load_model(args.model)
        f = parse_formula(_formula_text(args), _signature(model))
        if free_vars(f):
            raise FormulaError("approximations are defined for sentences only")
        nf = normal_form(f)
        af = build_approx(nf, args.n, strong=args.strong)
        qvars, conjuncts = af.size()
        lines = [f"size: {qvars} quantified variables, {conjuncts} matrix conjuncts",
                 pretty(af.formula)]
        record = {"level": args.n, "strong": args.strong,
                  "quantified_vars": qvars, "conjuncts": conjuncts,
                  "formula": pretty(af.formula)}
        code = EXIT_TRUE
        if args.model is not None:
            report = approx_report(model, nf, cap=args.cap,
                                   stable_bound=args.stable_bound)
            for level, value in enumerate(report.values):
                lines.append(f"level {level}: {str(value).lower()}")
            record["values"] = list(report.values)
            record["approx_stable"] = report.stable
            if report.stable:
                lines.append("approx-stable")
            code = EXIT_TRUE if report.values[min(args.n, args.cap)] else EXIT_FALSE
        out.emit("\n".join(lines), **record)
        return code

    if args.command == "check":
        model = _load_model(args.model)
        script = parse_script(_read(args.script), _signature(model))
        report = check_script(script)
        lines = [
            f"{status.step_id}: {'ok' if status.ok else 'FAIL'} ({status.message})"
            for status in report.lines
        ]
        lines.append("accepted" if report.accepted else "rejected")
        if report.claim is not None:
            lines.append(f"claim: {report.claim}")
        out.emit(
            "\n".join(lines),
            accepted=report.accepted,
            claim=str(report.claim) if report.claim else None,
            failures=[f"{s.step_id}: {s.message}" for s in report.failures()],
        )
        return EXIT_TRUE if report.accepted else EXIT_FALSE

    if args.command == "implies":
        problem = parse_ind_problem(args.gamma, args.phi)
        verdict = ind_implies(problem, max_rows=args.rows, max_elems=args.elems)
        record = {"verdict": verdict.kind}
        lines = [verdict.kind]
        if verdict.kind == "derivable" and verdict.derivation:
            steps = [
                f"{i}: {pretty(s.atom)} [{s.rule}"
                + (f" {list(s.parents)}" if s.parents else "") + "]"
                for i, s in enumerate(verdict.derivation)
            ]
            lines.extend(steps)
            record["derivation"] = steps
        if verdict.kind == "refuted" and verdict.team is not None:
            lines.append(format_team(verdict.team).rstrip())
            record["team"] = sorted(verdict.team.rows)
            record["team_domain"] = list(verdict.team.domain)
        if verdict.kind == "unknown":
            lines.append(f"no counterexample with at most {args.rows} rows"
                         f" over {args.elems} elements")
            record["searched"] = {"rows": args.rows, "elems": args.elems}
        out.emit("\n".join(lines), **record)
        if verdict.kind == "derivable":
            return EXIT_TRUE
        if verdict.kind == "refuted":
            return EXIT_FALSE
        return EXIT_UNKNOWN

    if args.command == "corpus":
        results = run_all(seed=args.seed, quick=args.quick)
        all_ok = True
        for result in results:
            all_ok &= result.ok
            out.emit(result.line(), name=result.name, ok=result.ok,
                     passed=result.passed, failed=result.failed,
                     elapsed=round(result.elapsed, 2), notes=result.notes[:5],
                     skipped=dict(result.skipped))
        return EXIT_TRUE if all_ok else EXIT_FALSE

    raise FormulaError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
