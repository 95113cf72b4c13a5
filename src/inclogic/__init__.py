"""Inclusion logic toolkit: syntax, team semantics, normal forms, game
approximations, a natural-deduction proof checker, and inclusion-dependency
implication."""

from .syntax import (
    And,
    Anonymity,
    App,
    Bottom,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Inclusion,
    Not,
    Or,
    Relation,
    Signature,
    EMPTY_SIGNATURE,
    Term,
    TermInclusion,
    Var,
    WeakNeg,
    alpha_equivalent,
    desugar,
    free_vars,
    pretty,
    rename_bound,
    substitute,
    substitute_parallel,
    weak_neg_of,
)
from .parser import ParseError, parse_formula, parse_term
from .models import (
    Model,
    ModelError,
    SINGLETON_EMPTY_DOMAIN,
    Team,
    check_team,
    format_model,
    format_team,
    parse_model,
    parse_team,
)
from .semantics import (
    DEFAULT_GUARDS,
    EvalError,
    GuardExceeded,
    Guards,
    duplicate,
    eval_fast,
    eval_fo,
    eval_naive,
    evaluate,
    max_subteam,
    supplement,
)
from .normalform import NormalForm, PrenexForm, QfNormal, normal_form, prenex, qf_normal, render, universalize
from .approx import ApproxFormula, IndexBook, build_approx, build_indices
from .inddep import IndProblem, IndVerdict, find_counterexample, ind_implies

__version__ = "0.1.0"
