"""Recursive-descent parser for the ASCII formula grammar.

Grammar reference (precedence ``~`` > ``&`` > ``|``; quantifiers scope
maximally to the right)::

    formula  := E x. formula | A x. formula | disjunction
    atom     := bot | t = t | t < t | R(t,...) | x,...,x <= y,...,y
              | xs ups ys | ~formula | snot formula
              | [t,...] <= [t,...] | ( formula )

``E``, ``A``, ``bot``, ``ups``, and ``snot`` are reserved words.  Sugar
(``ups``, ``snot``, bracketed term inclusion) is desugared at parse time;
the returned AST is always a kernel formula.

The lexer is one ``findall``: tokens are the matched strings themselves,
with ``""`` marking the end of the input.  Token offsets are not kept; a
``ParseError`` recovers the offset of the token it points at by lexing the
text again.
"""

from __future__ import annotations

import re
import string

from .syntax import (
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
    And,
    Or,
    Relation,
    Signature,
    SugarForm,
    Term,
    TermInclusion,
    Var,
    WeakNeg,
    desugar,
    is_first_order,
)

RESERVED = {"E", "A", "bot", "ups", "snot"}

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*|<=?|[(),.=~&|\[\]])")
_NAME_START = frozenset(string.ascii_letters + "_")


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} at position {pos}: ...{text[pos:pos + 24]!r}")
        self.pos = pos


def _scan(text: str) -> tuple[list[int], int]:
    """Start offset of each token, and the offset where lexing stopped:
    the end of the text's last token, or the whitespace before a character
    no token matches."""
    starts, end = [], 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != end:
            break
        starts.append(m.start(1))
        end = m.end()
    return starts, end


class _Parser:
    def __init__(self, text: str, sig: Signature):
        toks = _TOKEN_RE.findall(text)
        # findall skips what no token matches, so a lost character shows as
        # fewer token characters than non-space characters.
        if sum(map(len, toks)) != len("".join(text.split())):
            raise ParseError("unexpected character", _scan(text)[1], text)
        toks.append("")
        self.text = text
        self.sig = sig
        self.names = sig.names()
        self.toks = toks
        self.i = 0

    # -- token helpers

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def expect(self, tok: str) -> str:
        t = self.peek()
        if t != tok:
            self.fail(f"expected {tok!r}, found {t!r}")
        return self.next()

    def fail(self, message: str, at: int | None = None):
        """Raise at token ``at``, by default the next one."""
        i, starts = self.i if at is None else at, _scan(self.text)[0]
        pos = starts[i] if i < len(starts) else len(self.text)
        raise ParseError(message, pos, self.text)

    # -- grammar

    def formula(self) -> Formula:
        return self.disjunction()

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t == "~":
            self.next()
            body = self.unary()
            if not is_first_order(body):
                self.fail("negation applies to first-order formulas only")
            return Not(body)
        if t == "snot":
            self.next()
            body = self.unary()
            if not is_first_order(body):
                self.fail("snot applies to first-order formulas only")
            return self._sugar(WeakNeg(body))
        if t == "E" or t == "A":
            self.next()
            var = self.var_name()
            self.expect(".")
            body = self.formula()  # maximal right scope
            return Exists(var, body) if t == "E" else Forall(var, body)
        return self.atom()

    def atom(self) -> Formula:
        t = self.peek()
        if t == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t == "[":
            return self.term_inclusion()
        if t == "bot":
            self.next()
            return Bottom()
        if t == "ups":
            self.next()
            return self._sugar(Anonymity((), self.opt_var_seq()))
        if t[:1] in _NAME_START:
            if t in self.sig.relations:
                return self.relation_atom()
            return self.term_headed()
        self.fail(f"expected a formula, found {t!r}")

    def relation_atom(self) -> Formula:
        at, name = self.i, self.next()
        arity = self.sig.relations[name]
        args: list[Term] = []
        if self.peek() == "(" or arity > 0:
            self.expect("(")
            if self.peek() != ")":
                args = self.term_seq()
            self.expect(")")
        if len(args) != arity:
            self.fail(f"relation {name!r} expects {arity} arguments, got {len(args)}", at)
        return Relation(name, tuple(args))

    def term_headed(self) -> Formula:
        """Atoms that start with a term: equality, infix <, inclusion, ups."""
        first = self.term()
        t = self.peek()
        if t == "=":
            self.next()
            return Equals(first, self.term())
        if t == "<":
            self.next()
            if "<" not in self.sig.relations:
                self.fail("infix '<' used but relation '<' is not declared")
            return Relation("<", (first, self.term()))
        if t == "<=" or t == "," or t == "ups":
            lhs = [self.as_var(first)]
            while self.peek() == ",":
                self.next()
                lhs.append(self.var_name())
            nxt = self.peek()
            if nxt == "<=":
                self.next()
                rhs = self.var_seq()
                if len(lhs) != len(rhs):
                    self.fail("inclusion atom sides must have equal length")
                return Inclusion(tuple(lhs), tuple(rhs))
            if nxt == "ups":
                self.next()
                return self._sugar(Anonymity(tuple(lhs), self.opt_var_seq()))
            self.fail("expected '<=' or 'ups' after variable sequence")
        self.fail(f"expected '=', '<', '<=', ',' or 'ups' after term, found {t!r}")

    def term_inclusion(self) -> Formula:
        self.expect("[")
        lhs = self.term_seq()
        self.expect("]")
        self.expect("<=")
        self.expect("[")
        rhs = self.term_seq()
        self.expect("]")
        if len(lhs) != len(rhs):
            self.fail("term inclusion sides must have equal length")
        return self._sugar(TermInclusion(tuple(lhs), tuple(rhs)))

    def term_seq(self) -> list[Term]:
        out = [self.term()]
        while self.peek() == ",":
            self.next()
            out.append(self.term())
        return out

    def term(self) -> Term:
        t = self.peek()
        if t[:1] not in _NAME_START:
            self.fail(f"expected a term, found {t!r}")
        if t in RESERVED:
            self.fail(f"{t!r} is a reserved word")
        if t in self.sig.relations:
            self.fail(f"relation {t!r} used as a term")
        name = self.next()
        if name in self.sig.functions:
            self.expect("(")
            args = self.term_seq()
            self.expect(")")
            if len(args) != self.sig.functions[name]:
                self.fail(
                    f"function {name!r} expects {self.sig.functions[name]} arguments,"
                    f" got {len(args)}"
                )
            return App(name, tuple(args))
        if name in self.sig.constants:
            return Const(name)
        return Var(name)

    def var_name(self) -> str:
        t = self.peek()
        if t[:1] not in _NAME_START:
            self.fail(f"expected a variable, found {t!r}")
        if t in RESERVED:
            self.fail(f"{t!r} is a reserved word")
        if t in self.names:
            self.fail(f"{t!r} is not a variable in this signature")
        return self.next()

    def as_var(self, t: Term) -> str:
        if not isinstance(t, Var):
            self.fail("inclusion and anonymity atoms take variables only;"
                      " use [..] <= [..] for terms")
        return t.name

    def var_seq(self) -> list[str]:
        out = [self.var_name()]
        while self.peek() == ",":
            self.next()
            out.append(self.var_name())
        return out

    def opt_var_seq(self) -> tuple[str, ...]:
        t = self.peek()
        if t[:1] in _NAME_START and t not in RESERVED and t not in self.names:
            return tuple(self.var_seq())
        return ()

    def _sugar(self, s: SugarForm) -> Formula:
        return desugar(s, self.names)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse against the signature; sugar is eliminated eagerly."""
    p = _Parser(text, sig)
    f = p.formula()
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return f


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t = p.term()
    if p.peek():
        p.fail(f"unexpected trailing input {p.peek()!r}")
    return t
