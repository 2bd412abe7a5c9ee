"""Formulas of multiplicative linear logic with units.

Formulas are kept in negation normal form: duals occur on atoms only, and
``negate`` computes the De Morgan dual with operand swap, so that
``negate(negate(f)) == f`` holds structurally and ``A^⊥⊥ = A`` needs no
quotient.

Concrete text grammar (see docs/formats.md):

    a       atom
    a^      dual atom
    (A*B)   tensor
    (A|B)   par
    1       one
    _       bottom
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Atom:
    name: str
    dual: bool = False


@dataclass(frozen=True)
class Tensor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Par:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class FVar:
    """Formula metavariable, used in rule schemas only."""

    name: str


@dataclass(frozen=True)
class NVar:
    """Dual of a formula metavariable: matches negate(binding of name)."""

    name: str


Formula = Union[Atom, Tensor, Par, One, Bot, FVar, NVar]

ONE = One()
BOT = Bot()


def atom(name: str) -> Atom:
    return Atom(name)


def negate(f: Formula) -> Formula:
    """De Morgan dual in negation normal form; involutive by construction."""
    if isinstance(f, Atom):
        return Atom(f.name, not f.dual)
    if isinstance(f, Tensor):
        return Par(negate(f.right), negate(f.left))
    if isinstance(f, Par):
        return Tensor(negate(f.right), negate(f.left))
    if isinstance(f, One):
        return BOT
    if isinstance(f, Bot):
        return ONE
    if isinstance(f, FVar):
        return NVar(f.name)
    if isinstance(f, NVar):
        return FVar(f.name)
    raise TypeError(f"not a formula: {f!r}")


def size(f: Formula) -> int:
    """Number of tensor/par connectives (the degree used by the cut weight)."""
    if isinstance(f, (Tensor, Par)):
        return 1 + size(f.left) + size(f.right)
    return 0


def subformulas(f: Formula) -> set:
    out = {f}
    if isinstance(f, (Tensor, Par)):
        out |= subformulas(f.left) | subformulas(f.right)
    return out


def show(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name + ("^" if f.dual else "")
    if isinstance(f, Tensor):
        return f"({show(f.left)}*{show(f.right)})"
    if isinstance(f, Par):
        return f"({show(f.left)}|{show(f.right)})"
    if isinstance(f, One):
        return "1"
    if isinstance(f, Bot):
        return "_"
    if isinstance(f, FVar):
        return f"?{f.name}"
    if isinstance(f, NVar):
        return f"?{f.name}^"
    raise TypeError(f"not a formula: {f!r}")


class FormulaParseError(ValueError):
    pass


def parse(text: str) -> Formula:
    """Parse the concrete grammar; inverse of show on concrete formulas."""
    pos = 0
    text = text.strip()

    def peek() -> str:
        return text[pos] if pos < len(text) else ""

    def fail(msg: str):
        raise FormulaParseError(f"{msg} at position {pos} in {text!r}")

    def term() -> Formula:
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            left = term()
            op = peek()
            if op not in "*|":
                fail("expected * or |")
            pos += 1
            right = term()
            if peek() != ")":
                fail("expected )")
            pos += 1
            return Tensor(left, right) if op == "*" else Par(left, right)
        if c == "1":
            pos += 1
            return ONE
        if c == "_":
            pos += 1
            return BOT
        if c == "?":  # metavariable, used when dumping rule schemas
            pos += 1
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "'"):
                pos += 1
            name = text[start:pos]
            if peek() == "^":
                pos += 1
                return NVar(name)
            return FVar(name)
        if c.isalpha():
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "'"):
                pos += 1
            name = text[start:pos]
            if name == "1":
                return ONE
            if peek() == "^":
                pos += 1
                return Atom(name, True)
            return Atom(name)
        fail("expected formula")

    f = term()
    if pos != len(text):
        raise FormulaParseError(f"trailing input {text[pos:]!r}")
    return f
