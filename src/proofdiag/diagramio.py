"""Versioned text formats for diagrams and derivations.

See docs/formats.md for the grammars.  Every emitter round-trips through its
own parser bit-exactly.
"""
from __future__ import annotations

import re
from dataclasses import fields

from .formula import FormulaParseError, parse as parse_formula
from .diagram import (
    GATE_TYPES,
    BigGate,
    Diagram,
    DiagramError,
    Gate,
    L,
    R,
    controlled_signature,
    gate_fields,
    gate_str,
    identity,
    is_gate,
    label_str,
    word_str,
)
from .perm import Permutation
from .sequent import RULE_TAGS, Derivation, derivation_str, par

DIAGRAM_HEADER = "proofdiag-diagram v1"


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Labels


def _formula(text: str):
    try:
        return parse_formula(text)
    except FormulaParseError as e:
        raise ParseError(str(e))


def parse_label(text: str):
    text = text.strip()
    if text == "L":
        return L
    if text == "R":
        return R
    return _formula(text)


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_word(text: str) -> tuple:
    text = text.strip()
    if text == "-" or not text:
        return ()
    return tuple(parse_label(p) for p in _split_top(text, ","))


# ---------------------------------------------------------------------------
# Gates


def gate_text(g: Gate) -> str:
    return gate_str(g, tagged=False)


def _gate_arg(text: str, kind: str):
    if kind != "Word":
        return _formula(text)
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad word argument: {text!r}")
    return parse_word(text[1:-1])


def parse_gate(text: str, controlled: bool) -> Gate:
    """``family`` or ``family(arg,...)`` with one argument per parameter
    field, a formula or a bracketed word; the signature sets the flag."""
    text = text.strip()
    head, paren, body = text.partition("(")
    cls = GATE_TYPES.get(head.strip())
    if cls is None or (paren and not body.endswith(")")):
        raise ParseError(f"bad gate: {text!r}")
    args = _split_top(body[:-1], ",") if paren else []
    kinds = [kind for _, kind in gate_fields(cls)]
    if len(args) != len(kinds) - kinds.count("bool"):
        raise ParseError(f"bad gate: {text!r}")
    rest = iter(args)
    return cls(*(controlled if kind == "bool" else _gate_arg(next(rest), kind) for kind in kinds))


# ---------------------------------------------------------------------------
# Diagrams


def diagram_signature(phi: Diagram) -> str:
    return "uncontrolled" if controlled_signature(phi) is False else "controlled"


def diagram_text(phi: Diagram) -> str:
    sig = diagram_signature(phi)
    lines = [DIAGRAM_HEADER, f"signature: {sig}", f"input: {word_str(phi.input)}"]
    for layer in phi.layers:
        slots = []
        for s in layer:
            if is_gate(s):
                slots.append("gate " + gate_text(s))
            else:
                slots.append("id " + label_str(s))
        lines.append("layer: " + "; ".join(slots))
    return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> Diagram:
    lines = [l.strip() for l in text.strip().splitlines() if l.strip()]
    if not lines or lines[0] != DIAGRAM_HEADER:
        raise ParseError(f"missing header {DIAGRAM_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("signature:"):
        raise ParseError("missing signature line")
    sig = lines[1].split(":", 1)[1].strip()
    if sig not in ("controlled", "uncontrolled"):
        raise ParseError(f"unknown signature {sig!r}")
    controlled = sig == "controlled"
    if len(lines) < 3 or not lines[2].startswith("input:"):
        raise ParseError("missing input line")
    word = parse_word(lines[2].split(":", 1)[1])
    layers = []
    for line in lines[3:]:
        if not line.startswith("layer:"):
            raise ParseError(f"expected layer line, got {line!r}")
        slots = []
        body = line.split(":", 1)[1]
        for part in _split_top(body, ";"):
            part = part.strip()
            if part.startswith("id "):
                slots.append(parse_label(part[3:]))
            elif part.startswith("gate "):
                g = parse_gate(part[5:], controlled)
                if isinstance(g, BigGate) and not controlled:
                    raise ParseError("a big gate needs the controlled signature")
                slots.append(g)
            elif part:
                raise ParseError(f"bad slot {part!r}")
        layers.append(tuple(slots))
    try:
        return Diagram(word, layers)
    except DiagramError as e:
        raise ParseError(f"ill-formed diagram: {e}")


# ---------------------------------------------------------------------------
# Derivations


def derivation_text(d: Derivation) -> str:
    return derivation_str(d) + "\n"


_POSITION = re.compile(r"[0-9]+")  # decimal digits only: no sign, space or empty piece
_IMAGES = re.compile(r"[0-9]+(,[0-9]+)*")


def parse_derivation(text: str) -> Derivation:
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(t=None):
        nonlocal pos
        tok = peek()
        if tok is None or (t is not None and tok != t):
            raise ParseError(f"expected {t or 'token'}, got {tok!r}")
        pos += 1
        return tok

    def formula_text() -> str:
        # a formula is either a single token or a balanced paren group
        if peek() != "(":
            return eat()
        depth = 0
        parts = []
        while True:
            tok = eat()
            parts.append(tok)
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return "".join(parts)

    def numbers(pattern, what) -> list:
        tok = eat()
        if not pattern.fullmatch(tok):
            raise ParseError(f"expected {what}, got {tok!r}")
        return [int(x) for x in tok.split(",")]

    def permutation() -> Permutation:
        eat("(")
        imgs = numbers(_IMAGES, "images i1,...,in")
        eat(")")
        return Permutation(tuple(imgs))

    # how each kind of rule parameter is read, as derivation_str writes it
    read = {
        "Formula": lambda: parse_formula(formula_text()),
        "int": lambda: numbers(_POSITION, "a position")[0],
        "Permutation": permutation,
    }

    # the rules not yet closed, each with its arity and the premises read so
    # far, over a root that takes the whole derivation as its one premise
    stack: list = [(None, 1, [])]
    try:
        while not stack[0][2]:
            eat("(")
            head = eat()
            cls = RULE_TAGS.get(head)
            if cls is None:
                raise ParseError(f"unknown rule {head!r}")
            # a position may be left out, as in (par D): then the rule is at the end
            kinds = [f.type for f in fields(cls)]
            params = [read[kind]() for kind in kinds if not (kind == "int" and peek() == "(")]
            stack.append((cls(*params) if len(params) == len(kinds) else None, cls.arity, []))
            while len(stack) > 1 and len(stack[-1][2]) == stack[-1][1]:
                rule, _, premises = stack.pop()
                eat(")")
                stack[-1][2].append(rule.build(tuple(premises)) if rule else par(*premises))
    except (ValueError, IndexError) as e:
        raise ParseError(str(e))
    (d,) = stack[0][2]
    if pos != len(toks):
        raise ParseError("trailing input after derivation")
    return d


def parse_sequent(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_formula(p) for p in _split_top(text, ","))


def polygraph_rules_text(p) -> str:
    """Dump a polygraph's rule schemas in the diagram format.

    Metavariables appear as `?A` labels; word-indexed families are dumped at
    width 0 with a note; procedural rules are listed by name only.
    """
    families = {1: "word-indexed", 2: "word-and-permutation-indexed"}
    chunks = [f"polygraph {p.name}", f"# signature: {', '.join(p.signature)}"]
    for rule in p.rules:
        chunks.append(f"rule {rule.name}")
        keys = rule.keys(identity(()))  # the family members of width 0
        if not keys:
            chunks.append(f"# procedural: {rule.note or 'matcher and applier in code'}")
            continue
        if keys[0]:
            chunks.append(f"# {families[len(keys[0])]} family, shown at width 0")
        src, tgt = rule.pair(*keys[0])
        chunks.append("source:")
        chunks.append(diagram_text(src).rstrip())
        chunks.append("target:")
        chunks.append(diagram_text(tgt).rstrip())
    return "\n".join(chunks) + "\n"
