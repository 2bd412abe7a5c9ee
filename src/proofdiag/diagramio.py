"""Versioned text formats for diagrams and derivations.

See docs/formats.md for the grammars.  Every emitter round-trips through its
own parser bit-exactly.
"""
from __future__ import annotations

from .formula import FormulaParseError, parse as parse_formula, show
from .diagram import (
    AxGate,
    BigGate,
    BotGate,
    CutGate,
    Diagram,
    DiagramError,
    Gate,
    L,
    OneGate,
    ParGate,
    R,
    TensorGate,
    TwistGate,
    identity,
    is_gate,
    label_str,
)
from .perm import Permutation
from .sequent import (
    Derivation,
    ax,
    bot,
    cut,
    derivation_str,
    exchange,
    one,
    par,
    tensor,
)

DIAGRAM_HEADER = "proofdiag-diagram v1"


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Labels


def parse_label(text: str):
    text = text.strip()
    if text == "L":
        return L
    if text == "R":
        return R
    try:
        return parse_formula(text)
    except FormulaParseError as e:
        raise ParseError(str(e))


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


def word_text(word: tuple) -> str:
    return ",".join(label_str(l) for l in word) if word else "-"


# ---------------------------------------------------------------------------
# Gates


def gate_text(g: Gate) -> str:
    if isinstance(g, TwistGate):
        return f"twist({show(g.left)},{show(g.right)})"
    if isinstance(g, ParGate):
        return f"par({show(g.left)},{show(g.right)})"
    if isinstance(g, TensorGate):
        return f"tensor({show(g.left)},{show(g.right)})"
    if isinstance(g, AxGate):
        return f"ax({show(g.formula)})"
    if isinstance(g, CutGate):
        return f"cut({show(g.formula)})"
    if isinstance(g, OneGate):
        return "one"
    if isinstance(g, BotGate):
        return "bot"
    if isinstance(g, BigGate):
        return f"big([{word_text(g.left_word)}],[{word_text(g.right_word)}])"
    raise TypeError(g)


def parse_gate(text: str, controlled: bool) -> Gate:
    text = text.strip()
    if text == "one":
        return OneGate(controlled)
    if text == "bot":
        return BotGate()
    if "(" not in text or not text.endswith(")"):
        raise ParseError(f"bad gate: {text!r}")
    head, body = text.split("(", 1)
    body = body[:-1]
    head = head.strip()
    if head == "big":
        parts = _split_top(body, ",")
        # big([w],[w']) splits as ['[w]', '[w\']'] only when words are
        # bracketed; rejoin on the outer brackets
        if len(parts) < 2:
            raise ParseError(f"bad big gate: {text!r}")
        joined = ",".join(parts)
        if not joined.startswith("[") or not joined.endswith("]"):
            raise ParseError(f"bad big gate: {text!r}")
        inner = _split_top(joined, ",")
        # find the split between ...] and [...
        words = []
        depth = 0
        cur = []
        for ch in joined:
            if ch == "[":
                depth += 1
                if depth == 1:
                    cur = []
                    continue
            if ch == "]":
                depth -= 1
                if depth == 0:
                    words.append("".join(cur))
                    continue
            if depth >= 1:
                cur.append(ch)
        if len(words) != 2:
            raise ParseError(f"bad big gate: {text!r}")
        return BigGate(parse_word(words[0]), parse_word(words[1]))
    args = [p for p in _split_top(body, ",") if p.strip()]
    if head == "twist" and len(args) == 2:
        return TwistGate(parse_formula(args[0]), parse_formula(args[1]))
    if head == "par" and len(args) == 2:
        return ParGate(parse_formula(args[0]), parse_formula(args[1]))
    if head == "tensor" and len(args) == 2:
        return TensorGate(parse_formula(args[0]), parse_formula(args[1]), controlled)
    if head == "ax" and len(args) == 1:
        return AxGate(parse_formula(args[0]), controlled)
    if head == "cut" and len(args) == 1:
        return CutGate(parse_formula(args[0]), controlled)
    raise ParseError(f"bad gate: {text!r}")


# ---------------------------------------------------------------------------
# Diagrams


def diagram_signature(phi: Diagram) -> str:
    for _, _, g in phi.gates():
        if getattr(g, "controlled", None) is True or isinstance(g, BigGate):
            return "controlled"
        if getattr(g, "controlled", None) is False:
            return "uncontrolled"
    return "controlled"


def diagram_text(phi: Diagram) -> str:
    sig = diagram_signature(phi)
    lines = [DIAGRAM_HEADER, f"signature: {sig}", f"input: {word_text(phi.input)}"]
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
    if not lines[1].startswith("signature:"):
        raise ParseError("missing signature line")
    sig = lines[1].split(":", 1)[1].strip()
    controlled = sig == "controlled"
    if not lines[2].startswith("input:"):
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
                slots.append(parse_gate(part[5:], controlled))
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

    def node() -> Derivation:
        eat("(")
        head = eat()
        if head == "ax":
            f = parse_formula(formula_text())
            eat(")")
            return ax(f)
        if head == "one":
            eat(")")
            return one()
        if head == "bot":
            d = node()
            eat(")")
            return bot(d)
        if head == "par":
            p = None
            if peek() != "(":
                p = int(eat())
            d = node()
            eat(")")
            return par(d, p)
        if head == "tensor":
            d1 = node()
            d2 = node()
            eat(")")
            return tensor(d1, d2)
        if head == "cut":
            d1 = node()
            d2 = node()
            eat(")")
            return cut(d1, d2)
        if head == "ex":
            eat("(")
            imgs = []
            while peek() != ")":
                imgs.extend(int(x) for x in eat().split(",") if x)
            eat(")")
            d = node()
            eat(")")
            return exchange(d, Permutation(tuple(imgs)))
        raise ParseError(f"unknown rule {head!r}")

    try:
        d = node()
    except (ValueError, IndexError) as e:
        raise ParseError(str(e))
    if pos != len(toks):
        raise ParseError("trailing input after derivation")
    return d


def parse_sequent(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_formula(p) for p in _split_top(text, ","))


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
