"""Between sequent derivations and proof diagrams.

``represent`` builds the diagram of a derivation by the inductive clauses of
the correspondence theorems (controlled or uncontrolled signature);
exchange nodes become canonical permutation diagrams sandwiched between the
control strings.

``is_sequentializable`` is the linear-time check: a controlled diagram
corresponds to a derivation iff its input is empty and its output reads
L, Gamma, R with Gamma control-free.  Only boundary labels are inspected;
the work is proportional to the boundary length and independent of the gate
count (a comparison counter is exposed for the benchmark).

``sequentialize`` recovers a derivation by peeling bottommost gates; at a
tensor or cut the diagram above splits into two parallel closed branches.
Diagrams containing B-gates are first driven through the untangle relations
(a ~-preserving preprocessing) until B-free.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import show
from .diagram import (
    AxGate,
    BigGate,
    BotGate,
    Ctrl,
    CutGate,
    Diagram,
    DiagramError,
    OneGate,
    OpSeq,
    ParGate,
    TensorGate,
    TwistGate,
    L,
    R,
    compose_par,
    compose_seq,
    identity,
    interchange_canonical_form,
    parallel,
    single,
)
from .perm import Permutation, canonical_perm_diagram
from .sequent import (
    AxR,
    BotR,
    CutR,
    Derivation,
    ExchangeR,
    OneR,
    ParR,
    Sequent,
    TensorR,
    _move_from_end,
    ax,
    bot,
    check_derivation,
    cut,
    exchange,
    one,
    par,
    tensor,
)


class NotSequentializable(DiagramError):
    pass


class MalformedBranch(DiagramError):
    """A split did not yield two boundary-complete branches."""


# ---------------------------------------------------------------------------
# Representation


def represent(d: Derivation, sig: str = "controlled") -> Diagram:
    """The proof diagram of a valid derivation, over the chosen signature."""
    check_derivation(d)
    controlled = sig == "controlled"
    if sig not in ("controlled", "uncontrolled"):
        raise DiagramError(f"unknown signature {sig!r}")
    return interchange_canonical_form(_rep(d, controlled))


def _rep(d: Derivation, c: bool) -> Diagram:
    r = d.rule
    if isinstance(r, AxR):
        return single(AxGate(r.formula, c))
    if isinstance(r, OneR):
        return single(OneGate(c))
    if isinstance(r, BotR):
        phi = _rep(d.premises[0], c)
        if c:
            inner = phi.output[1:-1]
            step = parallel(identity((L,) + inner), single(BotGate()), identity((R,)))
        else:
            step = parallel(identity(phi.output), single(BotGate()))
        return compose_seq(phi, step)
    if isinstance(r, ParR):
        phi = _rep(d.premises[0], c)
        off = 1 if c else 0
        word = phi.output
        p = r.pos - 1 + off
        a, b = word[p], word[p + 1]
        step = parallel(
            identity(word[:p]), single(ParGate(a, b)), identity(word[p + 2 :])
        )
        return compose_seq(phi, step)
    if isinstance(r, (TensorR, CutR)):
        phi1 = _rep(d.premises[0], c)
        phi2 = _rep(d.premises[1], c)
        top = compose_par(phi1, phi2)
        word = top.output
        if c:
            p = len(phi1.output) - 2  # column of the left active formula
        else:
            p = len(phi1.output) - 1
        if isinstance(r, TensorR):
            a = d.premises[0].conclusion[-1]
            b = d.premises[1].conclusion[0]
            g = TensorGate(a, b, c)
        else:
            g = CutGate(r.formula, c)
        k = 4 if c else 2
        step = parallel(identity(word[:p]), single(g), identity(word[p + k :]))
        return compose_seq(top, step)
    if isinstance(r, ExchangeR):
        phi = _rep(d.premises[0], c)
        if c:
            inner = phi.output[1:-1]
            block = canonical_perm_diagram(r.perm, inner)
            step = parallel(identity((L,)), block, identity((R,)))
        else:
            step = canonical_perm_diagram(r.perm, phi.output)
        return compose_seq(phi, step)
    raise DiagramError(f"unknown rule {r!r}")


# ---------------------------------------------------------------------------
# Linear-time sequentializability


class ComparisonCounter:
    """Counts label comparisons made by is_sequentializable."""

    def __init__(self):
        self.n = 0


def is_sequentializable(phi: Diagram, counter: Optional[ComparisonCounter] = None) -> bool:
    """Boundary-only test: input empty and output exactly L, Gamma, R."""
    c = counter or ComparisonCounter()
    c.n += 1
    if len(phi.input) != 0:
        return False
    out = phi.output
    c.n += 1
    if len(out) < 2:
        return False
    c.n += 1
    if out[0] != L:
        return False
    c.n += 1
    if out[-1] != R:
        return False
    for lab in out[1:-1]:
        c.n += 1
        if isinstance(lab, Ctrl):
            return False
    return True


def boundary_sequent(phi: Diagram) -> Sequent:
    if not is_sequentializable(phi):
        raise NotSequentializable(f"boundary {phi.input} => {phi.output}")
    return tuple(phi.output[1:-1])


# ---------------------------------------------------------------------------
# Sequentialization


def _remove_bottom_op(phi: Diagram, idx: int) -> Diagram:
    """Drop an op whose outputs are all final; positions after it adjust."""
    seq = OpSeq.of(phi)
    victim = seq.ops[idx]
    delta = len(victim.in_tokens) - len(victim.out_tokens)
    out = OpSeq(phi.input)
    for i, op in enumerate(seq.ops):
        if i == idx:
            continue
        pos = op.pos
        if i > idx and op.pos >= victim.pos + len(victim.out_tokens):
            pos += delta
        out.fire_at(op.gate, pos)
    return interchange_canonical_form(out.to_diagram())


def _bottom_ops(phi: Diagram) -> list[int]:
    """Ops none of whose outputs are consumed, rightmost-last-layer first."""
    seq = OpSeq.of(phi)
    out = []
    for i, op in enumerate(seq.ops):
        if all(t not in seq.consumer for t in op.out_tokens):
            out.append(i)
    layout = [(li, col) for li, col, _ in phi.gates()]
    out.sort(key=lambda i: (-layout[i][0], -layout[i][1]))
    return out


def _final_position(seq: OpSeq, op_idx: int) -> int:
    """Column of the op's first output in the final word."""
    tok = seq.ops[op_idx].out_tokens[0]
    return seq.word.index(tok)


def _split_parallel(phi: Diagram, cols: int) -> tuple[Diagram, Diagram]:
    """Split a closed diagram as phi_l * phi_r at the given output column."""
    seq = OpSeq.of(phi)
    side: dict = {}
    for pos, tok in enumerate(seq.word):
        side[tok] = 0 if pos < cols else 1
    changed = True
    while changed:
        changed = False
        for op in seq.ops:
            toks = list(op.in_tokens) + list(op.out_tokens)
            known = {side[t] for t in toks if t in side}
            if len(known) > 1:
                raise MalformedBranch("branches share a wire")
            if known:
                s = known.pop()
                for t in toks:
                    if t not in side:
                        side[t] = s
                        changed = True
    parts = []
    for s in (0, 1):
        sub = OpSeq(())
        word: list = []  # live tokens of this side, in order
        full = list(seq.in_tokens)
        for op in seq.ops:
            if side.get(op.in_tokens[0] if op.in_tokens else op.out_tokens[0]) == s:
                before = [t for t in full[: op.pos] if side.get(t) == s]
                sub.fire_at(op.gate, len(before))
            full[op.pos : op.pos + len(op.in_tokens)] = list(op.out_tokens)
        parts.append(interchange_canonical_form(sub.to_diagram()))
    return parts[0], parts[1]


def _strip_big(phi: Diagram) -> Diagram:
    """Drive out any B-gates (untangle steps preserve ~)."""
    from .polygraph import polygraph, normalize

    if not any(isinstance(g, BigGate) for _, _, g in phi.gates()):
        return phi
    p = polygraph("MLL_big")
    nf, _ = normalize(p, phi)
    if any(isinstance(g, BigGate) for _, _, g in nf.gates()):
        raise MalformedBranch("B-gates cannot be eliminated from this diagram")
    return nf


def sequentialize(phi: Diagram) -> Derivation:
    """Recover a derivation from a sequentializable controlled diagram."""
    phi = interchange_canonical_form(phi)
    if not is_sequentializable(phi):
        raise NotSequentializable(f"boundary {phi.output}")
    phi = _strip_big(phi)
    d = _seq(phi)
    check_derivation(d)
    if d.conclusion != boundary_sequent(phi):
        raise MalformedBranch("sequentialization changed the conclusion")
    return d


def _seq(phi: Diagram) -> Derivation:
    seq = OpSeq.of(phi)
    nops = len(seq.ops)
    if nops == 0:
        raise NotSequentializable("no gates")
    if nops == 1:
        g = seq.ops[0].gate
        if isinstance(g, AxGate):
            return ax(g.formula)
        if isinstance(g, OneGate):
            return one()
        raise NotSequentializable(f"single gate {g} is not a proof diagram")
    gamma_n = len(phi.output) - 2
    for idx in _bottom_ops(phi):
        op = seq.ops[idx]
        g = op.gate
        if isinstance(g, TwistGate):
            col = seq.word.index(op.out_tokens[0])
            rest = _remove_bottom_op(phi, idx)
            d = _seq(rest)
            return exchange(d, Permutation.transposition(gamma_n, col))
        if isinstance(g, ParGate):
            col = seq.word.index(op.out_tokens[0])
            rest = _remove_bottom_op(phi, idx)
            d = _seq(rest)
            return par(d, col)
        if isinstance(g, BotGate):
            col = seq.word.index(op.out_tokens[0])
            rest = _remove_bottom_op(phi, idx)
            d = _seq(rest)
            return exchange(bot(d), _move_from_end(gamma_n, col))
        if isinstance(g, (TensorGate, CutGate)):
            rest = _remove_bottom_op(phi, idx)
            # the gate consumed (A, R, L, B) at op.pos; in `rest` those
            # columns are final again, so the left branch ends after the R
            phi_l, phi_r = _split_parallel(rest, op.pos + 2)
            d1, d2 = _seq(phi_l), _seq(phi_r)
            return tensor(d1, d2) if isinstance(g, TensorGate) else cut(d1, d2)
    raise NotSequentializable("no peelable bottom gate")


# ---------------------------------------------------------------------------
# Proof structures


@dataclass
class ProofStructure:
    cells: list  # (cell id, kind, formula or None)
    wires: list  # (kind, (end, end), label); kind in {'ax','cut','flow'}
    conclusions: list  # formulas in order

    def axiom_wires(self) -> list:
        return [w for w in self.wires if w[0] == "ax"]

    def cut_wires(self) -> list:
        return [w for w in self.wires if w[0] == "cut"]

    def graph_text(self) -> str:
        lines = ["proofstructure v1"]
        for cid, kind, f in self.cells:
            lines.append(f"node {cid} {kind}" + (f" {show(f)}" if f is not None else ""))
        for i, f in enumerate(self.conclusions):
            lines.append(f"node c{i} concl {show(f)}")
        for kind, (a, b), lab in self.wires:
            lines.append(f"edge {kind} {_end_str(a)} {_end_str(b)} {show(lab)}")
        return "\n".join(lines) + "\n"


def _end_str(e) -> str:
    kind = e[0]
    if kind == "concl":
        return f"c{e[1]}"
    if kind == "cell":
        return f"{e[1]}.{e[2]}"
    return kind + ".".join(str(x) for x in e[1:])


def to_proof_structure(phi: Diagram) -> ProofStructure:
    """Interpret an uncontrolled diagram as a proof structure.

    Axiom and cut gates become turn-back wires, twists become invisible
    crossings, the other gates become cells.  No jump assignment is kept.
    """
    seq = OpSeq.of(phi)
    cells = []
    cell_of: dict = {}
    for i, op in enumerate(seq.ops):
        g = op.gate
        if isinstance(g, BigGate) or (
            hasattr(g, "controlled") and g.controlled
        ):
            raise DiagramError("proof structures are over the uncontrolled signature")
        if isinstance(g, TensorGate):
            cells.append((f"n{i}", "tensor", g.outputs[0]))
        elif isinstance(g, ParGate):
            cells.append((f"n{i}", "par", g.outputs[0]))
        elif isinstance(g, OneGate):
            cells.append((f"n{i}", "one", None))
        elif isinstance(g, BotGate):
            cells.append((f"n{i}", "bot", None))
        else:
            continue
        cell_of[i] = f"n{i}"

    def chase_down(tok):
        while True:
            ci = seq.consumer.get(tok)
            if ci is None:
                return ("concl", seq.word.index(tok))
            op = seq.ops[ci]
            if isinstance(op.gate, TwistGate):
                tok = op.out_tokens[1 - op.in_tokens.index(tok)]
                continue
            if isinstance(op.gate, CutGate):
                return ("cutend", ci, op.in_tokens.index(tok))
            return ("cell", cell_of[ci], op.in_tokens.index(tok))

    def chase_up(tok):
        while True:
            pi = seq.producer.get(tok)
            if pi is None:
                return ("input", tok)
            op = seq.ops[pi]
            if isinstance(op.gate, TwistGate):
                tok = op.in_tokens[1 - op.out_tokens.index(tok)]
                continue
            if isinstance(op.gate, AxGate):
                return ("axend", pi, op.out_tokens.index(tok))
            return ("cell", cell_of[pi], "out")

    wires = []
    for i, op in enumerate(seq.ops):
        g = op.gate
        if isinstance(g, AxGate):
            wires.append(
                ("ax", (chase_down(op.out_tokens[0]), chase_down(op.out_tokens[1])), g.formula)
            )
        elif isinstance(g, CutGate):
            wires.append(
                ("cut", (chase_up(op.in_tokens[0]), chase_up(op.in_tokens[1])), g.formula)
            )
        elif isinstance(g, (TensorGate, ParGate, OneGate, BotGate)):
            for t in op.out_tokens:
                wires.append(
                    ("flow", (("cell", cell_of[i], "out"), chase_down(t)), seq.labels[t])
                )
    conclusions = [seq.labels[t] for t in seq.word]
    return ProofStructure(cells, wires, conclusions)
