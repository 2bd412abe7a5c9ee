"""The peel-and-recanonicalize sequentializer, kept as the differential model.

This is the recursive ``_seq`` that ``proofdiag.translate`` used before the
one-pass loop, with its helpers ``_remove_bottom_op``, ``_bottom_ops`` and
``_split_parallel``, unchanged.  Each peel rebuilds the diagram without the
peeled op and re-runs ``interchange_canonical_form``; each tensor or cut
splits the rest by a side-propagation fixpoint.  It is cubic in the gate
count and recurses once per peel, so use it on small diagrams only.
``model_sequentialize`` is ``translate.sequentialize`` with this ``_seq``.
"""
from __future__ import annotations

from proofdiag.diagram import (
    AxGate,
    BotGate,
    CutGate,
    Diagram,
    OneGate,
    OpSeq,
    ParGate,
    TensorGate,
    TwistGate,
    interchange_canonical_form,
)
from proofdiag.perm import Permutation
from proofdiag.sequent import Derivation, ax, bot, cut, exchange, one, par, tensor
from proofdiag.translate import (
    MalformedBranch,
    NotSequentializable,
    _strip_big,
    boundary_sequent,
    is_sequentializable,
)


def model_sequentialize(phi: Diagram) -> Derivation:
    phi = interchange_canonical_form(phi)
    if not is_sequentializable(phi):
        raise NotSequentializable(f"boundary {phi.output}")
    phi = _strip_big(phi)
    d = _seq(phi)
    if d.conclusion != boundary_sequent(phi):
        raise MalformedBranch("sequentialization changed the conclusion")
    return d


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
            return exchange(bot(d), Permutation.move(gamma_n, gamma_n, col))
        if isinstance(g, (TensorGate, CutGate)):
            rest = _remove_bottom_op(phi, idx)
            # the gate consumed (A, R, L, B) at op.pos; in `rest` those
            # columns are final again, so the left branch ends after the R
            phi_l, phi_r = _split_parallel(rest, op.pos + 2)
            d1, d2 = _seq(phi_l), _seq(phi_r)
            return tensor(d1, d2) if isinstance(g, TensorGate) else cut(d1, d2)
    raise NotSequentializable("no peelable bottom gate")
