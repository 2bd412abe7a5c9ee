"""Between sequent derivations and proof diagrams.

``represent`` builds the diagram of a derivation by the inductive clauses of
the correspondence theorems (controlled or uncontrolled signature), one gate
per rule fired into one ``OpSeq``: the ax/one leaves first, left to right,
then each other rule after its premises, at its first active formula.  An
exchange fires the twists of its canonical permutation diagram between the
control strings.  Before the canonical form, it costs the size of the
one-op-per-layer diagram it returns.  ``tests/rep_model.py`` keeps the
earlier recursive version as the differential model.

``is_sequentializable`` is the linear-time check: a controlled diagram
corresponds to a derivation iff its input is empty and its output reads
L, Gamma, R with Gamma control-free.  Only boundary labels are inspected;
the work is proportional to the boundary length and independent of the gate
count (a comparison counter is exposed for the benchmark).

``sequentialize`` recovers a derivation in one pass over the ``OpSeq`` of
the canonical form, keeping the branches still to peel on a stack.  Each
step peels the first op of its branch by ``(-layer, -column)``, ties in
firing order, that is not an ``ax``/``one`` leaf.  No remaining op consumes
it, and only leaves come before it, so peeling it can move nothing but
leaves and the order needs no new canonical form.  The branch's final word
is edited in place: a twist's outputs become its inputs, a par's output its
two inputs, a bot's output goes.  At a tensor or cut the gate's inputs
(A, R, L, B) return to the word and the branch splits after the R: the ops
that the wires of each half reach go to that side, an op reached from both
is a ``MalformedBranch``, and only the smaller side is walked to its end.
With n gates and final words of length at most w, a peel costs O(w) and the
splits O(n log n) in all, so the pass is O(n (w + log n)).  Diagrams
containing B-gates are first driven through the untangle relations (a
~-preserving preprocessing) until B-free.  ``tests/seq_model.py`` keeps the
earlier recursive version, which re-canonicalized after every peel, as the
differential model.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .formula import show
from .diagram import (
    AxGate,
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
    controlled_signature,
    gate_count,
    interchange_canonical_form,
)
from .perm import Permutation, canonical_perm_diagram
from .polygraph import normalize, polygraph
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
    ax,
    bot,
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
    """The proof diagram of a derivation, over the chosen signature."""
    controlled = sig == "controlled"
    if sig not in ("controlled", "uncontrolled"):
        raise DiagramError(f"unknown signature {sig!r}")
    return _rep(d, controlled)


_GATE = {  # the gate of a rule, given its tag and its active formulas in order
    AxR: lambda r, fs, c: AxGate(r.formula, c),
    OneR: lambda r, fs, c: OneGate(c),
    BotR: lambda r, fs, c: BotGate(),
    ParR: lambda r, fs, c: ParGate(*fs),
    TensorR: lambda r, fs, c: TensorGate(*fs, c),
    CutR: lambda r, fs, c: CutGate(fs[0], c),
}


def _rep(d: Derivation, c: bool) -> Diagram:
    """Fire one gate per rule into one ``OpSeq``: the ax/one leaves first,
    left to right, then every other rule after its premises, at its first
    active formula (a bot after its premise's formulas).  The result is the
    canonical form, placed from the firings."""
    off = 1 if c else 0  # the L before each conclusion's formulas
    # (derivation, column of its conclusion when it fires): only whole
    # subtrees lie left of it then, and what is right of it does not count
    nodes, stack = [], [(d, 0)]
    while stack:  # a node, then its right subtree, then its left one
        x, col = stack.pop()
        nodes.append((x, col))
        for p in x.premises:
            stack.append((p, col))
            col += len(p.conclusion) + 2 * off
    nodes.reverse()  # premises first, leaves left to right
    seq = OpSeq(())
    # leaves first: no cut then fires before a leaf at its wire, an order
    # the canonical form does not undo (the cut-order gap)
    for x, _ in nodes:
        if not x.premises:
            seq.fire_at(_GATE[type(x.rule)](x.rule, (), c), len(seq.word))
    for x, col in nodes:
        r, ps = x.rule, x.premises
        if not ps:
            continue
        if isinstance(r, ExchangeR):
            seq.splice(canonical_perm_diagram(r.perm, ps[0].conclusion), col + off)
            continue
        lens = tuple(len(p.conclusion) for p in ps)
        copied = set(r.origin(lens))
        acts = [(j, k) for j, n in enumerate(lens) for k in range(1, n + 1) if (j, k) not in copied]
        fs = [ps[j].conclusion[k - 1] for j, k in acts]
        seq.fire_at(_GATE[type(r)](r, fs, c), col + off + (acts[0][1] - 1 if acts else lens[0]))
    return seq.to_diagram(canonical=True)


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


def _strip_big(phi: Diagram) -> Diagram:
    """Drive out any B-gates (untangle steps preserve ~)."""
    if not gate_count(phi, ("big",)):
        return phi
    p = polygraph("MLL_big")
    nf, _ = normalize(p, phi)
    if gate_count(nf, ("big",)):
        raise MalformedBranch("B-gates cannot be eliminated from this diagram")
    return nf


def sequentialize(phi: Diagram) -> Derivation:
    """Recover a derivation from a sequentializable controlled diagram."""
    phi = interchange_canonical_form(phi)
    if not is_sequentializable(phi):
        raise NotSequentializable(f"boundary {phi.output}")
    if controlled_signature(phi) is not True:  # a mix of the two raises DiagramError
        raise NotSequentializable("not a controlled diagram")
    phi = _strip_big(phi)
    d = _seq(phi)
    if d.conclusion != boundary_sequent(phi):
        raise MalformedBranch("sequentialization changed the conclusion")
    return d


_PEELABLE = (TwistGate, ParGate, BotGate, TensorGate, CutGate)
_UNPEEL = {  # the rule a unary peel undoes, given the sequent length and the column
    TwistGate: lambda d, n, col: exchange(d, Permutation.transposition(n, col)),
    ParGate: lambda d, n, col: par(d, col),
    BotGate: lambda d, n, col: exchange(bot(d), Permutation.move(n, n, col)),
}


def _seq(phi: Diagram) -> Derivation:
    """Peel the ops of one ``OpSeq`` of ``phi`` (canonical, empty input),
    keeping the branches still to peel on an explicit stack."""
    seq = OpSeq.of(phi)
    ops = seq.ops
    peel_key = [(-li, -col, o) for o, (li, col, _) in enumerate(phi.gates())]
    place = _planar_order(seq)
    owner = [0] * len(ops)  # the label of the op's branch, -1 once peeled
    nodes: list = [None]  # per branch: (its unary peels in order, its leaf or split)
    order = sorted(range(len(ops)), key=peel_key.__getitem__)
    # (label, node, ops in peel order, scan start, live ops, final word); left branch on top
    stack = [(0, 0, order, 0, len(ops), list(seq.word))]
    first = True  # the first split walks both sides, to drop ops no boundary wire reaches
    while stack:
        label, node, members, i, alive, word = stack.pop()
        peels = []
        while alive > 1:
            while i < len(members) and (
                owner[members[i]] != label or not isinstance(ops[members[i]].gate, _PEELABLE)
            ):
                i += 1
            if i == len(members):
                raise NotSequentializable("no peelable bottom gate")
            o = members[i]
            op, g, n = ops[o], ops[o].gate, len(word) - 2
            owner[o] = -1
            alive -= 1
            if op.out_tokens:
                col = word.index(op.out_tokens[0])
            else:  # a cut: its inputs return at their planar place
                col = bisect_left(word, place[op.in_tokens[0]], key=place.__getitem__)
            if isinstance(g, TwistGate):
                word[col] = op.in_tokens[0]
                word[word.index(op.out_tokens[1])] = op.in_tokens[1]
            else:
                word[col : col + len(op.out_tokens)] = op.in_tokens
            if not isinstance(g, (TensorGate, CutGate)):
                peels.append((type(g), n, col))
                continue
            # the inputs (A, R, L, B) sit at col: the left branch ends after the R
            halves = (word[: col + 2], word[col + 2 :])
            sides = _split(seq, owner, label, halves, first)
            first = False
            kids = (len(nodes), len(nodes) + 1)
            nodes += [None, None]
            nodes[node] = (peels, (type(g), *kids))
            for s in (1, 0):
                if sides[s] is None:  # not walked: the rest of this branch
                    stack.append((label, kids[s], members, i, alive - len(sides[1 - s]), halves[s]))
                else:
                    for o in sides[s]:
                        owner[o] = kids[s]
                    found = sorted(sides[s], key=peel_key.__getitem__)
                    stack.append((kids[s], kids[s], found, 0, len(found), halves[s]))
            break
        else:
            if alive == 0:
                raise NotSequentializable("no gates")
            g = ops[next(o for o in members if owner[o] == label)].gate
            if isinstance(g, AxGate):
                nodes[node] = (peels, ax(g.formula))
            elif isinstance(g, OneGate):
                nodes[node] = (peels, one())
            else:
                raise NotSequentializable(f"single gate {g} is not a proof diagram")
    done: list = [None] * len(nodes)
    for k in range(len(nodes) - 1, -1, -1):  # a split's branches come after it
        peels, end = nodes[k]
        if isinstance(end, Derivation):
            d = end
        else:
            d = (tensor if end[0] is TensorGate else cut)(done[end[1]], done[end[2]])
        for kind, n, col in reversed(peels):
            d = _UNPEEL[kind](d, n, col)
        done[k] = d
    return done[0]


def _planar_order(seq: OpSeq) -> dict:
    """A left-to-right place for every token of an empty-input ``OpSeq``,
    which every live word respects: a gate's outputs go right after its
    last input, a nullary gate's right after its left neighbour."""
    after: dict = {}  # token -> the next token; the key None is the head
    live: list = []
    for op in seq.ops:
        k = len(op.in_tokens)
        at = op.in_tokens[-1] if k else (live[op.pos - 1] if op.pos else None)
        tail = after.get(at)
        for t in op.out_tokens:
            after[at] = t
            at = t
        after[at] = tail
        live[op.pos : op.pos + k] = op.out_tokens
    place: dict = {}
    t = after.get(None)
    while t is not None:
        place[t] = len(place)
        t = after.get(t)
    return place


def _split(seq: OpSeq, owner: list, label: int, halves: tuple, full: bool) -> list:
    """The ops of branch ``label`` whose wires reach each half of its word.

    The two sides are walked in turns, and an op reached from both raises
    ``MalformedBranch``.  Unless ``full``, the walk stops when one side is
    exhausted, and the other side's entry is None: it is the rest of the
    branch.  With ``full`` both are walked to the end, and an op that neither
    reaches belongs to neither.
    """
    tok_side: dict = {}
    op_side: dict = {}
    found: list = [[], []]

    def reach(o, s):
        if o is None or owner[o] != label:
            return
        if o not in op_side:
            op_side[o] = s
            found[s].append(o)
        elif op_side[o] != s:
            raise MalformedBranch("branches share a wire")

    for s, part in enumerate(halves):
        for t in part:
            tok_side[t] = s
            reach(seq.producer[t], s)
    walked = [0, 0]
    while True:
        for s in (0, 1):
            if walked[s] < len(found[s]):
                op = seq.ops[found[s][walked[s]]]
                walked[s] += 1
                for t in op.in_tokens + op.out_tokens:
                    if tok_side.setdefault(t, s) != s:
                        raise MalformedBranch("branches share a wire")
                    reach(seq.producer[t], s)
                    reach(seq.consumer.get(t), s)
        ended = [walked[s] == len(found[s]) for s in (0, 1)]
        if all(ended) or (any(ended) and not full):
            return [f if e else None for f, e in zip(found, ended)]


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
    if controlled_signature(phi):
        raise DiagramError("proof structures are over the uncontrolled signature")
    seq = OpSeq.of(phi)
    cells = []
    cell_of: dict = {}
    for i, op in enumerate(seq.ops):
        g = op.gate
        if g.family in ("tensor", "par", "one", "bot"):  # a connective's cell names its formula
            cells.append((f"n{i}", g.family, g.outputs[0] if g.inputs else None))
            cell_of[i] = f"n{i}"

    def chase_down(tok):
        ci, tok = seq.chase(tok)
        if ci is None:
            return ("concl", seq.word.index(tok))
        op = seq.ops[ci]
        if isinstance(op.gate, CutGate):
            return ("cutend", ci, op.in_tokens.index(tok))
        return ("cell", cell_of[ci], op.in_tokens.index(tok))

    def chase_up(tok):
        pi, tok = seq.chase(tok, down=False)
        if pi is None:
            return ("input", tok)
        op = seq.ops[pi]
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
        elif i in cell_of:
            for t in op.out_tokens:
                wires.append(
                    ("flow", (("cell", cell_of[i], "out"), chase_down(t)), seq.labels[t])
                )
    conclusions = [seq.labels[t] for t in seq.word]
    return ProofStructure(cells, wires, conclusions)
