"""String diagrams over formula-labelled wires with two control colours.

A diagram is a chain of layers read top to bottom.  Each layer is a tuple of
slots; a slot is either a wire label (an identity wire) or a gate.  The input
word of every layer must equal the output word of the layer above, and the
first layer's input word must equal the diagram's input.

Wire labels are MLL formulas plus the two non-twisting control colours L and
R.  Gates carry their formula parameters and, where the two signatures
differ, a ``controlled`` flag choosing between the plain arity and the
control-string arity (tensor, axiom, cut and the one-gate differ; par, twist
and bottom do not).

Every gate type subclasses ``Gate``: a frozen dataclass whose fields are its
parameter list, each field's annotation giving its kind (a ``Formula``, a
label ``Word`` for the B-gate's two sheafs, or the ``bool`` flag).  So one
loop over ``gate_fields`` serves every gate type wherever gates are taken
apart: unification and substitution in ``matching``, printing here
(``gate_str``) and parsing in ``diagramio`` (through ``GATE_TYPES``, the
family-to-type table).

Equality of diagrams is structural.  Interchange-equal diagrams are
identified by ``interchange_canonical_form``, which hoists every gate to the
earliest layer its wires permit, ties broken left to right, in one top-down
pass.  The result is idempotent, and it is the Foata normal form of the
underlying trace (Cartier and Foata, 1969), a canonical representative of the
interchange class, with one exception: the order of a cut (the only 0-output
gate) and a 0-input gate at the same wire of one layer.  ``[cut!(a) ax!(b)]``
stays as it is, while its interchange-equal forms ``[ax!(b) cut!(a)]`` and
``[cut!(a)]; [ax!(b)]`` both give ``[ax!(b) cut!(a)]``; controlled gates behave
alike.  Closing this gap changes the depth-4 closure count that the benchmark
pins (``Enumerate.EXPECTED[4]`` in ``perfbench/workloads.py``, 21,099 would
become 21,091), so the fix waits for a change to that count.

Canonicity is a flag on the diagram: the count of its leading layers known
to be in canonical form, and the diagram is canonical when the count is its
number of layers.  ``interchange_canonical_form`` and
``OpSeq.to_diagram(canonical=True)`` set it to that on what they return, and
``compose_seq(phi, psi)`` passes on ``phi``'s count: the layers of ``phi``
lead the result.  Given a flagged diagram, the canonical form returns it at
once; otherwise its pass starts below the known prefix, so appending a layer
to a canonical diagram hoists only that layer's gates.  Diagrams are immutable,
so the flag cannot go stale.

``Diagram(input, layers)`` checks every layer's boundary.  Only the builders
here whose result is valid by construction pass ``output=`` to skip that
walk: ``compose_seq`` (which still compares the two boundary words),
``compose_par``, ``interchange_canonical_form`` and ``OpSeq.to_diagram``
(whose ``fire_at`` checked every label, or whose ``refire`` fired an op of a
graph so checked).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from types import MappingProxyType
from typing import ClassVar, Iterable, Iterator, NamedTuple, Optional, Union

from .formula import BOT, ONE, Formula, Tensor, Par, negate, show


class DiagramError(ValueError):
    pass


class BoundaryMismatch(DiagramError):
    def __init__(self, position: int, expected, got):
        self.position = position
        self.expected = expected
        self.got = got
        super().__init__(
            f"boundary mismatch at position {position}: "
            f"expected {label_str(expected) if expected is not None else '<end>'}, "
            f"got {label_str(got) if got is not None else '<end>'}"
        )


@dataclass(frozen=True)
class Ctrl:
    """Control wire colour; L and R bracket every sequent region."""

    side: str  # 'L' or 'R'


L = Ctrl("L")
R = Ctrl("R")

Label = Union[Formula, Ctrl]
Word = tuple  # tuple[Label, ...]


def _mismatch(expected: Word, got: Word) -> BoundaryMismatch:
    """The error for two words that should agree, at their first difference."""
    k = 0
    while k < min(len(expected), len(got)) and expected[k] == got[k]:
        k += 1
    return BoundaryMismatch(k, *(w[k] if k < len(w) else None for w in (expected, got)))


def label_str(lab: Label) -> str:
    if isinstance(lab, Ctrl):
        return lab.side
    return show(lab)


def word_str(word: Word) -> str:
    return ",".join(label_str(l) for l in word) if word else "-"


def is_formula_label(lab: Label) -> bool:
    return not isinstance(lab, Ctrl)


# ---------------------------------------------------------------------------
# Gate types


class Gate:
    """A generator: a frozen dataclass whose fields are its parameters (see
    ``gate_fields``) and whose ``inputs`` and ``outputs`` follow from them."""

    __slots__ = ()
    family: ClassVar[str]


@dataclass(frozen=True)
class TwistGate(Gate):
    left: Formula
    right: Formula
    family = "twist"

    @property
    def inputs(self) -> Word:
        return (self.left, self.right)

    @property
    def outputs(self) -> Word:
        return (self.right, self.left)


@dataclass(frozen=True)
class ParGate(Gate):
    left: Formula
    right: Formula
    family = "par"

    @property
    def inputs(self) -> Word:
        return (self.left, self.right)

    @property
    def outputs(self) -> Word:
        return (Par(self.left, self.right),)


@dataclass(frozen=True)
class TensorGate(Gate):
    left: Formula
    right: Formula
    controlled: bool = True
    family = "tensor"

    @property
    def inputs(self) -> Word:
        if self.controlled:
            return (self.left, R, L, self.right)
        return (self.left, self.right)

    @property
    def outputs(self) -> Word:
        return (Tensor(self.left, self.right),)


@dataclass(frozen=True)
class AxGate(Gate):
    formula: Formula
    controlled: bool = True
    family = "ax"

    @property
    def inputs(self) -> Word:
        return ()

    @property
    def outputs(self) -> Word:
        if self.controlled:
            return (L, self.formula, negate(self.formula), R)
        return (self.formula, negate(self.formula))


@dataclass(frozen=True)
class CutGate(Gate):
    formula: Formula
    controlled: bool = True
    family = "cut"

    @property
    def inputs(self) -> Word:
        if self.controlled:
            return (self.formula, R, L, negate(self.formula))
        return (self.formula, negate(self.formula))

    @property
    def outputs(self) -> Word:
        return ()


@dataclass(frozen=True)
class OneGate(Gate):
    controlled: bool = True
    family = "one"

    @property
    def inputs(self) -> Word:
        return ()

    @property
    def outputs(self) -> Word:
        if self.controlled:
            return (L, ONE, R)
        return (ONE,)


@dataclass(frozen=True)
class BotGate(Gate):
    family = "bot"

    @property
    def inputs(self) -> Word:
        return ()

    @property
    def outputs(self) -> Word:
        return (BOT,)


@dataclass(frozen=True)
class BigGate(Gate):
    """Big twisting operator swapping two bracketed sheafs of wires.

    The sheaf words may contain interior R,L pairs, so whole groups of
    sequent regions can be exchanged at once.
    """

    left_word: Word
    right_word: Word
    family = "big"

    @property
    def inputs(self) -> Word:
        return (L,) + tuple(self.left_word) + (R, L) + tuple(self.right_word) + (R,)

    @property
    def outputs(self) -> Word:
        return (L,) + tuple(self.right_word) + (R, L) + tuple(self.left_word) + (R,)


GATE_TYPES = {cls.family: cls for cls in Gate.__subclasses__()}


def is_gate(slot) -> bool:
    return isinstance(slot, Gate)


@cache
def gate_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(name, kind) of each field of a gate type, in order.

    The kind is the field's annotation: ``"Formula"``, ``"Word"`` (a B-gate
    sheaf) or ``"bool"`` (the ``controlled`` flag).
    """
    return tuple((f.name, f.type) for f in fields(cls))


def gate_str(g: Gate, tagged: bool = True) -> str:
    """``family(params)``, or the bare family when there are none.

    ``tagged`` marks an uncontrolled gate ``family!``, as a diagram's repr
    does; the file format leaves the tag out, as its signature line says it.
    """
    head, args = g.family, []
    for name, kind in gate_fields(type(g)):
        value = getattr(g, name)
        if kind == "bool":
            head += "!" if tagged and not value else ""
        elif kind == "Word":
            args.append(f"[{word_str(value)}]")
        else:
            args.append(label_str(value))
    return f"{head}({','.join(args)})" if args else head


# ---------------------------------------------------------------------------
# Diagrams

Layer = tuple  # tuple of slots; slot = Label | Gate
Slot = Union[Label, Gate]


def slot_inputs(slot: Slot) -> Word:
    return slot.inputs if isinstance(slot, Gate) else (slot,)


def slot_outputs(slot: Slot) -> Word:
    return slot.outputs if isinstance(slot, Gate) else (slot,)


def layer_inputs(layer: Layer) -> Word:
    out = []
    for s in layer:
        if isinstance(s, Gate):
            out.extend(s.inputs)
        else:
            out.append(s)
    return tuple(out)


def layer_outputs(layer: Layer) -> Word:
    out = []
    for s in layer:
        if isinstance(s, Gate):
            out.extend(s.outputs)
        else:
            out.append(s)
    return tuple(out)


class Diagram:
    """Immutable layered string diagram."""

    __slots__ = ("input", "layers", "output", "_hash", "_canonical")

    def __init__(self, input_word: Iterable[Label], layers: Iterable[Layer] = (), *, output=None):
        word = tuple(input_word)
        lys = tuple(map(tuple, layers))
        if output is None:  # not a trusted build (see the module docstring)
            output = word
            for layer in lys:
                need = layer_inputs(layer)
                if need != output:
                    raise _mismatch(output, need)
                output = layer_outputs(layer)
        object.__setattr__(self, "input", word)
        object.__setattr__(self, "layers", lys)
        object.__setattr__(self, "output", tuple(output))
        object.__setattr__(self, "_hash", None)  # computed on first use
        object.__setattr__(self, "_canonical", 0)  # leading layers known canonical

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Diagram is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Diagram)
            and hash(self) == hash(other)
            and self.input == other.input
            and self.layers == other.layers
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.input, self.layers)))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + " ".join(gate_str(s) if is_gate(s) else label_str(s) for s in layer) + "]"
            for layer in self.layers
        )
        return f"Diagram({word_str(self.input)} => {word_str(self.output)} : {body})"

    def gates(self) -> Iterator[tuple[int, int, Gate]]:
        """Yield (layer index, wire offset, gate) for every gate occurrence."""
        for li, layer in enumerate(self.layers):
            pos = 0
            for s in layer:
                if isinstance(s, Gate):
                    yield li, pos, s
                pos += len(slot_inputs(s))

    def gate_list(self) -> list[Gate]:
        return [g for _, _, g in self.gates()]


def identity(word: Iterable[Label]) -> Diagram:
    return Diagram(tuple(word), ())


EMPTY = identity(())


def single(gate: Gate) -> Diagram:
    return Diagram(gate.inputs, ((gate,),))


def controlled_signature(phi: Diagram) -> Optional[bool]:
    """Whether the gates of phi are controlled: their ``bool`` fields, and a
    B-gate is controlled.  None when only shared gates (par, twist, bottom)
    occur, and ``DiagramError`` when the gates mix the two signatures."""
    flags = set()
    for _, _, g in phi.gates():
        if isinstance(g, BigGate):
            flags.add(True)
        flags.update(getattr(g, name) for name, kind in gate_fields(type(g)) if kind == "bool")
    if len(flags) > 1:
        raise DiagramError("the diagram mixes controlled and uncontrolled gates")
    return flags.pop() if flags else None


def gate_count(phi: Diagram, families: Optional[Iterable[str]] = None) -> int:
    """Number of gates, optionally restricted to a set of gate families."""
    fams = set(families) if families is not None else None
    n = 0
    for _, _, g in phi.gates():
        if fams is None or g.family in fams:
            n += 1
    return n


def compose_seq(phi: Diagram, psi: Diagram) -> Diagram:
    """Stack psi below phi; boundary words must agree label-for-label."""
    if phi.output != psi.input:
        raise _mismatch(phi.output, psi.input)
    out = Diagram(phi.input, phi.layers + psi.layers, output=psi.output)
    object.__setattr__(out, "_canonical", phi._canonical)
    return out


def compose_par(phi: Diagram, psi: Diagram) -> Diagram:
    """Place psi to the right of phi; always defined.

    The shorter side is padded with identity layers at the bottom so layer
    counts line up.
    """
    n = max(len(phi.layers), len(psi.layers))
    layers = []
    for i in range(n):
        left = phi.layers[i] if i < len(phi.layers) else tuple(phi.output)
        right = psi.layers[i] if i < len(psi.layers) else tuple(psi.output)
        layers.append(left + right)
    return Diagram(phi.input + psi.input, layers, output=phi.output + psi.output)


def parallel(*parts: Diagram) -> Diagram:
    out = EMPTY
    for p in parts:
        out = compose_par(out, p)
    return out


def build(input_word: Iterable[Label], *layers: Iterable[Slot]) -> Diagram:
    return Diagram(tuple(input_word), tuple(tuple(l) for l in layers))


# ---------------------------------------------------------------------------
# Interchange canonical form

def _landing(above: list[Slot], p: int, k: int) -> Optional[tuple[int, int]]:
    """Where a gate with k inputs at wire p below ``above`` lands when hoisted
    into it: its slot index and input wire offset there, or None if blocked.

    A gate with inputs replaces the k identity wires over them, after any
    0-output gate at wire p; a 0-input gate goes before the first slot at p.
    """
    q = w = 0  # output and input wire offsets of above[at]
    for at, s in enumerate(above):
        if q > p:
            return None  # p falls inside a gate's output block
        if q == p and (k == 0 or not isinstance(s, Gate)):
            break
        q += len(slot_outputs(s))
        w += len(slot_inputs(s))
    else:
        at = len(above)
    if q != p or any(isinstance(s, Gate) for s in above[at : at + k]):
        return None
    return at, w


def _hoist(grid: list, gate: Gate, li: int, at: int, w: int) -> int:
    """Lift ``gate``, at slot ``at`` and input wire ``w`` of ``grid[li]``, as
    far up as its wires allow, and return the layer it lands in.  With ``li
    == len(grid)`` it comes from below the grid, from no layer yet."""
    k = len(gate.inputs)
    while li and (spot := _landing(grid[li - 1], w, k)):
        if li < len(grid):
            grid[li][at : at + 1] = gate.outputs
        li -= 1
        at, w = spot
        if type(grid[li]) is tuple:  # a row of a canonical prefix, shared until now
            grid[li] = list(grid[li])
        grid[li][at : at + k] = [gate]
    return li


def interchange_canonical_form(phi: Diagram) -> Diagram:
    """Hoist every gate to its earliest layer, in one top-down pass.

    Each layer of ``phi`` in turn becomes the newest: its gates, left to
    right, are lifted as far up as their wires allow.  The result is the
    Foata normal form, a canonical representative of the interchange class,
    but for the cut-order gap that the module docstring names.  It is
    idempotent, boundary- and gate-multiset-preserving, and flagged: ``phi``
    itself when already in this form, else a new diagram.  The flag is a
    count, not a reference to the form, which would make a cycle for the
    collector.

    The pass starts below ``phi``'s canonical prefix: its grid after k
    layers depends on those k layers alone, and for a canonical prefix it is
    the prefix itself.  A prefix row stays the parent's tuple until a gate
    lands in it.
    """
    start = phi._canonical
    if start == len(phi.layers):
        return phi
    grid: list = list(phi.layers[:start])
    for layer in phi.layers[start:]:
        grid.append(list(layer))
        si = p = 0  # slot index in the newest layer, and its input wire offset
        while si < len(grid[-1]):
            s = grid[-1][si]
            if not isinstance(s, Gate) or _hoist(grid, s, len(grid) - 1, si, p) == len(grid) - 1:
                si, p = si + 1, p + len(slot_inputs(s))  # it stays: go past it
        # Of two gate-free layers in a row only the upper one is kept.  Gates
        # that land in it put a 0-input gate before a cut at its wire, as in
        # any layer (the cut-order gap); without it they keep their order.
        if len(grid) > 1 and not any(isinstance(s, Gate) for row in grid[-2:] for s in row):
            grid.pop()
    if grid and not any(isinstance(s, Gate) for s in grid[-1]):
        grid.pop()
    layers = tuple(map(tuple, grid))
    canon = phi if layers == phi.layers else Diagram(phi.input, layers, output=phi.output)
    object.__setattr__(canon, "_canonical", len(layers))
    return canon


# ---------------------------------------------------------------------------
# Whisker-op view: one gate at a time, with explicit positions and tokens.


class Op(NamedTuple):
    gate: Gate
    pos: int  # offset in the live word where the gate's inputs start
    in_tokens: tuple
    out_tokens: tuple


class OpSeq:
    """A diagram as a sequence of single-gate firings over a token word.

    Tokens are integers; ``producer[t]``/``consumer[t]`` give the op index (or
    None for boundary).  It is the one builder of diagrams gate by gate: the
    matching engine reorders independent firings and splices rule instances
    with it, and the procedural rewrites fire their targets into it and walk
    wires through twists with ``chase``.  ``to_diagram(canonical=True)``
    places a rewrite result or a representation in flagged canonical form
    straight from its firings.
    """

    def __init__(self, input_word: Word):
        self.input_word = tuple(input_word)
        self.ops: list[Op] = []
        self._next = len(self.input_word)
        self.in_tokens = tuple(range(len(self.input_word)))
        self.labels = {t: lab for t, lab in zip(self.in_tokens, self.input_word)}
        self.producer: dict = {t: None for t in self.in_tokens}
        self.consumer: dict = {}
        self.word: list = list(self.in_tokens)

    @staticmethod
    def of(phi: Diagram) -> "OpSeq":
        seq = OpSeq(phi.input)
        seq.splice(phi, 0)
        return seq

    @property
    def output(self) -> Word:
        """The labels of the live word."""
        return tuple(self.labels[t] for t in self.word)

    def splice(self, phi: Diagram, pos: int) -> None:
        """Fire every gate of phi, layer by layer, with its inputs offset by pos."""
        for layer in phi.layers:
            cur = pos
            for s in layer:
                if isinstance(s, Gate):
                    self.fire_at(s, cur)
                    cur += len(s.outputs)
                else:
                    cur += 1

    def chase(self, tok: int, down: bool = True) -> tuple[Optional[int], int]:
        """Follow a wire through twists, downward or upward: the first other
        op it meets (None at the boundary) and the token it arrives by."""
        ends = self.consumer if down else self.producer
        while (i := ends.get(tok)) is not None:
            op = self.ops[i]
            if not isinstance(op.gate, TwistGate):
                return i, tok
            near, far = (op.in_tokens, op.out_tokens) if down else (op.out_tokens, op.in_tokens)
            tok = far[1 - near.index(tok)]
        return None, tok

    def fire_at(self, gate: Gate, pos: int) -> tuple:
        """Fire a gate whose inputs sit at [pos, pos+k) of the live word."""
        ins = gate.inputs
        if pos < 0 or pos + len(ins) > len(self.word):
            raise DiagramError(f"gate {gate_str(gate)} out of range at {pos}")
        for t, lab in zip(self.word[pos : pos + len(ins)], ins):
            if self.labels[t] != lab:
                raise BoundaryMismatch(pos, self.labels[t], lab)
        return self.refire(gate, pos)

    def refire(self, gate: Gate, pos: int) -> tuple:
        """``fire_at`` without its checks: fire again an op of a checked
        graph, at a position where its input labels are known to sit."""
        k = len(gate.inputs)
        toks = tuple(self.word[pos : pos + k])
        outs = tuple(range(self._next, self._next + len(gate.outputs)))
        self._next += len(outs)
        idx = len(self.ops)
        for t, lab in zip(outs, gate.outputs):
            self.labels[t] = lab
            self.producer[t] = idx
        for t in toks:
            self.consumer[t] = idx
        self.ops.append(Op(gate, pos, toks, outs))
        self.word[pos : pos + k] = outs
        return outs

    def renumbered(self, phi: Diagram) -> "OpSeq":
        """``OpSeq.of(phi)`` for the diagram that ``to_diagram(canonical=True)``
        placed from these firings, read off them without firing again.

        The placement moves the gate objects of the ops, so each gate slot of
        ``phi`` names its op: walking the layers gives the ops in canonical
        firing order, with their positions, and their tokens are renumbered
        in that order.  When two ops fire one gate object a slot cannot name
        its op, and the firings are done afresh.
        """
        index = {id(op.gate): op for op in self.ops}
        if len(index) < len(self.ops):
            return OpSeq.of(phi)
        seq = OpSeq(phi.input)
        new = dict(zip(self.in_tokens, seq.in_tokens))  # token here -> token there
        labels, producer, consumer, ops = seq.labels, seq.producer, seq.consumer, seq.ops
        nxt = seq._next
        for layer in phi.layers:
            pos = 0
            for s in layer:
                if not isinstance(s, Gate):
                    pos += 1
                    continue
                op, i = index[id(s)], len(ops)
                ins = tuple(new[t] for t in op.in_tokens)
                outs = tuple(range(nxt, nxt + len(op.out_tokens)))
                nxt += len(outs)
                for old, t in zip(op.out_tokens, outs):
                    new[old] = t
                    labels[t] = self.labels[old]
                    producer[t] = i
                for t in ins:
                    consumer[t] = i
                ops.append(Op(s, pos, ins, outs))
                pos += len(outs)
        seq._next = nxt
        seq.word = [new[t] for t in self.word]
        return seq

    def to_diagram(self, canonical: bool = False) -> Diagram:
        """One layer per op, in firing order.  With ``canonical``, the flagged
        ``interchange_canonical_form`` of that, placed without the one-op
        layers: each op is hoisted from below the grid, and opens a layer
        only where it cannot land in the last one."""
        grid: list[list[Slot]] = []
        word = list(self.input_word)  # the labels below the grid
        for op in self.ops:
            k = len(op.in_tokens)
            if not canonical or _hoist(grid, op.gate, len(grid), 0, op.pos) == len(grid):
                grid.append(word[: op.pos] + [op.gate] + word[op.pos + k :])
            word[op.pos : op.pos + k] = op.gate.outputs
        phi = Diagram(self.input_word, grid, output=word)
        object.__setattr__(phi, "_canonical", len(grid) if canonical else 0)
        return phi


class OpGraph:
    """The op graph of one diagram, read-only.

    It holds what ``OpSeq.of(phi)`` computes: the ops in canonical firing
    order, as a tuple, for every token its label, producer and consumer
    (``labels``, ``producer`` and ``consumer``; an op index, or None at the
    boundary), and ``word``, the tokens live after the last op.  It adds
    each op's ``layer`` and ``column`` (the wire offset of its inputs in that
    layer of ``phi``) and ``by_family``, the op indices of each gate family
    in firing order.  Given ``placed``, the firings that
    ``OpSeq.to_diagram(canonical=True)`` placed ``phi`` from, it reads them
    off those (``OpSeq.renumbered``) and fires nothing.  The tables are
    read-only mappings over dicts that
    nothing else holds: tuples would read faster, but built and dropped once
    per rewrite step they fill the interpreter's tuple free lists and raise
    peak memory.  It has no ``fire_at`` or ``splice``, its ops are named
    tuples and its fields cannot be set, so one graph can be shared by every
    reader of ``phi``.
    """

    __slots__ = (
        "in_tokens", "ops", "labels", "producer", "consumer", "word", "layer", "column",
        "by_family",
    )

    def __init__(self, phi: Diagram, placed: Optional[OpSeq] = None):
        seq = OpSeq.of(phi) if placed is None else placed.renumbered(phi)
        consumer = dict.fromkeys(seq.labels)
        consumer.update(seq.consumer)
        layer, column, by_family = {}, {}, {}
        for i, (li, col, g) in enumerate(phi.gates()):
            layer[i], column[i] = li, col
            by_family.setdefault(g.family, []).append(i)
        for name, value in (
            ("in_tokens", seq.in_tokens),
            ("ops", tuple(seq.ops)),
            ("labels", MappingProxyType(seq.labels)),
            ("producer", MappingProxyType(seq.producer)),
            ("consumer", MappingProxyType(consumer)),
            ("word", tuple(seq.word)),
            ("layer", MappingProxyType(layer)),
            ("column", MappingProxyType(column)),
            ("by_family", MappingProxyType({f: tuple(ix) for f, ix in by_family.items()})),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):  # read-only
        raise AttributeError("OpGraph is read-only")

    chase = OpSeq.chase


def swap_adjacent(ops: list[Op], i: int) -> Optional[tuple[Op, Op]]:
    """If ops[i] and ops[i+1] are independent, return them swapped.

    Returns the replacement (ops[i]', ops[i+1]') with positions adjusted, or
    None when the two firings do not commute.
    """
    a, b = ops[i], ops[i + 1]
    ia, oa = len(a.in_tokens), len(a.out_tokens)
    ib = len(b.in_tokens)
    if set(b.in_tokens) & set(a.out_tokens):
        return None
    if ib == 0:
        # b is 0-ary: its gap must exist before a fires.
        if a.pos < b.pos < a.pos + oa:
            return None
        new_bpos = b.pos if b.pos <= a.pos else b.pos - oa + ia
    else:
        if b.pos + ib <= a.pos:
            new_bpos = b.pos
        elif b.pos >= a.pos + oa:
            new_bpos = b.pos - oa + ia
        else:
            return None
    if ib == 0 and b.pos <= a.pos:
        new_apos = a.pos + len(b.out_tokens)
    elif ib > 0 and b.pos + ib <= a.pos:
        new_apos = a.pos - ib + len(b.out_tokens)
    else:
        new_apos = a.pos
    return (Op(b.gate, new_bpos, b.in_tokens, b.out_tokens), Op(a.gate, new_apos, a.in_tokens, a.out_tokens))
