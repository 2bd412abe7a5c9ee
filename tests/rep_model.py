"""The recursive representation, kept as the differential model.

This is the ``_rep`` that ``proofdiag.translate`` used before the one-pass
loop, unchanged: one recursion per rule, and per rule a ``compose_seq`` or
``compose_par`` that re-validates every layer above it.  It is quadratic in
the depth and recurses once per rule, so use it on small derivations only.
"""
from __future__ import annotations

from proofdiag.diagram import (
    AxGate,
    BotGate,
    CutGate,
    Diagram,
    DiagramError,
    OneGate,
    ParGate,
    TensorGate,
    L,
    R,
    compose_par,
    compose_seq,
    identity,
    parallel,
    single,
)
from proofdiag.perm import canonical_perm_diagram
from proofdiag.sequent import AxR, BotR, CutR, Derivation, ExchangeR, OneR, ParR, TensorR


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
            g = CutGate(d.premises[0].conclusion[-1], c)
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

