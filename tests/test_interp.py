"""Termination certificates and the cut weight."""
import itertools
import random

import pytest

from proofdiag.formula import Tensor, atom, negate
from proofdiag.diagram import (
    CutGate,
    Diagram,
    TwistGate,
    compose_seq,
    identity,
    interchange_canonical_form as canon,
    single,
)
from proofdiag.interp import (
    MLL_INTERPRETATION,
    MissingInterpretation,
    S_INTERPRETATION,
    check_decrease,
    cut_weight,
    interpret,
    schema_decreases,
)
from proofdiag.perm import STRAND, Permutation, canonical_perm_diagram, diagram_to_perm
from proofdiag.polygraph import normalize, polygraph

a, b = atom("a"), atom("b")


def grid(n, m=3):
    return itertools.product(range(m + 1), repeat=n)


def test_pinned_inequality_twist_twist():
    # the double twist dominates the identity: (2x+y, x+y) > (x, y)
    strict = False
    for x, y in grid(2):
        assert 2 * x + y >= x and x + y >= y
        strict = strict or (2 * x + y, x + y) != (x, y)
    assert strict
    d = compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a)))
    ok, msg = schema_decreases(d, identity((a, b)), S_INTERPRETATION)
    assert ok, msg


def test_pinned_inequality_bot_crossing():
    # (x+2, 1) > (x, 1)
    for (x,) in grid(1):
        assert x + 2 >= x and 1 >= 1
    assert (0 + 2, 1) != (0, 1)
    p = polygraph("MLL_ctrl")
    r = p.rule("bot-slide-right")
    from proofdiag.matching import instantiate

    src, tgt = r.pair()
    ok, msg = schema_decreases(
        instantiate(src, {"A": a}), instantiate(tgt, {"A": a}), MLL_INTERPRETATION
    )
    assert ok, msg


def test_yang_baxter_decreases():
    S = polygraph("S")
    r = S.rule("yang-baxter")
    from proofdiag.matching import instantiate

    sub = {"A": STRAND, "B": STRAND, "C": STRAND}
    src, tgt = r.pair()
    ok, msg = schema_decreases(instantiate(src, sub), instantiate(tgt, sub), S_INTERPRETATION)
    assert ok, msg


def test_every_mll_ctrl_rule_decreases_on_grid():
    p = polygraph("MLL_ctrl")
    from proofdiag.matching import instantiate

    subst = {"A": a, "B": b, "C": negate(a)}
    for rule in p.rules:
        src, tgt = (instantiate(s, subst) for s in rule.pair())
        ok, msg = schema_decreases(src, tgt, MLL_INTERPRETATION)
        assert ok, (rule.name, msg)


def test_check_decrease_along_s_trace():
    S = polygraph("S")
    rng = random.Random(9)
    word = (STRAND,) * 4
    d = identity(word)
    for _ in range(8):
        ppos = rng.randint(0, 2)
        layer = list(d.output)
        layer[ppos : ppos + 2] = [TwistGate(d.output[ppos], d.output[ppos + 1])]
        d = compose_seq(d, Diagram(d.output, (tuple(layer),)))
    nf, trace = normalize(S, d)
    report = check_decrease(S, S_INTERPRETATION, trace)
    assert report.ok
    assert all(s.status == "strict" for s in report.steps)


def test_missing_interpretation():
    from proofdiag.diagram import BigGate

    with pytest.raises(MissingInterpretation):
        S_INTERPRETATION(BigGate((), ()))


def test_interpret_runs_whole_diagrams():
    d = canonical_perm_diagram(Permutation((2, 3, 1)))
    out = interpret(d, S_INTERPRETATION, (1, 2, 3))
    assert len(out) == 3


def test_cut_weight():
    from proofdiag.diagram import parallel

    assert cut_weight(identity((a,))) == 0
    assert cut_weight(single(CutGate(a, True))) == 1
    # one cut on a*b weighs 3; after splitting into two atomic cuts: 2
    assert cut_weight(single(CutGate(Tensor(a, b), True))) == 3
    two_atomic = parallel(single(CutGate(a, True)), single(CutGate(b, True)))
    assert cut_weight(two_atomic) == 2
