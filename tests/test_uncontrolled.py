"""The uncontrolled proof-net system: slides, involutions, cut rules."""
import pytest

from proofdiag.formula import BOT, Par, Tensor, atom, negate
from proofdiag.diagram import (
    AxGate,
    BotGate,
    CutGate,
    OneGate,
    ParGate,
    TensorGate,
    TwistGate,
    build,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    parallel,
    single,
)
from proofdiag.matching import instantiate
from proofdiag.perm import Permutation
from proofdiag.polygraph import apply_once, normalize, polygraph
from proofdiag.sequent import ax, bot, cut, exchange, one, par, tensor
from proofdiag.translate import represent

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))
MLLU = polygraph("MLLu_Cut")


def test_rule_inventory():
    names = {r.name for r in MLLU.rules}
    assert {
        "twist-involution",
        "yang-baxter",
        "ax-slide-right",
        "ax-slide-left",
        "cut-slide-left",
        "cut-slide-right",
        "tensor-slide-right",
        "tensor-slide-left",
        "par-slide-right",
        "par-slide-left",
        "ax-involution",
        "cut-involution",
        "bot-slide-right",
        "bot-slide-left",
        "one-slide-right",
        "one-slide-left",
        "ax-cut-snake",
        "ax-cut-ladder-left",
        "ax-cut-ladder-right",
        "ax-cut-snake-sigma",
        "cut-par-tensor",
        "cut-tensor-par",
        "cut-bot-one",
        "cut-one-bot",
    } <= names


def test_axiom_slides_across_a_wire():
    # an axiom introduced left of a wire and twisted across equals the
    # axiom introduced on the right
    phi = canon(
        build(
            (b,),
            (AxGate(a, False), b),
            (a, TwistGate(negate(a), b)),
            (TwistGate(a, b), negate(a)),
        )
    )
    nf, trace = normalize(MLLU, phi)
    assert [r for r, _ in trace.steps] == ["ax-slide-right"]
    assert nf == canon(build((b,), (b, AxGate(a, False))))


def test_uncontrolled_ax_cut_snake():
    rule = MLLU.rule("ax-cut-snake")
    src = instantiate(rule.pair()[0], {"A": a})
    nf, trace = normalize(MLLU, canon(src))
    assert nf == identity((a,))


def test_uncontrolled_unit_cut_to_empty():
    phi = canon(
        compose_seq(
            parallel(single(BotGate()), single(OneGate(False))),
            single(CutGate(BOT, False)),
        )
    )
    nf, trace = normalize(MLLU, phi)
    assert nf == identity(())
    assert [r for r, _ in trace.steps] == ["cut-bot-one"]


def test_uncontrolled_tensor_par_cut_reduces_weight():
    from proofdiag.interp import cut_weight

    f = Tensor(a, b)
    phi = canon(
        compose_seq(
            parallel(
                single(TensorGate(a, b, False)), single(ParGate(negate(b), negate(a)))
            ),
            single(CutGate(f, False)),
        )
    )
    w0 = cut_weight(phi)
    nf, trace = normalize(MLLU, phi)
    assert cut_weight(nf) < w0
    assert "cut-tensor-par" in [r for r, _ in trace.steps]


def test_uncontrolled_representation_normalizes_cut_free():
    d = cut(par(ax(a)), ax(Tensor(a, negate(a))))
    phi = represent(d, "uncontrolled")
    nf, _ = normalize(MLLU, phi)
    assert gate_count(nf, {"cut"}) == 0
    assert nf.output == (Par(a, negate(a)),)


def test_sigma_snake_rule_instantiates_and_fires():
    rule = MLLU.rule("ax-cut-snake-sigma")
    src, tgt = rule.pair(2, Permutation((2, 1)))
    subst = {"A": a, "W0": b, "W1": negate(b)}
    s = instantiate(src, subst)
    t = instantiate(tgt, subst)
    assert s.input == t.input and s.output == t.output
    nf, trace = normalize(MLLU, canon(s))
    assert gate_count(nf, {"cut", "ax"}) == 0
    assert nf == normalize(MLLU, canon(t))[0]
