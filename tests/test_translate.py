"""Representation, sequentializability, sequentialization, proof structures."""
import random

import pytest

from conftest import random_cutfree, random_with_cut
from rep_model import _rep as model_rep
from proofdiag.formula import BOT, ONE, Par, Tensor, atom, negate
from proofdiag.diagram import (
    AxGate,
    OneGate,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    single,
    EMPTY,
    L,
    R,
)
from proofdiag.perm import Permutation
from proofdiag.sequent import (
    ax,
    bot,
    check_derivation,
    cut,
    enumerate_derivations,
    exchange,
    one,
    par,
    rule_count,
    sim_neighbors,
    tensor,
)
from proofdiag.translate import (
    ComparisonCounter,
    MalformedBranch,
    NotSequentializable,
    boundary_sequent,
    is_sequentializable,
    represent,
    sequentialize,
    to_proof_structure,
)

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))


def test_represent_base_cases():
    assert represent(ax(a)) == single(AxGate(a, True))
    assert represent(one()) == single(OneGate(True))


def test_represent_tensor_boundary():
    d = tensor(ax(a), ax(b))
    phi = represent(d)
    assert phi.input == ()
    assert phi.output == (L, a, Tensor(negate(a), b), negate(b), R)


def test_represent_preserves_rule_count(corpus):
    for d in corpus:
        phi = represent(d)
        fams = {"ax", "one", "bot", "par", "tensor", "cut"}
        assert gate_count(phi, fams) == rule_count(d, include_exchange=False)


@pytest.mark.parametrize("sig", ["controlled", "uncontrolled"])
def test_represent_matches_the_recursive_model(corpus, sig):
    # the enumerations hold derivations where a right premise's axiom meets a
    # left premise's cut at one wire, so firing order matters there
    rng = random.Random(19)
    seeded = [
        random_with_cut(rng, rng.randint(2, 12)) if k % 2 else random_cutfree(rng, rng.randint(1, 12))
        for k in range(400)
    ]
    enumerated = [d for goal in ((Par(a, negate(a)),), (BOT, ONE)) for d in enumerate_derivations(goal, 6)]
    for d in corpus + seeded + enumerated:
        assert represent(d, sig) == canon(model_rep(d, sig == "controlled")), d


def test_is_sequentializable_examples():
    assert is_sequentializable(represent(ax(a)))
    assert not is_sequentializable(EMPTY)
    assert not is_sequentializable(identity((a,)))
    # output must be exactly L, Gamma, R with Gamma control-free
    assert not is_sequentializable(identity((L, a)))
    assert not is_sequentializable(identity((L, a, R, L, b, R)))
    # and the input word must be empty
    assert not is_sequentializable(identity((L, a, R)))


def test_linear_comparisons_independent_of_gates():
    d = represent(tensor(ax(a), ax(b)))
    c1 = ComparisonCounter()
    is_sequentializable(d, c1)
    big = represent(
        tensor(ax(a), exchange(exchange(ax(b), sw), sw))
    )  # fused exchanges vanish; add twists manually instead
    from proofdiag.diagram import TwistGate, compose_seq, parallel

    noisy = d
    for _ in range(10):
        word = noisy.output
        tw = parallel(
            identity(word[:1]),
            single(TwistGate(word[1], word[2])),
            identity(word[3:]),
        )
        tw2 = parallel(
            identity(word[:1]),
            single(TwistGate(word[2], word[1])),
            identity(word[3:]),
        )
        noisy = compose_seq(compose_seq(noisy, tw), tw2)
    c2 = ComparisonCounter()
    is_sequentializable(noisy, c2)
    assert gate_count(noisy) > gate_count(d)
    assert c1.n == c2.n  # comparisons depend on the boundary only


def test_sequentialize_round_trips_simple():
    for d in [ax(a), one(), par(ax(a)), tensor(ax(a), ax(b)), cut(ax(a), ax(a))]:
        assert sequentialize(represent(d)) == d


def test_sequentialize_rejects_non_proofs():
    with pytest.raises(NotSequentializable):
        sequentialize(identity((a,)))
    with pytest.raises(NotSequentializable):
        sequentialize(EMPTY)


def _sim_connected(d1, d2, bound=10):
    if d1 == d2:
        return True
    seen1, seen2 = {d1}, {d2}
    f1, f2 = [d1], [d2]
    for _ in range(bound):
        f1 = [n for d in f1 for n in sim_neighbors(d) if n not in seen1]
        for n in f1:
            if n in seen2:
                return True
        seen1.update(f1)
        if not f1:
            break
        f1, f2 = f2, f1
        seen1, seen2 = seen2, seen1
    return False


def test_round_trip_up_to_sim_on_sample(corpus):
    rng = random.Random(4)
    for d in rng.sample(corpus, 10):
        rt = sequentialize(represent(d))
        assert check_derivation(rt) == check_derivation(d)
        assert _sim_connected(d, rt), (d, rt)


def test_proof_structure_examples():
    ps = to_proof_structure(represent(ax(a), "uncontrolled"))
    assert len(ps.axiom_wires()) == 1
    assert ps.conclusions == [a, negate(a)]
    assert ps.cells == []

    ps2 = to_proof_structure(represent(tensor(ax(a), ax(b)), "uncontrolled"))
    assert len(ps2.cells) == 1 and ps2.cells[0][1] == "tensor"
    assert len(ps2.axiom_wires()) == 2
    assert len(ps2.conclusions) == 3

    from proofdiag.diagram import TwistGate, build

    tw = canon(build((a, b), (TwistGate(a, b),)))
    ps3 = to_proof_structure(tw)
    assert ps3.cells == [] and ps3.conclusions == [b, a]
    assert ps3.axiom_wires() == [] and ps3.cut_wires() == []


def test_proof_structure_graph_text_round_trip_shape():
    ps = to_proof_structure(represent(tensor(ax(a), ax(b)), "uncontrolled"))
    text = ps.graph_text()
    assert text.startswith("proofstructure v1")
    assert "edge ax" in text and "node" in text


def test_controlled_diagram_rejected_by_proof_structure():
    with pytest.raises(Exception):
        to_proof_structure(represent(ax(a)))
