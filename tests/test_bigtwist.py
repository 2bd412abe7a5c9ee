"""Crossing splits, B-gate introduction, untangle relations."""
import random

import pytest

from proofdiag.formula import BOT, atom, negate
from proofdiag.diagram import (
    AxGate,
    BigGate,
    BotGate,
    CutGate,
    OneGate,
    OpSeq,
    ParGate,
    TwistGate,
    build,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    parallel,
    single,
    L,
    R,
)
from proofdiag.matching import op_graph
from proofdiag.perm import Permutation
from proofdiag.sequent import ax, exchange, one, sim_neighbors, tensor
from proofdiag.translate import represent
from proofdiag.polygraph import normalize, polygraph
from proofdiag.bigtwist import NoCrossingSplit, apply_untangle, crossing_splits_of, find_untangle
from proofdiag.oracle import NotIrreducible, detect_crossing_splits, untangle

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))


def _pair():
    d1 = exchange(tensor(exchange(tensor(ax(a), one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    return d1, d2


def test_straight_representations_have_no_split(corpus):
    # inductive-clause representations without branch reordering: no splits
    for d in [ax(a), one(), tensor(ax(a), ax(b)), tensor(tensor(ax(a), one()), one())]:
        assert crossing_splits_of(represent(d)) == []


def test_paired_example_split_counts():
    d1, d2 = _pair()
    assert len(crossing_splits_of(represent(d1))) == 0
    assert len(crossing_splits_of(represent(d2))) == 1


def test_mirrored_split_detected_as_right_case():
    # the outer right active comes from the leftmost end of the inner right
    # branch: the mirror image of the paired example
    inner = tensor(one(), exchange(ax(a), sw))  # |- 1*a^, a
    d = tensor(one(), exchange(inner, sw))
    phi = represent(d)
    splits = crossing_splits_of(phi)
    assert len(splits) == 1
    assert splits[0].case == "right"
    # nested (non-crossing) pairings are not reported
    nested = tensor(one(), exchange(tensor(one(), ax(a)), sw))
    assert crossing_splits_of(represent(nested)) == []


def test_detect_requires_irreducible():
    phi = compose_seq(
        represent(ax(a)),
        parallel(identity((L,)), single(TwistGate(a, negate(a))), identity((R,))),
    )
    with pytest.raises(NotIrreducible):
        detect_crossing_splits(canon(phi))


def test_untangle_eliminates_the_split():
    _, d2 = _pair()
    phi = represent(d2)
    out, trace = untangle(phi)
    names = [r for r, _ in trace.steps]
    assert names[0] == "big-intro"
    assert len(crossing_splits_of(out)) == 0
    assert gate_count(out, {"big"}) == 0
    # untangling introduces no new axiom or cut gates
    assert gate_count(out, {"ax", "cut"}) == gate_count(phi, {"ax", "cut"})


def test_untangle_right_case():
    inner = tensor(one(), exchange(ax(a), sw))
    d = tensor(one(), exchange(inner, sw))
    phi = represent(d)
    out, trace = untangle(phi)
    assert len(crossing_splits_of(out)) < len(crossing_splits_of(phi))
    assert gate_count(out, {"big"}) == 0


def test_no_crossing_split_error():
    with pytest.raises(NoCrossingSplit):
        untangle(represent(tensor(ax(a), ax(b))))


def test_bgate_elimination_swaps_closed_branches():
    # phi: |- L,(a|a^),R     psi: |- L,1,R
    from proofdiag.sequent import par

    phi = represent(par(ax(a)))
    psi = represent(one())
    w1 = phi.output[1:-1]
    w2 = psi.output[1:-1]
    stacked = compose_seq(parallel(phi, psi), single(BigGate(w1, w2)))
    big = polygraph("MLL_big")
    nf, trace = normalize(big, stacked)
    assert gate_count(nf, {"big"}) == 0
    assert nf == canon(parallel(psi, phi))
    # every untangle step moved one gate below the B-gate
    assert any(r.startswith(("untangle", "big-collapse")) for r, _ in trace.steps)


def test_untangle_skips_a_gate_whose_outputs_are_not_side_by_side():
    # a bot fired between the twist's outputs enters the sheaf between them,
    # so the twist and the B-gate cannot be cut out as one block
    c = atom("c")
    seq = OpSeq((L, a, b, R, L, c, R))
    seq.fire_at(TwistGate(a, b), 1)
    seq.fire_at(BotGate(), 2)
    seq.fire_at(BigGate((b, BOT, a), (c,)), 0)
    phi = seq.to_diagram(canonical=True)
    sites = find_untangle(phi, "left")
    ops = op_graph(phi).ops
    assert [[ops[i].gate.family for i in s.g_ops] for s in sites] == [["bot", "big"]]
    for site in sites:
        apply_untangle(phi, site)


def test_bgate_reduction_keeps_open_bgate():
    # open branches: the gate above slides through, the B-gate remains
    w1, w2 = (a, negate(a)), (b,)
    par_above = parallel(
        identity((L,)), single(ParGate(a, negate(a))), identity((R, L, b, R))
    )
    bgate = single(BigGate((ParGate(a, negate(a)).outputs[0],), w2))
    stacked = compose_seq(par_above, bgate)
    big = polygraph("MLL_big")
    nf, trace = normalize(big, stacked)
    assert gate_count(nf, {"big"}) == 1
    names = [r for r, _ in trace.steps]
    assert "untangle-left" in names
    # the par gate now sits below the B-gate
    (bg_layer,) = [li for li, _, g in nf.gates() if isinstance(g, BigGate)]
    (pg_layer,) = [li for li, _, g in nf.gates() if isinstance(g, ParGate)]
    assert pg_layer > bg_layer


def test_big_annihilate_rule():
    big = polygraph("MLL_big")
    phi = canon(single(BigGate((), ())))
    nf, trace = normalize(big, phi)
    assert nf == identity((L, R, L, R))
    assert [r for r, _ in trace.steps] == ["big-annihilate"]


def test_double_crossing_needs_two_untangle_sequences():
    # nesting a crossed pair inside another crossing: resolving the outer
    # split leaves a second one, resolved by a second introduction, and the
    # result is split- and B-free (the parallel-splitting-gate situation)
    e1 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    e2 = tensor(exchange(tensor(e1, one()), sw), one())
    phi = represent(e2)
    big = polygraph("MLL_big")
    nf, trace = normalize(big, phi)
    names = [r for r, _ in trace.steps]
    assert names.count("big-intro") == 2
    assert len(crossing_splits_of(nf)) == 0
    assert gate_count(nf, {"big"}) == 0


def test_alternation_bound_on_cut_elimination(cut_corpus):
    # a full semantics normalization performs at most
    # (initial B-gates + initial crossing splits) untangle phases
    from proofdiag.oracle import eliminate_cuts

    for d in cut_corpus[:8]:
        phi = represent(d)
        ctrl_nf, _ = normalize(polygraph("MLL_ctrl"), phi)
        bound = gate_count(ctrl_nf, {"big"}) + len(crossing_splits_of(ctrl_nf))
        _, trace = eliminate_cuts(phi)
        intros = sum(1 for r, _ in trace.steps if r == "big-intro")
        assert intros <= bound


def test_untangle_strictly_decreases_split_count(corpus):
    rng = random.Random(6)
    produced = 0
    for d in corpus:
        variants = [d]
        for _ in range(2):
            ns = sim_neighbors(variants[-1])
            if not ns:
                break
            variants.append(rng.choice(ns))
        for v in variants:
            phi, _ = normalize(polygraph("MLL_ctrl"), represent(v))
            n = len(crossing_splits_of(phi))
            if n == 0:
                continue
            try:
                out, _ = untangle(phi)
            except NoCrossingSplit:
                continue
            produced += 1
            out_n, _ = normalize(polygraph("MLL_ctrl"), out)
            assert len(crossing_splits_of(out_n)) < n
            if produced >= 4:
                return
    assert produced >= 1
