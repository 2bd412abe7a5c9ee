"""Cut elimination under the semantics polygraph and the equivalence oracle."""
import random

import pytest

from proofdiag.formula import Tensor, atom, negate
from proofdiag.diagram import DiagramError, gate_count, interchange_canonical_form as canon
from proofdiag.diagramio import parse_derivation
from proofdiag.interp import cut_weight
from proofdiag.matching import MatchError
from proofdiag.perm import Permutation
from proofdiag.polygraph import polygraph
from proofdiag.sequent import (
    NotApplicable,
    ax,
    bot,
    check_derivation,
    cut,
    cut_step,
    exchange,
    find_cut_paths,
    one,
    par,
    tensor,
)
from proofdiag.oracle import (
    ConclusionMismatch,
    denotation,
    diagrams_equivalent,
    eliminate_cuts,
    equivalent,
)
from proofdiag.translate import boundary_sequent, represent, sequentialize

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))


def test_eliminate_cuts_cutfree_input_unchanged_up_to_big(corpus):
    d = par(ax(a))
    phi = represent(d)
    nf, trace = eliminate_cuts(phi)
    assert nf == phi and trace.steps == []


def test_eliminate_cuts_requires_sequentializable():
    from proofdiag.diagram import identity

    with pytest.raises(Exception):
        eliminate_cuts(identity((a,)))


def test_eliminate_axiom_cut_matches_plain_normalization():
    d0 = par(ax(a))
    d = cut(d0, ax(negate(d0.conclusion[-1])))
    nf, _ = eliminate_cuts(represent(d))
    nf0, _ = eliminate_cuts(represent(d0))
    assert nf == nf0


def test_eliminate_cuts_bubbles_a_convex_intro_block():
    d = parse_derivation(
        "(cut (par 2 (tensor (ax a) (tensor (ex (3,1,2) (tensor (ax a^) (ax a))) (ax a^)))) (ax a^))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


@pytest.mark.xfail(
    strict=True,
    raises=DiagramError,
    reason="a rule is missing: the normal form keeps big([a^,a,R,L,1],[b,b^,R,L,a,a^]), "
    "with two closed branches feeding each sheaf.  big-collapse needs one gate "
    "producing the whole sheaf, and untangle needs all of a gate's outputs strictly "
    "inside it, so no B-gate rule applies",
)
def test_eliminate_cuts_clears_a_bgate_over_two_closed_branches():
    d = parse_derivation(
        "(cut (tensor (tensor (ex (3,2,1) (bot (tensor (ax a^) (tensor (par 1 (ax a^)) (one)))))"
        " (ax b)) (ax a)) (ax a))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


def test_eliminate_cuts_finds_a_unit_free_principal_cut():
    d = parse_derivation(
        "(cut (par 1 (ex (2,3,1) (tensor (ax a^) (ax a))))"
        " (par 1 (ex (2,3,1) (tensor (ax a^) (ax a)))))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


def test_eliminate_cuts_orders_a_block_that_trial_bubbling_missed():
    # a cutelim item (seed 101) on which moving one stray op at a time, up or
    # else down, found no order for a feasible block and raised MatchError
    d = parse_derivation(
        "(cut (par 5 (tensor (ax a^) (ex (3,5,1,2,4,6) (tensor (ax a) (par 4 (bot (tensor"
        " (ex (2,4,1,3) (tensor (ex (3,2,1) (tensor (ax a) (ex (2,1) (par 1 (ex (1,3,2)"
        " (bot (ex (2,1) (ax a)))))))) (ax a))) (ax a^)))))))) (ax 1))"
    )
    phi = represent(d)
    nf, _ = eliminate_cuts(phi)
    assert gate_count(nf, {"cut", "big"}) == 0
    d2 = sequentialize(nf)
    assert not find_cut_paths(d2) and d2.conclusion == boundary_sequent(phi)


UNTANGLE_STALL = (
    "the missing B-gate rule, as above: untangle offers no site once a gate's outputs "
    "enter the sheaf with another wire between them, so Sem stalls with a B-gate left"
)


@pytest.mark.xfail(strict=True, raises=DiagramError, reason=UNTANGLE_STALL)
def test_eliminate_cuts_untangles_around_a_bot_in_a_unit_sheaf():
    d = parse_derivation(
        "(cut (tensor (ax a) (tensor (ax b) (ex (4,5,2,3,1,6) (tensor (one) (bot (tensor (bot"
        " (bot (par 1 (par 2 (tensor (bot (bot (bot (par 1 (ex (2,1) (bot (one))))))) (one))))))"
        " (ax a^))))))) (ax 1))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


@pytest.mark.xfail(strict=True, raises=DiagramError, reason=UNTANGLE_STALL)
def test_eliminate_cuts_untangles_around_a_bot_in_an_atom_sheaf():
    d = parse_derivation(
        "(cut (tensor (tensor (ax a) (tensor (ex (4,2,1,3) (bot (tensor (ax a^) (bot (par 1 (bot"
        " (par 1 (par 1 (ex (3,1,2) (tensor (ex (2,1) (par 2 (ex (1,3,2) (tensor (ax a^) (bot"
        " (par 1 (ax b))))))) (ax a))))))))))) (ax b))) (ax b)) (ax b))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


@pytest.mark.xfail(
    strict=True,
    raises=DiagramError,
    reason="not diagnosed to the end: Sem takes three bot-slide-left steps and stops "
    "with cut(1).  A tensor has merged the brackets of the one that feeds it, and its "
    "wire crosses two twists; crossing_splits_of finds no split and no cut rule "
    "matches, so either a rule or a crossing split is missing",
)
def test_eliminate_cuts_reaches_a_unit_cut_behind_two_twists():
    d = parse_derivation(
        "(cut (par 2 (ex (4,1,3,2) (bot (tensor (bot (one)) (ax a))))) (ex (2,1) (bot (one))))"
    )
    nf, _ = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0


def test_eliminate_unit_cut():
    d = cut(bot(one()), one())
    nf, trace = eliminate_cuts(represent(d))
    assert gate_count(nf, {"cut", "big"}) == 0
    assert [r for r, _ in trace.steps] == ["cut-bot-one"]


def _weights_along(trace):
    sem = polygraph("Sem")
    phi = canon(trace.initial)
    out = [(None, cut_weight(phi))]
    for rule_name, site in trace.steps:
        phi = sem.rule(rule_name).apply(phi, site)
        out.append((rule_name, cut_weight(phi)))
    assert phi == trace.final
    return out

CUT_RULES = {
    "cut-ax-left",
    "cut-ax-right",
    "cut-tensor-par",
    "cut-par-tensor",
    "cut-bot-one",
    "cut-one-bot",
    "ax-cut-snake",
}


def test_cut_weight_law_on_corpus(cut_corpus):
    for d in cut_corpus:
        phi = represent(d)
        nf, trace = eliminate_cuts(phi)
        assert gate_count(nf, {"cut", "big"}) == 0
        ws = _weights_along(trace)
        for (r1, w1), (r2, w2) in zip(ws, ws[1:]):
            if r2 in CUT_RULES:
                assert w2 < w1, (r2, w1, w2)
            else:
                assert w2 == w1, (r2, w1, w2)
        # resequentializes to a cut-free proof of the same sequent
        d2 = sequentialize(nf)
        assert not find_cut_paths(d2)
        assert d2.conclusion == boundary_sequent(phi)


def test_eliminate_cuts_commutative_and_axiom_leg_shapes():
    from proofdiag.formula import BOT, Par as ParF, Tensor as TensorF
    from proofdiag.sequent import bot as bot_, one as one_

    cases = [
        # commutative: the active is principal on neither side
        cut(tensor(ax(a), ax(b)), bot_(ax(b))),
        # composite cut formula against an axiom leg
        cut(par(ax(a)), ax(TensorF(a, negate(a)))),
        # nested cuts under a unit cut
        cut(bot_(cut(par(ax(a)), ax(TensorF(a, negate(a))))), one_()),
        # unit against an axiom leg
        cut(one_(), ax(BOT)),
    ]
    for d in cases:
        nf, _ = eliminate_cuts(represent(d))
        assert gate_count(nf, {"cut", "big"}) == 0
        assert sequentialize(nf).conclusion == d.conclusion


def test_equivalent_reflexive_and_mismatch():
    d = par(ax(a))
    assert equivalent(d, d).verdict == "yes"
    with pytest.raises(ConclusionMismatch):
        equivalent(d, one())


def test_equivalent_sim_mode_paired_example():
    d1 = exchange(tensor(exchange(tensor(ax(a), one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    cert = equivalent(d1, d2, mode="sim")
    assert cert.verdict == "yes"
    assert cert.meeting is not None


def test_equivalent_par_order_variants():
    t1 = tensor(ax(a), ax(b))
    t2 = tensor(t1, ax(atom("c")))
    dA = par(par(t2, 3), 1)
    dB = par(par(t2, 1), 2)
    assert check_derivation(dA) == check_derivation(dB)
    cert = equivalent(dA, dB, bound=4)
    assert cert.verdict == "yes"


def test_cut_step_preserves_denotation(cut_corpus):
    checked = 0
    for d in cut_corpus:
        for path in find_cut_paths(d):
            try:
                stepped = cut_step(d, path)
            except NotApplicable:
                continue
            cert = equivalent(d, stepped, mode="sem")
            assert cert.verdict == "yes", (d, path)
            checked += 1
            break
        if checked >= 3:
            break
    assert checked >= 1


def test_non_degenerate_pair_never_yes():
    core = tensor(exchange(ax(a), sw), ax(a))
    flipped = exchange(core, Permutation((3, 2, 1)))
    assert core.conclusion == flipped.conclusion
    cert = equivalent(core, flipped, bound=3, node_budget=300)
    assert cert.verdict in ("no", "unknown")


def test_congruence_wrapping_preserves_yes():
    d1 = exchange(tensor(exchange(tensor(ax(a), one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    w1, w2 = par(d1), par(d2)
    cert = equivalent(w1, w2, mode="sim")
    assert cert.verdict == "yes"


def test_equivalent_symmetric_and_monotone_in_bound():
    d1 = exchange(tensor(exchange(tensor(ax(a), one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    assert equivalent(d1, d2, mode="sim").verdict == "yes"
    assert equivalent(d2, d1, mode="sim").verdict == "yes"
    # yes at a small bound stays yes at a larger one
    assert equivalent(d1, d2, bound=2, mode="sim").verdict == "yes"
    assert equivalent(d1, d2, bound=8, mode="sim").verdict == "yes"


def test_denotation_bundle():
    d = cut(bot(one()), one())
    den = denotation(d)
    assert den.normal_form == den.trace.final
    assert gate_count(den.normal_form, {"cut"}) == 0
    assert "not confluent" in den.note
