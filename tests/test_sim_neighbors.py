"""``sim_neighbors`` against its differential model.

``sim_model.model_sim_neighbors`` is the hand-written case-per-pair-of-rules
generator.  On every input below ``sequent.sim_neighbors`` must return the
model's list, order included: the derivation digest and the oracle
workload's seeded pairs depend on the order.  The model raises
``InvalidRule`` on a cut whose right premise is an exchange that fixes the
cut formula; there the neighbours must keep the conclusion and include the
pull of that exchange, which must have the input among its own neighbours
unless an exchange below the cut absorbs the pull.  Other neighbours need
not: the model is not symmetric either (see the gap kept in
``sequent._swap``).
"""
import random

import pytest

from conftest import A, B, random_cutfree, random_with_cut
from sim_model import _rebuild, model_sim_neighbors
from proofdiag.diagramio import parse_derivation
from proofdiag.formula import BOT, ONE, Par, Tensor, negate
from proofdiag.perm import Permutation
from proofdiag.sequent import (
    CutR,
    Derivation,
    ExchangeR,
    InvalidRule,
    ax,
    bot,
    cut,
    derivation_str,
    enumerate_derivations,
    exchange,
    par,
    replace_subderivation,
    sim_neighbors,
    subderivations,
    tensor,
)


def _cut_right_pulls(d):
    """Each cut over an exchange that fixes the cut formula, with that
    exchange pulled below the cut, and whether an exchange below the cut
    absorbs it."""
    nodes = dict(subderivations(d))
    for path, node in nodes.items():
        if not isinstance(node.rule, CutR):
            continue
        left, right = node.premises
        s = right.rule.perm if isinstance(right.rule, ExchangeR) else None
        if s is not None and s(1) == 1:
            k = len(left.conclusion) - 1
            u = Permutation(tuple(range(1, k + 1)) + tuple(k + s(i) - 1 for i in range(2, len(s) + 1)))
            pulled = _rebuild(replace_subderivation(d, path, exchange(cut(left, right.premises[0]), u)))
            yield pulled, bool(path) and isinstance(nodes[path[:-1]].rule, ExchangeR)


def _agree(d):
    got = sim_neighbors(d)
    try:
        want = model_sim_neighbors(d)
    except InvalidRule:
        pulls = list(_cut_right_pulls(d))
        assert pulls, derivation_str(d)
        assert all(n.conclusion == d.conclusion for n in got)
        for n, absorbed in pulls:
            assert n in got, derivation_str(d)
            assert absorbed or d in sim_neighbors(n), (derivation_str(d), derivation_str(n))
        return "crash"
    assert [derivation_str(n) for n in got] == [derivation_str(n) for n in want]
    assert got == want
    return "agree"


def _tally(ds):
    out = {"agree": 0, "crash": 0}
    for d in ds:
        out[_agree(d)] += 1
    return out


def test_sim_neighbors_match_the_model_on_the_corpus(corpus):
    assert _tally(corpus)["agree"] == len(corpus)


def test_sim_neighbors_match_the_model_on_unfused_exchanges(corpus):
    # an exchange over an exchange, as replace_subderivation (and so cut_step)
    # can leave it and the constructors would fuse it
    unfused = []
    for d in corpus:
        n = len(d.conclusion)
        if n >= 2:
            sw = Permutation.transposition(n, 1)
            unfused.append(bot(Derivation(ExchangeR(sw), (Derivation(ExchangeR(sw), (d,)),))))
    assert _tally(unfused)["agree"] == len(unfused)


@pytest.mark.parametrize("make", [random_cutfree, random_with_cut])
def test_sim_neighbors_match_the_model_on_seeded_derivations(make):
    rng = random.Random(911)
    tally = _tally(make(rng, rng.randint(1, 8)) for _ in range(400))
    assert tally["agree"] >= 300


@pytest.mark.parametrize(
    "goal",
    [
        (A, negate(A)),
        (Par(A, negate(A)),),
        (ONE, BOT),
        (BOT, ONE, BOT),
        (A, BOT, negate(A)),
        (Par(BOT, ONE),),
        (Tensor(A, B), negate(B), negate(A)),
    ],
)
def test_sim_neighbors_match_the_model_on_enumerated_derivations(goal):
    # up to 6 rules puts cuts and exchanges at inner nodes
    ds = enumerate_derivations(goal, 6)
    assert ds
    _tally(ds)


def _exchange_over_cut_premise(rng):
    """A random derivation with an exchange over an inner cut's premise."""
    d1 = random_cutfree(rng, rng.randint(1, 5))
    f = d1.conclusion[-1]
    d2 = tensor(ax(negate(f)), random_cutfree(rng, rng.randint(1, 3)))
    n2 = len(d2.conclusion)
    if n2 >= 3:
        rest = list(range(2, n2 + 1))
        rng.shuffle(rest)
        d2 = exchange(d2, Permutation((1, *rest)))
    if rng.random() < 0.5 and len(d1.conclusion) >= 3:
        head = list(range(1, len(d1.conclusion)))
        rng.shuffle(head)
        d1 = exchange(d1, Permutation((*head, len(d1.conclusion))))
    d = cut(d1, d2)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            d = bot(d)
        elif roll < 0.6 and len(d.conclusion) >= 2:
            d = par(d, rng.randint(1, len(d.conclusion) - 1))
        else:
            d = tensor(d, ax(B)) if roll < 0.8 else tensor(ax(negate(B)), d)
    return d


def test_sim_neighbors_on_exchanges_over_inner_cut_premises():
    rng = random.Random(4242)
    tally = _tally(_exchange_over_cut_premise(rng) for _ in range(300))
    # the model raises on most of these; the rest still agree with it
    assert tally["crash"] >= 100 and tally["agree"] >= 20


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="no move leads back: a pushed exchange fuses with another, or the par "
    "gap kept in sequent._swap drops the move; ROADMAP item 7's inverse moves mend both",
)
@pytest.mark.parametrize(
    "d, n",
    [
        # the exchanges pushed below the bot cancel each other
        ("(tensor (ax a) (ex (2,1,3) (bot (ex (2,1) (bot (one))))))", "(tensor (ax a) (bot (bot (one))))"),
        # the par gap: a par whose principal ends a tensor's left premise
        ("(par 1 (tensor (bot (bot (one))) (ax b)))", "(tensor (par 1 (bot (bot (one)))) (ax b))"),
    ],
)
def test_sim_neighbors_lead_back_on_known_asymmetric_pairs(d, n):
    d, n = parse_derivation(d), parse_derivation(n)
    assert n in sim_neighbors(d)
    assert d in sim_neighbors(n)
