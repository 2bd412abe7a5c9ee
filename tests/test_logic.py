"""Sequent calculus: checking, standard-equivalence neighbors, cut steps."""
import random

import pytest

from proofdiag.formula import Bot, One, Par, Tensor, atom, negate
from proofdiag.perm import Permutation
from proofdiag.sequent import (
    Derivation,
    ExchangeR,
    InvalidRule,
    NotApplicable,
    ParR,
    TensorR,
    ax,
    bot,
    check_derivation,
    cut,
    cut_step,
    derivation_str,
    enumerate_derivations,
    exchange,
    find_cut_paths,
    one,
    par,
    provable,
    replace_subderivation,
    rule_count,
    sim_neighbors,
    subderivations,
    tensor,
    _rebuild,
)

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))


def test_check_examples():
    assert check_derivation(ax(a)) == (a, negate(a))
    assert check_derivation(one()) == (One(),)
    d = tensor(ax(a), ax(b))
    assert check_derivation(d) == (a, Tensor(negate(a), b), negate(b))


def test_invalid_rule_reports_path():
    # a rule is checked when its node is built, so a bad node cannot exist
    with pytest.raises(InvalidRule) as e:
        Derivation(ParR(2), (ax(a),))
    assert "position" in str(e.value)
    with pytest.raises(InvalidRule):
        Derivation(TensorR(), (ax(a),))


def test_tensor_wrong_active_is_invalid():
    # build a cut whose left premise does not end with the cut formula
    with pytest.raises(InvalidRule):
        cut(ax(a), ax(b))


@pytest.mark.parametrize("n", [600, 5000])
def test_walks_over_stacked_bots_do_not_recurse(n):
    # one rule per bot: counting, listing, replacing and rebuilding must not
    # recurse per rule (the dataclass hash and == still do, so none is used)
    d = one()
    for _ in range(n):
        d = bot(d)
    assert rule_count(d) == rule_count(d, include_exchange=False) == n + 1
    assert [p for p, _ in subderivations(d)] == [(0,) * k for k in range(n + 1)]
    new = replace_subderivation(d, (0,) * n, Derivation(ExchangeR(sw), (exchange(ax(a), sw),)))
    assert new.conclusion == (a, negate(a)) + (Bot(),) * n
    assert rule_count(new) == n + 3 and rule_count(new, include_exchange=False) == n + 1
    # rebuilding fuses the two exchanges into the identity, which goes
    assert derivation_str(_rebuild(new)) == "(bot " * n + "(ax a)" + ")" * n


def test_subderivations_walk_in_preorder():
    d = tensor(bot(one()), par(tensor(ax(a), ax(b))))
    assert [(p, derivation_str(x).split()[0]) for p, x in subderivations(d)] == [
        ((), "(tensor"), ((0,), "(bot"), ((0, 0), "(one)"), ((1,), "(par"),
        ((1, 0), "(tensor"), ((1, 0, 0), "(ax"), ((1, 0, 1), "(ax"),
    ]


def test_sim_neighbors_single_rule_trivial():
    assert sim_neighbors(one()) == []
    # an axiom flips orientation through an exchange: bookkeeping move
    ns = sim_neighbors(ax(a))
    assert ns == [exchange(ax(negate(a)), sw)]


def test_sim_neighbors_stacked_bots_and_pars():
    d = par(bot(par(ax(a))), 1)
    for n in sim_neighbors(d):
        assert check_derivation(n) == d.conclusion


def test_sim_neighbors_stacked_bots_swap():
    from proofdiag.perm import Permutation

    d = bot(bot(one()))
    swapped = exchange(d, Permutation((1, 3, 2)))
    assert swapped in sim_neighbors(d)
    assert d in sim_neighbors(swapped)


def test_sim_neighbors_independent_unaries_swap():
    base = tensor(ax(a), ax(b))  # |- a, a^*b, b^
    d = par(bot(base), 1)  # bot then par at position 1
    swapped = bot(par(base, 1))
    assert swapped in sim_neighbors(d)
    assert d in sim_neighbors(swapped)


def test_sim_neighbors_symmetric_on_corpus(corpus):
    rng = random.Random(5)
    sample = rng.sample(corpus, 20)
    checked = 0
    for d in sample:
        for n in sim_neighbors(d):
            assert check_derivation(n) == check_derivation(d)
            assert d in sim_neighbors(n), (derivation_str(d), derivation_str(n))
            checked += 1
    assert checked >= 30


def test_sim_neighbors_pull_an_exchange_out_of_a_cut_right_premise():
    s = Permutation((1, 3, 2))
    d = cut(ax(a), exchange(tensor(ax(a), ax(b)), s))
    ns = sim_neighbors(d)
    assert exchange(cut(ax(a), tensor(ax(a), ax(b))), s) in ns
    for n in ns:
        assert n.conclusion == d.conclusion
        assert d in sim_neighbors(n), derivation_str(n)


def test_paired_tensor_example_are_neighbors():
    x = ax(a)
    d1 = exchange(tensor(exchange(tensor(x, one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(x, sw), one()), sw), one())
    assert d2 in sim_neighbors(d1)
    assert d1 in sim_neighbors(d2)


def test_cut_step_axiom_cases():
    d0 = par(ax(a))
    f = d0.conclusion[-1]
    d = cut(d0, ax(negate(f)))
    assert cut_step(d, ()) == d0
    d_left = cut(ax(a), ax(a))
    out = cut_step(d_left, ())
    assert check_derivation(out) == d_left.conclusion


def test_cut_step_tensor_par():
    lt = tensor(exchange(ax(a), sw), ax(negate(a)))
    lt2 = exchange(lt, Permutation((1, 3, 2)))
    rt = par(ax(a), 1)
    d = cut(lt2, rt)
    # the exchange keeps the principal at the edge, so the step applies
    stepped = cut_step(d, ())
    assert check_derivation(stepped) == d.conclusion
    assert len(find_cut_paths(stepped)) == 2
    # a genuinely commutative cut is refused: the active b^ is not principal
    # on the left, and the right premise's bot rule does not match it either
    comm = cut(tensor(ax(a), ax(b)), bot(ax(b)))
    with pytest.raises(NotApplicable):
        cut_step(comm, ())
    left = tensor(exchange(ax(a), sw), one())  # |- a^, a*1
    w = exchange(bot(ax(negate(a))), Permutation((2, 3, 1)))  # |- _, a^, a
    right = par(w, 1)  # |- (_|a^), a
    d2 = cut(left, right)
    concl = check_derivation(d2)
    out = cut_step(d2, ())
    assert check_derivation(out) == concl
    assert len(find_cut_paths(out)) == 2  # one big cut became two smaller


def test_cut_step_units():
    d = cut(bot(one()), one())
    assert cut_step(d, ()) == one()
    d2 = cut(one(), exchange(bot(one()), sw))
    out = cut_step(d2, ())
    assert check_derivation(out) == d2.conclusion


def test_cut_step_then_sim_reaches_cutfree(cut_corpus):
    # desk-scale: drive cuts with steps, using ~-moves when stuck
    import itertools

    for d in cut_corpus[:6]:
        frontier = [d]
        seen = {d}
        done = None
        for _ in range(200):
            if not frontier:
                break
            cur = frontier.pop(0)
            paths = find_cut_paths(cur)
            if not paths:
                done = cur
                break
            progressed = False
            for p in paths:
                try:
                    nxt = cut_step(cur, p)
                except NotApplicable:
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                progressed = True
            if not progressed:
                for n in sim_neighbors(cur)[:8]:
                    if n not in seen:
                        seen.add(n)
                        frontier.append(n)
        assert done is not None, derivation_str(d)
        assert not find_cut_paths(done)


def test_enumerate_small():
    found = enumerate_derivations((a, negate(a)), 1)
    assert found == [ax(a)]
    seq = (One(), Bot())
    found3 = enumerate_derivations(seq, 3)
    assert bot(one()) in found3
    assert any(
        rule_count(d) == 3 for d in found3
    )  # exchange variants appear at budget 3
    assert all(check_derivation(d) == seq for d in found3)
    assert enumerate_derivations((a,), 6) == []


def test_provable_basics():
    assert provable((a, negate(a)))
    assert provable((One(),))
    assert provable((One(), Bot()))
    assert not provable((a,))
    assert not provable((a, a))
    assert provable((Par(a, negate(a)),))
    assert provable((a, Tensor(negate(a), b), negate(b)))
    assert not provable((Par(a, a), negate(a)))
