"""The hand-written neighbour cases of the standard equivalence, kept as the
differential model.

``_local_neighbors`` is the case-per-pair-of-rules generator that
``proofdiag.sequent`` used before the moves were derived from the rule tags'
position maps, with its helpers ``_expand_after_par``, ``_contract_par_perm``
and ``_match_perm``, unchanged.  ``model_sim_neighbors`` is
``sequent.sim_neighbors`` over it.  It raises ``InvalidRule`` on a cut whose
right premise is an exchange that fixes the cut formula: the pull of that
exchange builds a permutation one position too long.
"""
from __future__ import annotations

from typing import Iterator, Optional

from proofdiag.formula import negate
from proofdiag.perm import Permutation
from proofdiag.sequent import (
    AxR,
    BotR,
    CutR,
    Derivation,
    ExchangeR,
    InvalidRule,
    ParR,
    Sequent,
    TensorR,
    ax,
    bot,
    cut,
    exchange,
    par,
    replace_subderivation,
    subderivations,
    tensor,
)


def _move_to_end(n: int, i: int) -> Permutation:
    return Permutation.move(n, i, n)


def _rebuild(d: Derivation) -> Derivation:
    return d.rule.build(tuple(map(_rebuild, d.premises)))


def _local_neighbors(d: Derivation) -> Iterator[Derivation]:
    """Root-level permutations; sim_neighbors maps these over all subtrees."""
    r = d.rule

    # --- exchange bookkeeping -------------------------------------------
    if isinstance(r, ExchangeR):
        (x,) = d.premises
        s = r.perm
        n = len(s)
        if isinstance(x.rule, BotR):
            # push the exchange below the bot when it fixes the new formula
            if s(n) == n:
                inner = Permutation(tuple(s(i) for i in range(1, n)))
                yield bot(exchange(x.premises[0], inner))
            # inverse of the stacked-bot swap
            if (
                isinstance(x.premises[0].rule, BotR)
                and s == Permutation.transposition(n, n - 1)
            ):
                yield x
        if isinstance(x.rule, ParR):
            p = x.rule.pos
            # positions of the principal in the exchanged sequent
            q = s(p)
            inner_perm = _expand_after_par(s, p)
            if inner_perm is not None:
                yield par(exchange(x.premises[0], inner_perm), q)
    if isinstance(r, BotR):
        (x,) = d.premises
        if isinstance(x.rule, ExchangeR):
            n = len(x.conclusion)
            lifted = Permutation(x.rule.perm.images + (n + 1,))
            yield exchange(bot(x.premises[0]), lifted)
    if isinstance(r, ParR):
        (x,) = d.premises
        if isinstance(x.rule, ExchangeR):
            s = x.rule.perm
            p = r.pos
            i1, i2 = s.inverse()(p), s.inverse()(p + 1)
            if abs(i1 - i2) == 1:
                q = min(i1, i2)
                y = x.premises[0]
                flip = i1 > i2
                pre = y
                if flip:
                    sw = Permutation.transposition(len(y.conclusion), q)
                    pre = exchange(y, sw)
                inner = par(pre, q)
                outer = _contract_par_perm(s, p, q)
                yield exchange(inner, outer)
    if isinstance(r, (TensorR, CutR)):
        x, y = d.premises
        mk = tensor if isinstance(r, TensorR) else cut
        if isinstance(x.rule, ExchangeR) and x.rule.perm(len(x.conclusion)) == len(x.conclusion):
            s = x.rule.perm
            node = mk(x.premises[0], y)
            k = len(x.conclusion) - 1
            outer = Permutation(
                tuple(s(i) for i in range(1, k + 1))
                + tuple(range(k + 1, len(node.conclusion) + 1))
            )
            yield exchange(node, outer)
        if isinstance(y.rule, ExchangeR) and y.rule.perm(1) == 1:
            s = y.rule.perm
            node = mk(x, y.premises[0])
            base = len(x.conclusion)
            outer = Permutation(
                tuple(range(1, base + 1))
                + tuple(base + s(i) - 1 for i in range(2, len(s) + 1))
            )
            yield exchange(node, outer)
    if isinstance(r, ExchangeR):
        (x,) = d.premises
        s = r.perm
        if isinstance(x.rule, (TensorR, CutR)):
            xl, xr = x.premises
            mk = tensor if isinstance(x.rule, TensorR) else cut
            k = len(xl.conclusion) - 1
            n = len(s)
            # push into the left context when s only permutes positions <= k
            if all(s(i) == i for i in range(k + 1, n + 1)) and k >= 2:
                inner = Permutation(tuple(s(i) for i in range(1, k + 1)) + (k + 1,))
                yield mk(exchange(xl, inner), xr)
            # push into the right context when s fixes the prefix
            width = 1 if isinstance(x.rule, TensorR) else 0
            base = k + width
            if all(s(i) == i for i in range(1, base + 1)) and n - base >= 2:
                inner = Permutation((1,) + tuple(s(base + i) - base + 1 for i in range(1, n - base + 1)))
                yield mk(xl, exchange(xr, inner))

    # --- axiom orientation (exchange bookkeeping) -------------------------
    if isinstance(r, AxR):
        yield exchange(ax(negate(r.formula)), Permutation((2, 1)))
    if isinstance(r, ExchangeR) and isinstance(d.premises[0].rule, AxR):
        if len(r.perm) == 2:
            yield ax(negate(d.premises[0].rule.formula))

    # --- unary / unary ---------------------------------------------------
    if isinstance(r, BotR):
        (x,) = d.premises
        if isinstance(x.rule, ParR):
            yield par(bot(x.premises[0]), x.rule.pos)
        if isinstance(x.rule, BotR):
            # swapping two stacked bottom rules exchanges the two occurrences
            n = len(d.conclusion)
            yield exchange(d, Permutation.transposition(n, n - 1))
    if isinstance(r, ParR):
        (x,) = d.premises
        p = r.pos
        if isinstance(x.rule, BotR) and p + 1 <= len(x.conclusion) - 1:
            yield bot(par(x.premises[0], p))
        if isinstance(x.rule, ParR):
            q = x.rule.pos
            if q > p + 1:
                yield par(par(x.premises[0], p), q - 1)
            elif q < p:
                yield par(par(x.premises[0], p + 1), q)

    # --- binary / unary --------------------------------------------------
    if isinstance(r, BotR):
        (x,) = d.premises
        if isinstance(x.rule, (TensorR, CutR)):
            l, rr = x.premises
            node = tensor(l, bot(rr)) if isinstance(x.rule, TensorR) else cut(l, bot(rr))
            yield node
    if isinstance(r, ParR):
        (x,) = d.premises
        p = r.pos
        if isinstance(x.rule, (TensorR, CutR)):
            l, rr = x.premises
            is_t = isinstance(x.rule, TensorR)
            width = 1 if is_t else 0
            nl = len(l.conclusion)
            if p + 1 < nl:  # actives entirely inside the left context
                l2 = par(l, p)
                yield tensor(l2, rr) if is_t else cut(l2, rr)
            if p > nl - 1 + width:  # actives entirely inside the right context
                q = p - (nl - 1 + width) + 1
                r2 = par(rr, q)
                yield tensor(l, r2) if is_t else cut(l, r2)
    if isinstance(r, (TensorR, CutR)):
        l, rr = d.premises
        is_t = isinstance(r, TensorR)
        mk = tensor if is_t else cut
        if isinstance(rr.rule, BotR) and len(rr.conclusion) >= 2:
            yield bot(mk(l, rr.premises[0]))
        if isinstance(rr.rule, ParR) and rr.rule.pos >= 2:
            q = rr.rule.pos
            node = mk(l, rr.premises[0])
            width = 1 if is_t else 0
            yield par(node, q + len(l.conclusion) - 1 + width - 1)
        if isinstance(l.rule, ParR) and l.rule.pos + 1 <= len(l.conclusion) - 1:
            q = l.rule.pos
            yield par(mk(l.premises[0], rr), q)

    # --- binary / binary -------------------------------------------------
    if isinstance(r, (TensorR, CutR)):
        x, y = d.premises
        mk2 = tensor if isinstance(r, TensorR) else cut
        # shape (a): inner binary in the left premise, outer active from its
        # right sub-branch
        if isinstance(x.rule, (TensorR, CutR)):
            l1, r1 = x.premises
            if len(r1.conclusion) >= 2:
                mk1 = tensor if isinstance(x.rule, TensorR) else cut
                inner = mk2(r1, y)
                yield mk1(l1, inner)
        # shape (a) inverse: inner binary in the right premise, its left
        # active from that premise's left region
        if isinstance(y.rule, (TensorR, CutR)):
            l2, r2 = y.premises
            if len(l2.conclusion) >= 2:
                mk1 = tensor if isinstance(y.rule, TensorR) else cut
                inner = mk2(x, l2)
                yield mk1(inner, r2)
        # shape (c): branch reorder through an exchange that fetched the
        # outer active from the inner left region
        if isinstance(x.rule, ExchangeR) and isinstance(x.premises[0].rule, (TensorR, CutR)):
            q = x.premises[0]
            s = x.rule.perm
            src = s.inverse()(len(x.conclusion))
            l1, r1 = q.premises
            nl1 = len(l1.conclusion)
            if src <= nl1 - 1 and len(l1.conclusion) >= 2:
                mk1 = tensor if isinstance(q.rule, TensorR) else cut
                # bring the outer active to the end of l1, do the outer rule
                # first, then redo the inner rule, then restore the order
                m = len(l1.conclusion)
                move = _move_to_end(m, src)
                l1x = exchange(l1, move)
                inner = mk2(l1x, y)
                k = len(inner.conclusion)
                inner_x = exchange(inner, _move_to_end(k, m - 1))
                node = mk1(inner_x, r1)
                if node.conclusion != d.conclusion:
                    fix = _match_perm(node.conclusion, d.conclusion)
                    if fix is not None:
                        node = exchange(node, fix)
                if node.conclusion == d.conclusion:
                    yield node


def _expand_after_par(s: Permutation, p: int) -> Optional[Permutation]:
    """Lift an exchange over a par at p to the unfused sequent."""
    n = len(s)
    q = s(p)
    images = []
    for i in range(1, n + 2):
        if i == p:
            images.append(q)
            continue
        if i == p + 1:
            images.append(q + 1)
            continue
        v = s(i) if i < p else s(i - 1)
        images.append(v if v < q else v + 1)
    try:
        return Permutation(tuple(images))
    except Exception:
        return None


def _contract_par_perm(s: Permutation, p: int, q: int) -> Permutation:
    """Exchange acting below a par pulled above the exchange.

    ``s`` acts on the unfused sequent of size n+1 with actives at premise
    positions q, q+1 landing at p, p+1; the result acts on the fused size-n
    sequent so that applying it after par-at-q reproduces par-at-p after s.
    """
    n = len(s) - 1
    images = []
    for u in range(1, n + 1):
        if u == q:
            images.append(p)
            continue
        v = u if u < q else u + 1
        w = s(v)
        images.append(w if w < p else w - 1)
    return Permutation(tuple(images))


def _match_perm(src: Sequent, dst: Sequent) -> Optional[Permutation]:
    """A permutation t with t.apply(src) == dst, if the multisets agree."""
    n = len(src)
    if n != len(dst):
        return None
    used = [False] * n
    images = [0] * n
    for i, f in enumerate(src):
        found = None
        for j, g in enumerate(dst):
            if not used[j] and f == g:
                found = j
                break
        if found is None:
            return None
        used[found] = True
        images[i] = found + 1
    return Permutation(tuple(images))


def model_sim_neighbors(d: Derivation) -> list[Derivation]:
    """``sequent.sim_neighbors`` with the hand-written ``_local_neighbors``."""
    out = {}
    for path, node in subderivations(d):
        for cand in _local_neighbors(node):
            try:
                nd = _rebuild(replace_subderivation(d, path, cand))
            except InvalidRule:
                continue
            if nd.conclusion != d.conclusion or nd == d:
                continue
            out[nd] = True
    return list(out)

