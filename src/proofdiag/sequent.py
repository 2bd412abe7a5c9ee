"""MLL sequent calculus with units and explicit exchange.

Sequents are ordered tuples of formulas.  Rules are rigid:

- ``ax(A)``          concludes  A, A^
- ``one()``          concludes  1
- ``bot(d)``         appends an explicit falsity at the end
- ``par(d, pos)``    fuses the adjacent formulas at pos, pos+1 (1-based)
- ``tensor(d1,d2)``  left premise ends with the left operand, right premise
                     starts with the right operand; the principal lands
                     between the two contexts
- ``cut(d1,d2)``     left premise ends with the cut formula, right premise
                     starts with its dual
- ``exchange(d,s)``  applies s to positions: conclusion[s(i)] = premise[i];
                     consecutive exchanges fuse, identity exchanges vanish

``sim_neighbors`` generates the one-step standard equivalence: permutations
of inference rules with disjoint active formulas, including the exchange
bookkeeping moves that rigid rule formats require.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .formula import BOT, ONE, Bot, Formula, One, Par, Tensor, negate, show, subformulas
from .perm import Permutation

Sequent = tuple  # tuple[Formula, ...]


class InvalidRule(ValueError):
    def __init__(self, path: tuple, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"invalid rule at {list(path)}: {reason}")


class NotApplicable(ValueError):
    """The cut at this node is commutative; a ~-permutation is needed first."""


@dataclass(frozen=True)
class AxR:
    formula: Formula


@dataclass(frozen=True)
class OneR:
    pass


@dataclass(frozen=True)
class BotR:
    pass


@dataclass(frozen=True)
class ParR:
    pos: int


@dataclass(frozen=True)
class TensorR:
    pos: int


@dataclass(frozen=True)
class CutR:
    pos: int
    formula: Formula


@dataclass(frozen=True)
class ExchangeR:
    perm: Permutation


RuleTag = Union[AxR, OneR, BotR, ParR, TensorR, CutR, ExchangeR]


@dataclass(frozen=True)
class Derivation:
    rule: RuleTag
    premises: tuple
    conclusion: Sequent

    def __repr__(self) -> str:
        return f"<{derivation_str(self)}>"


def sequent_str(s: Sequent) -> str:
    return ", ".join(show(f) for f in s)


def derivation_str(d: Derivation) -> str:
    r = d.rule
    if isinstance(r, AxR):
        return f"(ax {show(r.formula)})"
    if isinstance(r, OneR):
        return "(one)"
    if isinstance(r, BotR):
        return f"(bot {derivation_str(d.premises[0])})"
    if isinstance(r, ParR):
        return f"(par {r.pos} {derivation_str(d.premises[0])})"
    if isinstance(r, TensorR):
        return f"(tensor {derivation_str(d.premises[0])} {derivation_str(d.premises[1])})"
    if isinstance(r, CutR):
        return f"(cut {derivation_str(d.premises[0])} {derivation_str(d.premises[1])})"
    if isinstance(r, ExchangeR):
        body = ",".join(str(v) for v in r.perm.images)
        return f"(ex ({body}) {derivation_str(d.premises[0])})"
    raise TypeError(r)


# ---------------------------------------------------------------------------
# Constructors


def ax(f: Formula) -> Derivation:
    return Derivation(AxR(f), (), (f, negate(f)))


def one() -> Derivation:
    return Derivation(OneR(), (), (ONE,))


def bot(d: Derivation) -> Derivation:
    return Derivation(BotR(), (d,), d.conclusion + (BOT,))


def par(d: Derivation, pos: Optional[int] = None) -> Derivation:
    n = len(d.conclusion)
    if pos is None:
        pos = n - 1
    if not 1 <= pos <= n - 1:
        raise InvalidRule((), f"par position {pos} out of range")
    a, b = d.conclusion[pos - 1], d.conclusion[pos]
    concl = d.conclusion[: pos - 1] + (Par(a, b),) + d.conclusion[pos + 1 :]
    return Derivation(ParR(pos), (d,), concl)


def tensor(d1: Derivation, d2: Derivation) -> Derivation:
    if not d1.conclusion or not d2.conclusion:
        raise InvalidRule((), "tensor premises must be nonempty")
    a, b = d1.conclusion[-1], d2.conclusion[0]
    concl = d1.conclusion[:-1] + (Tensor(a, b),) + d2.conclusion[1:]
    return Derivation(TensorR(len(d1.conclusion)), (d1, d2), concl)


def cut(d1: Derivation, d2: Derivation) -> Derivation:
    if not d1.conclusion or not d2.conclusion:
        raise InvalidRule((), "cut premises must be nonempty")
    a = d1.conclusion[-1]
    if d2.conclusion[0] != negate(a):
        raise InvalidRule(
            (),
            f"cut mismatch: {show(a)} against {show(d2.conclusion[0])}",
        )
    concl = d1.conclusion[:-1] + d2.conclusion[1:]
    return Derivation(CutR(len(d1.conclusion), a), (d1, d2), concl)


def exchange(d: Derivation, perm: Permutation) -> Derivation:
    if len(perm) != len(d.conclusion):
        raise InvalidRule((), "exchange size mismatch")
    if isinstance(d.rule, ExchangeR):
        perm = perm.compose(d.rule.perm)
        d = d.premises[0]
    if perm.is_identity():
        return d
    return Derivation(ExchangeR(perm), (d,), perm.apply(d.conclusion))


# ---------------------------------------------------------------------------
# Checking


def check_derivation(d: Derivation, path: tuple = ()) -> Sequent:
    """Re-derive the conclusion of every node; the root sequent on success."""
    r = d.rule
    ps = [check_derivation(p, path + (i,)) for i, p in enumerate(d.premises)]
    if isinstance(r, AxR):
        want: Sequent = (r.formula, negate(r.formula))
        arity = 0
    elif isinstance(r, OneR):
        want = (ONE,)
        arity = 0
    elif isinstance(r, BotR):
        arity = 1
        if len(ps) == 1:
            want = ps[0] + (BOT,)
    elif isinstance(r, ParR):
        arity = 1
        if len(ps) == 1:
            g = ps[0]
            if not 1 <= r.pos <= len(g) - 1:
                raise InvalidRule(path, f"par position {r.pos} out of range")
            want = g[: r.pos - 1] + (Par(g[r.pos - 1], g[r.pos]),) + g[r.pos + 1 :]
    elif isinstance(r, TensorR):
        arity = 2
        if len(ps) == 2:
            g1, g2 = ps
            if not g1 or not g2:
                raise InvalidRule(path, "tensor premise empty")
            if r.pos != len(g1):
                raise InvalidRule(path, "tensor position disagrees with left premise")
            want = g1[:-1] + (Tensor(g1[-1], g2[0]),) + g2[1:]
    elif isinstance(r, CutR):
        arity = 2
        if len(ps) == 2:
            g1, g2 = ps
            if not g1 or not g2:
                raise InvalidRule(path, "cut premise empty")
            if g1[-1] != r.formula:
                raise InvalidRule(path, "left premise does not end with the cut formula")
            if g2[0] != negate(r.formula):
                raise InvalidRule(path, "right premise does not start with the dual")
            if r.pos != len(g1):
                raise InvalidRule(path, "cut position disagrees with left premise")
            want = g1[:-1] + g2[1:]
    elif isinstance(r, ExchangeR):
        arity = 1
        if len(ps) == 1:
            if len(r.perm) != len(ps[0]):
                raise InvalidRule(path, "exchange size mismatch")
            want = r.perm.apply(ps[0])
    else:
        raise InvalidRule(path, f"unknown rule {r!r}")
    if len(ps) != arity:
        raise InvalidRule(path, f"arity mismatch: got {len(ps)}, want {arity}")
    if want != d.conclusion:
        raise InvalidRule(
            path,
            f"conclusion mismatch: stored {sequent_str(d.conclusion)}, derived {sequent_str(want)}",
        )
    return d.conclusion


def rule_count(d: Derivation, include_exchange: bool = True) -> int:
    n = 0 if (isinstance(d.rule, ExchangeR) and not include_exchange) else 1
    return n + sum(rule_count(p, include_exchange) for p in d.premises)


def subderivations(d: Derivation, path: tuple = ()) -> Iterator[tuple[tuple, Derivation]]:
    yield path, d
    for i, p in enumerate(d.premises):
        yield from subderivations(p, path + (i,))


def replace_subderivation(d: Derivation, path: tuple, new: Derivation) -> Derivation:
    if not path:
        return new
    i = path[0]
    prem = list(d.premises)
    prem[i] = replace_subderivation(prem[i], path[1:], new)
    return Derivation(d.rule, tuple(prem), d.conclusion)


def _rebuild(d: Derivation) -> Derivation:
    """Re-run the smart constructors over the same tree shape."""
    r = d.rule
    if isinstance(r, AxR):
        return ax(r.formula)
    if isinstance(r, OneR):
        return one()
    if isinstance(r, BotR):
        return bot(_rebuild(d.premises[0]))
    if isinstance(r, ParR):
        return par(_rebuild(d.premises[0]), r.pos)
    if isinstance(r, TensorR):
        return tensor(_rebuild(d.premises[0]), _rebuild(d.premises[1]))
    if isinstance(r, CutR):
        return cut(_rebuild(d.premises[0]), _rebuild(d.premises[1]))
    if isinstance(r, ExchangeR):
        return exchange(_rebuild(d.premises[0]), r.perm)
    raise TypeError(r)


# ---------------------------------------------------------------------------
# Standard equivalence: one-step neighbors

def _move_to_end(n: int, i: int) -> Permutation:
    """Send position i to n, shifting the tail left."""
    images = []
    for k in range(1, n + 1):
        if k < i:
            images.append(k)
        elif k == i:
            images.append(n)
        else:
            images.append(k - 1)
    return Permutation(tuple(images))


def _move_from_end(n: int, i: int) -> Permutation:
    return _move_to_end(n, i).inverse()


def _move_to_front(n: int, i: int) -> Permutation:
    """Send position i to 1, shifting the head right."""
    images = []
    for k in range(1, n + 1):
        if k < i:
            images.append(k + 1)
        elif k == i:
            images.append(1)
        else:
            images.append(k)
    return Permutation(tuple(images))


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
            split = x.rule.pos  # position of the principal (or join) in x
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


def sim_neighbors(d: Derivation) -> list[Derivation]:
    """All derivations one standard-equivalence permutation away."""
    check_derivation(d)
    out = {}
    for path, node in subderivations(d):
        for cand in _local_neighbors(node):
            try:
                nd = _rebuild(replace_subderivation(d, path, cand))
                check_derivation(nd)
            except InvalidRule:
                continue
            if nd.conclusion != d.conclusion or nd == d:
                continue
            out[nd] = True
    return list(out)


# ---------------------------------------------------------------------------
# Cut elimination steps on derivations


def _through_exchange(d: Derivation):
    if isinstance(d.rule, ExchangeR):
        return d.premises[0], d.rule.perm
    return d, None


def cut_step(d: Derivation, path: tuple) -> Derivation:
    """Apply one cut-elimination step at the Cut node addressed by path."""
    node = d
    for i in path:
        node = node.premises[i]
    if not isinstance(node.rule, CutR):
        raise NotApplicable(f"node at {list(path)} is not a cut")
    left, right = node.premises
    a = node.rule.formula
    repl = None

    lcore, lperm = _through_exchange(left)
    rcore, rperm = _through_exchange(right)

    # axiom on the right: premise is  a^, a  (from ax(a^)) -- or exchanged ax(a)
    if isinstance(rcore.rule, AxR):
        want = (negate(a), a)
        if right.conclusion == want:
            repl = left
    if repl is None and isinstance(lcore.rule, AxR):
        want = (a, negate(a))
        if left.conclusion == want:
            repl = right
            fix = _match_perm(repl.conclusion, node.conclusion)
            if fix is None:
                repl = None
            else:
                repl = exchange(repl, fix)
    # tensor against par (cut formula principal on both sides); a context
    # exchange is tolerated when it keeps the principal at the active edge
    if repl is None and isinstance(a, Tensor):
        p0 = None
        if isinstance(lcore.rule, TensorR):
            p0 = lcore.rule.pos
        left_ok = p0 is not None and (
            (lperm is None and p0 == len(lcore.conclusion))
            or (lperm is not None and lperm(p0) == len(lcore.conclusion))
        )
        right_ok = (
            isinstance(rcore.rule, ParR)
            and rcore.rule.pos == 1
            and (rperm is None or rperm(1) == 1)
        )
        if left_ok and right_ok and lcore.conclusion[p0 - 1] == a:
            d1, d2 = lcore.premises
            w = rcore.premises[0]
            n2 = len(d2.conclusion)
            d2x = exchange(d2, _move_to_end(n2, 1)) if n2 > 1 else d2
            inner = cut(d2x, w)
            if n2 > 1:
                inner = exchange(inner, _move_to_front(len(inner.conclusion), n2))
            repl = cut(d1, inner)
    if repl is None and isinstance(a, Par):
        left_ok = (
            isinstance(lcore.rule, ParR)
            and lcore.rule.pos == len(lcore.conclusion)
            and (lperm is None or lperm(len(lcore.conclusion)) == len(lcore.conclusion))
        )
        if left_ok and isinstance(rcore.rule, TensorR) and rperm is None:
            e1, e2 = rcore.premises
            if len(e1.conclusion) == 1:
                (w,) = lcore.premises
                inner = cut(w, e1)
                repl = cut(inner, e2)
    # units
    if repl is None and isinstance(a, Bot):
        if isinstance(lcore.rule, BotR) and lperm is None and isinstance(rcore.rule, OneR):
            repl = lcore.premises[0]
    if repl is None and isinstance(a, One):
        if isinstance(lcore.rule, OneR):
            if isinstance(rcore.rule, BotR):
                # the dual must be frontmost; only an exchange can have put it there
                if rperm is not None:
                    core = rcore.premises[0]
                    fix = _match_perm(core.conclusion, node.conclusion)
                    if fix is not None:
                        repl = exchange(core, fix)
                elif len(rcore.conclusion) == 1:
                    repl = rcore.premises[0]
    if repl is None:
        raise NotApplicable(
            "cut does not match a principal step shape; permute first"
        )
    if repl.conclusion != node.conclusion:
        fix = _match_perm(repl.conclusion, node.conclusion)
        if fix is None:
            raise NotApplicable("step result does not rearrange to the conclusion")
        repl = exchange(repl, fix)
    out = replace_subderivation(d, path, repl)
    check_derivation(out)
    return out


def find_cut_paths(d: Derivation) -> list[tuple]:
    return [p for p, node in subderivations(d) if isinstance(node.rule, CutR)]


# ---------------------------------------------------------------------------
# Bounded enumeration and provability


def enumerate_derivations(s: Sequent, max_rules: int) -> list[Derivation]:
    """All derivations of the ordered sequent with at most max_rules nodes.

    Exchange counts as a rule node; consecutive exchanges are never emitted.
    Cut formulas range over the subformula closure of the goal (analytic
    cuts), which keeps the search finite.
    """
    subs = set()
    for f in s:
        subs |= subformulas(f)
    subs |= {negate(f) for f in set(subs)}

    def go(goal: Sequent, budget: int, allow_exchange: bool) -> list[Derivation]:
        if budget <= 0:
            return []
        out = []
        if len(goal) == 2 and goal[1] == negate(goal[0]):
            out.append(ax(goal[0]))
        if goal == (ONE,):
            out.append(one())
        if goal and isinstance(goal[-1], Bot):
            for p in go(goal[:-1], budget - 1, True):
                out.append(bot(p))
        for i, f in enumerate(goal):
            if isinstance(f, Par):
                pre = goal[:i] + (f.left, f.right) + goal[i + 1 :]
                for p in go(pre, budget - 1, True):
                    out.append(par(p, i + 1))
            if isinstance(f, Tensor):
                left, right = goal[:i], goal[i + 1 :]
                for p1 in go(left + (f.left,), budget - 2, True):
                    for p2 in go((f.right,) + right, budget - 1 - rule_count(p1), True):
                        out.append(tensor(p1, p2))
        # analytic cuts
        if budget >= 3:
            for a in subs:
                for k in range(len(goal) + 1):
                    left, right = goal[:k], goal[k:]
                    for p1 in go(left + (a,), budget - 2, True):
                        for p2 in go(
                            (negate(a),) + right, budget - 1 - rule_count(p1), True
                        ):
                            out.append(cut(p1, p2))
        if allow_exchange and len(goal) >= 2:
            for images in itertools.permutations(range(1, len(goal) + 1)):
                perm = Permutation(images)
                if perm.is_identity():
                    continue
                pre = perm.inverse().apply(goal)
                for p in go(pre, budget - 1, False):
                    out.append(exchange(p, perm))
        return out

    found = go(tuple(s), max_rules, True)
    uniq = {}
    for d in found:
        if rule_count(d) <= max_rules:
            uniq[d] = True
    return list(uniq)


def provable(s: Sequent) -> bool:
    """Exhaustive multiset provability for MLL with units (cut-free)."""
    memo: dict = {}

    def go(ms: tuple) -> bool:
        key = tuple(sorted(ms, key=repr))
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard; search is formula-decreasing anyway
        res = False
        fs = list(ms)
        if len(fs) == 2 and fs[1] == negate(fs[0]):
            res = True
        if not res and fs == [ONE]:
            res = True
        if not res:
            for i, f in enumerate(fs):
                rest = fs[:i] + fs[i + 1 :]
                if isinstance(f, Bot) and go(tuple(rest)):
                    res = True
                    break
                if isinstance(f, Par) and go(tuple(rest + [f.left, f.right])):
                    res = True
                    break
                if isinstance(f, Tensor):
                    n = len(rest)
                    for mask in range(1 << n):
                        lhs = [rest[j] for j in range(n) if mask & (1 << j)]
                        rhs = [rest[j] for j in range(n) if not mask & (1 << j)]
                        if go(tuple(lhs + [f.left])) and go(tuple([f.right] + rhs)):
                            res = True
                            break
                    if res:
                        break
        memo[key] = res
        return res

    return go(tuple(s))
