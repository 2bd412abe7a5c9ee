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

Each rule is written once, as a ``RuleTag``: a frozen dataclass whose fields
are the rule's parameters, with its ``head`` in the text format, its
``arity`` and ``conclude``, which gives the conclusion from the premises'
sequents or raises ``InvalidRule``.  ``Derivation(rule, premises)`` applies
it when it is built, so every derivation is valid and ``check_derivation``
only reads the conclusion.  Printing (``derivation_str``) and parsing (in
``diagramio``, through ``RULE_TAGS``, the head-to-type table) go through the
same fields.

``sim_neighbors`` generates the one-step standard equivalence: permutations
of inference rules with disjoint active formulas, including the exchange
bookkeeping moves that rigid rule formats require.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator, Optional

from .formula import BOT, ONE, Bot, Formula, One, Par, Tensor, negate, show, subformulas
from .perm import Permutation

Sequent = tuple  # tuple[Formula, ...]


class InvalidRule(ValueError):
    """Premises that the rule does not apply to."""


class NotApplicable(ValueError):
    """The cut at this node is commutative; a ~-permutation is needed first."""


class RuleTag:
    """An inference rule: a frozen dataclass whose fields are its parameters.

    ``head`` names it in the text format, ``arity`` is its number of premises
    and ``conclude`` is the rule itself: the conclusion from the premises'
    sequents, or ``InvalidRule``.
    """

    __slots__ = ()
    head: ClassVar[str]
    arity: ClassVar[int]

    def conclude(self, ps: tuple) -> Sequent:
        raise NotImplementedError

    def build(self, premises: tuple) -> Derivation:
        """The derivation of this rule over premises, as the constructors build it."""
        return Derivation(self, premises)


@dataclass(frozen=True)
class AxR(RuleTag):
    formula: Formula
    head = "ax"
    arity = 0

    def conclude(self, ps: tuple) -> Sequent:
        return (self.formula, negate(self.formula))


@dataclass(frozen=True)
class OneR(RuleTag):
    head = "one"
    arity = 0

    def conclude(self, ps: tuple) -> Sequent:
        return (ONE,)


@dataclass(frozen=True)
class BotR(RuleTag):
    head = "bot"
    arity = 1

    def conclude(self, ps: tuple) -> Sequent:
        return ps[0] + (BOT,)


@dataclass(frozen=True)
class ParR(RuleTag):
    pos: int
    head = "par"
    arity = 1

    def conclude(self, ps: tuple) -> Sequent:
        (g,) = ps
        p = self.pos
        if not 1 <= p <= len(g) - 1:
            raise InvalidRule(f"par position {p} out of range")
        return g[: p - 1] + (Par(g[p - 1], g[p]),) + g[p + 1 :]


@dataclass(frozen=True)
class TensorR(RuleTag):
    head = "tensor"
    arity = 2

    def conclude(self, ps: tuple) -> Sequent:
        g1, g2 = ps
        if not g1 or not g2:
            raise InvalidRule("tensor premises must be nonempty")
        return g1[:-1] + (Tensor(g1[-1], g2[0]),) + g2[1:]


@dataclass(frozen=True)
class CutR(RuleTag):
    head = "cut"
    arity = 2

    def conclude(self, ps: tuple) -> Sequent:
        g1, g2 = ps
        if not g1 or not g2:
            raise InvalidRule("cut premises must be nonempty")
        if g2[0] != negate(g1[-1]):
            raise InvalidRule(f"cut mismatch: {show(g1[-1])} against {show(g2[0])}")
        return g1[:-1] + g2[1:]


@dataclass(frozen=True)
class ExchangeR(RuleTag):
    perm: Permutation
    head = "ex"
    arity = 1

    def conclude(self, ps: tuple) -> Sequent:
        (g,) = ps
        if len(self.perm) != len(g):
            raise InvalidRule("exchange size mismatch")
        return self.perm.apply(g)

    def build(self, premises: tuple) -> Derivation:
        """Fused with an exchange just above it; an identity exchange is left out."""
        perm, (d,) = self.perm, premises
        if isinstance(d.rule, ExchangeR) and len(perm) == len(d.conclusion):
            perm, (d,) = perm.compose(d.rule.perm), d.premises
        if perm.is_identity() and len(perm) == len(d.conclusion):
            return d
        return Derivation(ExchangeR(perm), (d,))


RULE_TAGS = {cls.head: cls for cls in RuleTag.__subclasses__()}


@dataclass(frozen=True)
class Derivation:
    """A rule over its premises; the conclusion is derived when it is built,
    so an invalid derivation cannot be built."""

    rule: RuleTag
    premises: tuple
    conclusion: Sequent = field(init=False, compare=False)

    def __post_init__(self):
        r = self.rule
        if len(self.premises) != r.arity:
            raise InvalidRule(f"{r.head} takes {r.arity} premises, got {len(self.premises)}")
        object.__setattr__(self, "conclusion", r.conclude(tuple(p.conclusion for p in self.premises)))

    def __repr__(self) -> str:
        return f"<{derivation_str(self)}>"


def sequent_str(s: Sequent) -> str:
    return ", ".join(show(f) for f in s)


# how derivation_str writes each kind of rule parameter, by its annotation
_PARAM_STR = {
    "Formula": show,
    "int": str,
    "Permutation": lambda s: f"({','.join(map(str, s.images))})",
}


def derivation_str(d: Derivation) -> str:
    """``(head params premises)``, with the rule's fields as its params."""
    r = d.rule
    params = [_PARAM_STR[f.type](getattr(r, f.name)) for f in fields(r)]
    return f"({' '.join([r.head, *params, *map(derivation_str, d.premises)])})"


# ---------------------------------------------------------------------------
# Constructors


def ax(f: Formula) -> Derivation:
    return Derivation(AxR(f), ())


def one() -> Derivation:
    return Derivation(OneR(), ())


def bot(d: Derivation) -> Derivation:
    return Derivation(BotR(), (d,))


def par(d: Derivation, pos: Optional[int] = None) -> Derivation:
    return Derivation(ParR(len(d.conclusion) - 1 if pos is None else pos), (d,))


def tensor(d1: Derivation, d2: Derivation) -> Derivation:
    return Derivation(TensorR(), (d1, d2))


def cut(d1: Derivation, d2: Derivation) -> Derivation:
    return Derivation(CutR(), (d1, d2))


def exchange(d: Derivation, perm: Permutation) -> Derivation:
    return ExchangeR(perm).build((d,))


def check_derivation(d: Derivation) -> Sequent:
    """The conclusion of d; a derivation is checked when it is built."""
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
    return Derivation(d.rule, tuple(prem))


def _rebuild(d: Derivation) -> Derivation:
    """Build the same tree again through the constructors, fusing exchanges."""
    return d.rule.build(tuple(map(_rebuild, d.premises)))


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
    a = left.conclusion[-1]
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
            p0 = len(lcore.premises[0].conclusion)
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
    return replace_subderivation(d, path, repl)


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
    # a fixed order, so the listing does not follow the hash seed
    cut_formulas = sorted(subs | {negate(f) for f in subs}, key=show)

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
            for a in cut_formulas:
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
