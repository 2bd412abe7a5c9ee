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
of rules with disjoint active formulas, with the exchange bookkeeping that
rigid formats require.  Each tag's ``origin(lens)`` gives, for the premises'
lengths, the ``(premise, position)`` each conclusion formula is copied from,
or None for a principal one; the positions it does not copy are the active
ones.  ``reindex(f)`` moves the position parameter (only par has one).  At a
node, in the order the derivation digest pins: an exchange is pushed into
the one premise of the rule above whose formulas it moves, then come the
hand-written cases; any other rule first has each premise's exchange pulled
below it, left to right, then is swapped with a unary premise rule, right to
left, and a binary one, left to right, when its active formulas there all
come from one premise of that rule; then come the hand-written cases (axiom
orientation, stacked bots and the branch reorder of shape (c)).
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

    def origin(self, lens: tuple) -> tuple:
        """For each conclusion formula, given the premises' lengths, the
        ``(premise, position)`` it is copied from, or None for a principal one."""
        raise NotImplementedError

    def reindex(self, f) -> RuleTag:
        """The rule with its position parameter moved by f; only par has one."""
        return self

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

    def origin(self, lens: tuple) -> tuple:
        return (None, None)


@dataclass(frozen=True)
class OneR(RuleTag):
    head = "one"
    arity = 0

    def conclude(self, ps: tuple) -> Sequent:
        return (ONE,)

    def origin(self, lens: tuple) -> tuple:
        return (None,)


@dataclass(frozen=True)
class BotR(RuleTag):
    head = "bot"
    arity = 1

    def conclude(self, ps: tuple) -> Sequent:
        return ps[0] + (BOT,)

    def origin(self, lens: tuple) -> tuple:
        return _copied(0, range(1, lens[0] + 1)) + (None,)


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

    def origin(self, lens: tuple) -> tuple:
        p = self.pos
        return _copied(0, range(1, p)) + (None,) + _copied(0, range(p + 2, lens[0] + 1))

    def reindex(self, f) -> RuleTag:
        return ParR(f(self.pos))


@dataclass(frozen=True)
class TensorR(RuleTag):
    head = "tensor"
    arity = 2

    def conclude(self, ps: tuple) -> Sequent:
        g1, g2 = ps
        if not g1 or not g2:
            raise InvalidRule("tensor premises must be nonempty")
        return g1[:-1] + (Tensor(g1[-1], g2[0]),) + g2[1:]

    def origin(self, lens: tuple) -> tuple:
        return _copied(0, range(1, lens[0])) + (None,) + _copied(1, range(2, lens[1] + 1))


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

    def origin(self, lens: tuple) -> tuple:
        return _copied(0, range(1, lens[0])) + _copied(1, range(2, lens[1] + 1))


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

    def origin(self, lens: tuple) -> tuple:
        return _copied(0, self.perm.inverse().images)

    def build(self, premises: tuple) -> Derivation:
        """Fused with an exchange just above it; an identity exchange is left out."""
        perm, (d,) = self.perm, premises
        if isinstance(d.rule, ExchangeR) and len(perm) == len(d.conclusion):
            perm, (d,) = perm.compose(d.rule.perm), d.premises
        if perm.is_identity() and len(perm) == len(d.conclusion):
            return d
        return Derivation(ExchangeR(perm), (d,))


RULE_TAGS = {cls.head: cls for cls in RuleTag.__subclasses__()}


def _copied(i: int, positions) -> tuple:
    return tuple([(i, k) for k in positions])


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
    """``(head params premises)``, with the rule's fields as its params;
    written from an explicit stack, so any depth prints."""
    out, todo = [], [d]
    while todo:
        x = todo.pop()
        if isinstance(x, Derivation):
            r = x.rule
            todo.append(")")
            for p in reversed(x.premises):
                todo += [p, " "]
            params = [_PARAM_STR[f.type](getattr(r, f.name)) for f in fields(r)]
            x = "(" + " ".join([r.head, *params])
        out.append(x)
    return "".join(out)


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


# The walks below use explicit stacks, so derivations of any depth pass.


def rule_count(d: Derivation, include_exchange: bool = True) -> int:
    return sum(include_exchange or not isinstance(x.rule, ExchangeR) for _, x in subderivations(d))


def subderivations(d: Derivation, path: tuple = ()) -> Iterator[tuple[tuple, Derivation]]:
    """Every (path, node) of d in preorder."""
    todo = [(path, d)]
    while todo:
        path, x = todo.pop()
        yield path, x
        i = len(x.premises)
        while i:  # the first premise goes on top
            i -= 1
            todo.append((path + (i,), x.premises[i]))


def replace_subderivation(d: Derivation, path: tuple, new: Derivation) -> Derivation:
    above = []  # the nodes along the path, above the one replaced
    for i in path:
        above.append(d)
        d = d.premises[i]
    for x, i in zip(reversed(above), reversed(path)):
        new = Derivation(x.rule, x.premises[:i] + (new,) + x.premises[i + 1 :])
    return new


def _rebuild(d: Derivation) -> Derivation:
    """Build the same tree again through the constructors, fusing exchanges."""
    done: list = []  # rebuilt subtrees; reversed preorder meets premises first
    for _, x in reversed(list(subderivations(d))):
        done.append(x.rule.build(tuple(done.pop() for _ in x.premises)))
    return done[0]


# ---------------------------------------------------------------------------
# Standard equivalence: one-step neighbors

def _lens(ds: tuple) -> tuple:
    return tuple(len(x.conclusion) for x in ds)


def _actives(origin: tuple, j: int, n: int) -> list:
    """Positions of premise j, of length n, that a rule with this origin map
    does not copy to its conclusion."""
    copied = {o[1] for o in origin if o and o[0] == j}
    return [k for k in range(1, n + 1) if k not in copied]


def _sources(name, rule: RuleTag, lens: tuple, j: int, sub) -> list:
    """Labels of the conclusion's formulas: ``(name,)`` for a principal one,
    ``(name, i, k)`` for one copied from position k of premise i, and sub's
    labels for the formulas of premise j (-1 for none)."""
    out = []
    for o in rule.origin(lens):
        if o is None:
            out.append((name,))
        elif o[0] == j:
            out.append(sub[o[1] - 1])
        else:
            out.append((name, *o))
    return out


def _pull(d: Derivation, j: int) -> Iterator[Derivation]:
    """The exchange over premise j moved below the root rule; above it stays
    only the exchange that puts the root's active formulas in order."""
    r, ps = d.rule, d.premises
    (y,), back = ps[j].premises, ps[j].rule.perm.inverse()
    lens = _lens(ps)
    src = [back(a) for a in _actives(r.origin(lens), j, lens[j])]
    images = list(range(1, lens[j] + 1))
    for a, b in zip(src, sorted(src)):
        images[a - 1] = b
    sort = Permutation(tuple(images))
    r2 = r.reindex(lambda a: sort(back(a)))
    if _actives(r2.origin(lens), j, lens[j]) != sorted(src):
        return
    node = r2.build(ps[:j] + (exchange(y, sort),) + ps[j + 1 :])
    old = _sources(0, r, lens, j, _sources(1, ps[j].rule, lens[j : j + 1], -1, ()))
    at = {label: c for c, label in enumerate(old, 1)}
    new = _sources(0, r2, lens, j, _sources(1, ExchangeR(sort), lens[j : j + 1], -1, ()))
    yield exchange(node, Permutation(tuple(at[label] for label in new)))


def _push(d: Derivation, k: int) -> Iterator[Derivation]:
    """The root exchange moved into premise k of the rule above it, when
    that premise's formulas, and a par's principal, are all that it moves."""
    (x,), s = d.premises, d.rule.perm
    lens = _lens(x.premises)
    r2 = x.rule.reindex(s)
    old = _sources(0, d.rule, (len(s),), 0, _sources(1, x.rule, lens, -1, ()))
    before = _actives(x.rule.origin(lens), k, lens[k])
    after = _actives(r2.origin(lens), k, lens[k])
    images = dict(zip(before, after))
    for a, b in zip(old, _sources(1, r2, lens, -1, ())):
        if a != b:
            if a[1:2] != (k,) or b[1:2] != (k,):
                return
            images[a[2]] = b[2]
    t = Permutation(tuple(images.get(i, i) for i in range(1, lens[k] + 1)))
    yield r2.build(x.premises[:k] + (exchange(x.premises[k], t),) + x.premises[k + 1 :])


def _swap(d: Derivation, j: int) -> Iterator[Derivation]:
    """The root rule moved into the premise of premise j's rule that all its
    active formulas there come from, and that rule moved below it; both
    rules keep their active formulas."""
    r, ps = d.rule, d.premises
    s, qs = ps[j].rule, ps[j].premises
    lens, qlens = _lens(ps), _lens(qs)
    # the hand-written cases left this out, though the inverse move exists:
    # a par in a tensor's or cut's left premise, its principal just before
    # that premise's active formula
    if r.arity == 2 and j == 0 and isinstance(s, ParR) and s.pos == lens[0] - 1:
        return
    o = s.origin(qlens)
    act = _actives(r.origin(lens), j, lens[j])
    for k in range(s.arity):
        if any(o[a - 1] is None or o[a - 1][0] != k for a in act):
            continue
        r2 = r.reindex(lambda a: o[a - 1][1])
        inner = r2.origin(lens[:j] + qlens[k : k + 1] + lens[j + 1 :])
        if _actives(inner, j, qlens[k]) != [o[a - 1][1] for a in act]:
            continue
        at = {c[1]: i for i, c in enumerate(inner, 1) if c and c[0] == j}
        s2 = s.reindex(at.__getitem__)
        outer = s2.origin(qlens[:k] + (len(inner),) + qlens[k + 1 :])
        if _actives(outer, k, len(inner)) == [at[a] for a in _actives(o, k, qlens[k])]:
            inside = r2.build(ps[:j] + (qs[k],) + ps[j + 1 :])
            node = s2.build(qs[:k] + (inside,) + qs[k + 1 :])
            if node != d:  # two stacked bots give d back
                yield node


def _local_neighbors(d: Derivation) -> Iterator[Derivation]:
    """Root-level moves; sim_neighbors maps these over all subtrees."""
    r, ps = d.rule, d.premises
    if isinstance(r, ExchangeR):
        (x,) = ps
        # an exchange over an exchange (the constructors fuse the two) is no move
        for k in range(0 if isinstance(x.rule, ExchangeR) else x.rule.arity):
            yield from _push(d, k)
        n = len(r.perm)
        # inverse of the stacked-bot swap
        if isinstance(x.rule, BotR) and isinstance(x.premises[0].rule, BotR):
            if r.perm == Permutation.transposition(n, n - 1):
                yield x
        if isinstance(x.rule, AxR):
            yield ax(negate(x.rule.formula))
        return
    pulls = [isinstance(p.rule, ExchangeR) for p in ps]
    for j in range(len(ps)):
        if pulls[j]:
            yield from _pull(d, j)
    for j in reversed(range(len(ps))):
        if ps[j].rule.arity == 1 and not pulls[j]:
            yield from _swap(d, j)
    for j in range(len(ps)):
        if ps[j].rule.arity == 2:
            yield from _swap(d, j)

    # --- hand-written: axiom orientation, stacked bots, branch reorder ------
    if isinstance(r, AxR):
        yield exchange(ax(negate(r.formula)), Permutation((2, 1)))
    if isinstance(r, BotR) and isinstance(ps[0].rule, BotR):
        # swapping two stacked bottom rules exchanges the two occurrences
        n = len(d.conclusion)
        yield exchange(d, Permutation.transposition(n, n - 1))
    # shape (c): branch reorder through an exchange that fetched the outer
    # active from the inner left region
    if r.arity == 2 and isinstance(ps[0].rule, ExchangeR) and ps[0].premises[0].rule.arity == 2:
        (x, y), (q,) = ps, ps[0].premises
        src = x.rule.perm.inverse()(len(x.conclusion))
        l1, r1 = q.premises
        m = len(l1.conclusion)
        if src <= m - 1:
            # bring the outer active to the end of l1, do the outer rule
            # first, then redo the inner rule, then restore the order
            inner = r.build((exchange(l1, Permutation.move(m, src, m)), y))
            k = len(inner.conclusion)
            node = q.rule.build((exchange(inner, Permutation.move(k, m - 1, k)), r1))
            fix = _match_perm(node.conclusion, d.conclusion)
            if fix is not None:
                yield exchange(node, fix)


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
            d2x = exchange(d2, Permutation.move(n2, 1, n2)) if n2 > 1 else d2
            inner = cut(d2x, w)
            if n2 > 1:
                inner = exchange(inner, Permutation.move(len(inner.conclusion), n2, 1))
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
