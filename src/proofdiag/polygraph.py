"""The five polygraphic rewriting systems and the normalization engine.

Shipped systems (by the names the rest of the library uses):

- ``S``         the permutation polygraph: twist involution + Yang-Baxter.
- ``MLLu_Cut``  uncontrolled MLL proof-net signature with twisting and cut
                rules (total twisting: every formula wire may cross).
- ``MLL_ctrl``  the controlled signature with L/R strings; twisting relations
                restricted to the rules that exist there, plus the axiom
                involution rule.
- ``MLL_big``   MLL_ctrl extended with big twisting operators: procedural
                crossing-split introduction, the untangle relations and
                B-gate annihilation.
- ``Sem``       MLL_big plus the controlled cut-elimination rules.

Rule orientation follows the printed systems: gates are pushed below
crossings.  The rewriting strategy is deterministic: first applicable rule
in declaration order, at its topmost-leftmost site.

The gate-crossing (slide) rules say that the twist is natural: each one is
the naturality square of a generator against a crossing with one wire, on
one side, built once by ``_slide``.  The cut's square is flipped.  A cut has
no outputs, so above it no wire is left to cross: its unflipped square would
rewrite a cut beside a wire into crossings, while the flipped one removes the
crossings above the cut.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .formula import FVar, NVar, Tensor, Par, ONE, BOT
from .diagram import (
    AxGate,
    BigGate,
    BotGate,
    CutGate,
    Diagram,
    DiagramError,
    EMPTY,
    Gate,
    OneGate,
    ParGate,
    TensorGate,
    TwistGate,
    compose_par,
    compose_seq,
    identity,
    interchange_canonical_form,
    parallel,
    single,
    L,
    R,
    layer_outputs,
)
from . import bigtwist
from .matching import MatchSite, find_matches, replace_at, sorted_sites
from .perm import Permutation, canonical_perm_diagram, ladder_left_word, ladder_right_word


class UnknownPolygraph(DiagramError):
    pass


class FuelExhausted(DiagramError):
    """Normalization did not terminate within its fuel; engine bug."""


FUEL = 20000  # rewrite steps that normalize takes before it gives up


A, B, C = FVar("A"), FVar("B"), FVar("C")
nA, nB = NVar("A"), NVar("B")


# ---------------------------------------------------------------------------
# Rule kinds
#
# A schema rule is one (source, target) pair or a family of them: ``keys(phi)``
# lists the keys of the members that can occur in ``phi`` and ``pair(*key)``
# gives the (source, target) schemas of one member.  Sites record their key
# as ``variant``, so applying a site needs no second search.  Family members
# are built once per key (cached builders), up to a fixed word width.

WORD_MAX_WIDTH = 8
SIGMA_MAX_WIDTH = 3


@dataclass(frozen=True)
class SchemaRule:
    """A rewriting rule given by (source, target) schema pairs; a fixed rule
    has one pair, of key ``()``."""

    name: str
    pair: Callable[..., tuple[Diagram, Diagram]]

    def keys(self, phi: Diagram) -> list[tuple]:
        return [()]

    def find(self, phi: Diagram) -> list[MatchSite]:
        """The sites of every member, each stamped with the key of the member
        that matched."""
        sites = []
        for key in self.keys(phi):
            source, _ = self.pair(*key)
            sites += [replace(s, variant=key) for s in find_matches(phi, source, self.name)]
        return sorted_sites(sites)

    def apply(self, phi: Diagram, site: MatchSite) -> Diagram:
        return replace_at(phi, site, self.pair(*site.variant)[1])


def _fixed(name: str, source: Diagram, target: Diagram) -> SchemaRule:
    return SchemaRule(name, lambda: (source, target))


# The benchmark's tracer (perfbench/tracer.py) times ``find`` and ``apply``
# per rule class, reading each from the class's own ``__dict__``; so the two
# family kinds bind them again in their own bodies.


class WordRule(SchemaRule):
    """A rule family indexed by the width of a word metavariable."""

    find, apply = SchemaRule.find, SchemaRule.apply

    def keys(self, phi: Diagram) -> list[tuple]:
        return [(w,) for w in range(min(WORD_MAX_WIDTH, _max_width(phi)) + 1)]


class SigmaRule(SchemaRule):
    """A rule family indexed by a word width and a permutation of the word."""

    find, apply = SchemaRule.find, SchemaRule.apply

    def keys(self, phi: Diagram) -> list[tuple]:
        return [
            (w, Permutation(images))
            for w in range(min(SIGMA_MAX_WIDTH, _max_width(phi)) + 1)
            for images in itertools.permutations(range(1, w + 1))
        ]


class ProceduralRule:
    """A rewrite implemented by explicit matcher and applier functions."""

    def __init__(self, name: str, finder, applier, note: str = ""):
        self.name = name
        self._finder = finder
        self._applier = applier
        self.note = note

    def keys(self, phi: Diagram) -> list[tuple]:
        return []  # no schema pair: matched and applied in code

    def find(self, phi: Diagram) -> list[MatchSite]:
        return self._finder(phi)

    def apply(self, phi: Diagram, site: MatchSite) -> Diagram:
        return self._applier(phi, site)


Rule = Union[SchemaRule, ProceduralRule]


def _max_width(phi: Diagram) -> int:
    w = len(phi.input)
    for layer in phi.layers:
        w = max(w, len(layer_outputs(layer)))
    return w


# ---------------------------------------------------------------------------
# Twisting rule schemas


def _twist_involution() -> SchemaRule:
    src = Diagram((A, B), ((TwistGate(A, B),), (TwistGate(B, A),)))
    return _fixed("twist-involution", src, identity((A, B)))


def _yang_baxter() -> SchemaRule:
    src = Diagram(
        (A, B, C),
        (
            (TwistGate(A, B), C),
            (B, TwistGate(A, C)),
            (TwistGate(B, C), A),
        ),
    )
    tgt = Diagram(
        (A, B, C),
        (
            (A, TwistGate(B, C)),
            (TwistGate(A, C), B),
            (C, TwistGate(A, B)),
        ),
    )
    return _fixed("yang-baxter", src, tgt)


def _slide(name: str, gate: Gate, wire, side: str, flip: bool = False) -> SchemaRule:
    """The naturality square of ``gate`` and a crossing with ``wire`` on the
    given side: the gate above the crossing, rewritten to the gate below it.
    ``flip`` swaps source and target."""
    g, w = single(gate), identity((wire,))
    if side == "right":
        src = compose_seq(compose_par(g, w), ladder_right_word(gate.outputs + (wire,)))
        tgt = compose_seq(ladder_right_word(gate.inputs + (wire,)), compose_par(w, g))
    else:
        src = compose_seq(compose_par(w, g), ladder_left_word((wire,) + gate.outputs))
        tgt = compose_seq(ladder_left_word((wire,) + gate.inputs), compose_par(g, w))
    return _fixed(name, tgt, src) if flip else _fixed(name, src, tgt)


def _slides(kind: str, right: tuple, left: tuple, flip: bool = False) -> list[SchemaRule]:
    """The squares of each side, given as (gate, wire); a flipped square moves
    the gate the other way, so it is named after the other side."""
    names = ("left", "right") if flip else ("right", "left")
    return [
        _slide(f"{kind}-slide-{n}", gate, wire, side, flip)
        for n, side, (gate, wire) in zip(names, ("right", "left"), (right, left))
    ]


def _ax_involution(controlled: bool) -> list[SchemaRule]:
    if controlled:
        src = compose_seq(
            single(AxGate(A, True)),
            parallel(identity((L,)), single(TwistGate(A, nA)), identity((R,))),
        )
        return [_fixed("ax-involution", src, single(AxGate(nA, True)))]
    src = compose_seq(single(AxGate(A, False)), single(TwistGate(A, nA)))
    cut_src = compose_seq(single(TwistGate(nA, A)), single(CutGate(A, False)))
    return [
        _fixed("ax-involution", src, single(AxGate(nA, False))),
        _fixed("cut-involution", cut_src, single(CutGate(nA, False))),
    ]


# ---------------------------------------------------------------------------
# Uncontrolled cut rules (Sigma^Ax_Cut, Sigma^M_Cut, Sigma^u_Cut)


def _gvars(w: int) -> tuple:
    return tuple(FVar(f"W{i}") for i in range(w))


@functools.cache
def _ax_cut_ladder_left(w: int) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    p1 = compose_par(single(AxGate(A, False)), identity(Gs + (A,)))
    p2 = parallel(identity((A,)), ladder_left_word((nA,) + Gs), identity((A,)))
    p3 = parallel(identity((A,) + Gs), single(CutGate(nA, False)))
    src = compose_seq(compose_seq(p1, p2), p3)
    tgt = ladder_right_word(Gs + (A,))
    return src, tgt


@functools.cache
def _ax_cut_ladder_right(w: int) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    p1 = parallel(identity((A,) + Gs), single(AxGate(nA, False)))
    p2 = parallel(identity((A,)), ladder_right_word(Gs + (nA,)), identity((A,)))
    p3 = parallel(single(CutGate(A, False)), identity(Gs + (A,)))
    src = compose_seq(compose_seq(p1, p2), p3)
    tgt = ladder_left_word((A,) + Gs)
    return src, tgt


def _ax_cut_snake() -> SchemaRule:
    p1 = compose_par(single(AxGate(nA, False)), identity((A,)))
    p2 = parallel(identity((nA,)), single(TwistGate(A, A)))
    p3 = compose_par(single(CutGate(nA, False)), identity((A,)))
    src = compose_seq(compose_seq(p1, p2), p3)
    return _fixed("ax-cut-snake", src, identity((A,)))


@functools.cache
def _ax_cut_snake_sigma(w: int, sigma: Permutation) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    sGs = sigma.apply(Gs)
    p1 = parallel(identity((A,) + Gs), single(AxGate(A, False)))
    p2 = parallel(identity((A,)), ladder_right_word(Gs + (A,)), identity((nA,)))
    p3 = parallel(
        single(TwistGate(A, A)), canonical_perm_diagram(sigma, Gs), identity((nA,))
    )
    p4 = parallel(identity((A,)), ladder_left_word((A,) + sGs), identity((nA,)))
    p5 = parallel(identity((A,) + sGs), single(CutGate(A, False)))
    src = compose_seq(compose_seq(compose_seq(compose_seq(p1, p2), p3), p4), p5)
    tgt = parallel(identity((A,)), canonical_perm_diagram(sigma, Gs))
    return src, tgt


def _cut_pair(name: str, left: Gate, right: Gate, target: Diagram) -> SchemaRule:
    """A principal cut of two uncontrolled gates, ``left`` against ``right``."""
    cut = single(CutGate(left.outputs[0], False))
    return _fixed(name, compose_seq(compose_par(single(left), single(right)), cut), target)


# ---------------------------------------------------------------------------
# Controlled cut rules (Mll_Cut and Mllc_Cut)


def _cut_ax_left() -> SchemaRule:
    src = compose_seq(
        compose_par(single(AxGate(A, True)), identity((L, A))),
        parallel(identity((L, A)), single(CutGate(nA, True))),
    )
    return _fixed("cut-ax-left", src, identity((L, A)))


def _cut_ax_right() -> SchemaRule:
    src = compose_seq(
        parallel(identity((A, R)), single(AxGate(nA, True))),
        parallel(single(CutGate(A, True)), identity((A, R))),
    )
    return _fixed("cut-ax-right", src, identity((A, R)))


@functools.cache
def _cut_tensor_par(w: int) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    tAB = Tensor(A, B)
    p1 = parallel(single(TensorGate(A, B, True)), identity(Gs + (R, L, nB, nA)))
    p2 = parallel(
        ladder_left_word((tAB,) + Gs), identity((R, L)), single(ParGate(nB, nA))
    )
    p3 = parallel(identity(Gs), single(CutGate(tAB, True)))
    src = compose_seq(compose_seq(p1, p2), p3)
    q1 = parallel(
        identity((A, R, L)), ladder_left_word((B,) + Gs), identity((R, L, nB, nA))
    )
    q2 = parallel(
        identity((A, R, L) + Gs), single(CutGate(B, True)), identity((nA,))
    )
    q3 = parallel(identity((A, R, L)), ladder_right_word(Gs + (nA,)))
    q4 = parallel(single(CutGate(A, True)), identity(Gs))
    tgt = compose_seq(compose_seq(compose_seq(q1, q2), q3), q4)
    return src, tgt


@functools.cache
def _cut_par_tensor(w: int) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    tBA = Tensor(nB, nA)
    p1 = parallel(identity((A, B, R, L) + Gs), single(TensorGate(nB, nA, True)))
    p2 = parallel(
        single(ParGate(A, B)), identity((R, L)), ladder_right_word(Gs + (tBA,))
    )
    p3 = parallel(single(CutGate(Par(A, B), True)), identity(Gs))
    src = compose_seq(compose_seq(p1, p2), p3)
    q1 = parallel(
        identity((A, B, R, L)), ladder_right_word(Gs + (nB,)), identity((R, L, nA))
    )
    q2 = parallel(
        identity((A,)), single(CutGate(B, True)), identity(Gs + (R, L, nA))
    )
    q3 = parallel(ladder_left_word((A,) + Gs), identity((R, L, nA)))
    q4 = parallel(identity(Gs), single(CutGate(A, True)))
    tgt = compose_seq(compose_seq(compose_seq(q1, q2), q3), q4)
    return src, tgt


def _cut_bot_one() -> SchemaRule:
    src = compose_seq(
        parallel(single(BotGate()), identity((R,)), single(OneGate(True))),
        parallel(single(CutGate(BOT, True)), identity((R,))),
    )
    return _fixed("cut-bot-one", src, identity((R,)))


def _cut_one_bot() -> SchemaRule:
    src = compose_seq(
        parallel(single(OneGate(True)), identity((L,)), single(BotGate())),
        parallel(identity((L,)), single(CutGate(ONE, True))),
    )
    return _fixed("cut-one-bot", src, identity((L,)))


def _big_annihilate() -> SchemaRule:
    # a big twist over two emptied sheafs is the identity on labels
    return _fixed("big-annihilate", single(BigGate((), ())), identity((L, R, L, R)))


# ---------------------------------------------------------------------------
# Polygraphs


@dataclass(frozen=True)
class Polygraph:
    name: str
    signature: tuple[str, ...]
    rules: tuple[Rule, ...]

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise UnknownPolygraph(f"no rule {name!r} in {self.name}")


_MLL_SIGNATURE = ("twist", "par", "tensor", "ax", "cut", "one", "bot")


@functools.cache
def polygraph(name: str) -> Polygraph:
    """The system called ``name``, built on its first call; every later call
    returns the same (immutable) object."""
    core: list[Rule] = [_twist_involution(), _yang_baxter()]
    if name == "S":
        return Polygraph(name, ("twist",), tuple(core))
    par = _slides("par", (ParGate(A, B), C), (ParGate(B, C), A))
    bot = _slides("bot", (BotGate(), A), (BotGate(), A))
    if name == "MLLu_Cut":
        ax, cut, one = AxGate(A, False), CutGate(A, False), (OneGate(False), A)
        mult_target = compose_seq(
            parallel(identity((A,)), single(CutGate(B, False)), identity((nA,))),
            single(CutGate(A, False)),
        )
        rules = core + [
            *_slides("ax", (ax, B), (ax, B)),
            *_slides("cut", (cut, B), (cut, B), flip=True),
            *_slides("tensor", (TensorGate(A, B, False), C), (TensorGate(B, C, False), A)),
            *par,
            *_ax_involution(controlled=False),
            *bot,
            *_slides("one", one, one),
            _ax_cut_snake(),
            WordRule("ax-cut-ladder-left", _ax_cut_ladder_left),
            WordRule("ax-cut-ladder-right", _ax_cut_ladder_right),
            SigmaRule("ax-cut-snake-sigma", _ax_cut_snake_sigma),
            _cut_pair("cut-par-tensor", ParGate(A, B), TensorGate(nB, nA, False), mult_target),
            _cut_pair("cut-tensor-par", TensorGate(A, B, False), ParGate(nB, nA), mult_target),
            _cut_pair("cut-bot-one", BotGate(), OneGate(False), EMPTY),
            _cut_pair("cut-one-bot", OneGate(False), BotGate(), EMPTY),
        ]
        return Polygraph(name, _MLL_SIGNATURE, tuple(rules))
    base = core + par + bot + _ax_involution(controlled=True)
    if name == "MLL_ctrl":
        return Polygraph(name, _MLL_SIGNATURE, tuple(base))
    if name not in ("MLL_big", "Sem"):
        raise UnknownPolygraph(name)
    big_rules: list[Rule] = [_big_annihilate()]
    for kind, find, apply in (
        ("big-collapse", bigtwist.find_collapse, bigtwist.apply_collapse),
        ("untangle", bigtwist.find_untangle, bigtwist.apply_untangle),
    ):
        big_rules += [
            ProceduralRule(f"{kind}-{side}", functools.partial(find, side=side), apply)
            for side in ("left", "right")
        ]
    big_rules.append(
        ProceduralRule(
            "big-intro",
            bigtwist.find_big_intro,
            bigtwist.apply_big_intro,
            note="eliminates one crossing split; source must be MLL_ctrl-irreducible and B-free",
        )
    )
    if name == "MLL_big":
        return Polygraph(name, _MLL_SIGNATURE + ("big",), tuple(base + big_rules))
    cut_rules: list[Rule] = [
        _cut_ax_left(),
        _cut_ax_right(),
        WordRule("cut-tensor-par", _cut_tensor_par),
        WordRule("cut-par-tensor", _cut_par_tensor),
        _cut_bot_one(),
        _cut_one_bot(),
    ]
    return Polygraph(name, _MLL_SIGNATURE + ("big",), tuple(base + cut_rules + big_rules))


POLYGRAPH_NAMES = ("S", "MLLu_Cut", "MLL_ctrl", "MLL_big", "Sem")


# ---------------------------------------------------------------------------
# Rewriting


@dataclass
class RewriteTrace:
    initial: Diagram
    steps: list  # (rule name, site)
    final: Diagram

    def replay(self, p: Polygraph) -> Diagram:
        phi = interchange_canonical_form(self.initial)
        for rule_name, site in self.steps:
            phi = p.rule(rule_name).apply(phi, site)
        if phi != self.final:
            raise DiagramError("trace replay mismatch")
        return phi


def apply_once(p: Polygraph, phi: Diagram) -> Optional[tuple[Diagram, Rule, object]]:
    """One step of the deterministic strategy, or None when irreducible."""
    phi = interchange_canonical_form(phi)
    for rule in p.rules:
        sites = rule.find(phi)
        if sites:
            site = sites[0]
            return rule.apply(phi, site), rule, site
    return None


def normalize(p: Polygraph, phi: Diagram) -> tuple[Diagram, RewriteTrace]:
    """Rewrite to an irreducible diagram; running out of FUEL is an engine bug."""
    initial = interchange_canonical_form(phi)
    cur = initial
    steps: list = []
    for _ in range(FUEL):
        res = apply_once(p, cur)
        if res is None:
            return cur, RewriteTrace(initial, steps, cur)
        cur, rule, site = res
        steps.append((rule.name, site))
    raise FuelExhausted(f"no normal form within {FUEL} steps in {p.name}")
