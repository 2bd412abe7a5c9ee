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
"""
from __future__ import annotations

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
from .matching import MatchSite, find_matches, replace_at, sorted_sites
from .perm import Permutation, canonical_perm_diagram, ladder_left_word, ladder_right_word

import itertools


class UnknownPolygraph(DiagramError):
    pass


class FuelExhausted(DiagramError):
    """Normalization did not terminate within its fuel; engine bug."""


A, B, C = FVar("A"), FVar("B"), FVar("C")
nA, nB = NVar("A"), NVar("B")


# ---------------------------------------------------------------------------
# Rule kinds
#
# The three schema kinds share one protocol: ``keys(phi)`` lists the keys of
# the family members that can occur in ``phi`` and ``pair(*key)`` gives the
# (source, target) schemas of one member.  Sites record their key as
# ``variant``, so applying a site needs no second search.


@dataclass(frozen=True)
class SchemaRule:
    """A rewriting rule given by source and target schema diagrams."""

    name: str
    source: Diagram
    target: Diagram
    note: str = ""

    def keys(self, phi: Diagram) -> list[tuple]:
        return [()]

    def pair(self) -> tuple[Diagram, Diagram]:
        return self.source, self.target

    def find(self, phi: Diagram) -> list[MatchSite]:
        return _find_sites(self, phi)

    def apply(self, phi: Diagram, site: MatchSite) -> Diagram:
        return replace_at(phi, site, self.pair(*site.variant)[1])


@dataclass(frozen=True)
class WordRule:
    """A rule family indexed by a word metavariable, matched by width."""

    name: str
    builder: Callable[[int], tuple[Diagram, Diagram]]
    note: str = ""
    max_width: int = 8

    def keys(self, phi: Diagram) -> list[tuple]:
        return [(w,) for w in range(min(self.max_width, _max_width(phi)) + 1)]

    def pair(self, w: int) -> tuple[Diagram, Diagram]:
        return self.builder(w)

    def find(self, phi: Diagram) -> list[MatchSite]:
        return _find_sites(self, phi)

    def apply(self, phi: Diagram, site: MatchSite) -> Diagram:
        return replace_at(phi, site, self.pair(*site.variant)[1])


@dataclass(frozen=True)
class SigmaRule:
    """A rule family indexed by a word and a permutation of it."""

    name: str
    builder: Callable[[int, Permutation], tuple[Diagram, Diagram]]
    note: str = ""
    max_width: int = 3

    def keys(self, phi: Diagram) -> list[tuple]:
        return [
            (w, Permutation(images))
            for w in range(min(self.max_width, _max_width(phi)) + 1)
            for images in itertools.permutations(range(1, w + 1))
        ]

    def pair(self, w: int, sigma: Permutation) -> tuple[Diagram, Diagram]:
        return self.builder(w, sigma)

    def find(self, phi: Diagram) -> list[MatchSite]:
        return _find_sites(self, phi)

    def apply(self, phi: Diagram, site: MatchSite) -> Diagram:
        return replace_at(phi, site, self.pair(*site.variant)[1])


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


Rule = Union[SchemaRule, WordRule, SigmaRule, ProceduralRule]


def _find_sites(rule: Rule, phi: Diagram) -> list[MatchSite]:
    """The sites of every family member of a schema rule, each stamped with
    the key of the member that matched."""
    sites = []
    for key in rule.keys(phi):
        source, _ = rule.pair(*key)
        sites += [replace(s, variant=key) for s in find_matches(phi, source, rule.name)]
    return sorted_sites(sites)


def _max_width(phi: Diagram) -> int:
    w = len(phi.input)
    for layer in phi.layers:
        w = max(w, len(layer_outputs(layer)))
    return w


# ---------------------------------------------------------------------------
# Twisting rule schemas


def _twist_involution() -> SchemaRule:
    src = Diagram((A, B), ((TwistGate(A, B),), (TwistGate(B, A),)))
    return SchemaRule("twist-involution", src, identity((A, B)))


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
    return SchemaRule("yang-baxter", src, tgt)


def _binary_slides(kind: str, controlled: bool) -> list[SchemaRule]:
    """Gate-crossing rules for a 2-to-1 gate (par, or uncontrolled tensor)."""
    if kind == "par":
        gate = ParGate(A, B)
        gate_lr = ParGate(B, C)
        out_ab, out_bc = Par(A, B), Par(B, C)
    else:
        gate = TensorGate(A, B, False)
        gate_lr = TensorGate(B, C, False)
        out_ab, out_bc = Tensor(A, B), Tensor(B, C)
    right = SchemaRule(
        f"{kind}-slide-right",
        Diagram((A, B, C), ((gate, C), (TwistGate(out_ab, C),))),
        Diagram(
            (A, B, C),
            ((A, TwistGate(B, C)), (TwistGate(A, C), B), (C, gate)),
        ),
        note="gate pushed below the crossing, sliding right",
    )
    left = SchemaRule(
        f"{kind}-slide-left",
        Diagram((A, B, C), ((A, gate_lr), (TwistGate(A, out_bc),))),
        Diagram(
            (A, B, C),
            ((TwistGate(A, B), C), (B, TwistGate(A, C)), (gate_lr, A)),
        ),
        note="gate pushed below the crossing, sliding left",
    )
    return [right, left]


def _nullary_slides(kind: str) -> list[SchemaRule]:
    if kind == "bot":
        g = BotGate()
        out = BOT
    else:
        g = OneGate(False)
        out = ONE
    right = SchemaRule(
        f"{kind}-slide-right",
        Diagram((A,), ((g, A), (TwistGate(out, A),))),
        Diagram((A,), ((A, g),)),
    )
    left = SchemaRule(
        f"{kind}-slide-left",
        Diagram((A,), ((A, g), (TwistGate(A, out),))),
        Diagram((A,), ((g, A),)),
    )
    return [right, left]


def _ax_slides() -> list[SchemaRule]:
    right = SchemaRule(
        "ax-slide-right",
        Diagram(
            (B,),
            (
                (AxGate(A, False), B),
                (A, TwistGate(nA, B)),
                (TwistGate(A, B), nA),
            ),
        ),
        Diagram((B,), ((B, AxGate(A, False)),)),
    )
    left = SchemaRule(
        "ax-slide-left",
        Diagram(
            (B,),
            (
                (B, AxGate(A, False)),
                (TwistGate(B, A), nA),
                (A, TwistGate(B, nA)),
            ),
        ),
        Diagram((B,), ((AxGate(A, False), B),)),
    )
    return [right, left]


def _cut_slides() -> list[SchemaRule]:
    left = SchemaRule(
        "cut-slide-left",
        Diagram(
            (A, nA, B),
            (
                (A, TwistGate(nA, B)),
                (TwistGate(A, B), nA),
                (B, CutGate(A, False)),
            ),
        ),
        Diagram((A, nA, B), ((CutGate(A, False), B),)),
    )
    right = SchemaRule(
        "cut-slide-right",
        Diagram(
            (B, A, nA),
            (
                (TwistGate(B, A), nA),
                (A, TwistGate(B, nA)),
                (CutGate(A, False), B),
            ),
        ),
        Diagram((B, A, nA), ((B, CutGate(A, False)),)),
    )
    return [left, right]


def _ax_involution(controlled: bool) -> list[SchemaRule]:
    if controlled:
        src = compose_seq(
            single(AxGate(A, True)),
            parallel(identity((L,)), single(TwistGate(A, nA)), identity((R,))),
        )
        return [SchemaRule("ax-involution", src, single(AxGate(nA, True)))]
    src = compose_seq(single(AxGate(A, False)), single(TwistGate(A, nA)))
    cut_src = compose_seq(single(TwistGate(nA, A)), single(CutGate(A, False)))
    return [
        SchemaRule("ax-involution", src, single(AxGate(nA, False))),
        SchemaRule("cut-involution", cut_src, single(CutGate(nA, False))),
    ]


# ---------------------------------------------------------------------------
# Uncontrolled cut rules (Sigma^Ax_Cut, Sigma^M_Cut, Sigma^u_Cut)


def _gvars(w: int) -> tuple:
    return tuple(FVar(f"W{i}") for i in range(w))


def _ax_cut_ladder_left(w: int) -> tuple[Diagram, Diagram]:
    Gs = _gvars(w)
    p1 = compose_par(single(AxGate(A, False)), identity(Gs + (A,)))
    p2 = parallel(identity((A,)), ladder_left_word((nA,) + Gs), identity((A,)))
    p3 = parallel(identity((A,) + Gs), single(CutGate(nA, False)))
    src = compose_seq(compose_seq(p1, p2), p3)
    tgt = ladder_right_word(Gs + (A,))
    return src, tgt


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
    return SchemaRule("ax-cut-snake", src, identity((A,)))


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


def _mult_cut_rules_uncontrolled() -> list[SchemaRule]:
    """(A par B) against (B' tensor A') cuts, both orders."""
    par_ten = SchemaRule(
        "cut-par-tensor",
        compose_seq(
            parallel(single(ParGate(A, B)), single(TensorGate(nB, nA, False))),
            single(CutGate(Par(A, B), False)),
        ),
        compose_seq(
            parallel(identity((A,)), single(CutGate(B, False)), identity((nA,))),
            single(CutGate(A, False)),
        ),
    )
    ten_par = SchemaRule(
        "cut-tensor-par",
        compose_seq(
            parallel(single(TensorGate(A, B, False)), single(ParGate(nB, nA))),
            single(CutGate(Tensor(A, B), False)),
        ),
        compose_seq(
            parallel(identity((A,)), single(CutGate(B, False)), identity((nA,))),
            single(CutGate(A, False)),
        ),
    )
    return [par_ten, ten_par]


def _unit_cut_rules_uncontrolled() -> list[SchemaRule]:
    bot_one = SchemaRule(
        "cut-bot-one",
        compose_seq(
            parallel(single(BotGate()), single(OneGate(False))),
            single(CutGate(BOT, False)),
        ),
        identity(()),
    )
    one_bot = SchemaRule(
        "cut-one-bot",
        compose_seq(
            parallel(single(OneGate(False)), single(BotGate())),
            single(CutGate(ONE, False)),
        ),
        identity(()),
    )
    return [bot_one, one_bot]


# ---------------------------------------------------------------------------
# Controlled cut rules (Mll_Cut and Mllc_Cut)


def _cut_ax_left() -> SchemaRule:
    src = compose_seq(
        compose_par(single(AxGate(A, True)), identity((L, A))),
        parallel(identity((L, A)), single(CutGate(nA, True))),
    )
    return SchemaRule("cut-ax-left", src, identity((L, A)))


def _cut_ax_right() -> SchemaRule:
    src = compose_seq(
        parallel(identity((A, R)), single(AxGate(nA, True))),
        parallel(single(CutGate(A, True)), identity((A, R))),
    )
    return SchemaRule("cut-ax-right", src, identity((A, R)))


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
    return SchemaRule("cut-bot-one", src, identity((R,)))


def _cut_one_bot() -> SchemaRule:
    src = compose_seq(
        parallel(single(OneGate(True)), identity((L,)), single(BotGate())),
        parallel(identity((L,)), single(CutGate(ONE, True))),
    )
    return SchemaRule("cut-one-bot", src, identity((L,)))


def _big_annihilate() -> SchemaRule:
    return SchemaRule(
        "big-annihilate",
        single(BigGate((), ())),
        identity((L, R, L, R)),
        note="a big twist over two emptied sheafs is the identity on labels",
    )


# ---------------------------------------------------------------------------
# Polygraphs


@dataclass(frozen=True)
class Polygraph:
    name: str
    wire_alphabet: str
    twisting_family: str
    signature: tuple[str, ...]
    rules: tuple[Rule, ...]

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise UnknownPolygraph(f"no rule {name!r} in {self.name}")


def _twisting_core() -> list[SchemaRule]:
    return [_twist_involution(), _yang_baxter()]


def polygraph(name: str) -> Polygraph:
    if name == "S":
        return Polygraph(
            name="S",
            wire_alphabet="a single anonymous strand colour",
            twisting_family="all wires",
            signature=("twist",),
            rules=tuple(_twisting_core()),
        )
    if name == "MLLu_Cut":
        rules: list[Rule] = []
        rules += _twisting_core()
        rules += _ax_slides()
        rules += _cut_slides()
        rules += _binary_slides("tensor", controlled=False)
        rules += _binary_slides("par", controlled=False)
        rules += _ax_involution(controlled=False)
        rules += _nullary_slides("bot")
        rules += _nullary_slides("one")
        rules += [
            _ax_cut_snake(),
            WordRule("ax-cut-ladder-left", _ax_cut_ladder_left),
            WordRule("ax-cut-ladder-right", _ax_cut_ladder_right),
            SigmaRule("ax-cut-snake-sigma", _ax_cut_snake_sigma),
        ]
        rules += _mult_cut_rules_uncontrolled()
        rules += _unit_cut_rules_uncontrolled()
        return Polygraph(
            name="MLLu_Cut",
            wire_alphabet="MLL formulas with units",
            twisting_family="all formulas (total twisting)",
            signature=("twist", "par", "tensor", "ax", "cut", "one", "bot"),
            rules=tuple(rules),
        )
    if name == "MLL_ctrl":
        rules = []
        rules += _twisting_core()
        rules += _binary_slides("par", controlled=True)
        rules += _nullary_slides("bot")
        rules += _ax_involution(controlled=True)
        return Polygraph(
            name="MLL_ctrl",
            wire_alphabet="MLL formulas with units plus control colours L, R",
            twisting_family="formulas only; L and R never twist",
            signature=("twist", "par", "tensor", "ax", "cut", "one", "bot"),
            rules=tuple(rules),
        )
    if name in ("MLL_big", "Sem"):
        from . import bigtwist  # procedural rules; imported lazily

        base = list(polygraph("MLL_ctrl").rules)
        big_rules: list[Rule] = [
            _big_annihilate(),
            ProceduralRule(
                "big-collapse-left", bigtwist.find_collapse_left, bigtwist.apply_collapse
            ),
            ProceduralRule(
                "big-collapse-right", bigtwist.find_collapse_right, bigtwist.apply_collapse
            ),
            ProceduralRule(
                "untangle-left", bigtwist.find_untangle_left, bigtwist.apply_untangle
            ),
            ProceduralRule(
                "untangle-right", bigtwist.find_untangle_right, bigtwist.apply_untangle
            ),
            ProceduralRule(
                "big-intro",
                bigtwist.find_big_intro,
                bigtwist.apply_big_intro,
                note="eliminates one crossing split; source must be MLL_ctrl-irreducible and B-free",
            ),
        ]
        if name == "MLL_big":
            return Polygraph(
                name="MLL_big",
                wire_alphabet="MLL formulas with units plus control colours L, R",
                twisting_family="formulas only; L and R never twist",
                signature=("twist", "par", "tensor", "ax", "cut", "one", "bot", "big"),
                rules=tuple(base + big_rules),
            )
        cut_rules: list[Rule] = [
            _cut_ax_left(),
            _cut_ax_right(),
            WordRule("cut-tensor-par", _cut_tensor_par),
            WordRule("cut-par-tensor", _cut_par_tensor),
            _cut_bot_one(),
            _cut_one_bot(),
        ]
        return Polygraph(
            name="Sem",
            wire_alphabet="MLL formulas with units plus control colours L, R",
            twisting_family="formulas only; L and R never twist",
            signature=("twist", "par", "tensor", "ax", "cut", "one", "bot", "big"),
            rules=tuple(base + cut_rules + big_rules),
        )
    raise UnknownPolygraph(name)


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


def normalize(p: Polygraph, phi: Diagram, fuel: int = 20000) -> tuple[Diagram, RewriteTrace]:
    """Rewrite to an irreducible diagram; fuel exhaustion is an engine bug."""
    initial = interchange_canonical_form(phi)
    cur = initial
    steps: list = []
    for _ in range(fuel):
        res = apply_once(p, cur)
        if res is None:
            return cur, RewriteTrace(initial, steps, cur)
        cur, rule, site = res
        steps.append((rule.name, site))
    raise FuelExhausted(f"no normal form within {fuel} steps in {p.name}")
