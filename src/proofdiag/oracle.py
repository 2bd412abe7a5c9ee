"""Diagram-level semantics: untangling, cut elimination, the equivalence oracle.

Equality of denotations is a semi-decision: the rewriting terminates but is
not confluent, so the oracle runs a bidirectional breadth-first search over
the unoriented congruence, from the representations of both derivations.
Meeting yields ``yes`` with a machine-checkable certificate (the meeting
diagram and both step lists); exhausting both closures without ever seeing
a B-gate or crossing split yields ``no``; otherwise ``unknown``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional

from .diagram import (
    Diagram,
    DiagramError,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form,
    parallel,
)
from .matching import MatchError, find_matches, instantiate, replace_at, unify_label
from .polygraph import Polygraph, RewriteTrace, normalize, polygraph
from .sequent import Derivation
from .translate import is_sequentializable, represent
from . import bigtwist
from .bigtwist import NoCrossingSplit, NotIrreducible, crossing_splits_of


class ConclusionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Crossing splits and untangling


def detect_crossing_splits(phi: Diagram) -> list:
    """All crossing splits of an MLL_ctrl-irreducible diagram."""
    phi = interchange_canonical_form(phi)
    ctrl = polygraph("MLL_ctrl")
    for rule in ctrl.rules:
        if rule.find(phi):
            raise NotIrreducible(f"reducible by {rule.name}; normalize first")
    return crossing_splits_of(phi)


def untangle(phi: Diagram) -> tuple[Diagram, RewriteTrace]:
    """One crossing-split elimination: a B-introduction, then drive the
    B-gate through the untangle relations until eliminated or deactivated."""
    initial = interchange_canonical_form(phi)
    cur = initial
    sites = bigtwist.find_big_intro(cur)
    if not sites:
        if not crossing_splits_of(cur):
            raise NoCrossingSplit("diagram has no crossing split")
        raise NoCrossingSplit("no introduction site for the crossing splits present")
    # lookahead: prefer a site whose elimination creates no new split
    chosen = None
    results = []
    for site in sites:
        out, sub_steps = _drive_big(cur, site)
        results.append((site, out, sub_steps))
        if len(crossing_splits_of(out)) < len(crossing_splits_of(cur)):
            chosen = (site, out, sub_steps)
            break
    if chosen is None:
        chosen = results[0]
    site, out, sub_steps = chosen
    steps = [("big-intro", site)] + sub_steps
    return out, RewriteTrace(initial, steps, out)


@cache
def _big_drivers() -> Polygraph:
    """MLL_big's five B-gate rules, as a system of their own."""
    big = polygraph("MLL_big")
    names = ("big-annihilate", "big-collapse-left", "big-collapse-right",
             "untangle-left", "untangle-right")
    return replace(big, rules=tuple(map(big.rule, names)))


def _drive_big(phi: Diagram, site) -> tuple[Diagram, list]:
    # every B-gate rule needs a B-gate: this stops once it is gone or
    # deactivated (open branches keep it)
    out, trace = normalize(_big_drivers(), bigtwist.apply_big_intro(phi, site))
    return out, trace.steps


# ---------------------------------------------------------------------------
# Cut elimination


def eliminate_cuts(phi: Diagram) -> tuple[Diagram, RewriteTrace]:
    """Normalize a sequentializable diagram under the semantics polygraph."""
    if not is_sequentializable(phi):
        raise DiagramError("eliminate_cuts expects a sequentializable diagram")
    sem = polygraph("Sem")
    nf, trace = normalize(sem, phi)
    leftovers = gate_count(nf, {"cut", "big"})
    if leftovers:
        raise DiagramError(f"cut elimination stalled with {leftovers} cut/B gates")
    return nf, trace


# ---------------------------------------------------------------------------
# The equivalence oracle


@dataclass
class Certificate:
    verdict: str
    meeting: Optional[Diagram] = None
    left_steps: list = field(default_factory=list)
    right_steps: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "meeting": None if self.meeting is None else repr(self.meeting),
            "left_steps": [r for r, _ in self.left_steps],
            "right_steps": [r for r, _ in self.right_steps],
        }


def _insertion_sites(phi: Diagram, word_schema: tuple) -> list[tuple[int, dict]]:
    """Windows of the output word unifying with a gateless schema word."""
    out = phi.output
    k = len(word_schema)
    sites = []
    for i in range(len(out) - k + 1):
        subst: dict = {}
        if all(unify_label(pat, lab, subst) for pat, lab in zip(word_schema, out[i : i + k])):
            sites.append((i, subst))
    return sites


def _neighbors(p: Polygraph, phi: Diagram) -> tuple[list[tuple[str, Diagram]], bool]:
    """Unoriented one-step neighbourhood (procedural rules forward only).

    The second component flags that some reversed steps could not be
    enumerated (pass-through targets), so the closure is partial.
    """
    out = []
    partial = False
    for rule in p.rules:
        keys = rule.keys(phi)
        if not keys:  # procedural: reversed steps are never searched
            partial = True
            for site in rule.find(phi):
                try:
                    out.append((rule.name, rule.apply(phi, site)))
                except (DiagramError, MatchError):
                    continue
        for key in keys:
            src, tgt = rule.pair(*key)
            for site in find_matches(phi, src, rule.name):
                out.append((rule.name, replace_at(phi, site, tgt)))
            # reversed orientation
            if tgt.gate_list():
                try:
                    for site in find_matches(phi, tgt, rule.name + "^-1"):
                        out.append((rule.name + "^-1", replace_at(phi, site, src)))
                except MatchError:
                    partial = True
            else:
                for i, subst in _insertion_sites(phi, tgt.input):
                    try:
                        ins = instantiate(src, subst)
                    except KeyError:
                        partial = True
                        continue  # underdetermined insertion; skip
                    step = parallel(
                        identity(phi.output[:i]), ins, identity(phi.output[i + len(tgt.input) :])
                    )
                    out.append(
                        (rule.name + "^-1", interchange_canonical_form(compose_seq(phi, step)))
                    )
    return out, partial


def _saw_big(phi: Diagram) -> bool:
    return bool(gate_count(phi, ("big",)) or crossing_splits_of(phi))


def equivalent(
    d1: Derivation,
    d2: Derivation,
    bound: int = 12,
    mode: str = "sem",
    node_budget: int = 2000,
) -> Certificate:
    """Bidirectional search over the unoriented congruence of the chosen
    polygraph, from the representations of the two derivations."""
    if sorted(map(repr, d1.conclusion)) != sorted(map(repr, d2.conclusion)):
        raise ConclusionMismatch(
            f"{d1.conclusion} vs {d2.conclusion}"
        )
    p = polygraph("MLL_big" if mode == "sim" else "Sem")
    phi1 = represent(d1)
    phi2 = represent(d2)
    return diagrams_equivalent(p, phi1, phi2, bound, node_budget)


def diagrams_equivalent(
    p: Polygraph,
    phi1: Diagram,
    phi2: Diagram,
    bound: int = 12,
    node_budget: int = 2000,
) -> Certificate:
    phi1 = interchange_canonical_form(phi1)
    phi2 = interchange_canonical_form(phi2)
    if phi1 == phi2:
        return Certificate("yes", phi1)
    # cheap first pass: deterministic normal forms
    n1, t1 = normalize(p, phi1)
    n2, t2 = normalize(p, phi2)
    if n1 == n2:
        return Certificate("yes", n1, t1.steps, t2.steps)
    sides = [
        {"frontier": {phi1: []}, "seen": {phi1: []}, "truncated": False, "big": _saw_big(phi1)},
        {"frontier": {phi2: []}, "seen": {phi2: []}, "truncated": False, "big": _saw_big(phi2)},
    ]
    for depth in range(bound):
        i = 0 if len(sides[0]["seen"]) <= len(sides[1]["seen"]) else 1
        side, other = sides[i], sides[1 - i]
        if not side["frontier"]:
            i = 1 - i
            side, other = other, side
            if not side["frontier"]:
                break
        new: dict = {}
        for phi, path in side["frontier"].items():
            if len(side["seen"]) + len(new) > node_budget:
                side["truncated"] = True
                break
            nbrs, partial = _neighbors(p, phi)
            if partial:
                side["truncated"] = True
            for rule_name, nxt in nbrs:
                if nxt in side["seen"] or nxt in new:
                    continue
                np = path + [(rule_name, None)]
                if nxt in other["seen"]:
                    return Certificate("yes", nxt, *(
                        (np, other["seen"][nxt]) if i == 0 else (other["seen"][nxt], np)
                    ))
                new[nxt] = np
                if _saw_big(nxt):
                    side["big"] = True
        side["frontier"] = new
        side["seen"].update(new)
        if not sides[0]["frontier"] and not sides[1]["frontier"]:
            break
    exhausted = not sides[0]["frontier"] and not sides[1]["frontier"]
    if (
        exhausted
        and not sides[0]["truncated"]
        and not sides[1]["truncated"]
        and not sides[0]["big"]
        and not sides[1]["big"]
    ):
        return Certificate("no")
    return Certificate("unknown")


# ---------------------------------------------------------------------------
# Denotations


@dataclass
class Denotation:
    derivation: Derivation
    diagram: Diagram
    normal_form: Diagram
    trace: RewriteTrace

    note = (
        "the rewriting is terminating but not confluent; equality of "
        "denotations is decided by the equivalence oracle, not by comparing "
        "normal forms"
    )


def denotation(d: Derivation) -> Denotation:
    phi = represent(d)
    sem = polygraph("Sem")
    nf, trace = normalize(sem, phi)
    return Denotation(d, phi, nf, trace)
