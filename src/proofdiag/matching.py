"""Subdiagram matching and replacement modulo interchange.

A schema is a diagram whose gate parameters may contain formula
metavariables (FVar / NVar).  Matching embeds the schema's wiring into the
target's wiring, unifying parameters, and then checks that the matched gates
can be made consecutive by interchange moves with the schema's boundary
occupying a contiguous wire window - exactly the subdiagram condition
chi_d . (id * phi * id) . chi_u.

Both checks read the target's op graph.  ``_order_block`` finds in one walk
an order that makes the gates consecutive, if there is one.  The window
holds when the images of the schema's input wires lie side by side, in
order, in the word the block enters; that is exact because source schemas
are connected and consume every input wire (all shipped rule sources do),
and the embedding keeps port order.  ``rewrite_block`` splices a target in
the place of the block that ``_block`` cuts out.

Every reader here, in ``bigtwist`` and in ``translate`` reads a diagram's
wiring from one ``OpGraph``, which ``op_graph`` builds through
``OpSeq.of``.  The graph is read-only: nobody fires into it or changes it,
and whoever needs to build fires into a fresh ``OpSeq``.  So one graph
serves every matcher, finder and rewrite of a step.  It lives only while
the engine steps on its diagram: ``op_graph`` keeps the last diagram asked
for and its graph, keyed by identity, and the next diagram replaces both.
Diagrams are immutable, so a kept graph cannot go stale.  Schema graphs are
kept per schema, in a bounded cache; the engine's schemas are the few fixed
members of the five systems.

``rewrite_block`` hands its result over to the next step: it keeps, in a
slot apart from that memo, the last result and the firings it was placed
from, and ``op_graph`` reads the result's graph off those firings when it
is asked for that diagram, so a normalization fires only its input.  The
graph is built only then: the oracle's search rewrites one diagram many
times and asks for few of the results, and priming the memo itself would
evict the diagram it is still rewriting.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .formula import Atom, Tensor, Par, One, Bot, FVar, NVar, Formula, negate
from .diagram import (
    Ctrl,
    Diagram,
    DiagramError,
    Gate,
    Op,
    OpGraph,
    OpSeq,
    gate_fields,
    interchange_canonical_form,
    is_gate,
    swap_adjacent,
)


class StaleSite(DiagramError):
    """The diagram changed since this site was produced."""


class MatchError(DiagramError):
    pass


@dataclass(frozen=True)
class MatchSite:
    """Where a rule applies in one diagram: the site of every rewrite step.

    ``variant`` is the key of the family member that matched: ``()`` for a
    single schema, ``(w,)`` for a word-indexed family and ``(w, sigma)`` for
    a family indexed by a word and a permutation of it, so that
    ``rule.pair(*site.variant)`` is the (source, target) schema pair the
    step uses.  ``payload`` is what a procedural rule's applier needs besides
    the gates (which side of a B-gate, say); schema sites leave it ``()``.
    """

    rule: str
    g_ops: tuple[int, ...]  # op indices (canonical firing order) of matched gates
    substitution: tuple  # sorted tuple of (var name, formula) bindings
    layer_span: tuple[int, int]
    offset: int
    fingerprint: int
    variant: tuple = ()
    payload: tuple = ()

    @property
    def subst(self) -> dict:
        return dict(self.substitution)


def op_graph(phi: Diagram) -> OpGraph:
    """The read-only op graph of ``phi``, built once while the engine steps
    on ``phi`` (see the module docstring)."""
    if _last[0] is not phi:
        _last[:] = phi, OpGraph(phi, _handed[1] if _handed[0] is phi else None)
    return _last[1]


_last: list = [None, None]  # the diagram op_graph built last, and its graph
_handed: list = [None, None]  # the last rewrite result, and the firings it was placed from


def site_of(
    phi: Diagram, rule: str, g_ops, substitution: tuple = (), payload: tuple = ()
) -> MatchSite:
    """The site of the ops ``g_ops`` (canonical firing order) of ``phi``."""
    g = op_graph(phi)
    layers = [g.layer[i] for i in g_ops]
    return MatchSite(
        rule=rule,
        g_ops=tuple(g_ops),
        substitution=substitution,
        layer_span=(min(layers), max(layers)),
        offset=min(g.column[i] for i in g_ops),
        fingerprint=hash(phi),
        payload=tuple(payload),
    )


def sorted_sites(sites) -> list[MatchSite]:
    """Topmost first, then leftmost, then by op indices."""
    return sorted(sites, key=lambda s: (s.layer_span[0], s.offset, s.g_ops))


# ---------------------------------------------------------------------------
# Unification and instantiation


def unify_formula(pat: Formula, val: Formula, subst: dict) -> bool:
    if isinstance(pat, FVar):
        if pat.name in subst:
            return subst[pat.name] == val
        subst[pat.name] = val
        return True
    if isinstance(pat, NVar):
        want = negate(val)
        if pat.name in subst:
            return subst[pat.name] == want
        subst[pat.name] = want
        return True
    if isinstance(pat, Atom):
        return pat == val
    if isinstance(pat, (One, Bot)):
        return type(pat) is type(val)
    if isinstance(pat, (Tensor, Par)):
        return (
            type(val) is type(pat)
            and unify_formula(pat.left, val.left, subst)
            and unify_formula(pat.right, val.right, subst)
        )
    raise TypeError(pat)


def subst_formula(pat: Formula, subst: dict) -> Formula:
    if isinstance(pat, FVar):
        return subst[pat.name]
    if isinstance(pat, NVar):
        return negate(subst[pat.name])
    if isinstance(pat, (Tensor, Par)):
        return type(pat)(subst_formula(pat.left, subst), subst_formula(pat.right, subst))
    return pat


def subst_label(lab, subst: dict):
    if isinstance(lab, Ctrl):
        return lab
    return subst_formula(lab, subst)


def unify_label(pat, val, subst: dict) -> bool:
    if isinstance(pat, Ctrl) or isinstance(val, Ctrl):
        return pat == val
    return unify_formula(pat, val, subst)


def gate_unify(pat: Gate, val: Gate, subst: dict) -> bool:
    """Unify two gates field by field: formulas unify, words label by label
    (a control label only with itself), and the ``controlled`` flags must be
    equal."""
    if type(pat) is not type(val):
        return False
    for name, kind in gate_fields(type(pat)):
        p, v = getattr(pat, name), getattr(val, name)
        if kind == "Word":
            if len(p) != len(v) or not all(unify_label(a, b, subst) for a, b in zip(p, v)):
                return False
        elif kind == "bool":
            if p != v:
                return False
        elif not unify_formula(p, v, subst):
            return False
    return True


def gate_subst(pat: Gate, subst: dict) -> Gate:
    values = []
    for name, kind in gate_fields(type(pat)):
        v = getattr(pat, name)
        if kind == "Word":
            v = tuple(subst_label(l, subst) for l in v)
        elif kind == "Formula":
            v = subst_formula(v, subst)
        values.append(v)
    return type(pat)(*values)


def instantiate(schema: Diagram, subst: dict) -> Diagram:
    word = tuple(subst_label(l, subst) for l in schema.input)
    layers = []
    for layer in schema.layers:
        layers.append(
            tuple(gate_subst(s, subst) if is_gate(s) else subst_label(s, subst) for s in layer)
        )
    return Diagram(word, layers)


# ---------------------------------------------------------------------------
# Embedding


def _embed(sseq: OpGraph, tseq: OpGraph, t0: int) -> Optional[tuple[dict, dict, dict]]:
    """Map the schema's op graph into the target's, anchored at op 0 -> t0."""
    subst: dict = {}
    if not gate_unify(sseq.ops[0].gate, tseq.ops[t0].gate, subst):
        return None
    gate_map = {0: t0}
    token_map: dict = {}
    queue = [0]

    def bind_tokens(si: int, ti: int) -> bool:
        sop, top = sseq.ops[si], tseq.ops[ti]
        for st, tt in list(zip(sop.in_tokens, top.in_tokens)) + list(
            zip(sop.out_tokens, top.out_tokens)
        ):
            if st in token_map:
                if token_map[st] != tt:
                    return False
            else:
                token_map[st] = tt
        return True

    while queue:
        si = queue.pop()
        ti = gate_map[si]
        if not bind_tokens(si, ti):
            return None
        sop = sseq.ops[si]
        for st in tuple(sop.in_tokens) + tuple(sop.out_tokens):
            tt = token_map[st]
            for src, tgt in ((sseq.producer[st], tseq.producer[tt]),
                             (sseq.consumer[st], tseq.consumer[tt])):
                if src is None:
                    continue  # schema boundary; target side unconstrained
                if tgt is None:
                    return None
                if src in gate_map:
                    if gate_map[src] != tgt:
                        return None
                else:
                    if not gate_unify(sseq.ops[src].gate, tseq.ops[tgt].gate, subst):
                        return None
                    gate_map[src] = tgt
                    queue.append(src)
    if len(gate_map) != len(sseq.ops):
        return None  # schema not connected; unsupported
    if len(set(gate_map.values())) != len(gate_map):
        return None
    return gate_map, token_map, subst


# ---------------------------------------------------------------------------
# Block extraction (interchange feasibility)


def _order_block(tseq: OpGraph, g_ops) -> Optional[tuple[list[Op], int, int, list]]:
    """Reorder the ops of ``tseq`` by adjacent interchanges so that the ops
    ``g_ops`` are consecutive: the ops, the block's first and last index and
    the tokens live as the block starts; None when no order makes them so.

    One walk over the span from the first to the last of ``g_ops`` splits it
    stably into the ops above the block, the block and the ops below it.  A
    member moves up past the ops already sent below, or the set is not
    convex.  Any other op moves up past the block and the ops below it, or
    else stays below.  Ops outside the span keep their place.
    """
    ops, members = list(tseq.ops), set(g_ops)
    top = below = min(members)  # ops[top:below] is the block, ops[below:i] go below it
    for i in range(top, max(members) + 1):
        member = i in members
        stop = below if member else top
        tail = ops[stop : i + 1]
        for k in range(i - 1, stop - 1, -1):
            sw = swap_adjacent(ops, k)
            if sw is None:
                if member:
                    return None
                ops[stop : i + 1] = tail
                break
            ops[k], ops[k + 1] = sw
        else:
            top += not member
            below += 1
    word = list(tseq.in_tokens)
    for op in ops[:top]:
        word[op.pos : op.pos + len(op.in_tokens)] = op.out_tokens
    return ops, top, below - 1, word


def _block(tseq: OpGraph, g_ops, extend=None) -> tuple[list[Op], int, int, int, OpSeq]:
    """Cut the ops ``g_ops`` out of ``tseq`` as one block.

    ``_order_block`` makes the ops consecutive; the block's window runs from
    the leftmost to the rightmost wire they consume, widened by
    ``extend(labels, lo, hi) -> (lo, hi)`` on the block-entry word.  Returns
    the reordered ops, the block's first and last index in them, the
    window's first column and the block's firings over the window.
    """
    blk = _order_block(tseq, g_ops)
    if blk is None:
        raise MatchError("ops cannot be made consecutive by interchange")
    ops, lo, hi, word = blk
    cols = [i for i, t in enumerate(word) if tseq.consumer[t] in g_ops]
    base, last = (cols[0], cols[-1]) if cols else (ops[lo].pos, ops[lo].pos - 1)
    labels = [tseq.labels[t] for t in word]
    if extend is not None:
        base, last = extend(labels, base, last)
    local = OpSeq(tuple(labels[base : last + 1]))
    try:
        for op in ops[lo : hi + 1]:
            local.fire_at(op.gate, op.pos - base)
        return ops, lo, hi, base, local
    except (DiagramError, IndexError) as e:
        raise MatchError("block does not fit its window") from e


# ---------------------------------------------------------------------------
# Public API


def _require_canonical(phi: Diagram) -> None:
    # O(1) on the engine's diagrams: they come out of the canonical form
    if interchange_canonical_form(phi) is not phi:
        raise MatchError("diagram must be in interchange canonical form")


@lru_cache(maxsize=512)
def _checked_schema(schema: Diagram) -> tuple[OpGraph, str]:
    """A schema's graph, and why it cannot be matched ("" when it can)."""
    sseq = OpGraph(schema)
    if not sseq.ops:
        return sseq, "schema must contain at least one gate"
    if any(sseq.consumer[t] is None for t in sseq.in_tokens):
        return sseq, "schema has a pass-through input wire"
    return sseq, ""


def find_matches(phi: Diagram, schema: Diagram, rule_name: str = "") -> list[MatchSite]:
    """All sites, modulo interchange, where schema embeds as a subdiagram.

    Sites come back deterministically ordered: topmost first, then leftmost.
    """
    _require_canonical(phi)
    sseq, unmatchable = _checked_schema(schema)
    if unmatchable:
        raise MatchError(unmatchable)
    tseq = op_graph(phi)
    seen = {}
    for t0 in tseq.by_family.get(sseq.ops[0].gate.family, ()):
        emb = _embed(sseq, tseq, t0)
        if emb is None:
            continue
        gate_map, token_map, subst = emb
        g_ops = tuple(sorted(gate_map.values()))
        key = (g_ops, tuple(sorted(subst.items())))
        if key in seen:
            continue
        if _fits(tseq, sseq, g_ops, token_map):
            seen[key] = site_of(phi, rule_name, g_ops, key[1])
    return sorted_sites(seen.values())


def _fits(tseq: OpGraph, sseq: OpGraph, g_ops: tuple[int, ...], token_map: dict) -> bool:
    """Whether the ops ``g_ops``, embedded by ``token_map``, form modulo
    interchange a block equal to the instantiated schema: they can be made
    consecutive, and the images of the schema's inputs lie side by side, in
    order, in the word they enter.  This is exact because the schema is
    connected, has no pass-through input and ``_embed`` keeps port order."""
    blk = _order_block(tseq, g_ops)
    if blk is None:
        return False
    ins, word = [token_map[t] for t in sseq.in_tokens], blk[3]
    try:
        i = word.index(ins[0]) if ins else 0
    except ValueError:  # a member op makes the first input's image
        return False
    return word[i : i + len(ins)] == ins


def rewrite_block(
    phi: Diagram,
    g_ops: tuple[int, ...],
    make_target,
    extend=None,
) -> Diagram:
    """Replace the subdiagram spanned by the ops ``g_ops`` (canonical firing
    order indices) with a concretely computed target.

    ``_block`` cuts the block out, as for matching.  Unlike a schema's, the
    window may contain pass-through columns, and may be widened by
    ``extend(labels, lo, hi) -> (lo, hi)`` operating on the block-entry
    word.  ``make_target(local)`` receives the local source diagram and must
    return a diagram with identical boundary.
    """
    _require_canonical(phi)
    ops, lo, hi, base, block = _block(op_graph(phi), g_ops, extend)
    local = block.to_diagram()
    target = make_target(local)
    if target.input != local.input or target.output != local.output:
        raise MatchError("computed target changes the block boundary")
    out = OpSeq(phi.input)
    for op in ops[:lo]:
        out.refire(op.gate, op.pos)
    out.splice(target, base)
    for op in ops[hi + 1 :]:
        out.refire(op.gate, op.pos)
    result = out.to_diagram(canonical=True)
    _handed[:] = result, out
    return result


def replace_at(phi: Diagram, site: MatchSite, target_schema: Diagram) -> Diagram:
    """Replace the matched subdiagram by the instantiated target schema."""
    if hash(phi) != site.fingerprint:
        raise StaleSite("diagram changed since the site was matched")
    return rewrite_block(phi, site.g_ops, lambda local: instantiate(target_schema, site.subst))
