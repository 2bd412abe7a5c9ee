"""The matcher as it was before the shared op graph: the model for
``test_match_model``.

``find_matches`` builds a fresh ``OpSeq.of`` of the schema and of the target
on every call, and ``rewrite_block`` builds the target's again; everything
else is the matcher's algorithm, kept as it was so that the shared-graph
matcher can be compared with it site for site and diagram for diagram.
``search_block`` is the order model: a breadth-first search over every
order that adjacent swaps reach, which ``_block`` can use in place of the
bubbling to cut a block out independently of the matcher's ordering.  It
imports from ``proofdiag.matching`` only the unification and instantiation
helpers and the site type, which the graph does not touch.
"""
from __future__ import annotations

from typing import Iterator, Optional

from proofdiag.diagram import (
    Diagram,
    DiagramError,
    Op,
    OpSeq,
    interchange_canonical_form,
    swap_adjacent,
)
from proofdiag.matching import (
    MatchError,
    MatchSite,
    StaleSite,
    gate_unify,
    instantiate,
    sorted_sites,
)


def site_of(
    phi: Diagram, rule: str, g_ops, substitution: tuple = (), payload: tuple = ()
) -> MatchSite:
    """The site of the ops ``g_ops`` (canonical firing order) of ``phi``."""
    where = [(li, col) for i, (li, col, _) in enumerate(phi.gates()) if i in g_ops]
    return MatchSite(
        rule=rule,
        g_ops=tuple(g_ops),
        substitution=substitution,
        layer_span=(min(li for li, _ in where), max(li for li, _ in where)),
        offset=min(col for _, col in where),
        fingerprint=hash(phi),
        payload=tuple(payload),
    )


def _embed(sseq: OpSeq, tseq: OpSeq, t0: int) -> Optional[tuple[dict, dict, dict]]:
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
            for src, tgt in ((sseq.producer.get(st), tseq.producer.get(tt)),
                             (sseq.consumer.get(st), tseq.consumer.get(tt))):
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


def _bubble_block(ops: list[Op], flags: list[bool]) -> Optional[tuple[list[Op], int, int]]:
    """Reorder ops by adjacent commutations so flagged ops are consecutive."""
    ops, flags = list(ops), list(flags)
    while True:
        gidx = [i for i, f in enumerate(flags) if f]
        lo, hi = gidx[0], gidx[-1]
        inner = [i for i in range(lo + 1, hi) if not flags[i]]
        if not inner:
            return ops, lo, hi
        j = inner[0]
        # move it backward, past the flagged ops above it, or else forward
        for swaps in (range(j - 1, lo - 1, -1), range(j, hi)):
            trial_ops, trial_flags = list(ops), list(flags)
            for k in swaps:
                sw = swap_adjacent(trial_ops, k)
                if sw is None:
                    break
                trial_ops[k], trial_ops[k + 1] = sw
                trial_flags[k], trial_flags[k + 1] = trial_flags[k + 1], trial_flags[k]
            else:
                ops, flags = trial_ops, trial_flags
                break
        else:
            return None


def _key(op: Op) -> tuple:
    """What names an op in every firing order: its tokens."""
    return op.in_tokens, op.out_tokens


def interchange_orders(ops: list[Op]) -> Iterator[tuple[Op, ...]]:
    """Every firing order that ``swap_adjacent`` reaches from ``ops``,
    breadth first: the whole interchange class, one order at a time."""
    start = tuple(ops)
    seen, frontier = {start}, [start]
    while frontier:
        yield from frontier
        nxt = []
        for order in frontier:
            for i in range(len(order) - 1):
                sw = swap_adjacent(order, i)
                if sw is not None and (new := order[:i] + sw + order[i + 2 :]) not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt


def search_block(ops: list[Op], flags: list[bool]) -> Optional[tuple[list[Op], int, int]]:
    """The order model: ``_bubble_block``'s answer, decided by searching the
    interchange class breadth first for an order in which the flagged ops
    are consecutive."""
    members = {_key(op) for op, f in zip(ops, flags) if f}
    for order in interchange_orders(ops):
        ix = [i for i, op in enumerate(order) if _key(op) in members]
        if ix[-1] - ix[0] == len(ix) - 1:
            return list(order), ix[0], ix[-1]
    return None


def _block(
    tseq: OpSeq, g_ops, extend=None, order=_bubble_block
) -> tuple[list[Op], int, int, int, Diagram]:
    """Cut the ops ``g_ops`` out of ``tseq`` as one block.

    ``order`` makes the ops consecutive (the bubbling, or ``search_block``);
    the block's window runs from the leftmost to the rightmost wire they
    consume, widened by
    ``extend(labels, lo, hi) -> (lo, hi)`` on the block-entry word.  Returns
    the reordered ops, the block's first and last index in them, the
    window's first column and the block as a diagram over the window.
    """
    members = set(g_ops)
    blk = order(tseq.ops, [i in members for i in range(len(tseq.ops))])
    if blk is None:
        raise MatchError("ops cannot be made consecutive by interchange")
    ops, lo, hi = blk
    word = list(tseq.in_tokens)
    for op in ops[:lo]:
        word[op.pos : op.pos + len(op.in_tokens)] = op.out_tokens
    produced = set()
    consumed_pos: list[int] = []
    for op in ops[lo : hi + 1]:
        consumed_pos += [word.index(t) for t in op.in_tokens if t not in produced]
        produced.update(op.out_tokens)
    if consumed_pos:
        base, last = min(consumed_pos), max(consumed_pos)
    else:
        base, last = ops[lo].pos, ops[lo].pos - 1
    labels = [tseq.labels[t] for t in word]
    if extend is not None:
        base, last = extend(labels, base, last)
    local = OpSeq(tuple(labels[base : last + 1]))
    try:
        for op in ops[lo : hi + 1]:
            local.fire_at(op.gate, op.pos - base)
        return ops, lo, hi, base, local.to_diagram()
    except (DiagramError, IndexError) as e:
        raise MatchError("block does not fit its window") from e


def _require_canonical(phi: Diagram) -> None:
    # O(1) on the engine's diagrams: they come out of the canonical form
    if interchange_canonical_form(phi) is not phi:
        raise MatchError("diagram must be in interchange canonical form")


def find_matches(phi: Diagram, schema: Diagram, rule_name: str = "") -> list[MatchSite]:
    """All sites, modulo interchange, where schema embeds as a subdiagram.

    Sites come back deterministically ordered: topmost first, then leftmost.
    """
    _require_canonical(phi)
    sseq = OpSeq.of(schema)
    if not sseq.ops:
        raise MatchError("schema must contain at least one gate")
    for t in sseq.in_tokens:
        if t not in sseq.consumer:
            raise MatchError("schema has a pass-through input wire")
    tseq = OpSeq.of(phi)
    seen = {}
    for t0 in range(len(tseq.ops)):
        emb = _embed(sseq, tseq, t0)
        if emb is None:
            continue
        gate_map, token_map, subst = emb
        g_ops = tuple(sorted(gate_map.values()))
        key = (g_ops, tuple(sorted(subst.items())))
        if key in seen:
            continue
        if _fits(tseq, schema, g_ops, subst):
            seen[key] = site_of(phi, rule_name, g_ops, key[1])
    return sorted_sites(seen.values())


def _fits(tseq: OpSeq, schema: Diagram, g_ops: tuple[int, ...], subst: dict) -> bool:
    """Whether the ops ``g_ops`` form, modulo interchange, a block equal to
    the instantiated schema.  A block whose window has a gap has more inputs
    than the schema, so it never equals it."""
    try:
        *_, local = _block(tseq, g_ops)
    except MatchError:
        return False
    return interchange_canonical_form(local) == interchange_canonical_form(
        instantiate(schema, subst)
    )


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
    ops, lo, hi, base, local = _block(OpSeq.of(phi), g_ops, extend)
    target = make_target(local)
    if target.input != local.input or target.output != local.output:
        raise MatchError("computed target changes the block boundary")
    out = OpSeq(phi.input)
    for op in ops[:lo]:
        out.fire_at(op.gate, op.pos)
    out.splice(target, base)
    for op in ops[hi + 1 :]:
        out.fire_at(op.gate, op.pos)
    return interchange_canonical_form(out.to_diagram())


def replace_at(phi: Diagram, site: MatchSite, target_schema: Diagram) -> Diagram:
    """Replace the matched subdiagram by the instantiated target schema."""
    if hash(phi) != site.fingerprint:
        raise StaleSite("diagram changed since the site was matched")
    return rewrite_block(phi, site.g_ops, lambda local: instantiate(target_schema, site.subst))
