"""Subdiagram matching and replacement modulo interchange.

A schema is a diagram whose gate parameters may contain formula
metavariables (FVar / NVar).  Matching embeds the schema's wiring into the
target's wiring, unifying parameters, and then checks that the matched gates
can be made consecutive by interchange moves with the schema's boundary
occupying a contiguous wire window - exactly the subdiagram condition
chi_d . (id * phi * id) . chi_u.

Source schemas must consume every input wire (no pass-through columns);
all shipped rule sources satisfy this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import Atom, Tensor, Par, One, Bot, FVar, NVar, Formula, negate
from .diagram import (
    AxGate,
    BigGate,
    BotGate,
    Ctrl,
    CutGate,
    Diagram,
    DiagramError,
    Gate,
    OneGate,
    Op,
    OpSeq,
    ParGate,
    TensorGate,
    TwistGate,
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
    if isinstance(pat, Tensor):
        return (
            isinstance(val, Tensor)
            and unify_formula(pat.left, val.left, subst)
            and unify_formula(pat.right, val.right, subst)
        )
    if isinstance(pat, Par):
        return (
            isinstance(val, Par)
            and unify_formula(pat.left, val.left, subst)
            and unify_formula(pat.right, val.right, subst)
        )
    raise TypeError(pat)


def subst_formula(pat: Formula, subst: dict) -> Formula:
    if isinstance(pat, FVar):
        return subst[pat.name]
    if isinstance(pat, NVar):
        return negate(subst[pat.name])
    if isinstance(pat, Tensor):
        return Tensor(subst_formula(pat.left, subst), subst_formula(pat.right, subst))
    if isinstance(pat, Par):
        return Par(subst_formula(pat.left, subst), subst_formula(pat.right, subst))
    return pat


def subst_label(lab, subst: dict):
    if isinstance(lab, Ctrl):
        return lab
    return subst_formula(lab, subst)


def gate_unify(pat: Gate, val: Gate, subst: dict) -> bool:
    if type(pat) is not type(val):
        return False
    if isinstance(pat, TwistGate):
        return unify_formula(pat.left, val.left, subst) and unify_formula(
            pat.right, val.right, subst
        )
    if isinstance(pat, ParGate):
        return unify_formula(pat.left, val.left, subst) and unify_formula(
            pat.right, val.right, subst
        )
    if isinstance(pat, TensorGate):
        return (
            pat.controlled == val.controlled
            and unify_formula(pat.left, val.left, subst)
            and unify_formula(pat.right, val.right, subst)
        )
    if isinstance(pat, (AxGate, CutGate)):
        return pat.controlled == val.controlled and unify_formula(
            pat.formula, val.formula, subst
        )
    if isinstance(pat, OneGate):
        return pat.controlled == val.controlled
    if isinstance(pat, BotGate):
        return True
    if isinstance(pat, BigGate):
        if len(pat.left_word) != len(val.left_word) or len(pat.right_word) != len(
            val.right_word
        ):
            return False
        for p, v in zip(pat.left_word + pat.right_word, val.left_word + val.right_word):
            if isinstance(p, Ctrl) or isinstance(v, Ctrl):
                if p != v:
                    return False
            elif not unify_formula(p, v, subst):
                return False
        return True
    raise TypeError(pat)


def gate_subst(pat: Gate, subst: dict) -> Gate:
    if isinstance(pat, TwistGate):
        return TwistGate(subst_formula(pat.left, subst), subst_formula(pat.right, subst))
    if isinstance(pat, ParGate):
        return ParGate(subst_formula(pat.left, subst), subst_formula(pat.right, subst))
    if isinstance(pat, TensorGate):
        return TensorGate(
            subst_formula(pat.left, subst), subst_formula(pat.right, subst), pat.controlled
        )
    if isinstance(pat, AxGate):
        return AxGate(subst_formula(pat.formula, subst), pat.controlled)
    if isinstance(pat, CutGate):
        return CutGate(subst_formula(pat.formula, subst), pat.controlled)
    if isinstance(pat, (OneGate, BotGate)):
        return pat
    if isinstance(pat, BigGate):
        return BigGate(
            tuple(subst_label(l, subst) for l in pat.left_word),
            tuple(subst_label(l, subst) for l in pat.right_word),
        )
    raise TypeError(pat)


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


# ---------------------------------------------------------------------------
# Block extraction (interchange feasibility)


def _bubble_block(ops: list[Op], g_flags: list[bool]) -> Optional[tuple[list[Op], list[bool], int, int]]:
    """Reorder ops by adjacent commutations so flagged ops are consecutive."""
    ops = list(ops)
    flags = list(g_flags)
    while True:
        gidx = [i for i, f in enumerate(flags) if f]
        lo, hi = gidx[0], gidx[-1]
        inner = [i for i in range(lo + 1, hi) if not flags[i]]
        if not inner:
            return ops, flags, lo, hi
        j = inner[0]
        moved = False
        # try backward, past the G-prefix above it
        trial_ops, trial_flags = list(ops), list(flags)
        ok = True
        for k in range(j, lo, -1):
            sw = swap_adjacent(trial_ops, k - 1)
            if sw is None:
                ok = False
                break
            trial_ops[k - 1], trial_ops[k] = sw
            trial_flags[k - 1], trial_flags[k] = trial_flags[k], trial_flags[k - 1]
        if ok:
            ops, flags = trial_ops, trial_flags
            moved = True
        if not moved:
            trial_ops, trial_flags = list(ops), list(flags)
            ok = True
            for k in range(j, hi):
                sw = swap_adjacent(trial_ops, k)
                if sw is None:
                    ok = False
                    break
                trial_ops[k], trial_ops[k + 1] = sw
                trial_flags[k], trial_flags[k + 1] = trial_flags[k + 1], trial_flags[k]
            if ok:
                ops, flags = trial_ops, trial_flags
                moved = True
        if not moved:
            return None


def _word_before(input_tokens: tuple, ops: list[Op], upto: int) -> list:
    word = list(input_tokens)
    for op in ops[:upto]:
        k = len(op.in_tokens)
        word[op.pos : op.pos + k] = list(op.out_tokens)
    return word


def _block_window(tseq: OpSeq, ops: list[Op], lo: int, hi: int) -> Optional[tuple[int, list]]:
    """Base column and window tokens of the consecutive block ops[lo..hi]."""
    word = _word_before(tseq.in_tokens, ops, lo)
    produced = set()
    external: list = []
    for op in ops[lo : hi + 1]:
        for t in op.in_tokens:
            if t not in produced:
                external.append(t)
        produced.update(op.out_tokens)
    if not external:
        return ops[lo].pos, []
    positions = sorted(word.index(t) for t in external)
    if positions != list(range(positions[0], positions[0] + len(positions))):
        return None
    base = positions[0]
    window = [word[p] for p in positions]
    return base, window


def _local_block(phi_input_window, ops: list[Op], lo: int, hi: int, base: int) -> Optional[Diagram]:
    seq = OpSeq(phi_input_window)
    try:
        for op in ops[lo : hi + 1]:
            seq.fire_at(op.gate, op.pos - base)
        return seq.to_diagram()
    except (DiagramError, MatchError, IndexError):
        return None


# ---------------------------------------------------------------------------
# Public API


def _require_canonical(phi: Diagram) -> Diagram:
    canon = interchange_canonical_form(phi)
    if canon != phi:
        raise MatchError("diagram must be in interchange canonical form")
    return phi


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
    """Whether the ops ``g_ops`` form, modulo interchange, a contiguous block
    equal to the instantiated schema."""
    flags = [i in set(g_ops) for i in range(len(tseq.ops))]
    blk = _bubble_block(tseq.ops, flags)
    if blk is None:
        return False
    ops, bflags, lo, hi = blk
    win = _block_window(tseq, ops, lo, hi)
    if win is None:
        return False
    base, _ = win
    src_inst = instantiate(schema, subst)
    local = _local_block(src_inst.input, ops, lo, hi, base)
    if local is None:
        return False
    return interchange_canonical_form(local) == interchange_canonical_form(src_inst)


def rewrite_block(
    phi: Diagram,
    g_ops: tuple[int, ...],
    make_target,
    extend=None,
) -> Diagram:
    """Replace the subdiagram spanned by the ops ``g_ops`` (canonical firing
    order indices) with a concretely computed target.

    Unlike schema replacement, the window may contain pass-through columns,
    and may be widened by ``extend(labels, lo, hi) -> (lo, hi)`` operating on
    the block-entry word.  ``make_target(local)`` receives the local source
    diagram and must return a diagram with identical boundary.
    """
    _require_canonical(phi)
    tseq = OpSeq.of(phi)
    flags = [i in set(g_ops) for i in range(len(tseq.ops))]
    blk = _bubble_block(tseq.ops, flags)
    if blk is None:
        raise MatchError("ops cannot be made consecutive by interchange")
    ops, bflags, lo_i, hi_i = blk
    word = _word_before(tseq.in_tokens, ops, lo_i)
    produced = set()
    consumed_pos: list[int] = []
    for op in ops[lo_i : hi_i + 1]:
        for t in op.in_tokens:
            if t not in produced:
                consumed_pos.append(word.index(t))
        produced.update(op.out_tokens)
    if consumed_pos:
        lo_c, hi_c = min(consumed_pos), max(consumed_pos)
    else:
        lo_c = hi_c = ops[lo_i].pos
        hi_c -= 1
    labels = [tseq.labels[t] for t in word]
    if extend is not None:
        lo_c, hi_c = extend(labels, lo_c, hi_c)
    window_word = tuple(labels[lo_c : hi_c + 1])
    local = _local_block(window_word, ops, lo_i, hi_i, lo_c)
    if local is None:
        raise MatchError("block does not fit its window")
    target = make_target(local)
    if target.input != local.input or target.output != local.output:
        raise MatchError("computed target changes the block boundary")
    out = OpSeq(phi.input)
    for op in ops[:lo_i]:
        out.fire_at(op.gate, op.pos)
    for top in OpSeq.of(target).ops:
        out.fire_at(top.gate, top.pos + lo_c)
    for op in ops[hi_i + 1 :]:
        out.fire_at(op.gate, op.pos)
    return interchange_canonical_form(out.to_diagram())


def replace_at(phi: Diagram, site: MatchSite, target_schema: Diagram) -> Diagram:
    """Replace the matched subdiagram by the instantiated target schema."""
    if hash(phi) != site.fingerprint:
        raise StaleSite("diagram changed since the site was matched")
    return rewrite_block(phi, site.g_ops, lambda local: instantiate(target_schema, site.subst))
