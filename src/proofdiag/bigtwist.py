"""Big twisting operators: crossing splits, their elimination, untangling.

A crossing split is a pair of splitting gates (tensor or cut) whose branch
pairing crosses: the outer gate's active wire, traced upward through twists,
crosses the inner gate's output *and*, above the inner gate, crosses the
wire that becomes the inner gate's matching active input.  Such splits mark
exactly the binary/binary rule permutations that reorder derivation
branches.

The introduction rewrite exchanges the order of the two splitting gates and
inserts a B-gate that swaps the two branch blocks; the untangle relations
then drive every gate of the two blocks through the B-gate one at a time
(strictly decreasing the number of gates above it) until the bracket
producers pass through and the B-gate disappears.

The finders read the diagram's shared op graph (``matching.op_graph``).
Every target is built by firing its gates into one ``OpSeq`` at computed
positions, and wires are walked through twists with ``chase``.  The
split patterns here are reconstructed from prose; the figures in the source
material are unreadable.  Every rewrite is guarded by an exact
boundary-preservation check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import negate, show
from .diagram import (
    AxGate,
    BigGate,
    Ctrl,
    CutGate,
    Diagram,
    DiagramError,
    OneGate,
    OpGraph,
    OpSeq,
    TensorGate,
    TwistGate,
)
from .matching import MatchSite, op_graph, rewrite_block, site_of, sorted_sites
from .perm import Permutation, fire_perm, ladder_left_word, ladder_right_word


class NoCrossingSplit(DiagramError):
    pass


class NotIrreducible(DiagramError):
    pass


def _is_split(gate) -> bool:
    return isinstance(gate, (TensorGate, CutGate)) and gate.controlled


def _fired(word, *firings) -> Diagram:
    """The diagram of the (gate, position) firings, in order, over word."""
    seq = OpSeq(word)
    for gate, pos in firings:
        seq.fire_at(gate, pos)
    return seq.to_diagram()


# ---------------------------------------------------------------------------
# Wire tracing


def _chain_up(tseq: OpGraph, tok: int) -> list[tuple[int, int, int, bool]]:
    """The twists above a wire, followed upward: (op index, predecessor
    token, crossed token, moved_right) each, where moved_right says the wire
    moved left-to-right on the way down."""
    chain = []
    while (pi := tseq.producer[tok]) is not None and isinstance(tseq.ops[pi].gate, TwistGate):
        op = tseq.ops[pi]
        port = op.out_tokens.index(tok)
        tok = op.in_tokens[1 - port]
        chain.append((pi, tok, op.in_tokens[port], port == 1))
    return chain


# ---------------------------------------------------------------------------
# Crossing splits


@dataclass(frozen=True)
class Split:
    alpha: int  # outer splitting op (below)
    beta: int  # inner splitting op (above)
    case: str  # 'left' (case i) or 'right' (case ii)
    chain: tuple  # upward chain of the crossing wire from alpha's active input


def _axiom_other_leg(tseq: OpGraph, tok: int):
    """If tok is an axiom's formula leg, the op index and its other leg."""
    pi = tseq.producer[tok]
    if pi is None or not isinstance(tseq.ops[pi].gate, AxGate):
        return None
    op = tseq.ops[pi]
    port = op.out_tokens.index(tok)
    if port not in (1, 2):
        return None
    return pi, op.out_tokens[3 - port]


def _preferred_axiom(f) -> bool:
    """Canonical orientation for axiom formulas, used as a tie break.

    After axiom involution has normalized a crossing twist away, the two
    ~-equivalent branch arrangements differ only in the axiom's orientation;
    treating exactly one orientation as split-bearing makes untangling
    terminate and lands on the arrangement whose axiom is preferred.
    """
    return show(f) <= show(negate(f))


def crossing_splits_of(phi: Diagram) -> list[Split]:
    """All crossing splits of a canonical diagram (no irreducibility check).

    The crossing above the inner split is either an explicit twist or, after
    axiom involution has fired, folded into the orientation of an axiom
    whose other leg feeds the inner split's matching input.
    """
    tseq = op_graph(phi)
    splits = []
    for ai, aop in enumerate(tseq.ops):
        if not _is_split(aop.gate):
            continue
        for case, port, beta_port in (("left", 0, 0), ("right", 3, 3)):
            chain = _chain_up(tseq, aop.in_tokens[port])
            for idx, (ti, pred, other, moved_right) in enumerate(chain):
                if case == "left" and not moved_right:
                    continue
                if case == "right" and moved_right:
                    continue
                bp = tseq.producer[other]
                if bp is None or not _is_split(tseq.ops[bp].gate):
                    continue
                into_beta = (bp, tseq.ops[bp].in_tokens[beta_port])
                hit = any(tseq.chase(c[2]) == into_beta for c in chain[idx + 1 :])
                if not hit and idx == len(chain) - 1:
                    leg = _axiom_other_leg(tseq, pred)
                    hit = (
                        leg is not None
                        and not _preferred_axiom(tseq.ops[leg[0]].gate.formula)
                        and tseq.chase(leg[1]) == into_beta
                    )
                if hit:
                    splits.append(Split(ai, bp, case, tuple(chain)))
                    break
    return splits


# ---------------------------------------------------------------------------
# Untangle relations: gates slide through a B-gate


def find_untangle(phi: Diagram, side: str) -> list[MatchSite]:
    """Gates whose outputs all enter one side's block of a B-gate, side by
    side: a wire between them would be cut out with them."""
    tseq = op_graph(phi)
    rule = f"untangle-{side}"
    sites = []
    for bi in tseq.by_family.get("big", ()):
        bop = tseq.ops[bi]
        nl, nr = len(bop.gate.left_word), len(bop.gate.right_word)
        rng = range(1, 1 + nl) if side == "left" else range(3 + nl, 3 + nl + nr)
        for gi, gop in enumerate(tseq.ops):
            if gi == bi or not gop.out_tokens:
                continue
            # a wire that misses the B-gate sits at -1, outside either block
            pos = [
                bop.in_tokens.index(t) if t in bop.in_tokens else -1
                for t in gop.out_tokens
            ]
            if pos == list(range(pos[0], pos[0] + len(pos))) and pos[0] in rng and pos[-1] in rng:
                j = pos[0] - rng.start
                sites.append(site_of(phi, rule, (gi, bi), payload=(side, j)))
    return sorted_sites(sites)


def apply_untangle(phi: Diagram, site: MatchSite) -> Diagram:
    side, j = site.payload
    g, b = (op_graph(phi).ops[i].gate for i in site.g_ops)
    lw, rw = tuple(b.left_word), tuple(b.right_word)
    k_out = len(g.outputs)
    if side == "left":
        nb = BigGate(lw[:j] + tuple(g.inputs) + lw[j + k_out :], rw)
        refire_at = 3 + len(rw) + j  # inside the second output block
    else:
        nb = BigGate(lw, rw[:j] + tuple(g.inputs) + rw[j + k_out :])
        refire_at = 1 + j  # inside the first output block
    firings = (nb, 0), (g, refire_at)
    return rewrite_block(phi, site.g_ops, lambda local: _fired(local.input, *firings))


def find_collapse(phi: Diagram, side: str) -> list[MatchSite]:
    """A bracket-producing 0-ary gate feeding an entire B block vanishes it."""
    tseq = op_graph(phi)
    rule = f"big-collapse-{side}"
    sites = []
    for bi in tseq.by_family.get("big", ()):
        bop = tseq.ops[bi]
        nl = len(bop.gate.left_word)
        nr = len(bop.gate.right_word)
        if side == "left":
            block = bop.in_tokens[0 : 2 + nl]
        else:
            block = bop.in_tokens[2 + nl :]
        producers = {tseq.producer[t] for t in block}
        if len(producers) != 1:
            continue
        (gi,) = producers
        if gi is None:
            continue
        gop = tseq.ops[gi]
        if not isinstance(gop.gate, (AxGate, OneGate)):
            continue
        if tuple(gop.out_tokens) != tuple(block):
            continue
        sites.append(site_of(phi, rule, (gi, bi), payload=(side,)))
    return sorted_sites(sites)


def apply_collapse(phi: Diagram, site: MatchSite) -> Diagram:
    (side,) = site.payload
    g = op_graph(phi).ops[site.g_ops[0]].gate

    def target(local: Diagram) -> Diagram:
        return _fired(local.input, (g, len(local.input) if side == "left" else 0))

    return rewrite_block(phi, site.g_ops, target)


# ---------------------------------------------------------------------------
# Crossing-split introduction


def _bracket_close(labels, start: int) -> int:
    """Index of the R matching the L at ``start`` (interior pairs nest)."""
    depth = 0
    for i in range(start, len(labels)):
        lab = labels[i]
        if isinstance(lab, Ctrl):
            depth += 1 if lab.side == "L" else -1
            if depth == 0:
                return i
    raise DiagramError("unbalanced control brackets")


def _supported_intro(tseq: OpGraph, sp: Split) -> Optional[tuple[set, int]]:
    """Check the tight shape this implementation rewrites; see module doc.

    Case 'left': alpha.in[0]'s chain is a ladder over [Q-rest..., beta.out],
    then one twist against beta's left input which feeds beta directly - or
    the ladder ends at an axiom leg whose twin feeds beta (the involuted
    form); the latter is exposed by flipping the axiom first.  Returns the
    site's ops and the axiom to flip (-1 for none).
    """
    chain = sp.chain
    want_right = sp.case == "left"
    beta_port = 0 if sp.case == "left" else 3
    k = next((i for i, c in enumerate(chain) if tseq.producer[c[2]] == sp.beta), None)
    if k is None or any(c[3] != want_right for c in chain[: k + 1]):
        return None
    members = {sp.alpha, sp.beta, *(c[0] for c in chain[: k + 1])}
    beta_in = tseq.ops[sp.beta].in_tokens[beta_port]
    if len(chain) >= k + 2:
        ti0, _, _, mr = chain[k + 1]
        # the top crossing must run the other way, against beta's input
        if mr == want_right or beta_in not in tseq.ops[ti0].out_tokens:
            return None
        return members | {ti0}, -1
    # axiom-involuted form: the wire above the ladder is an axiom leg whose
    # twin feeds beta's matching input directly
    leg = _axiom_other_leg(tseq, chain[k][1])
    if leg is None or _preferred_axiom(tseq.ops[leg[0]].gate.formula) or leg[1] != beta_in:
        return None
    return members | {leg[0]}, leg[0]


def find_big_intro(phi: Diagram) -> list[MatchSite]:
    """Crossing-split introduction sites (B-free, tight-shape splits only)."""
    tseq = op_graph(phi)
    if "big" in tseq.by_family:
        return []
    sites = []
    for sp in crossing_splits_of(phi):
        sup = _supported_intro(tseq, sp)
        if sup is not None:
            members, ax_op = sup
            payload = (sp.case, sp.alpha, sp.beta, ax_op)
            sites.append(site_of(phi, "big-intro", tuple(sorted(members)), payload=payload))
    return sorted_sites(sites)


def _flip_axiom(phi: Diagram, ax_idx: int) -> Diagram:
    """Un-apply the axiom involution: Ax(A) becomes Ax(A^) plus a twist."""
    f = op_graph(phi).ops[ax_idx].gate.formula
    flipped = _fired((), (AxGate(negate(f), True), 0), (TwistGate(negate(f), f), 1))
    return rewrite_block(phi, (ax_idx,), lambda local: flipped)


def _swap_blocks(seq: OpSeq, at: int, n1: int, n2: int) -> None:
    """Fire the canonical twists moving the n1 live wires from ``at`` past
    the n2 after them."""
    images = [i + n2 for i in range(1, n1 + 1)] + [j - n1 for j in range(n1 + 1, n1 + n2 + 1)]
    fire_perm(seq, Permutation(tuple(images)), at)


def apply_big_intro(phi: Diagram, site: MatchSite) -> Diagram:
    case, alpha, beta, ax_flip = site.payload
    if ax_flip >= 0:
        # expose the top crossing hidden inside the axiom's orientation,
        # then rewrite the now-explicit split
        flipped = _flip_axiom(phi, ax_flip)
        sites = find_big_intro(flipped)
        for s in sites:
            if s.payload[0] == case and s.payload[3] == -1:
                return apply_big_intro(flipped, s)
        raise DiagramError("axiom flip did not expose the crossing split")
    ops = op_graph(phi).ops

    def split(original, left, right):
        # a tensor or a cut, as the original splitting gate is
        if isinstance(original, TensorGate):
            return TensorGate(left, right, True)
        return CutGate(left, True)

    if case == "left":
        def extend(labels, lo, hi):
            # window currently ends at S1; extend to S's closing bracket
            ls = hi - 1  # position of L_s (alpha consumed ..., R, L_s, S1)
            while not (isinstance(labels[ls], Ctrl) and labels[ls].side == "L"):
                ls -= 1
            return lo, _bracket_close(labels, ls)

        def target(local: Diagram) -> Diagram:
            w = local.input
            # (P, X, R | L q... R | L s... R)
            qe = _bracket_close(w, 3)
            se = _bracket_close(w, qe + 1)
            if se != len(w) - 1:
                raise DiagramError("crossing-split window mis-shaped")
            Qw, Sw = w[4:qe], w[qe + 2 : se]
            seq = OpSeq(w)
            seq.fire_at(BigGate(Qw, Sw), 3)  # P X R | L Sw R | L Qw R
            alpha2 = split(ops[alpha].gate, w[1], Sw[0])
            seq.fire_at(alpha2, 1)  # P aout Srest R L Qw R
            # carry P rightward over (aout, S-rest) to meet the Q block
            seq.splice(ladder_left_word((w[0],) + alpha2.outputs + Sw[1:]), 0)
            n1 = len(alpha2.outputs) + len(Sw) - 1  # aout Srest
            beta2 = split(ops[beta].gate, w[0], Qw[0])
            seq.fire_at(beta2, n1)  # aout Srest bout Qrest R
            _swap_blocks(seq, 0, n1, len(beta2.outputs) + len(Qw) - 1)
            return seq.to_diagram()

        return rewrite_block(phi, site.g_ops, target, extend)

    # case 'right'
    def extend(labels, lo, hi):
        # window starts at T-last: extend left to T's opening bracket, then
        # right across the three brackets to the Q block's close
        lt = lo
        depth = 0
        while True:
            lab = labels[lt]
            if isinstance(lab, Ctrl):
                depth += 1 if lab.side == "R" else -1
                if depth < 0:
                    break
            lt -= 1
        te = _bracket_close(labels, lt)
        pe = _bracket_close(labels, te + 1)
        qe = _bracket_close(labels, pe + 1)
        return lt, qe

    def target(local: Diagram) -> Diagram:
        w = local.input
        # (L T... Tlast R | L P... Plast R | L Y Q1 rest R)
        te = _bracket_close(w, 0)
        pe = _bracket_close(w, te + 1)
        qe = _bracket_close(w, pe + 1)
        if qe != len(w) - 1:
            raise DiagramError("crossing-split window mis-shaped")
        Tw, Pw, Qw = w[1:te], w[te + 2 : pe], w[pe + 2 : qe]
        seq = OpSeq(w)
        seq.fire_at(BigGate(Tw, Pw), 0)  # L Pw R | L Tw R | L Y Q1 rest R
        alpha2 = split(ops[alpha].gate, Tw[-1], Qw[0])
        seq.fire_at(alpha2, 2 + len(Pw) + len(Tw))  # L Pw R | L Trest aout Q1 rest R
        # carry Q1 leftward over (T-rest, aout) to sit after the block's L
        lad = 3 + len(Pw)
        seq.splice(ladder_right_word(seq.output[lad : lad + len(Tw) + len(alpha2.outputs)]), lad)
        beta2 = split(ops[beta].gate, Pw[-1], Qw[1])
        seq.fire_at(beta2, len(Pw))  # L Prest bout Trest aout Qrest R
        _swap_blocks(seq, 1, len(Pw) - 1 + len(beta2.outputs), len(Tw) - 1 + len(alpha2.outputs))
        return seq.to_diagram()

    return rewrite_block(phi, site.g_ops, target, extend)
