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

The split patterns here are reconstructed from prose; the figures in the
source material are unreadable.  Every rewrite is guarded by an exact
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
    OpSeq,
    TensorGate,
    TwistGate,
    compose_seq,
    identity,
    parallel,
    single,
)
from .matching import MatchSite, rewrite_block, site_of, sorted_sites
from .perm import Permutation, canonical_perm_diagram, ladder_left_word, ladder_right_word


class NoCrossingSplit(DiagramError):
    pass


class NotIrreducible(DiagramError):
    pass


def _is_split(gate) -> bool:
    return isinstance(gate, (TensorGate, CutGate)) and gate.controlled


# ---------------------------------------------------------------------------
# Wire tracing


def _twist_step_up(tseq: OpSeq, tok: int):
    """Follow tok one twist upward; None when the producer is not a twist.

    Returns (op index, predecessor token, crossed token, moved_right) where
    moved_right says the wire moved left-to-right on the way down.
    """
    pi = tseq.producer.get(tok)
    if pi is None:
        return None
    op = tseq.ops[pi]
    if not isinstance(op.gate, TwistGate):
        return None
    port = op.out_tokens.index(tok)
    if port == 1:
        return pi, op.in_tokens[0], op.in_tokens[1], True
    return pi, op.in_tokens[1], op.in_tokens[0], False


def _trace_down(tseq: OpSeq, tok: int) -> Optional[tuple[int, int]]:
    """Final non-twist consumer of a wire, following twists downward."""
    while True:
        ci = tseq.consumer.get(tok)
        if ci is None:
            return None
        op = tseq.ops[ci]
        if not isinstance(op.gate, TwistGate):
            return ci, op.in_tokens.index(tok)
        port = op.in_tokens.index(tok)
        tok = op.out_tokens[1 - port]


def _chain_up(tseq: OpSeq, tok: int) -> list[tuple[int, int, int, bool]]:
    chain = []
    cur = tok
    while True:
        step = _twist_step_up(tseq, cur)
        if step is None:
            return chain
        chain.append(step)
        cur = step[1]


# ---------------------------------------------------------------------------
# Crossing splits


@dataclass(frozen=True)
class Split:
    alpha: int  # outer splitting op (below)
    beta: int  # inner splitting op (above)
    case: str  # 'left' (case i) or 'right' (case ii)
    chain: tuple  # upward chain of the crossing wire from alpha's active input


def _axiom_other_leg(tseq: OpSeq, tok: int):
    """If tok is an axiom's formula leg, the op index and its other leg."""
    pi = tseq.producer.get(tok)
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
    tseq = OpSeq.of(phi)
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
                bp = tseq.producer.get(other)
                if bp is None or not _is_split(tseq.ops[bp].gate):
                    continue
                hit = False
                for (ti2, pred2, other2, _mr2) in chain[idx + 1 :]:
                    down = _trace_down(tseq, other2)
                    if down is not None and down == (bp, beta_port):
                        hit = True
                        break
                if not hit and idx == len(chain) - 1:
                    leg = _axiom_other_leg(tseq, pred)
                    if leg is not None and not _preferred_axiom(
                        tseq.ops[leg[0]].gate.formula
                    ):
                        down = _trace_down(tseq, leg[1])
                        if down is not None and down == (bp, beta_port):
                            hit = True
                if hit:
                    splits.append(Split(ai, bp, case, tuple(chain)))
                    break
    return splits


# ---------------------------------------------------------------------------
# Untangle relations: gates slide through a B-gate


def _big_ranges(bop) -> tuple[range, range, int, int]:
    lw, rw = bop.gate.left_word, bop.gate.right_word
    left = range(1, 1 + len(lw))
    right = range(3 + len(lw), 3 + len(lw) + len(rw))
    return left, right, len(lw), len(rw)


def _find_untangle(phi: Diagram, side: str) -> list[MatchSite]:
    tseq = OpSeq.of(phi)
    rule = f"untangle-{side}"
    sites = []
    for bi, bop in enumerate(tseq.ops):
        if not isinstance(bop.gate, BigGate):
            continue
        left, right, nl, nr = _big_ranges(bop)
        rng = left if side == "left" else right
        for gi, gop in enumerate(tseq.ops):
            if gi == bi or not gop.out_tokens:
                continue
            pos = [
                bop.in_tokens.index(t) if t in bop.in_tokens else -1
                for t in gop.out_tokens
            ]
            if any(p < 0 for p in pos):
                continue
            if all(p in rng for p in pos):
                j = min(pos) - rng.start
                sites.append(site_of(phi, rule, (gi, bi), payload=(side, j)))
    return sorted_sites(sites)


def find_untangle_left(phi: Diagram) -> list[MatchSite]:
    return _find_untangle(phi, "left")


def find_untangle_right(phi: Diagram) -> list[MatchSite]:
    return _find_untangle(phi, "right")


def apply_untangle(phi: Diagram, site: MatchSite) -> Diagram:
    side, j = site.payload
    gi, bi = site.g_ops
    tseq = OpSeq.of(phi)
    g, b = tseq.ops[gi].gate, tseq.ops[bi].gate
    lw, rw = tuple(b.left_word), tuple(b.right_word)
    k_in, k_out = len(g.inputs), len(g.outputs)
    if side == "left":
        new_lw = lw[:j] + tuple(g.inputs) + lw[j + k_out :]
        nb = BigGate(new_lw, rw)
        refire_at = 3 + len(rw) + j  # inside the second output block
    else:
        new_rw = rw[:j] + tuple(g.inputs) + rw[j + k_out :]
        nb = BigGate(lw, new_rw)
        refire_at = 1 + j  # inside the first output block

    def target(local: Diagram) -> Diagram:
        step1 = single(nb)
        word = step1.output
        step2 = parallel(
            identity(word[:refire_at]),
            single(g),
            identity(word[refire_at + k_in :]),
        )
        return compose_seq(step1, step2)

    return rewrite_block(phi, site.g_ops, target)


def _find_collapse(phi: Diagram, side: str) -> list[MatchSite]:
    """A bracket-producing 0-ary gate feeding an entire B block vanishes it."""
    tseq = OpSeq.of(phi)
    rule = f"big-collapse-{side}"
    sites = []
    for bi, bop in enumerate(tseq.ops):
        if not isinstance(bop.gate, BigGate):
            continue
        nl = len(bop.gate.left_word)
        nr = len(bop.gate.right_word)
        if side == "left":
            block = bop.in_tokens[0 : 2 + nl]
        else:
            block = bop.in_tokens[2 + nl :]
        producers = {tseq.producer.get(t) for t in block}
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


def find_collapse_left(phi: Diagram) -> list[MatchSite]:
    return _find_collapse(phi, "left")


def find_collapse_right(phi: Diagram) -> list[MatchSite]:
    return _find_collapse(phi, "right")


def apply_collapse(phi: Diagram, site: MatchSite) -> Diagram:
    (side,) = site.payload
    gi, bi = site.g_ops
    tseq = OpSeq.of(phi)
    g = tseq.ops[gi].gate

    def target(local: Diagram) -> Diagram:
        if side == "left":
            return parallel(identity(local.input), single(g))
        return parallel(single(g), identity(local.input))

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


def _supported_intro(tseq: OpSeq, sp: Split) -> Optional[tuple]:
    """Check the tight shape this implementation rewrites; see module doc.

    Case 'left': alpha.in[0]'s chain is a ladder over [Q-rest..., beta.out],
    then one twist against beta's left input which feeds beta directly - or
    the ladder ends at an axiom leg whose twin feeds beta (the involuted
    form); the latter is exposed by flipping the axiom first.
    """
    aop = tseq.ops[sp.alpha]
    chain = sp.chain
    want_right = sp.case == "left"
    beta_port = 0 if sp.case == "left" else 3
    k = None
    for idx, (ti, pred, other, mr) in enumerate(chain):
        if tseq.producer.get(other) == sp.beta:
            k = idx
            break
    if k is None:
        return None
    for (ti, pred, other, mr) in chain[: k + 1]:
        if mr != want_right:
            return None
    bop = tseq.ops[sp.beta]
    if len(chain) >= k + 2:
        t0 = chain[k + 1]
        if t0[3] == want_right:  # the top crossing runs the other way
            return None
        ti0 = t0[0]
        if bop.in_tokens[beta_port] not in tseq.ops[ti0].out_tokens:
            return None
        ladder = [c[0] for c in chain[: k + 1]]
        return (sp.case, ladder, ti0, None, k)
    # axiom-involuted form: the wire above the ladder is an axiom leg whose
    # twin feeds beta's matching input directly
    top_pred = chain[k][1]
    leg = _axiom_other_leg(tseq, top_pred)
    if leg is None:
        return None
    ax_op, twin = leg
    if _preferred_axiom(tseq.ops[ax_op].gate.formula):
        return None
    if tseq.consumer.get(twin) != sp.beta:
        return None
    if bop.in_tokens[beta_port] != twin:
        return None
    ladder = [c[0] for c in chain[: k + 1]]
    return (sp.case, ladder, None, ax_op, k)


def find_big_intro(phi: Diagram) -> list[MatchSite]:
    """Crossing-split introduction sites (B-free, tight-shape splits only)."""
    if any(isinstance(g, BigGate) for _, _, g in phi.gates()):
        return []
    tseq = OpSeq.of(phi)
    sites = []
    for sp in crossing_splits_of(phi):
        sup = _supported_intro(tseq, sp)
        if sup is None:
            continue
        case, ladder, t0, ax_op, k = sup
        members = {sp.alpha, sp.beta, *ladder}
        if t0 is not None:
            members.add(t0)
        if ax_op is not None:
            members.add(ax_op)
        g_ops = tuple(sorted(members))
        payload = (case, sp.alpha, sp.beta, -1 if ax_op is None else ax_op)
        sites.append(site_of(phi, "big-intro", g_ops, payload=payload))
    return sorted_sites(sites)


def _flip_axiom(phi: Diagram, ax_idx: int) -> Diagram:
    """Un-apply the axiom involution: Ax(A) becomes Ax(A^) plus a twist."""
    tseq = OpSeq.of(phi)
    g = tseq.ops[ax_idx].gate
    f = g.formula

    def target(local: Diagram) -> Diagram:
        flipped = single(AxGate(negate(f), True))
        word = flipped.output
        tw = parallel(
            identity(word[:1]), single(TwistGate(negate(f), f)), identity(word[3:])
        )
        return compose_seq(flipped, tw)

    return rewrite_block(phi, (ax_idx,), target)


def _block_swap_perm(n1: int, n2: int) -> Permutation:
    """Permutation moving a block of n1 wires past a block of n2 wires."""
    images = [i + n2 for i in range(1, n1 + 1)] + [j - n1 for j in range(n1 + 1, n1 + n2 + 1)]
    return Permutation(tuple(images))


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
    tseq = OpSeq.of(phi)
    aop, bop = tseq.ops[alpha], tseq.ops[beta]

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
            qs = 3
            qe = _bracket_close(w, qs)
            ss = qe + 1
            se = _bracket_close(w, ss)
            if se != len(w) - 1:
                raise DiagramError("crossing-split window mis-shaped")
            Qw, Sw = w[qs + 1 : qe], w[ss + 1 : se]
            P, X = w[0], w[1]
            big = BigGate(Qw, Sw)
            step1 = parallel(identity(w[:3]), single(big))
            w1 = step1.output  # P X R | L Sw R | L Qw R
            if isinstance(aop.gate, TensorGate):
                alpha2 = TensorGate(X, Sw[0], True)
            else:
                alpha2 = CutGate(X, True)
            step2 = parallel(identity(w1[:1]), single(alpha2), identity(w1[5:]))
            w2 = step2.output  # P a'... Srest R L Qw R
            aout = alpha2.outputs
            lad_word = (P,) + aout + Sw[1:]
            step3 = parallel(ladder_left_word(lad_word), identity(w2[len(lad_word):]))
            w3 = step3.output
            if isinstance(bop.gate, TensorGate):
                beta2 = TensorGate(P, Qw[0], True)
            else:
                beta2 = CutGate(P, True)
            ppos = len(lad_word) - 1
            step4 = parallel(identity(w3[:ppos]), single(beta2), identity(w3[ppos + 4 :]))
            w4 = step4.output  # aout Srest bout Qrest R
            bout = beta2.outputs
            n1 = len(aout) + len(Sw[1:])
            n2 = len(bout) + len(Qw[1:])
            perm = _block_swap_perm(n1, n2)
            step5 = parallel(
                canonical_perm_diagram(perm, w4[: n1 + n2]), identity(w4[n1 + n2 :])
            )
            out = compose_seq(compose_seq(compose_seq(compose_seq(step1, step2), step3), step4), step5)
            return out

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
        # (L T... Tlast R | L P... Plast R | L q Y Q1 rest R) -- brackets:
        ts = 0
        te = _bracket_close(w, ts)
        ps = te + 1
        pe = _bracket_close(w, ps)
        qs = pe + 1
        qe = _bracket_close(w, qs)
        if qe != len(w) - 1:
            raise DiagramError("crossing-split window mis-shaped")
        Tw, Pw, Qw = w[ts + 1 : te], w[ps + 1 : pe], w[qs + 1 : qe]
        Y, Q1, Qrest = Qw[0], Qw[1], Qw[2:]
        big = BigGate(Tw, Pw)
        step1 = parallel(single(big), identity(w[qs:]))
        w1 = step1.output  # L Pw R | L Tw R | L Y Q1 rest R
        if isinstance(aop.gate, TensorGate):
            alpha2 = TensorGate(Tw[-1], Y, True)
        else:
            alpha2 = CutGate(Tw[-1], True)
        apos = 2 + len(Pw) + len(Tw)
        step2 = parallel(identity(w1[:apos]), single(alpha2), identity(w1[apos + 4 :]))
        w2 = step2.output  # L Pw R | L Trest aout Q1 rest R
        aout = alpha2.outputs
        # carry Q1 leftward over (aout, T-rest) to sit after the block's L
        lad_word = w2[3 + len(Pw) : 3 + len(Pw) + len(Tw) - 1 + len(aout) + 1]
        lad = ladder_right_word(lad_word)
        step3 = parallel(identity(w2[: 3 + len(Pw)]), lad, identity(w2[3 + len(Pw) + len(lad_word) :]))
        w3 = step3.output  # L Pw R | L Q1 Trest aout rest R
        if isinstance(bop.gate, TensorGate):
            beta2 = TensorGate(Pw[-1], Q1, True)
        else:
            beta2 = CutGate(Pw[-1], True)
        bpos = len(Pw)
        step4 = parallel(identity(w3[:bpos]), single(beta2), identity(w3[bpos + 4 :]))
        w4 = step4.output  # L Prest bout Trest aout Qrest R
        bout = beta2.outputs
        n1 = len(Pw) - 1 + len(bout)
        n2 = len(Tw) - 1 + len(aout)
        perm = _block_swap_perm(n1, n2)
        step5 = parallel(
            identity(w4[:1]),
            canonical_perm_diagram(perm, w4[1 : 1 + n1 + n2]),
            identity(w4[1 + n1 + n2 :]),
        )
        return compose_seq(compose_seq(compose_seq(compose_seq(step1, step2), step3), step4), step5)

    return rewrite_block(phi, site.g_ops, target, extend)
