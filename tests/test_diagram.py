"""Diagram core: compositions, canonical form, matching."""
import itertools
import random

import pytest

from proofdiag.formula import FVar, Par, atom, negate, BOT
from proofdiag.diagram import (
    AxGate,
    BotGate,
    BoundaryMismatch,
    CutGate,
    Diagram,
    EMPTY,
    Gate,
    OneGate,
    OpSeq,
    ParGate,
    Slot,
    TensorGate,
    TwistGate,
    build,
    compose_par,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    is_formula_label,
    is_gate,
    parallel,
    single,
    slot_inputs,
    slot_outputs,
    swap_adjacent,
)
from proofdiag.matching import (
    MatchError,
    StaleSite,
    find_matches,
    instantiate,
    replace_at,
    rewrite_block,
)
from proofdiag.polygraph import normalize, polygraph
from proofdiag.translate import represent
import match_model as model
from conftest import random_with_cut

a, b, c = atom("a"), atom("b"), atom("c")
A, B, C = FVar("A"), FVar("B"), FVar("C")

INV_SRC = build((A, B), (TwistGate(A, B),), (TwistGate(B, A),))
INV_TGT = identity((A, B))
YB_SRC = build(
    (A, B, C),
    (TwistGate(A, B), C),
    (B, TwistGate(A, C)),
    (TwistGate(B, C), A),
)
YB_TGT = build(
    (A, B, C),
    (A, TwistGate(B, C)),
    (TwistGate(A, C), B),
    (C, TwistGate(A, B)),
)


def test_compose_seq_identity_unit():
    phi = single(TwistGate(a, b))
    assert canon(compose_seq(identity((a, b)), phi)) == canon(phi)
    assert canon(compose_seq(phi, identity((b, a)))) == canon(phi)


def test_compose_seq_stacks_without_reducing():
    d = compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a)))
    assert len(d.layers) == 2
    assert gate_count(d) == 2
    assert d.input == (a, b) and d.output == (a, b)


def test_compose_seq_boundary_mismatch_position():
    with pytest.raises(BoundaryMismatch) as e:
        compose_seq(single(TwistGate(a, b)), single(TwistGate(a, b)))
    assert e.value.position == 0


def test_compose_par_unit_and_concat():
    phi = single(ParGate(a, b))
    assert compose_par(EMPTY, phi) == phi
    assert compose_par(phi, EMPTY) == phi
    ax1, ax2 = single(AxGate(a, False)), single(AxGate(b, False))
    both = compose_par(ax1, ax2)
    assert both.output == (a, negate(a), b, negate(b))


def test_compose_par_pads_shorter_side_with_identities():
    one_layer = single(TwistGate(a, a))
    three = compose_seq(
        compose_seq(single(TwistGate(b, b)), single(TwistGate(b, b))),
        single(TwistGate(b, b)),
    )
    out = compose_par(one_layer, three)
    assert len(out.layers) == 3
    # wire a padded with identity slots below its gate
    flat = [s for layer in out.layers[1:] for s in layer[:2]]
    assert all(not is_gate(s) for s in flat)
    # brute layer-by-layer construction agrees
    expect = Diagram(
        (a, a, b, b),
        (
            (TwistGate(a, a), TwistGate(b, b)),
            (a, a, TwistGate(b, b)),
            (a, a, TwistGate(b, b)),
        ),
    )
    assert out == expect


def test_seq_assoc_and_par_assoc_after_canonical():
    p1 = single(TwistGate(a, b))
    p2 = single(TwistGate(b, a))
    p3 = single(TwistGate(a, b))
    l = compose_seq(compose_seq(p1, p2), p3)
    r = compose_seq(p1, compose_seq(p2, p3))
    assert canon(l) == canon(r)
    q = single(BotGate())
    assert compose_par(compose_par(p1, q), q) == compose_par(p1, compose_par(q, q))


def test_canonical_interchange_equality():
    phi, psi = ParGate(a, b), BotGate()
    d1 = build((a, b), (phi,), (phi.outputs[0], psi))
    d2 = build((a, b), (a, b, psi), (phi, BOT))
    assert canon(d1) == canon(d2)


def test_canonical_idempotent_and_preserving():
    d = build(
        (a, b, c),
        (TwistGate(a, b), c),
        (b, TwistGate(a, c)),
        (TwistGate(b, c), a),
    )
    cd = canon(d)
    assert canon(cd) == cd
    assert cd.input == d.input and cd.output == d.output
    assert sorted(map(repr, cd.gate_list())) == sorted(map(repr, d.gate_list()))


# ---------------------------------------------------------------------------
# The hoisting fixpoint that the one-pass canonical form replaced, kept as its
# differential model


def _try_hoist(grid: list[list[Slot]], li: int, si: int) -> bool:
    """Move the gate at grid[li][si] into layer li-1 if its wires permit."""
    gate = grid[li][si]
    above = grid[li - 1]
    # Input position range of the gate within layer li's input word.
    p = 0
    for s in grid[li][:si]:
        p += len(slot_inputs(s))
    k = len(slot_inputs(gate))
    # Map output positions of `above` to slots.
    bounds = []  # (start, end, slot index) per slot of `above`
    q = 0
    for idx, s in enumerate(above):
        w = len(slot_outputs(s))
        bounds.append((q, q + w, idx))
        q += w
    if k == 0:
        # Insertion point p must fall on a slot boundary of `above`.
        at = None
        for start, end, idx in bounds:
            if start == p:
                at = idx
                break
        if at is None:
            if p == q:
                at = len(above)
            else:
                return False  # inside some gate's output block
    else:
        touched = [idx for start, end, idx in bounds if start < p + k and end > p]
        if not touched:
            return False
        for idx in touched:
            if isinstance(above[idx], Gate):
                return False
        # Slots must be contiguous (a zero-output gate in between blocks hoisting).
        if touched != list(range(touched[0], touched[0] + len(touched))):
            return False
        if len(touched) != k:
            return False
        at = touched[0]
    # Perform the move.
    if k == 0:
        above[at:at] = [gate]
    else:
        above[at : at + k] = [gate]
    grid[li][si : si + 1] = list(slot_outputs(gate))
    return True


def model_canonical_layers(phi: Diagram) -> tuple:
    """Hoist gates one layer at a time until nothing moves; drop identity layers."""
    grid = [list(layer) for layer in phi.layers]
    changed = True
    while changed:
        changed = False
        for li in range(1, len(grid)):
            si = 0
            while si < len(grid[li]):
                if isinstance(grid[li][si], Gate) and _try_hoist(grid, li, si):
                    changed = True
                else:
                    si += 1
    return tuple(tuple(layer) for layer in grid if any(isinstance(s, Gate) for s in layer))


na = negate(a)
# interchange-equal, yet not all with one canonical form: a cut and a 0-input
# gate at the same wire keep the order they have in one layer
CUT_ORDER = [
    build((a, na), (CutGate(a, False), AxGate(b, False))),
    build((a, na), (AxGate(b, False), CutGate(a, False))),
    build((a, na), (CutGate(a, False),), (AxGate(b, False),)),
]


def _gate_moves(word, controlled):
    """(gate, position) for each gate of the signature that fits the word
    there, with a tensor's operands up to three wires apart."""
    moves = [
        (g, p)
        for p in range(len(word) + 1)
        for g in (AxGate(a, controlled), AxGate(b, controlled), OneGate(controlled), BotGate())
    ]
    for p, x in enumerate(word):
        if not is_formula_label(x):
            continue
        moves.append((CutGate(x, controlled), p))
        for y in filter(is_formula_label, word[p + 1 : p + 4]):
            moves += [(TensorGate(x, y, controlled), p), (TwistGate(x, y), p), (ParGate(x, y), p)]
    return [(g, p) for g, p in moves if word[p : p + len(g.inputs)] == g.inputs]


def _gate_walk(rng, controlled, n):
    """n random gates, fired left to right on disjoint wires, a few per layer;
    a layer may hold none."""
    phi = EMPTY
    while n:
        word, layer, p = phi.output, [], 0
        while n and rng.random() < 0.7:
            moves = [(g, q) for g, q in _gate_moves(word, controlled) if q >= p]
            if not moves:
                break
            g, q = rng.choice(moves)
            layer += [*word[p:q], g]
            p, n = q + len(g.inputs), n - 1
        phi = Diagram(phi.input, phi.layers + (tuple(layer) + word[p:],))
    return phi


def _agrees_with_model(phi):
    want = model_canonical_layers(phi)
    got = canon(phi)
    assert got.layers == want, phi
    assert got.input == phi.input
    assert (got is phi) == (phi.layers == want), phi
    assert canon(got) is got


def test_canonical_form_agrees_with_the_fixpoint():
    rng = random.Random(17)
    for i in range(1200):
        phi = _gate_walk(rng, i % 2 == 0, rng.randint(1, 14))
        _agrees_with_model(phi)
        _agrees_with_model(OpSeq.of(phi).to_diagram())
    for sig in ("controlled", "uncontrolled"):
        for _ in range(100):
            d = random_with_cut(rng, rng.randint(2, 10))
            _agrees_with_model(OpSeq.of(represent(d, sig)).to_diagram())
    for phi in CUT_ORDER:
        _agrees_with_model(Diagram(phi.input, phi.layers))


@pytest.mark.xfail(
    strict=True,
    reason="cut-order gap: the fix changes the depth-4 closure count that the "
    "benchmark pins (Enumerate.EXPECTED[4], 21,099 to 21,091), so it waits for a "
    "change to that count",
)
def test_cut_order_diagrams_share_one_canonical_form():
    assert len({canon(phi) for phi in CUT_ORDER}) == 1


def _appended_agrees(phi, *steps):
    """Stack ``steps`` under ``phi`` with ``compose_seq`` and compare the
    canonical form with that of the same layers rebuilt unflagged: equal
    layer for layer, and the flag contract holds.  Return the form."""
    d = phi
    for step in steps:
        d = compose_seq(d, step)
    got, want = canon(d), canon(Diagram(d.input, d.layers))
    assert (got.input, got.layers, got.output) == (want.input, want.layers, want.output), d
    assert (got is d) == (d.layers == want.layers), d
    assert canon(got) is got
    return got


def test_canonical_form_of_an_append_agrees_with_the_rebuild():
    from test_acceptance import _successor_moves

    # every successor of criterion 3's depth-3 closure
    seen, frontier, count = {EMPTY}, [EMPTY], 0
    for _ in range(3):
        new = []
        for phi in frontier:
            word = phi.output
            for gate, pos in _successor_moves(word):
                rest = identity(word[pos + len(gate.inputs) :])
                nxt = _appended_agrees(phi, parallel(identity(word[:pos]), single(gate), rest))
                count += 1
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    assert len(seen) - 1 == 1013 and count == 1717
    # seeded layered walks, split into a canonical prefix and one or two steps
    rng = random.Random(32)
    for i in range(1000):
        walk = _gate_walk(rng, i % 2 == 0, rng.randint(1, 12))
        n = len(walk.layers)
        cuts = sorted(rng.randint(0, n) for _ in range(2))
        phi = canon(Diagram(walk.input, walk.layers[: cuts[0]]))
        parts = [walk.layers[cuts[0] : cuts[1]], walk.layers[cuts[1] :]]
        steps, word = [], phi.output
        for layers in parts if i % 3 else [walk.layers[cuts[0] :]]:
            steps.append(Diagram(word, layers))
            word = steps[-1].output
        _appended_agrees(phi, *steps)
        # and one layer at a time, each append from a canonical prefix
        phi = EMPTY
        for layer in walk.layers:
            phi = _appended_agrees(phi, Diagram(phi.output, (layer,)))
    # the cut-order diagrams under a canonical prefix
    twisted = build((b,), (AxGate(a, False), b), (a, TwistGate(na, b)), (TwistGate(a, b), na))
    for top in (canon(single(AxGate(a, False))), canon(twisted)):
        k = top.output.index(a)
        for gap in CUT_ORDER:
            step = parallel(identity(top.output[:k]), gap, identity(top.output[k + 2 :]))
            _appended_agrees(top, step)


# ---------------------------------------------------------------------------
# OpSeq: splice, output, chase


def test_opseq_chase_follows_a_wire_through_twists():
    seq = OpSeq((b,))  # token 0
    x, y = seq.fire_at(AxGate(a, False), 1)  # b a a^
    tw1 = seq.fire_at(TwistGate(b, a), 0)  # a b a^
    tw2 = seq.fire_at(TwistGate(b, negate(a)), 1)  # a a^ b
    (p,) = seq.fire_at(ParGate(a, negate(a)), 0)  # (a|a^) b
    # ops: 0 the axiom, 1 and 2 the twists, 3 the par
    assert seq.chase(x) == (3, tw1[0])
    assert seq.chase(y) == (3, tw2[0])
    assert seq.chase(0) == (None, tw2[1])
    assert seq.chase(p) == (None, p)
    assert seq.chase(tw1[0], down=False) == (0, x)
    assert seq.chase(tw2[0], down=False) == (0, y)
    assert seq.chase(tw2[1], down=False) == (None, 0)
    assert seq.chase(p, down=False) == (3, p)


def test_opseq_splice_at_an_offset_matches_padded_composition():
    psi = build((b, c), (TwistGate(b, c),), (ParGate(c, b),))
    head = build((b, a, c, b, c), (TwistGate(b, a), c, b, c))  # a b c b c
    for pos in (1, 3):
        seq = OpSeq.of(head)
        seq.splice(psi, pos)
        pad = parallel(identity(head.output[:pos]), psi, identity(head.output[pos + 2 :]))
        assert canon(seq.to_diagram()) == canon(compose_seq(head, pad))
    with pytest.raises(BoundaryMismatch):
        OpSeq.of(head).splice(psi, 0)


def test_opseq_output_is_the_live_word():
    rng = random.Random(23)
    for i in range(200):
        phi = _gate_walk(rng, i % 2 == 0, rng.randint(0, 10))
        seq = OpSeq(phi.input)
        assert seq.output == phi.input
        seq.splice(phi, 0)
        assert seq.output == seq.to_diagram().output == phi.output


# ---------------------------------------------------------------------------
# Exhaustive interchange oracle on two-gate diagrams


def _two_gate_diagrams():
    """All 2-gate diagrams over words from {a,a^,b} with <= 4 wires.

    The gate set includes a 0-output gate (an uncontrolled cut) and 0-input
    gates so hoisting across vanishing and appearing wires is exercised.
    """
    from proofdiag.diagram import CutGate

    na = negate(a)
    gates = [
        TwistGate(a, b),
        TwistGate(b, a),
        TwistGate(a, a),
        TwistGate(a, na),
        ParGate(a, b),
        BotGate(),
        CutGate(a, False),
    ]
    words = []
    for n in range(0, 4):
        words.extend(itertools.product([a, na, b], repeat=n))
    out = []
    for word in words:
        seqs = _extend(word, gates, 2)
        out.extend(seqs)
    return out


def _extend(word, gates, remaining, prefix=()):
    if remaining == 0:
        try:
            yield Diagram(prefix[0][0] if prefix else word, [l for _, l in prefix])
        except Exception:
            return
        return
    # fire one gate at any position as its own layer
    for g in gates:
        need = g.inputs
        for p in range(len(word) - len(need) + 1):
            if tuple(word[p : p + len(need)]) != tuple(need):
                continue
            layer = tuple(word[:p]) + (g,) + tuple(word[p + len(need) :])
            new_word = tuple(word[:p]) + tuple(g.outputs) + tuple(word[p + len(need) :])
            start = prefix[0][0] if prefix else word
            yield from _extend(new_word, gates, remaining - 1, prefix + ((start, layer),))
        if len(need) == 0:
            for p in range(len(word) + 1):
                layer = tuple(word[:p]) + (g,) + tuple(word[p:])
                new_word = tuple(word[:p]) + tuple(g.outputs) + tuple(word[p:])
                start = prefix[0][0] if prefix else word
                yield from _extend(new_word, gates, remaining - 1, prefix + ((start, layer),))


def _shuffle_class(d):
    """Closure of a whiskered 2-gate diagram under adjacent swaps."""
    seen = {d}
    frontier = [d]
    while frontier:
        cur = frontier.pop()
        seq = OpSeq.of(cur)
        for i in range(len(seq.ops) - 1):
            sw = swap_adjacent(seq.ops, i)
            if sw is None:
                continue
            ops = list(seq.ops)
            ops[i], ops[i + 1] = sw
            out = OpSeq(cur.input)
            for op in ops:
                out.fire_at(op.gate, op.pos)
            nd = out.to_diagram()
            if nd not in seen:
                seen.add(nd)
                frontier.append(nd)
    return seen


def test_interchange_oracle_two_gates():
    diagrams = list(_two_gate_diagrams())
    assert diagrams
    classes = {}
    for d in diagrams:
        classes.setdefault(canon(d), set()).add(d)
    checked = 0
    for rep, members in classes.items():
        sample = next(iter(members))
        cls = _shuffle_class(sample)
        for other in members:
            assert other in cls or canon(other) == canon(sample)
        checked += 1
        if checked > 200:
            break
    # and diagrams in different canonical classes are never shuffle-related
    reps = list(classes)
    for d1, d2 in zip(reps, reps[1:]):
        if d1.input == d2.input:
            assert d2 not in _shuffle_class(d1)


# ---------------------------------------------------------------------------
# Matching


def test_match_single_twist_schema():
    schema = single(TwistGate(A, B))
    phi = canon(single(TwistGate(a, b)))
    sites = find_matches(phi, schema, "t")
    assert len(sites) == 1
    assert sites[0].subst == {"A": a, "B": b}


def test_match_twist_twist_vs_identity():
    phi = canon(identity((a, b)))
    with pytest.raises(Exception):
        find_matches(phi, INV_TGT, "inv")  # gateless schema is rejected
    assert find_matches(canon(single(TwistGate(a, b))), INV_SRC, "inv") == []


def test_yang_baxter_site_unique():
    phi = canon(
        build(
            (a, b, c),
            (TwistGate(a, b), c),
            (b, TwistGate(a, c)),
            (TwistGate(b, c), a),
        )
    )
    assert len(find_matches(phi, YB_SRC, "yb")) == 1
    assert find_matches(phi, INV_SRC, "inv") == []


def test_replace_preserves_boundary_and_counts():
    phi = canon(compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a))))
    site = find_matches(phi, INV_SRC, "inv")[0]
    out = replace_at(phi, site, INV_TGT)
    assert out == identity((a, b))
    assert gate_count(phi) - gate_count(out) == 2


def test_replace_in_context_only_changes_site():
    phi = canon(
        build(
            (a, b, c),
            (TwistGate(a, b), c),
            (TwistGate(b, a), c),
            (a, TwistGate(b, c)),
        )
    )
    site = find_matches(phi, INV_SRC, "inv")[0]
    out = replace_at(phi, site, INV_TGT)
    assert out == canon(build((a, b, c), (a, TwistGate(b, c))))


def test_stale_site():
    phi = canon(compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a))))
    site = find_matches(phi, INV_SRC, "inv")[0]
    other = canon(compose_seq(single(TwistGate(b, a)), single(TwistGate(a, b))))
    with pytest.raises(StaleSite):
        replace_at(other, site, INV_TGT)


def _trace_diagrams(p, phi):
    """The start of the normalization of phi under p and every diagram after
    each of its steps."""
    _, trace = normalize(p, phi)
    out = [trace.initial]
    for rule_name, site in trace.steps:
        out.append(p.rule(rule_name).apply(out[-1], site))
    return out


def test_engine_diagrams_are_canonical(corpus):
    # the diagrams the engine hands from step to step are flagged canonical,
    # and are so: an unflagged rebuild has the same canonical form
    for name, sig in (("Sem", "controlled"), ("MLLu_Cut", "uncontrolled")):
        p = polygraph(name)
        for d in corpus:
            for phi in _trace_diagrams(p, represent(d, sig)):
                assert canon(Diagram(phi.input, phi.layers)) == phi
                assert canon(phi) is phi


def test_matching_rejects_a_non_canonical_diagram():
    # the second twist belongs in the first layer
    phi = build((a, b, c, a), (TwistGate(a, b), c, a), (b, a, TwistGate(c, a)))
    assert canon(phi) != phi
    with pytest.raises(MatchError):
        find_matches(phi, INV_SRC, "inv")
    with pytest.raises(MatchError):
        rewrite_block(phi, (0,), lambda local: local)


def _brute_force_sites(phi, schema):
    """Independent enumerator: cut every gate subset that the order model can
    make consecutive out as one block, and try every substitution on it."""
    hits = set()
    for combo in itertools.combinations(range(gate_count(phi)), gate_count(schema)):
        try:
            *_, local = model._block(OpSeq.of(phi), combo, order=model.search_block)
        except MatchError:
            continue
        if next(_all_substs(schema, local), None) is not None:
            hits.add(combo)
    return hits


def _all_substs(schema, local):
    """Exhaustively try assigning schema metavariables to local formulas."""
    from proofdiag.diagram import is_formula_label
    from proofdiag.formula import FVar, NVar, Tensor as TensorF, Par as ParF

    if len(schema.input) != len(local.input):
        return

    names = set()

    def walk(f):
        if isinstance(f, (FVar, NVar)):
            names.add(f.name)
        elif isinstance(f, (TensorF, ParF)):
            walk(f.left)
            walk(f.right)

    for lab in schema.input:
        if is_formula_label(lab):
            walk(lab)
    for g in schema.gate_list():
        for lab in tuple(g.inputs) + tuple(g.outputs):
            if is_formula_label(lab):
                walk(lab)

    pool = set()
    for lab in local.input:
        if is_formula_label(lab):
            pool.add(lab)
            pool.add(negate(lab))
    for g in local.gate_list():
        for lab in tuple(g.inputs) + tuple(g.outputs):
            if is_formula_label(lab):
                pool.add(lab)
                pool.add(negate(lab))
    pool = sorted(pool, key=repr)
    ordered = sorted(names)
    for combo in itertools.product(pool, repeat=len(ordered)):
        subst = dict(zip(ordered, combo))
        try:
            inst = instantiate(schema, subst)
        except KeyError:
            continue
        if canon(inst) == canon(local):
            yield subst
            return


def test_find_matches_complete_against_brute_force():
    rng_words = [
        build((a, b), (TwistGate(a, b),), (TwistGate(b, a),)),
        build(
            (a, b, c),
            (TwistGate(a, b), c),
            (TwistGate(b, a), c),
            (a, TwistGate(b, c)),
        ),
        build(
            (a, b, c),
            (TwistGate(a, b), c),
            (b, TwistGate(a, c)),
            (TwistGate(b, c), a),
        ),
        build(
            (a, b, a, b),
            (TwistGate(a, b), TwistGate(a, b)),
            (TwistGate(b, a), TwistGate(b, a)),
        ),
    ]
    for phi in map(canon, rng_words):
        for schema in (INV_SRC, YB_SRC):
            got = {s.g_ops for s in find_matches(phi, schema, "x")}
            want = _brute_force_sites(phi, schema)
            assert got == {tuple(sorted(c)) for c in want}, (phi, schema)


def test_find_matches_complete_for_slide_schemas():
    # gate-crossing and axiom schemas against the independent enumerator
    from proofdiag.formula import negate
    from proofdiag.diagram import AxGate, BotGate, ParGate
    from proofdiag.polygraph import polygraph

    mllu = polygraph("MLLu_Cut")
    schemas = [
        mllu.rule("par-slide-right").pair()[0],
        mllu.rule("par-slide-left").pair()[0],
        mllu.rule("bot-slide-right").pair()[0],
        mllu.rule("ax-involution").pair()[0],
    ]
    diagrams = [
        canon(build((a, b, c), (ParGate(a, b), c), (TwistGate(Par(a, b), c),))),
        canon(build((a, b, c), (a, ParGate(b, c)), (TwistGate(a, Par(b, c)),))),
        canon(build((a,), (BotGate(), a), (TwistGate(BOT, a),))),
        canon(
            build((), (AxGate(a, False),), (TwistGate(a, negate(a)),))
        ),
        canon(build((a, b), (TwistGate(a, b),), (TwistGate(b, a),))),
    ]
    for phi in diagrams:
        for schema in schemas:
            got = {s.g_ops for s in find_matches(phi, schema, "x")}
            want = {tuple(sorted(c)) for c in _brute_force_sites(phi, schema)}
            assert got == want, (phi, schema)
