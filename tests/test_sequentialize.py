"""Sequentialization against its differential model, its refusals and its growth.

``seq_model.model_sequentialize`` is the recursive peel-and-recanonicalize
sequentializer; ``translate.sequentialize`` must give an equal derivation, or
raise an exception of the same type, on every input below.
"""
import random
import time

import pytest

from conftest import random_cutfree, random_with_cut
from seq_model import model_sequentialize
from test_acceptance import _boundary_diagram, _successor_moves
from proofdiag.diagram import (
    EMPTY,
    AxGate,
    CutGate,
    Diagram,
    DiagramError,
    OneGate,
    OpSeq,
    TensorGate,
    TwistGate,
    compose_seq,
    controlled_signature,
    identity,
    interchange_canonical_form,
    is_formula_label,
    parallel,
    single,
)
from proofdiag.formula import atom, negate
from proofdiag.oracle import eliminate_cuts
from proofdiag.translate import (
    boundary_sequent,
    is_sequentializable,
    represent,
    sequentialize,
)

a, b = atom("a"), atom("b")


def _outcome(f, phi):
    try:
        return f(phi)
    except Exception as e:  # the type is the outcome to compare
        return type(e)


def _agree(phi):
    got, want = _outcome(sequentialize, phi), _outcome(model_sequentialize, phi)
    assert got == want, phi
    return got


def _append(phi, gate, pos):
    w = phi.output
    step = parallel(identity(w[:pos]), single(gate), identity(w[pos + len(gate.inputs) :]))
    return interchange_canonical_form(compose_seq(phi, step))


def _tower_layers(height):
    """Criterion 8's tower: 6 tensor-merged axioms, then twists at column 1."""
    base = _boundary_diagram(6)
    layers, word = list(base.layers), base.output
    for _ in range(height - 11):
        layer = list(word)
        layer[1:3] = [TwistGate(word[1], word[2])]
        layers.append(tuple(layer))
        word = word[:1] + (word[2], word[1]) + word[3:]
    return layers


def test_model_agrees_on_the_corpus(corpus):
    for d in corpus:
        assert isinstance(_agree(represent(d)), type(d))


def test_model_agrees_on_seeded_derivations():
    rng = random.Random(61)
    for k in range(800):
        d = random_with_cut(rng, rng.randint(2, 12)) if k % 2 else random_cutfree(rng, rng.randint(1, 12))
        assert _agree(represent(d)).conclusion == d.conclusion


def test_model_agrees_on_the_depth_4_closure_and_5_gate_successors():
    seen, frontier, closure = {EMPTY}, [EMPTY], []
    for _ in range(4):
        new = []
        for phi in frontier:
            for gate, pos in _successor_moves(phi.output):
                try:
                    nxt = _append(phi, gate, pos)
                except DiagramError:
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
                    if is_sequentializable(nxt):
                        closure.append(nxt)
        frontier = new
    assert len(closure) >= 400
    sample = []
    for phi in random.Random(5).sample(frontier, 300):
        for gate, pos in _successor_moves(phi.output):
            try:
                nxt = _append(phi, gate, pos)
            except DiagramError:
                continue
            if is_sequentializable(nxt):
                sample.append(nxt)
    assert len(sample) >= 50
    for phi in closure + sample:
        assert _agree(phi).conclusion == boundary_sequent(phi)


@pytest.mark.parametrize("height", [11, 61, 111])
def test_model_agrees_on_criterion_8_towers(height):
    phi = Diagram((), _tower_layers(height))
    assert _agree(phi).conclusion == boundary_sequent(phi)


def test_model_agrees_on_sem_normal_forms():
    rng = random.Random(7)
    normal_forms = []
    while len(normal_forms) < 20:
        try:
            nf, _ = eliminate_cuts(represent(random_with_cut(rng, rng.randint(4, 12))))
        except DiagramError:
            continue  # a known stall of cut elimination, not sequentialization
        normal_forms.append(nf)
    for nf in normal_forms:
        assert _agree(nf).conclusion == boundary_sequent(nf)


def test_sequentializing_a_normal_form_reads_its_shared_graph(cut_corpus, monkeypatch):
    # eliminate_cuts leaves the normal form's op graph as the shared one, so
    # sequentialize builds none: wrap OpSeq.of as the benchmark's tracer does
    built = []
    of = OpSeq.__dict__["of"].__func__

    def counted(phi):
        built.append(phi)
        return of(phi)

    for d in cut_corpus:
        nf, _ = eliminate_cuts(represent(d))
        monkeypatch.setattr(OpSeq, "of", staticmethod(counted))
        assert sequentialize(nf).conclusion == d.conclusion
        monkeypatch.undo()
    assert len(cut_corpus) >= 5 and built == []


# A diagram of controlled gates whose boundary passes is_sequentializable
# needs no check in the peeling loop: the boundary's L and R belong to a chain
# of ax/one leaves joined by tensors and cuts, so every branch is connected,
# has an unconsumed ax/one leaf only when it is that leaf alone, and splits
# cleanly after its gate's R. An uncontrolled gate inside a controlled
# diagram, which no diagram file can express, breaks this; sequentialize
# refuses such a diagram before it peels.


def _mixed_walk(rng):
    """A few random gate moves, controlled or not, from a random derivation's
    diagram or from the empty one."""
    phi = EMPTY
    if rng.random() < 0.4:
        d = random_with_cut(rng, rng.randint(2, 8)) if rng.random() < 0.5 else random_cutfree(rng, rng.randint(1, 8))
        phi = represent(d)
    for _ in range(rng.randint(1, 3) if phi is not EMPTY else rng.randint(2, 8)):
        word = phi.output
        moves = _successor_moves(word)
        moves += [(g, p) for p in range(len(word) + 1) for g in (AxGate(a, False), OneGate(False))]
        for p in range(len(word) - 1):
            x, y = word[p], word[p + 1]
            if is_formula_label(x) and is_formula_label(y):
                moves.append((TensorGate(x, y, False), p))
                if y == negate(x):
                    moves.append((CutGate(x, False), p))
        try:
            phi = _append(phi, *rng.choice(moves))
        except DiagramError:
            pass
    return phi


def test_model_agrees_on_which_mixed_diagrams_sequentialize():
    """Uncontrolled gates among controlled ones: sequentialize refuses every
    such diagram, and agrees with the model on the all-controlled ones."""
    rng = random.Random(8)
    tried = 0
    while tried < 300:
        phi = _mixed_walk(rng)
        if not is_sequentializable(phi):
            continue
        try:
            controlled_signature(phi)
        except DiagramError:
            with pytest.raises(DiagramError, match="mixes controlled and uncontrolled"):
                sequentialize(phi)
            tried += 1
        else:
            _agree(phi)


def test_sequentialize_grows_linearly_on_towers():
    times = {}
    for height in (1000, 2000):
        layers = _tower_layers(height)
        runs = []
        for _ in range(3):
            phi = Diagram((), layers)  # unflagged: each run pays for the canonical form too
            t0 = time.perf_counter()
            d = sequentialize(phi)
            runs.append(time.perf_counter() - t0)
            assert d.conclusion == boundary_sequent(phi)
        times[height] = min(runs)
    assert times[2000] <= 3 * times[1000], times
