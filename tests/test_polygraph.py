"""The five rewriting systems and the normalization engine."""
import itertools
import random

import pytest

from proofdiag.formula import Atom, Bot, One, Par, Tensor, atom, negate
from proofdiag.diagram import (
    AxGate,
    CutGate,
    Diagram,
    OneGate,
    ParGate,
    TensorGate,
    TwistGate,
    build,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    parallel,
    single,
    L,
    R,
)
from proofdiag.matching import instantiate
from proofdiag.perm import Permutation, STRAND, canonical_perm_diagram, diagram_to_perm
from proofdiag.polygraph import (
    POLYGRAPH_NAMES,
    UnknownPolygraph,
    apply_once,
    normalize,
    polygraph,
)

a, b, c = atom("a"), atom("b"), atom("c")


def test_polygraph_names_and_unknown():
    for name in POLYGRAPH_NAMES:
        assert polygraph(name).name == name
    with pytest.raises(UnknownPolygraph):
        polygraph("nope")


def test_s_has_exactly_two_rules():
    assert len(polygraph("S").rules) == 2


def test_mll_ctrl_includes_ax_involution():
    p = polygraph("MLL_ctrl")
    rule = p.rule("ax-involution")
    # rewrites an axiom followed by a twist into the dual axiom
    src, tgt = rule.pair()
    assert sorted(g.family for g in src.gate_list()) == ["ax", "twist"]
    assert [g.family for g in tgt.gate_list()] == ["ax"]


def test_sem_includes_unit_cut_rules():
    p = polygraph("Sem")
    r = p.rule("cut-bot-one")
    src, tgt = r.pair()
    assert sorted(g.family for g in src.gate_list()) == ["bot", "cut", "one"]
    assert tgt.gate_list() == []
    p.rule("cut-one-bot")


def _random_subst(rng, names):
    leaves = [a, b, negate(a), negate(b), One(), Bot()]

    def f(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(leaves)
        return (Tensor if rng.random() < 0.5 else Par)(f(depth - 1), f(depth - 1))

    return {n: f(2) for n in names}


def _schema_vars(d: Diagram):
    from proofdiag.formula import FVar, NVar

    names = set()

    def walk(f):
        if isinstance(f, (FVar, NVar)):
            names.add(f.name)
        elif isinstance(f, (Tensor, Par)):
            walk(f.left)
            walk(f.right)

    for lab in d.input:
        if not isinstance(lab, (type(L),)):
            walk(lab)
    for g in d.gate_list():
        for lab in tuple(g.inputs) + tuple(g.outputs):
            if not isinstance(lab, (type(L),)):
                walk(lab)
    return names


def test_boundary_preservation_all_rules_random_substitutions():
    rng = random.Random(11)
    checked = 0
    for name in POLYGRAPH_NAMES:
        p = polygraph(name)
        for rule in p.rules:
            # family members up to width 2; procedural rules have none
            for key in rule.keys(identity((a, b))):
                src, tgt = rule.pair(*key)
                names = _schema_vars(src) | _schema_vars(tgt)
                for _ in range(8):
                    subst = _random_subst(rng, names)
                    s = instantiate(src, subst)
                    t = instantiate(tgt, subst)
                    assert s.input == t.input and s.output == t.output, rule.name
                    checked += 1
    assert checked >= 200


def test_apply_once_twist_involution():
    S = polygraph("S")
    d = canon(compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a))))
    out = apply_once(S, d)
    assert out is not None
    nd, rule, site = out
    assert rule.name == "twist-involution"
    assert nd == identity((a, b))


def test_canonical_perm_diagrams_are_irreducible():
    S = polygraph("S")
    for images in itertools.permutations(range(1, 5)):
        d = canonical_perm_diagram(Permutation(images))
        assert apply_once(S, d) is None


def test_normalize_irreducible_empty_trace():
    S = polygraph("S")
    d = canonical_perm_diagram(Permutation((3, 1, 2)))
    nf, trace = normalize(S, d)
    assert nf == d and trace.steps == []


def test_normalize_random_twist_diagrams_reach_canonical():
    S = polygraph("S")
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 5)
        word = (STRAND,) * n
        d = identity(word)
        for _ in range(rng.randint(0, 8)):
            p = rng.randint(0, n - 2)
            layer = list(d.output)
            layer[p : p + 2] = [TwistGate(d.output[p], d.output[p + 1])]
            d = compose_seq(d, Diagram(d.output, (tuple(layer),)))
        nf, trace = normalize(S, d)
        assert nf == canonical_perm_diagram(diagram_to_perm(d))
        assert trace.replay(S) == nf


def test_ax_followed_by_double_twist_normalizes_to_ax():
    p = polygraph("MLL_ctrl")
    phi = single(AxGate(a, True))
    tw = parallel(identity((L,)), single(TwistGate(a, negate(a))), identity((R,)))
    tw2 = parallel(identity((L,)), single(TwistGate(negate(a), a)), identity((R,)))
    stacked = compose_seq(compose_seq(phi, tw), tw2)
    nf, _ = normalize(p, stacked)
    assert nf == canon(single(AxGate(a, True)))


def _nonconfluence_peak():
    """The critical peak: two overlapping Yang-Baxter redexes over a tensor."""
    word = (a, b, c, R, L, atom("d"))
    dd = atom("d")
    return build(
        word,
        (TwistGate(a, b), c, R, L, dd),
        (b, TwistGate(a, c), R, L, dd),
        (TwistGate(b, c), TensorGate(a, dd, True)),
        (c, TwistGate(b, Tensor(a, dd))),
        (TwistGate(c, Tensor(a, dd)), b),
    )


def test_nonconfluent_critical_peak():
    peak = canon(_nonconfluence_peak())
    sem = polygraph("Sem")
    yb = sem.rule("yang-baxter")
    sites = yb.find(peak)
    assert len(sites) == 2
    r1 = yb.apply(peak, sites[0])
    r2 = yb.apply(peak, sites[1])
    assert r1 != r2
    n1, _ = normalize(sem, r1)
    n2, _ = normalize(sem, r2)
    assert n1 != n2  # two distinct irreducible reducts
    assert apply_once(sem, n1) is None and apply_once(sem, n2) is None


def test_trace_replay_detects_tampering():
    S = polygraph("S")
    d = canon(compose_seq(single(TwistGate(a, b)), single(TwistGate(b, a))))
    nf, trace = normalize(S, d)
    assert trace.replay(S) == nf
    trace.final = d
    with pytest.raises(Exception):
        trace.replay(S)
