"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and bounds are pinned here, not configurable.
"""
from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from proofdiag.formula import Atom, Bot, One, atom, negate
from proofdiag.diagram import (
    AxGate,
    BotGate,
    CutGate,
    Diagram,
    DiagramError,
    OneGate,
    OpSeq,
    ParGate,
    TensorGate,
    TwistGate,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    is_formula_label,
    parallel,
    single,
    L,
    R,
)
from proofdiag.interp import (
    MLL_INTERPRETATION,
    S_INTERPRETATION,
    check_decrease,
    cut_weight,
)
from proofdiag.perm import Permutation, STRAND, canonical_perm_diagram, diagram_to_perm
from proofdiag.polygraph import apply_once, normalize, polygraph
from proofdiag.sequent import (
    NotApplicable,
    ax,
    bot,
    check_derivation,
    cut,
    cut_step,
    enumerate_derivations,
    exchange,
    find_cut_paths,
    one,
    par,
    provable,
    rule_count,
    sim_neighbors,
    tensor,
)
from proofdiag.translate import (
    ComparisonCounter,
    boundary_sequent,
    is_sequentializable,
    represent,
    sequentialize,
)
from proofdiag.oracle import eliminate_cuts, equivalent

a, b = atom("a"), atom("b")
sw = Permutation((2, 1))


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1 + shared traces for criterion 2


def _random_twist_diagram(rng, n):
    word = (STRAND,) * n
    d = identity(word)
    for _ in range(rng.randint(0, 10)):
        p = rng.randint(0, n - 2)
        layer = list(d.output)
        layer[p : p + 2] = [TwistGate(d.output[p], d.output[p + 1])]
        d = compose_seq(d, Diagram(d.output, (tuple(layer),)))
    return d


@pytest.fixture(scope="module")
def s_traces():
    S = polygraph("S")
    rng = random.Random(101)
    traces = []
    t0 = time.time()
    for n in range(2, 6):
        canonical = {
            canonical_perm_diagram(Permutation(p))
            for p in itertools.permutations(range(1, n + 1))
        }
        assert len(canonical) == math.factorial(n)
        for _ in range(125):
            d = _random_twist_diagram(rng, n)
            nf, trace = normalize(S, d)
            assert nf == canonical_perm_diagram(diagram_to_perm(d))
            assert nf in canonical
            traces.append(trace)
    elapsed = time.time() - t0
    return traces, elapsed


def test_criterion_1_permutation_convergence(s_traces):
    traces, elapsed = s_traces
    ok = len(traces) == 500 and elapsed < 30
    _report(
        "criterion 1: permutation convergence (500 diagrams, n=2..5)",
        ok,
        f"{len(traces)} normalizations, n! normal forms each n, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2


def _random_ctrl_diagram(rng, corpus):
    d = rng.choice(corpus)
    phi = represent(d)
    # pad with random twists inside the control brackets
    for _ in range(rng.randint(0, 4)):
        word = phi.output
        spots = [
            i
            for i in range(len(word) - 1)
            if is_formula_label(word[i]) and is_formula_label(word[i + 1])
        ]
        if not spots:
            break
        p = rng.choice(spots)
        layer = list(word)
        layer[p : p + 2] = [TwistGate(word[p], word[p + 1])]
        phi = compose_seq(phi, Diagram(word, (tuple(layer),)))
    return phi


def test_criterion_2_termination_certificates(s_traces, corpus):
    traces, _ = s_traces
    S = polygraph("S")
    violations = 0
    steps = 0
    for trace in traces:
        rep = check_decrease(S, S_INTERPRETATION, trace)
        violations += len(rep.violations)
        steps += len(rep.steps)
        assert all(s.status == "strict" for s in rep.steps)
    ctrl = polygraph("MLL_ctrl")
    rng = random.Random(77)
    ctrl_steps = 0
    for i in range(500):
        phi = _random_ctrl_diagram(rng, corpus)
        nf, trace = normalize(ctrl, phi)
        rep = check_decrease(ctrl, MLL_INTERPRETATION, trace)
        violations += len(rep.violations)
        ctrl_steps += len(rep.steps)
        assert rep.ok, str(rep)
    # the pinned concrete inequalities
    for x in range(4):
        for y in range(4):
            assert (2 * x + y, x + y) >= (x, y) or (2 * x + y >= x and x + y >= y)
            assert 2 * x + y >= x and x + y >= y
        assert x + 2 >= x and 1 >= 1
    assert (2 * 1 + 0, 1 + 0) != (1, 0) and (0 + 2, 1) != (0, 1)
    ok = violations == 0 and ctrl_steps > 0 and steps > 0
    _report(
        "criterion 2: termination certificates strictly decrease",
        ok,
        f"{steps} permutation-system steps, {ctrl_steps} controlled-system steps, {violations} violations",
    )


# ---------------------------------------------------------------------------
# Criterion 3


AX_FORMULAS = (a, negate(a))


def _successor_moves(word):
    moves = []
    n = len(word)
    for p in range(n + 1):
        for g in (
            AxGate(a, True),
            AxGate(negate(a), True),
            OneGate(True),
            BotGate(),
        ):
            moves.append((g, p))
    for p in range(n - 1):
        x, y = word[p], word[p + 1]
        if is_formula_label(x) and is_formula_label(y):
            moves.append((TwistGate(x, y), p))
            moves.append((ParGate(x, y), p))
    for p in range(n - 3):
        x, r, l, y = word[p : p + 4]
        if is_formula_label(x) and r == R and l == L and is_formula_label(y):
            moves.append((TensorGate(x, y, True), p))
            if y == negate(x):
                moves.append((CutGate(x, True), p))
    return moves


class _Prover:
    def __init__(self):
        self.memo = {}

    def __call__(self, seq):
        key = tuple(sorted(map(repr, seq)))
        if key not in self.memo:
            self.memo[key] = provable(seq)
        return self.memo[key]


def test_criterion_3_controlled_correspondence():
    t0 = time.time()
    prover = _Prover()
    start = identity(())
    seen = {start}
    frontier = [start]
    total = checked_seq = 0
    for depth in range(1, 6):
        new = []
        for phi in frontier:
            word = phi.output
            for gate, pos in _successor_moves(word):
                rest = identity(word[pos + len(gate.inputs) :])
                try:
                    nxt = canon(compose_seq(phi, parallel(identity(word[:pos]), single(gate), rest)))
                except DiagramError:
                    continue
                if nxt in seen:
                    continue
                seen.add(nxt)
                total += 1
                if is_sequentializable(nxt):
                    gamma = boundary_sequent(nxt)
                    assert prover(gamma), f"unprovable boundary {gamma}"
                    d = sequentialize(nxt)
                    assert d.conclusion == gamma
                    checked_seq += 1
                if depth < 5:
                    new.append(nxt)
        frontier = new
    # converse: every small derivation's representation appears in the space
    missing = 0
    for d in enumerate_derivations((a, negate(a)), 3):
        phi = represent(d)
        if gate_count(phi) <= 5:
            if phi not in seen:
                missing += 1
    for gamma in [(One(),), (a, negate(a)), (One(), Bot())]:
        assert prover(gamma)
    elapsed = time.time() - t0
    ok = missing == 0 and checked_seq > 0 and elapsed < 300
    _report(
        "criterion 3: controlled correspondence (exhaustive <=5 gates)",
        ok,
        f"{total} diagrams, {checked_seq} sequentializable all provable, "
        f"{missing} missing representations, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4


def _sim_connected(d1, d2, bound=10, budget=4000):
    if d1 == d2:
        return True
    seen1, seen2 = {d1}, {d2}
    f1, f2 = [d1], [d2]
    for _ in range(bound):
        if not f1 and not f2:
            break
        if len(seen1) > len(seen2):
            f1, f2 = f2, f1
            seen1, seen2 = seen2, seen1
        nxt = []
        for d in f1:
            for n in sim_neighbors(d):
                if n in seen2:
                    return True
                if n not in seen1:
                    seen1.add(n)
                    nxt.append(n)
            if len(seen1) > budget:
                return False
        f1 = nxt
    return False


def test_criterion_4_round_trip_up_to_sim(corpus):
    assert len(corpus) >= 50
    failures = []
    for d in corpus:
        rt = sequentialize(represent(d))
        assert check_derivation(rt) == check_derivation(d)
        if not _sim_connected(d, rt):
            failures.append(d)
    _report(
        "criterion 4: round trip within the standard-equivalence closure",
        not failures,
        f"{len(corpus)} derivations, {len(failures)} failures",
    )


# ---------------------------------------------------------------------------
# Criterion 5


CUT_RULES = {
    "cut-ax-left",
    "cut-ax-right",
    "cut-tensor-par",
    "cut-par-tensor",
    "cut-bot-one",
    "cut-one-bot",
    "ax-cut-snake",
}


def test_criterion_5_cut_elimination(cut_corpus):
    assert cut_corpus
    sem = polygraph("Sem")
    bad = []
    for d in cut_corpus:
        phi = represent(d)
        nf, trace = eliminate_cuts(phi)
        if gate_count(nf, {"cut", "big"}) != 0:
            bad.append((d, "leftover gates"))
            continue
        d2 = sequentialize(nf)
        if find_cut_paths(d2) or d2.conclusion != boundary_sequent(phi):
            bad.append((d, "bad sequentialization"))
            continue
        cur = canon(trace.initial)
        w = cut_weight(cur)
        for rule_name, site in trace.steps:
            cur = sem.rule(rule_name).apply(cur, site)
            w2 = cut_weight(cur)
            if rule_name in CUT_RULES:
                if not w2 < w:
                    bad.append((d, f"{rule_name} did not decrease the weight"))
                    break
            elif w2 != w:
                bad.append((d, f"{rule_name} changed the weight"))
                break
            w = w2
    _report(
        "criterion 5: cut elimination with the 3^degree weight law",
        not bad,
        f"{len(cut_corpus)} cut derivations, failures: {bad[:2]}",
    )


# ---------------------------------------------------------------------------
# Criterion 6


def test_criterion_6_nonconfluence_regression():
    from proofdiag.formula import Tensor

    c, d = atom("c"), atom("d")
    peak = canon(
        Diagram(
            (a, b, c, R, L, d),
            (
                (TwistGate(a, b), c, R, L, d),
                (b, TwistGate(a, c), R, L, d),
                (TwistGate(b, c), TensorGate(a, d, True)),
                (c, TwistGate(b, Tensor(a, d))),
                (TwistGate(c, Tensor(a, d)), b),
            ),
        )
    )
    sem = polygraph("Sem")
    yb = sem.rule("yang-baxter")
    sites = yb.find(peak)
    r1 = yb.apply(peak, sites[0])
    r2 = yb.apply(peak, sites[1])
    n1, _ = normalize(sem, r1)
    n2, _ = normalize(sem, r2)
    ok = (
        len(sites) == 2
        and r1 != r2
        and n1 != n2
        and apply_once(sem, n1) is None
        and apply_once(sem, n2) is None
    )
    _report(
        "criterion 6: the critical peak has two distinct irreducible reducts",
        ok,
        f"{len(sites)} overlapping sites",
    )


# ---------------------------------------------------------------------------
# Criterion 7


def test_criterion_7_semantics_properties(corpus, cut_corpus):
    # property 1: every applicable cut step preserves the denotation
    applicable = 0
    p1_fail = 0
    for d in cut_corpus:
        for path in find_cut_paths(d):
            try:
                stepped = cut_step(d, path)
            except NotApplicable:
                continue
            applicable += 1
            if equivalent(d, stepped, mode="sem").verdict != "yes":
                p1_fail += 1
    # property 2: the non-degeneracy pair never meets
    core = tensor(exchange(ax(a), sw), ax(a))
    flipped = exchange(core, Permutation((3, 2, 1)))
    v2 = equivalent(core, flipped, bound=3, node_budget=250).verdict
    # property 3: wrapping equivalent derivations with the same par rule
    rng = random.Random(13)
    pairs = []
    d1 = exchange(tensor(exchange(tensor(ax(a), one()), sw), one()), sw)
    d2 = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    pairs.append((d1, d2))
    for d in corpus:
        if len(pairs) >= 20:
            break
        if len(d.conclusion) < 2:
            continue
        ns = sim_neighbors(d)
        if ns:
            pairs.append((d, rng.choice(ns)))
    p3_fail = 0
    for x, y in pairs[:20]:
        if equivalent(par(x), par(y), mode="sim").verdict != "yes":
            p3_fail += 1
    ok = applicable > 0 and p1_fail == 0 and v2 != "yes" and p3_fail == 0
    _report(
        "criterion 7: denotational semantics properties",
        ok,
        f"property1 {applicable} steps ({p1_fail} fail), "
        f"property2 verdict {v2}, property3 {len(pairs[:20])} pairs ({p3_fail} fail)",
    )


# ---------------------------------------------------------------------------
# Criterion 8


def _boundary_diagram(m):
    """A sequentializable diagram with boundary length m+3: m axioms whose
    brackets are merged by tensor gates, giving output L, Gamma, R."""
    layers = [tuple(AxGate(a, True) for _ in range(m))]
    word = list(layers[0][0].outputs) * m
    for _ in range(m - 1):
        p = next(
            i
            for i in range(len(word) - 3)
            if is_formula_label(word[i]) and word[i + 1] == R and word[i + 2] == L
        )
        g = TensorGate(word[p], word[p + 3], True)
        layer = tuple(word[:p]) + (g,) + tuple(word[p + 4 :])
        layers.append(layer)
        word[p : p + 4] = list(g.outputs)
    return Diagram((), layers)


def test_criterion_8_linear_time_check():
    sizes = []
    counts = []
    for m in (3, 25, 250, 2500):
        phi = _boundary_diagram(m)
        c = ComparisonCounter()
        is_sequentializable(phi, c)
        sizes.append(len(phi.output))
        counts.append(c.n)
    # least squares fit and R^2
    n = len(sizes)
    mx = sum(sizes) / n
    my = sum(counts) / n
    sxx = sum((x - mx) ** 2 for x in sizes)
    sxy = sum((x - mx) * (y - my) for x, y in zip(sizes, counts))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, counts))
    ss_tot = sum((y - my) ** 2 for y in counts)
    r2 = 1 - ss_res / ss_tot
    # gate count must not matter: vary gates 10..10^3 at fixed boundary
    noisy = _boundary_diagram(6)  # 11 gates, boundary 9
    gate_counts = []
    comparisons = []
    record_at = {0, 100, 500, 990}
    for i in range(991):
        if i in record_at:
            c = ComparisonCounter()
            is_sequentializable(noisy, c)
            gate_counts.append(gate_count(noisy))
            comparisons.append(c.n)
        word = noisy.output
        layer = list(word)
        layer[1:3] = [TwistGate(word[1], word[2])]
        noisy = compose_seq(noisy, Diagram(word, (tuple(layer),)))
    same = len(set(comparisons)) == 1 and len(comparisons) == len(record_at)
    ok = r2 > 0.99 and same
    _report(
        "criterion 8: boundary-linear sequentializability check",
        ok,
        f"R^2={r2:.5f} over boundaries {sizes}; comparisons fixed at "
        f"{comparisons[0] if comparisons else '?'} across {gate_counts} gates",
    )
