"""The shared-graph matcher against ``match_model``, the matcher that builds
a fresh ``OpSeq`` per call; and the graph itself: one build per diagram and
per schema member, and read-only."""
import itertools
import random
import sys
from collections import Counter

import pytest

import match_model as model
from conftest import random_with_cut
from rep_model import _rep as model_rep
from test_traces import _procedural_diagrams
from proofdiag import bigtwist, matching, oracle
from proofdiag.diagram import (
    AxGate,
    BoundaryMismatch,
    CutGate,
    Diagram,
    DiagramError,
    OpGraph,
    OpSeq,
    R,
    L,
    TensorGate,
    TwistGate,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form as canon,
    parallel,
    single,
)
from proofdiag.diagramio import parse_derivation
from proofdiag.formula import Tensor, atom, negate
from proofdiag.matching import MatchError, find_matches, op_graph, replace_at, rewrite_block
from proofdiag.perm import Permutation
from proofdiag.polygraph import POLYGRAPH_NAMES, apply_once, normalize, polygraph
from proofdiag.sequent import ax, cut, exchange, par, tensor
from proofdiag.translate import represent

a, b, c, d = atom("a"), atom("b"), atom("c"), atom("d")


def _outcome(fn, *args):
    """What a call returns, or the type of the error it raises: a matcher
    error, or a KeyError when a reversed step leaves a variable unbound."""
    try:
        return fn(*args)
    except (DiagramError, KeyError) as e:
        return type(e)


def _blocks(rewrite, phi, g_ops):
    """The block ``rewrite`` cuts out at ``g_ops``, and its result when the
    block is put back as it was."""
    seen = []

    def keep(local):
        seen.append(local)
        return local

    return seen, _outcome(rewrite, phi, g_ops, keep)


def _bubbling_missed(phi, g_ops) -> bool:
    """Whether the model's bubbling finds no order for the ops ``g_ops`` of
    ``phi`` while the order model finds one that makes them consecutive."""
    ops = OpSeq.of(phi).ops
    flags = [i in g_ops for i in range(len(ops))]
    return model._bubble_block(ops, flags) is None and model.search_block(ops, flags) is not None


def _same_cut(phi, site, other=None):
    """Cut ``site`` out with both cutters and, when ``other`` is given,
    replace it by ``other``; return the new cutter's replacement.  The two
    agree but for one kind of disagreement: the model's bubbling raises
    ``MatchError``, the new cutter cuts a block, and the order model says
    the ops can be made consecutive."""
    got = _blocks(rewrite_block, phi, site.g_ops)
    want = _blocks(model.rewrite_block, phi, site.g_ops)
    out = None if other is None else _outcome(replace_at, phi, site, other)
    if got != want:
        assert want == ([], MatchError) and isinstance(got[1], Diagram), site
        assert _bubbling_missed(phi, site.g_ops), (site, phi)
    elif other is not None:
        assert out == _outcome(model.replace_at, phi, site, other), site
    return out


def _agree(p, phi):
    """Compare both matchers on every schema member of ``p``, both ways, and
    both block cutters on every site; return the neighbours found."""
    nbrs = []
    for rule in p.rules:
        for key in rule.keys(phi):
            src, tgt = rule.pair(*key)
            for schema, other in ((src, tgt), (tgt, src)):
                got = _outcome(find_matches, phi, schema, rule.name)
                want = _outcome(model.find_matches, phi, schema, rule.name)
                assert got == want, (rule.name, key, phi)
                if not isinstance(got, list):
                    continue
                for site in got:
                    out = _same_cut(phi, site, other)
                    if isinstance(out, Diagram):
                        nbrs.append(out)
        if not rule.keys(phi):  # procedural: the same sites through both cutters
            for site in rule.find(phi):
                _same_cut(phi, site)
    return nbrs


def _sem_path(phi):
    """Every diagram of the Sem normalization of ``phi``, up to a failure."""
    sem = polygraph("Sem")
    cur, path = canon(phi), []
    while True:
        path.append(cur)
        try:
            res = apply_once(sem, cur)
        except DiagramError:
            return path
        if res is None:
            return path
        cur = res[0]


@pytest.fixture(scope="module")
def sem_derivations(cut_corpus) -> list:
    """The seeded cut corpus and more seeded cut derivations."""
    rng = random.Random(26)
    return cut_corpus + [random_with_cut(rng, rng.randint(6, 16)) for _ in range(40)]


def _sem_paths(derivs) -> list:
    return [_sem_path(phi) for phi in [represent(d) for d in derivs] + _procedural_diagrams()]


@pytest.fixture(scope="module")
def sem_paths(sem_derivations) -> list:
    """The Sem normalizations of ``sem_derivations`` and of the diagrams that
    take every procedural path."""
    return _sem_paths(sem_derivations)


def test_matchers_agree_on_the_sem_normalizations_of_the_cut_corpus(sem_paths):
    sem = polygraph("Sem")
    for path in sem_paths:
        for phi in path:
            _agree(sem, phi)
    assert sum(map(len, sem_paths)) > 280


def test_procedural_rewrites_agree_with_the_model_cutter(sem_paths, monkeypatch):
    # every procedural step, once through rewrite_block and once through the
    # model's, which builds the target's OpSeq afresh
    sem = polygraph("Sem")
    steps = []
    for path in sem_paths:
        for phi in path:
            for rule in sem.rules:
                if not rule.keys(phi):
                    steps += [(rule, phi, site) for site in rule.find(phi)]
    assert {rule.name.split("-")[0] for rule, _, _ in steps} == {"big", "untangle"}
    got = [_outcome(rule.apply, phi, site) for rule, phi, site in steps]
    monkeypatch.setattr(bigtwist, "rewrite_block", model.rewrite_block)
    want = [_outcome(rule.apply, phi, site) for rule, phi, site in steps]
    assert got == want


def test_find_matches_builds_no_diagram_per_candidate(sem_paths, monkeypatch):
    # wrap the canonical form and instantiate where the matcher looks them
    # up: a candidate site is decided on the op graph, so neither runs on a
    # diagram the matcher built (the canonical form of the flagged target
    # returns at once)
    built = []
    canonical_form, instantiate = matching.interchange_canonical_form, matching.instantiate

    def counted_canonical_form(phi):
        if phi._canonical != len(phi.layers):
            built.append(phi)
        return canonical_form(phi)

    def counted_instantiate(schema, subst):
        built.append(schema)
        return instantiate(schema, subst)

    monkeypatch.setattr(matching, "interchange_canonical_form", counted_canonical_form)
    monkeypatch.setattr(matching, "instantiate", counted_instantiate)
    sem = polygraph("Sem")
    sites = 0
    for path in sem_paths:
        for phi in path:
            for rule in sem.rules:
                for key in rule.keys(phi):
                    sites += len(find_matches(phi, rule.pair(*key)[0], rule.name))
    assert built == [] and sites > 280


def _whole_word(labels, lo, hi):
    return 0, len(labels) - 1


def test_the_block_order_agrees_with_the_order_model():
    # every 2-4-op subset of the diagrams of at most 8 ops on the Sem paths
    # of 300 seeded cut derivations and of the procedural diagrams (15,258
    # subsets; the old bubbling misses 133 feasible ones): rewrite_block,
    # its window widened to the whole word so that only the order can fail,
    # cuts the subset out exactly when some order of the interchange class
    # makes it consecutive, and putting the block back gives the diagram
    rng = random.Random(30)
    derivs = [random_with_cut(rng, rng.randint(2, 8)) for _ in range(300)]
    small = [phi for path in _sem_paths(derivs) for phi in path if gate_count(phi) <= 8]
    cases = 0
    for phi in dict.fromkeys(small):
        ops = OpSeq.of(phi).ops
        index = {model._key(op): i for i, op in enumerate(ops)}
        feasible = set()
        for order in model.interchange_orders(ops):
            ix = [index[model._key(op)] for op in order]
            for k in (2, 3, 4):
                feasible.update(tuple(sorted(ix[i : i + k])) for i in range(len(ix) - k + 1))
        for k in (2, 3, 4):
            for combo in itertools.combinations(range(len(ops)), k):
                out = _outcome(rewrite_block, phi, combo, lambda local: local, _whole_word)
                assert out == (phi if combo in feasible else MatchError), (combo, phi)
                cases += 1
    assert cases > 15000


def _critical_peak():
    return canon(
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


def test_matchers_agree_on_the_bfs_neighbourhood_of_the_critical_peak(monkeypatch):
    # the oracle's unoriented neighbourhoods, six deep, with every match and
    # replacement they make checked against the model
    sem = polygraph("Sem")
    replaced = []

    def checked_find(phi, schema, rule_name=""):
        want = _outcome(model.find_matches, phi, schema, rule_name)
        try:
            got = find_matches(phi, schema, rule_name)
        except MatchError:
            assert want is MatchError
            raise
        assert got == want, (rule_name, phi)
        return got

    def checked_replace(phi, site, target):
        got = replace_at(phi, site, target)
        assert got == model.replace_at(phi, site, target), (site, phi)
        replaced.append(site)
        return got

    monkeypatch.setattr(oracle, "find_matches", checked_find)
    monkeypatch.setattr(oracle, "replace_at", checked_replace)
    assert len(_neighbourhood(sem, _critical_peak())) > 300 and len(replaced) > 1000


def _neighbourhood(p, phi) -> set:
    """The oracle's unoriented neighbourhood of ``phi`` in ``p``, six deep."""
    seen = {phi}
    frontier = [phi]
    for _ in range(6):
        frontier = [
            nxt
            for phi in frontier
            for _, nxt in oracle._neighbors(p, phi)[0]
            if nxt not in seen and not seen.add(nxt)
        ]
    return seen


# ---------------------------------------------------------------------------
# Placement from a firing sequence, and trusted construction


GRAPH_FIELDS = ("in_tokens", "ops", "labels", "producer", "consumer", "word", "layer", "column",
                "by_family")


@pytest.fixture
def checked_builds(monkeypatch) -> Counter:
    """Check every placement against the canonical form of its one-op
    layers, every diagram built with a trusted ``output`` against the
    validating constructor, and the graph each rewrite hands over against a
    fresh one, field by field; count the builders seen."""
    seen = Counter()
    to_diagram, init, rewrite = OpSeq.to_diagram, Diagram.__init__, matching.rewrite_block

    def checked_to_diagram(seq, canonical=False):
        got = to_diagram(seq, canonical)
        if canonical:
            want = canon(to_diagram(seq))
            assert got.layers == want.layers and got.input == want.input, got
            assert got.output == want.output and got._canonical == len(got.layers)
            seen["placements"] += 1
        return got

    def checked_init(self, input_word, layers=(), *, output=None):
        init(self, input_word, layers, output=output)
        if output is not None:
            again = Diagram(self.input, self.layers)
            assert again == self and again.output == self.output, self
            seen[sys._getframe(1).f_code.co_name] += 1

    def checked_rewrite(phi, *args):
        got = rewrite(phi, *args)
        placed, seq = matching._handed
        assert placed is got
        handed, fresh = OpGraph(got, seq), OpGraph(got)
        for name in GRAPH_FIELDS:
            assert getattr(handed, name) == getattr(fresh, name), (name, got)
        seen["handovers"] += 1
        return got

    monkeypatch.setattr(OpSeq, "to_diagram", checked_to_diagram)
    monkeypatch.setattr(Diagram, "__init__", checked_init)
    for module in (matching, bigtwist):  # every binding of rewrite_block
        monkeypatch.setattr(module, "rewrite_block", checked_rewrite)
    return seen


TRUSTED = {"compose_seq", "compose_par", "to_diagram", "interchange_canonical_form"}


def test_placement_and_trusted_builds_on_the_sem_normalizations(
    sem_derivations, sem_paths, checked_builds
):
    assert _sem_paths(sem_derivations) == sem_paths
    for d in sem_derivations:
        phi = represent(d)
        want = canon(model_rep(d, True))  # built by compose_seq and compose_par
        assert phi.layers == want.layers and phi.output == want.output
        assert phi._canonical == len(phi.layers)
    assert set(checked_builds) == TRUSTED | {"placements", "handovers"}
    assert checked_builds["placements"] > 280 and checked_builds["handovers"] > 200


def test_placement_and_trusted_builds_on_the_bfs_neighbourhood(checked_builds):
    assert len(_neighbourhood(polygraph("Sem"), _critical_peak())) > 300
    assert set(checked_builds) == TRUSTED | {"placements", "handovers"}
    assert checked_builds["placements"] > 1000 and checked_builds["handovers"] > 1000


def test_a_rewrite_of_one_gate_object_in_two_slots_hands_over_the_same_graph():
    # parallel copies of one diagram share its gate objects, so a slot does
    # not name its op; the handed-over graph is then fired afresh
    tw = single(TwistGate(a, b))
    phi = canon(parallel(tw, tw, tw))
    assert len({id(g) for g in phi.gate_list()}) == 1
    got = rewrite_block(phi, (1,), lambda local: local)
    placed, seq = matching._handed
    assert placed is got and got == phi
    handed, fresh = OpGraph(got, seq), OpGraph(got)
    for name in GRAPH_FIELDS:
        assert getattr(handed, name) == getattr(fresh, name), name


def test_placement_hoists_a_leaf_over_a_cut_where_the_canonical_form_keeps_the_gap():
    seq = OpSeq((a, negate(a)))
    seq.fire_at(CutGate(a, False), 0)
    seq.fire_at(AxGate(b, False), 0)
    placed = seq.to_diagram(canonical=True)
    assert placed.layers == ((AxGate(b, False), CutGate(a, False)),)
    assert placed == canon(seq.to_diagram())
    gap = Diagram((a, negate(a)), ((CutGate(a, False), AxGate(b, False)),))
    assert canon(gap) is gap


def test_untrusted_builds_still_check_their_boundaries():
    with pytest.raises(BoundaryMismatch):
        compose_seq(identity((a,)), identity((b,)))
    with pytest.raises(BoundaryMismatch):
        Diagram((a, b), ((TwistGate(b, a),),))
    with pytest.raises(BoundaryMismatch):
        Diagram((a,), ((a,), (b,)))


# ---------------------------------------------------------------------------
# One graph per diagram, read-only


def test_polygraph_is_built_once_per_name():
    for name in POLYGRAPH_NAMES:
        assert polygraph(name) is polygraph(name)


def test_normalize_builds_one_graph_per_diagram_and_schema_member(monkeypatch):
    # wrap OpSeq.of as the benchmark's tracer does, and record what it built:
    # each rewrite hands its result's graph over, so no step after the
    # first fires its diagram again
    built = []
    of = OpSeq.__dict__["of"].__func__

    def counted(phi):
        built.append(phi)
        return of(phi)

    sem = polygraph("Sem")
    sw = Permutation((2, 1))
    deriv = cut(
        exchange(tensor(exchange(ax(a), sw), ax(negate(a))), Permutation((1, 3, 2))),
        par(ax(a), 1),
    )
    phi = represent(deriv)
    monkeypatch.setattr(OpSeq, "of", staticmethod(counted))
    nf, trace = normalize(sem, phi)
    monkeypatch.undo()
    assert "cut-tensor-par" in [r for r, _ in trace.steps]
    assert max(Counter(built).values()) == 1
    members = {s for rule in sem.rules for key in rule.keys(phi) for s in rule.pair(*key)}
    assert set(built) <= {canon(phi)} | members and canon(phi) in built


def test_the_oracle_neighbourhood_builds_one_graph_per_expanded_diagram(monkeypatch):
    # a rewrite's result gets its graph only when it is expanded, and the
    # diagram being expanded keeps its own between its rewrites
    built, expanded = [], []
    init, neighbors = OpGraph.__init__, oracle._neighbors

    def recorded(self, phi, placed=None):
        if sys._getframe(1).f_code.co_name != "_checked_schema":
            built.append(phi)
        init(self, phi, placed)

    def expand(p, phi):
        expanded.append(phi)
        return neighbors(p, phi)

    monkeypatch.setattr(OpGraph, "__init__", recorded)
    monkeypatch.setattr(oracle, "_neighbors", expand)
    _neighbourhood(polygraph("Sem"), _critical_peak())
    assert len(expanded) > 100 and sorted(map(id, built)) == sorted(map(id, expanded))


def test_the_shared_graph_is_read_only():
    phi = represent(parse_derivation("(tensor (ex (2,1) (ax a)) (ax b))"))
    g = op_graph(phi)
    assert op_graph(phi) is g
    assert not hasattr(g, "fire_at") and not hasattr(g, "splice")
    with pytest.raises(AttributeError):
        g.ops = ()
    with pytest.raises(AttributeError):
        g.ops[0].pos = 5
    with pytest.raises(AttributeError):
        g.ops.append(g.ops[0])
    for table in (g.labels, g.producer, g.consumer, g.layer, g.column, g.by_family):
        with pytest.raises(TypeError):
            table[0] = None
    # what the graph holds is what a fresh OpSeq computes
    seq = OpSeq.of(phi)
    assert g.ops == tuple(seq.ops)
    assert g.labels == seq.labels and g.producer == seq.producer
    assert g.consumer == {t: seq.consumer.get(t) for t in seq.labels}
    assert g.word == tuple(seq.word)
    assert [(g.layer[i], g.column[i]) for i in range(len(g.ops))] == [
        (li, col) for li, col, _ in phi.gates()
    ]
    assert sorted(i for ix in g.by_family.values() for i in ix) == list(range(len(g.ops)))


def test_an_unmatchable_schema_raises_on_every_call():
    # the oracle's reversed search relies on the error, so a cached check
    # must still raise each time
    phi = represent(ax(a))
    for schema in (identity((a,)), Diagram((a, b, c), ((TwistGate(a, b), c),))):
        for _ in range(2):
            with pytest.raises(MatchError):
                find_matches(phi, schema)
