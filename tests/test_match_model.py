"""The shared-graph matcher against ``match_model``, the matcher that builds
a fresh ``OpSeq`` per call; and the graph itself: one build per diagram and
per schema member, and read-only."""
import random
import sys
from collections import Counter

import pytest

import match_model as model
from conftest import random_with_cut
from rep_model import _rep as model_rep
from test_traces import _procedural_diagrams
from proofdiag import bigtwist, oracle
from proofdiag.diagram import (
    AxGate,
    BoundaryMismatch,
    CutGate,
    Diagram,
    DiagramError,
    OpSeq,
    R,
    L,
    TensorGate,
    TwistGate,
    compose_seq,
    identity,
    interchange_canonical_form as canon,
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
                    out = _outcome(replace_at, phi, site, other)
                    assert out == _outcome(model.replace_at, phi, site, other), (rule.name, site)
                    assert _blocks(rewrite_block, phi, site.g_ops) == _blocks(
                        model.rewrite_block, phi, site.g_ops
                    )
                    if isinstance(out, Diagram):
                        nbrs.append(out)
        if not rule.keys(phi):  # procedural: the same sites through both cutters
            for site in rule.find(phi):
                assert _blocks(rewrite_block, phi, site.g_ops) == _blocks(
                    model.rewrite_block, phi, site.g_ops
                )
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


@pytest.fixture
def checked_builds(monkeypatch) -> Counter:
    """Check every placement against the canonical form of its one-op
    layers, and every diagram built with a trusted ``output`` against the
    validating constructor; count the builders seen."""
    seen = Counter()
    to_diagram, init = OpSeq.to_diagram, Diagram.__init__

    def checked_to_diagram(seq, canonical=False):
        got = to_diagram(seq, canonical)
        if canonical:
            want = canon(to_diagram(seq))
            assert got.layers == want.layers and got.input == want.input, got
            assert got.output == want.output and got._canonical
            seen["placements"] += 1
        return got

    def checked_init(self, input_word, layers=(), *, output=None):
        init(self, input_word, layers, output=output)
        if output is not None:
            again = Diagram(self.input, self.layers)
            assert again == self and again.output == self.output, self
            seen[sys._getframe(1).f_code.co_name] += 1

    monkeypatch.setattr(OpSeq, "to_diagram", checked_to_diagram)
    monkeypatch.setattr(Diagram, "__init__", checked_init)
    return seen


TRUSTED = {"compose_seq", "compose_par", "to_diagram", "interchange_canonical_form"}


def test_placement_and_trusted_builds_on_the_sem_normalizations(
    sem_derivations, sem_paths, checked_builds
):
    assert _sem_paths(sem_derivations) == sem_paths
    for d in sem_derivations:
        phi = represent(d)
        want = canon(model_rep(d, True))  # built by compose_seq and compose_par
        assert phi.layers == want.layers and phi.output == want.output and phi._canonical
    assert set(checked_builds) == TRUSTED | {"placements"}
    assert checked_builds["placements"] > 280


def test_placement_and_trusted_builds_on_the_bfs_neighbourhood(checked_builds):
    assert len(_neighbourhood(polygraph("Sem"), _critical_peak())) > 300
    assert set(checked_builds) == TRUSTED | {"placements"}
    assert checked_builds["placements"] > 1000


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
    # wrap OpSeq.of as the benchmark's tracer does, and record what it built
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
    path = [canon(phi)]
    for rule_name, site in trace.steps:
        path.append(sem.rule(rule_name).apply(path[-1], site))
    members = {s for rule in sem.rules for key in rule.keys(phi) for s in rule.pair(*key)}
    assert len(built) <= len(set(path)) + len(members)
    assert set(built) <= set(path) | members


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
