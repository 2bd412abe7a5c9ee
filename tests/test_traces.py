"""Golden traces recorded on the fixed corpus.

Normal forms, the site data of every rewrite step, the rule dumps of the
five polygraphs and the step records of ``proofdiag normalize --emit-trace``
are compared with values recorded before the rule engine was refactored;
a change to any of them is a change of behaviour.  So are the derivation
layer's results (printing, parsing, ``sim_neighbors``, ``cut_step``,
``represent`` and ``sequentialize``), recorded before validity moved into
``Derivation``.  So are the paths of the procedural rules (each case of the
B-gate introduction, of the collapse and of the untangle relations) and the
proof-structure reading, on diagrams that reach every one of those paths,
recorded before the procedural rewrites were built in one ``OpSeq``.  Site
fingerprints are left out: they are ``hash(phi)``, which is salted per
process.
"""
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import _handmade, random_with_cut
from proofdiag.diagram import BigGate, L, ParGate, R, compose_seq, identity, parallel, single
from proofdiag.diagramio import derivation_text, diagram_text, parse_derivation, polygraph_rules_text
from proofdiag.formula import atom, negate
from proofdiag.oracle import untangle
from proofdiag.perm import Permutation
from proofdiag.polygraph import POLYGRAPH_NAMES, WORD_MAX_WIDTH, normalize, polygraph
from proofdiag.sequent import (
    ax,
    bot,
    cut_step,
    derivation_str,
    exchange,
    find_cut_paths,
    one,
    par,
    sim_neighbors,
    tensor,
)
from proofdiag.translate import represent, sequentialize, to_proof_structure

GOLDEN = Path(__file__).parent / "golden"

SYSTEMS = (("Sem", "controlled"), ("MLL_big", "controlled"), ("MLLu_Cut", "uncontrolled"))

TRACE_DIGEST = "02c09e1d1741ea005e72cf35b6106a615814b1c1235d655a74623612b443dd59"

DERIVATION_DIGEST = "79d81561fc0d03f7d179223e561ca8daf0919da8de442418d337f5b2f081dca1"

PROCEDURAL_DIGEST = "f2ff410485e62c5a186c2e595a78a7459265ec0524ba6572bfd26421d293fda1"

SCHEMA_DIGEST = "ad6b6e3915bac4acb4fbb5315ac916e59bbdb7d84ae990c2655a310e11d2fb91"


def _step_data(rule_name, site) -> tuple:
    # getattr: before the two site types were merged, schema sites had no
    # payload and procedural sites no substitution
    return (
        rule_name,
        site.g_ops,
        getattr(site, "substitution", ()),
        site.layer_span,
        site.offset,
        getattr(site, "payload", ()),
    )


def test_corpus_traces_digest(corpus):
    h = hashlib.sha256()
    for name, sig in SYSTEMS:
        p = polygraph(name)
        for i, d in enumerate(corpus):
            nf, trace = normalize(p, represent(d, sig))
            h.update(f"{name} {i} {nf!r}\n".encode())
            for rule_name, site in trace.steps:
                h.update(f"{_step_data(rule_name, site)!r}\n".encode())
    assert h.hexdigest() == TRACE_DIGEST


def _procedural_diagrams() -> list:
    """Diagrams whose normal forms take every path of the procedural rules."""
    a, b, sw = atom("a"), atom("b"), Permutation((2, 1))
    right_first = tensor(exchange(tensor(exchange(ax(a), sw), one()), sw), one())
    mirror = tensor(one(), exchange(tensor(one(), exchange(ax(a), sw)), sw))
    double = tensor(exchange(tensor(right_first, one()), sw), one())
    # a right case whose two swapped blocks differ in width
    pair = exchange(tensor(tensor(ax(a), one()), ax(negate(a))), Permutation((2, 3, 1)))
    uneven = bot(tensor(one(), bot(pair)))
    phi, psi = represent(par(ax(a))), represent(one())
    closed = compose_seq(parallel(phi, psi), single(BigGate(phi.output[1:-1], psi.output[1:-1])))
    pa = ParGate(a, negate(a))
    above_left = parallel(identity((L,)), single(pa), identity((R, L, b, R)))
    above_right = parallel(identity((L, b, R, L)), single(pa), identity((R,)))
    open_left = compose_seq(above_left, single(BigGate(pa.outputs, (b,))))
    open_right = compose_seq(above_right, single(BigGate((b,), pa.outputs)))
    derived = [represent(d) for d in (right_first, mirror, double, uneven)]
    return derived + [closed, open_left, open_right]


def test_procedural_rules_digest(corpus):
    h = hashlib.sha256()
    paths = set()

    def record(head, out, steps):
        h.update(f"{head} {out!r}\n".encode())
        for rule_name, site in steps:
            h.update(f"{_step_data(rule_name, site)!r}\n".encode())
            if rule_name == "big-intro":
                paths.add((rule_name, "flipped" if site.payload[3] >= 0 else site.payload[0]))
            elif rule_name.startswith(("big-collapse", "untangle")):
                paths.add((rule_name, site.payload[0]))

    for i, phi in enumerate(_procedural_diagrams()):
        for name in ("MLL_big", "Sem"):
            nf, trace = normalize(polygraph(name), phi)
            record(f"{name} {i}", nf, trace.steps)
        try:
            out, trace = untangle(phi)
        except Exception as e:
            h.update(f"untangle {i} {type(e).__name__}\n".encode())
        else:
            record(f"untangle {i}", out, trace.steps)
    for d in corpus:
        h.update(to_proof_structure(represent(d, "uncontrolled")).graph_text().encode())
    assert paths == {
        ("big-intro", "left"),
        ("big-intro", "right"),
        ("big-intro", "flipped"),
        ("big-collapse-left", "left"),
        ("big-collapse-right", "right"),
        ("untangle-left", "left"),
        ("untangle-right", "right"),
    }
    assert h.hexdigest() == PROCEDURAL_DIGEST


def _derivation_or_error(f, *args) -> str:
    try:
        return derivation_str(f(*args))
    except Exception as e:
        return type(e).__name__


def test_derivation_layer_digest(corpus):
    rng = random.Random(7)
    derivations = corpus + [random_with_cut(rng, rng.randint(2, 12)) for _ in range(60)]
    h = hashlib.sha256()
    for d in derivations:
        h.update(f"{derivation_str(d)}\n".encode())
        h.update(" ".join(map(derivation_str, sim_neighbors(d))).encode())
        for path in find_cut_paths(d):
            h.update(f"{path} {_derivation_or_error(cut_step, d, path)}\n".encode())
        h.update(f"{represent(d)!r}\n{represent(d, 'uncontrolled')!r}\n".encode())
        h.update(f"{_derivation_or_error(sequentialize, represent(d))}\n".encode())
        h.update(f"{parse_derivation(derivation_text(d)) == d}\n".encode())
    assert h.hexdigest() == DERIVATION_DIGEST


@pytest.mark.parametrize("name", POLYGRAPH_NAMES)
def test_polygraph_rules_text_golden(name):
    want = (GOLDEN / f"rules_{name}.txt").read_text()
    assert polygraph_rules_text(polygraph(name)) == want


def test_every_schema_pair_digest():
    # the rule dumps show the word and sigma families at width 0 only; this
    # pins every member that a diagram of the widest matched width can use
    phi = identity((atom("a"),) * WORD_MAX_WIDTH)
    h = hashlib.sha256()
    pairs = 0
    for name in POLYGRAPH_NAMES:
        for rule in polygraph(name).rules:
            for key in rule.keys(phi):
                src, tgt = rule.pair(*key)
                h.update(f"{name} {rule.name} {key!r}\n".encode())
                h.update(f"{diagram_text(src)}{diagram_text(tgt)}".encode())
                pairs += 1
    assert pairs == 96
    assert h.hexdigest() == SCHEMA_DIGEST


# Sem steps of tensor(paired tensor example, principal tensor/par cut): a
# family step at width 1 (cut-tensor-par) and two procedural steps.
EMIT_TRACE_STEPS = [
    {"rule": "ax-involution", "gates": [3, 7], "substitution": {"A": "a"}},
    {
        "rule": "cut-tensor-par",
        "gates": [7, 8, 10, 12],
        "substitution": {"A": "a", "B": "a^", "W0": "a"},
    },
    {"rule": "ax-involution", "gates": [4, 7], "substitution": {"A": "a^"}},
    {"rule": "cut-ax-left", "gates": [3, 11], "substitution": {"A": "a^"}},
    {"rule": "cut-ax-left", "gates": [3, 6], "substitution": {"A": "a"}},
    {"rule": "ax-involution", "gates": [3, 5], "substitution": {"A": "a"}},
    {"rule": "big-intro", "gates": [5, 6, 7, 8], "detail": ["left", "8", "6", "-1"]},
    {"rule": "big-collapse-left", "gates": [2, 5], "detail": ["left"]},
]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_cli_emit_trace_step_records(tmp_path, hash_seed):
    # the records must not depend on the salt of str hashes
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    hand = _handmade()
    f = tmp_path / "d.diag"
    f.write_text(diagram_text(represent(tensor(hand[12], hand[14]))))
    cmd = [sys.executable, "-m", "proofdiag.cli", "normalize", "--polygraph", "sem", "--emit-trace"]
    as_json = subprocess.run(cmd + ["--json", str(f)], capture_output=True, text=True, env=env)
    assert as_json.returncode == 0, as_json.stderr
    assert json.loads(as_json.stdout)["steps"] == EMIT_TRACE_STEPS
    as_text = subprocess.run(cmd + [str(f)], capture_output=True, text=True, env=env)
    assert as_text.returncode == 0, as_text.stderr
    lines = [l for l in as_text.stdout.splitlines() if l.startswith("# step ")]
    assert lines == [f"# step {json.dumps(s, sort_keys=True)}" for s in EMIT_TRACE_STEPS]
