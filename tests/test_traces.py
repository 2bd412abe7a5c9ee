"""Golden traces recorded on the fixed corpus.

Normal forms, the site data of every rewrite step, the rule dumps of the
five polygraphs and the step records of ``proofdiag normalize --emit-trace``
are compared with values recorded before the rule engine was refactored;
a change to any of them is a change of behaviour.  So are the derivation
layer's results (printing, parsing, ``sim_neighbors``, ``cut_step``,
``represent`` and ``sequentialize``), recorded before validity moved into
``Derivation``.  Site fingerprints are
left out: they are ``hash(phi)``, which is salted per process.
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
from proofdiag.diagram import identity
from proofdiag.diagramio import derivation_text, diagram_text, parse_derivation, polygraph_rules_text
from proofdiag.formula import atom
from proofdiag.polygraph import POLYGRAPH_NAMES, WORD_MAX_WIDTH, normalize, polygraph
from proofdiag.sequent import cut_step, derivation_str, find_cut_paths, sim_neighbors, tensor
from proofdiag.translate import represent, sequentialize

GOLDEN = Path(__file__).parent / "golden"

SYSTEMS = (("Sem", "controlled"), ("MLL_big", "controlled"), ("MLLu_Cut", "uncontrolled"))

TRACE_DIGEST = "02c09e1d1741ea005e72cf35b6106a615814b1c1235d655a74623612b443dd59"

DERIVATION_DIGEST = "79d81561fc0d03f7d179223e561ca8daf0919da8de442418d337f5b2f081dca1"

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
