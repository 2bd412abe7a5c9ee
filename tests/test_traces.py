"""Golden traces recorded on the fixed corpus.

Normal forms, the site data of every rewrite step, the rule dumps of the
five polygraphs and the step records of ``proofdiag normalize --emit-trace``
are compared with values recorded before the rule engine was refactored;
a change to any of them is a change of behaviour.  Site fingerprints are
left out: they are ``hash(phi)``, which is salted per process.
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import _handmade
from proofdiag.diagramio import diagram_text, polygraph_rules_text
from proofdiag.polygraph import POLYGRAPH_NAMES, normalize, polygraph
from proofdiag.sequent import tensor
from proofdiag.translate import represent

GOLDEN = Path(__file__).parent / "golden"

SYSTEMS = (("Sem", "controlled"), ("MLL_big", "controlled"), ("MLLu_Cut", "uncontrolled"))

TRACE_DIGEST = "02c09e1d1741ea005e72cf35b6106a615814b1c1235d655a74623612b443dd59"


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


@pytest.mark.parametrize("name", POLYGRAPH_NAMES)
def test_polygraph_rules_text_golden(name):
    want = (GOLDEN / f"rules_{name}.txt").read_text()
    assert polygraph_rules_text(polygraph(name)) == want


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


def test_cli_emit_trace_step_records(tmp_path):
    hand = _handmade()
    f = tmp_path / "d.diag"
    f.write_text(diagram_text(represent(tensor(hand[12], hand[14]))))
    cmd = [sys.executable, "-m", "proofdiag.cli", "normalize", "--polygraph", "sem", "--emit-trace"]
    as_json = subprocess.run(cmd + ["--json", str(f)], capture_output=True, text=True)
    assert as_json.returncode == 0, as_json.stderr
    assert json.loads(as_json.stdout)["steps"] == EMIT_TRACE_STEPS
    as_text = subprocess.run(cmd + [str(f)], capture_output=True, text=True)
    assert as_text.returncode == 0, as_text.stderr
    lines = [l for l in as_text.stdout.splitlines() if l.startswith("# step ")]
    assert lines == [f"# step {json.dumps(s, sort_keys=True)}" for s in EMIT_TRACE_STEPS]
