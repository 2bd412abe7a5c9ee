"""File formats round-trip bit-exactly; CLI exit codes and determinism."""
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from proofdiag.formula import atom, negate
from proofdiag.diagram import (
    GATE_TYPES,
    AxGate,
    BigGate,
    Diagram,
    DiagramError,
    interchange_canonical_form as canon,
    parallel,
    single,
)
from proofdiag.diagramio import (
    ParseError,
    derivation_text,
    diagram_text,
    parse_derivation,
    parse_diagram,
    parse_sequent,
)
from proofdiag.perm import Permutation
from proofdiag.render import render_svg, render_tikz
from proofdiag.sequent import ax, bot, cut, exchange, one, par, sequent_str, tensor
from proofdiag.translate import boundary_sequent, represent, to_proof_structure
from test_sequentialize import _tower_layers

a, b = atom("a"), atom("b")


def _cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "proofdiag.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


CORPUS = [
    ax(a),
    par(ax(a)),
    tensor(ax(a), ax(b)),
    cut(bot(one()), one()),
    exchange(tensor(exchange(tensor(ax(a), one()), Permutation((2, 1))), one()), Permutation((2, 1))),
]


def test_derivation_text_round_trip():
    for d in CORPUS:
        text = derivation_text(d)
        assert parse_derivation(text) == d
        assert derivation_text(parse_derivation(text)) == text


def test_diagram_text_round_trip():
    for d in CORPUS:
        for sig in ("controlled", "uncontrolled"):
            phi = represent(d, sig)
            text = diagram_text(phi)
            assert parse_diagram(text) == phi
            assert diagram_text(parse_diagram(text)) == text


def test_diagram_text_round_trip_with_big_gate():
    phi = canon(single(BigGate((a, negate(a)), (b,))))
    text = diagram_text(phi)
    assert parse_diagram(text) == phi


def test_mixed_signatures_are_refused():
    # one signature line cannot say both, so the diagram has no text
    mixed = parallel(single(AxGate(a)), single(AxGate(b, False)))
    with pytest.raises(DiagramError):
        diagram_text(mixed)
    with pytest.raises(DiagramError):
        to_proof_structure(mixed)


# ---------------------------------------------------------------------------
# Fuzzing the text parsers: junk built from the grammar's own pieces, and
# valid files with a few characters edited.

LABELS = ["a", "a^", "b", "(a*b)", "(b^|a^)", "1", "_", "L", "R", "-", "", "(", "[a]", "a b"]
EDIT_CHARS = list(",;:()[]!-^ab1_LR \n")


@st.composite
def _edited(draw, texts):
    text = draw(st.sampled_from(texts))
    for sig in ("controlled", "uncontrolled"):
        other = draw(st.sampled_from([sig, "controlled", "uncontrolled", "other"]))
        text = text.replace(f"signature: {sig}\n", f"signature: {other}\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(["", *EDIT_CHARS])) + text[j:]
    return text


@st.composite
def _diagram_junk(draw):
    def word():
        return ",".join(draw(st.lists(st.sampled_from(LABELS), max_size=4)))

    def gate():
        head = draw(st.sampled_from([*GATE_TYPES, "foo", "tensor!"]))
        args = [
            draw(st.sampled_from(LABELS)) if draw(st.booleans()) else f"[{word()}]"
            for _ in range(draw(st.integers(0, 3)))
        ]
        return head + draw(st.sampled_from(["", f"({','.join(args)})", f"({','.join(args)}"]))

    def slot():
        return draw(st.sampled_from(["id " + draw(st.sampled_from(LABELS)), "gate " + gate(), "x"]))

    lines = [
        draw(st.sampled_from(["proofdiag-diagram v1", "proofdiag-diagram v2"])),
        "signature: " + draw(st.sampled_from(["controlled", "uncontrolled", "other"])),
        "input: " + word(),
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.append("layer: " + "; ".join(slot() for _ in range(draw(st.integers(0, 4)))))
    return "\n".join(lines) + "\n"


DIAGRAM_TEXTS = [
    *(diagram_text(represent(d, sig)) for d in CORPUS for sig in ("controlled", "uncontrolled")),
    diagram_text(canon(single(BigGate((a, negate(a)), (b,))))),
    diagram_text(parallel(single(BigGate((a,), (b,))), single(AxGate(a)))),
]
DERIVATION_TOKENS = "( ) ax one bot par tensor cut ex a a^ (a*b) 1 2 -1 2,1 x".split()


@seed(4)
@settings(max_examples=400, database=None, deadline=None)
@given(st.one_of(_diagram_junk(), _edited(DIAGRAM_TEXTS)))
def test_fuzz_parse_diagram(text):
    try:
        phi = parse_diagram(text)
    except ParseError:
        return
    assert parse_diagram(diagram_text(phi)) == phi


@seed(4)
@settings(max_examples=400, database=None, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(DERIVATION_TOKENS), max_size=12).map(" ".join),
        _edited([derivation_text(d) for d in CORPUS]),
    )
)
def test_fuzz_parse_derivation(text):
    try:
        parse_derivation(text)
    except ParseError:
        pass


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_diagram("not a diagram")
    with pytest.raises(ParseError):
        parse_derivation("(frob a)")
    assert parse_sequent("a, a^") == (a, negate(a))


def test_cli_check_and_exit_codes(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("(par (ax a))\n")
    r = _cli("check", str(f))
    assert r.returncode == 0 and "(a|a^)" in r.stdout
    bad = tmp_path / "bad.txt"
    bad.write_text("(par (par (ax a)))\n")
    assert _cli("check", str(bad)).returncode == 2  # fails to parse as valid
    # rules that do not apply to their premises fail on read
    for text in ("(par 2 (ax a))", "(ex (1,2,3) (ax a))", "(cut (ax a) (ax b))"):
        bad.write_text(text + "\n")
        r = _cli("check", str(bad))
        assert r.returncode == 2 and r.stderr.startswith("parse error:"), text
    missing = _cli("check", str(tmp_path / "nope.txt"))
    assert missing.returncode == 2
    # input that cannot be read is a parse error too, not a verdict
    for cmd in ("check", "seq"):
        r = _cli(cmd, str(tmp_path))
        assert r.returncode == 2 and r.stderr.startswith("parse error:"), cmd
    bad.write_bytes(b"(ax \xff)\n")
    r = _cli("check", str(bad))
    assert r.returncode == 2 and r.stderr.startswith("parse error:")


def test_cli_output_that_cannot_be_written(tmp_path):
    # a failed write is reported as such, not as a parse error of the input
    d = tmp_path / "d.txt"
    d.write_text("(ax a)\n")
    diag = tmp_path / "d.diag"
    assert _cli("represent", str(d), "-o", str(diag)).returncode == 0
    out = tmp_path / "missing" / "out"
    for args in (("represent", str(d)), ("render", str(diag))):
        r = _cli(*args, "-o", str(out))
        assert r.returncode == 2, args
        assert r.stderr.startswith(f"cannot write {out}: "), r.stderr
        assert not out.exists()


@pytest.mark.parametrize("n", [600, 5000])
def test_cli_check_parses_stacked_bots(tmp_path, n):
    # one rule per bot: reading the derivation must not recurse per rule
    path = tmp_path / "bots.txt"
    path.write_text("(bot " * n + "(one)" + ")" * n + "\n")
    r = _cli("check", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip() == "|- " + ", ".join(["1"] + ["_"] * n)


def test_cli_represent_seq_normalize_cutelim_equiv(tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("(cut (par (ax a)) (ax (a*a^)))\n")
    diag = tmp_path / "d.diag"
    assert _cli("represent", str(d), "-o", str(diag)).returncode == 0
    r = _cli("seq", str(diag), "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["sequentializable"] is True
    r = _cli("normalize", str(diag), "--polygraph", "sem", "--json")
    assert r.returncode == 0
    r = _cli("cut-elim", str(diag), "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["cut_weight_after"] == 0
    r = _cli("equiv", str(d), str(d), "--mode", "sem")
    assert r.returncode == 0 and r.stdout.strip() == "yes"


def test_cli_equiv_verdict_exit_codes(tmp_path):
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("(tensor (ex (2,1) (ax a)) (ax a))\n")
    d2.write_text("(ex (3,2,1) (tensor (ex (2,1) (ax a)) (ax a)))\n")
    r = _cli("equiv", str(d1), str(d2), "--bound", "2")
    assert r.returncode in (1, 10)
    d3 = tmp_path / "d3.txt"
    d3.write_text("(one)\n")
    assert _cli("equiv", str(d1), str(d3)).returncode == 3


def test_cli_seq_negative(tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("(ax a)\n")
    diag = tmp_path / "ax.diag"
    _cli("represent", str(d), "--sig", "uncontrolled", "-o", str(diag))
    r = _cli("seq", str(diag))
    assert r.returncode == 1  # uncontrolled boundary is not L,Gamma,R


def test_cli_seq_on_axiom(tmp_path):
    d = tmp_path / "ax.txt"
    d.write_text("(ax a)\n")
    diag = tmp_path / "ax.diag"
    _cli("represent", str(d), "-o", str(diag))
    r = _cli("seq", str(diag))
    assert r.returncode == 0
    assert "(ax a)" in r.stdout


def test_cli_seq_on_a_1000_gate_tower(tmp_path):
    phi = Diagram((), _tower_layers(1000))
    path = tmp_path / "tower.diag"
    path.write_text(diagram_text(phi))
    conclusion = sequent_str(boundary_sequent(phi))
    r = _cli("seq", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith(f"|- {conclusion}")
    r = _cli("seq", str(path), "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["conclusion"] == conclusion


def test_cli_seq_prints_600_stacked_bots(tmp_path):
    # one rule per bot: printing the derivation must not recurse per rule
    path = tmp_path / "bots.diag"
    path.write_text(
        "proofdiag-diagram v1\nsignature: controlled\ninput: -\nlayer: gate one\n"
        "layer: id L; id 1; " + "gate bot; " * 600 + "id R\n"
    )
    r = _cli("seq", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith("|- " + ", ".join(["1"] + ["_"] * 600))


def test_cli_equiv_paired_tensors_sim_mode(tmp_path):
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("(ex (2,1) (tensor (ex (2,1) (tensor (ax a) (one))) (one)))\n")
    d2.write_text("(tensor (ex (2,1) (tensor (ex (2,1) (ax a)) (one))) (one))\n")
    r = _cli("equiv", str(d1), str(d2), "--mode", "sim")
    assert r.returncode == 0 and r.stdout.strip() == "yes"


def test_cli_oracle_enumerate():
    r = _cli("oracle", "enumerate", "1,_", "--max-rules", "3", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert "(bot (one))" in payload["derivations"]


def test_cli_oracle_enumerate_ignores_hash_seed():
    # the analytic cut formulas come from a set; the listing must not follow its order
    cmd = [sys.executable, "-m", "proofdiag.cli", "oracle", "enumerate", "a,(a^*b),b^", "--max-rules", "5"]
    outs = []
    for hash_seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text",
    [
        "proofdiag-diagram v1\nsignature: controlled\ninput: -\nlayer: gate ax((a*)\n",
        "proofdiag-diagram v1\n",
        "proofdiag-diagram v1\nsignature: controlled\n",
        "proofdiag-diagram v1\nsignature: controlled\ninput: L,L,a,R,R,L,b,R\nlayer: gate big([L,a,R]x,[b])\n",
        "proofdiag-diagram v1\nsignature: controlled\ninput: a,b\nlayer: gate par(a,,b)\n",
        "proofdiag-diagram v1\nsignature: other\ninput: -\nlayer: gate ax(a)\n",
        "proofdiag-diagram v1\nsignature: uncontrolled\ninput: L,a,R,L,b,R\nlayer: gate big([a],[b])\n",
    ],
    ids=[
        "bad-gate-formula",
        "header-only",
        "no-input-line",
        "big-word-junk",
        "empty-argument",
        "unknown-signature",
        "uncontrolled-big",
    ],
)
def test_cli_malformed_diagram_is_a_parse_error(tmp_path, text):
    f = tmp_path / "bad.diag"
    f.write_text(text)
    r = _cli("seq", str(f))
    assert r.returncode == 2 and r.stderr.startswith("parse error:"), r.stderr


def test_cli_malformed_sequent_is_a_parse_error():
    r = _cli("oracle", "enumerate", "a, (b")
    assert r.returncode == 2 and r.stderr.startswith("parse error:"), r.stderr


def test_render_deterministic(tmp_path):
    phi = represent(tensor(ax(a), ax(b)))
    assert render_svg(phi) == render_svg(phi)
    assert render_tikz(phi) == render_tikz(phi)
    assert render_svg(phi).startswith("<svg")
    assert "tikzpicture" in render_tikz(phi)
