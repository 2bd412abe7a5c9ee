"""The gate protocol: unification, substitution, printing and parsing read
every gate type through its fields."""
from dataclasses import replace

import pytest

from proofdiag.formula import FVar, NVar, Par, Tensor, atom, negate
from proofdiag.diagram import (
    GATE_TYPES,
    AxGate,
    BigGate,
    BotGate,
    CutGate,
    L,
    OneGate,
    ParGate,
    R,
    TensorGate,
    TwistGate,
    parallel,
    single,
)
from proofdiag.diagramio import ParseError, gate_text, parse_gate
from proofdiag.matching import gate_subst, gate_unify

a, b = atom("a"), atom("b")
X, Y = FVar("X"), FVar("Y")
SUBST = {"X": Tensor(a, b), "Y": negate(b)}
x, y = SUBST["X"], SUBST["Y"]


def _schema_and_instance(family: str, controlled: bool):
    """A schema gate over X, Y and the dual of Y, and its instance under SUBST."""
    c = controlled
    return {
        "twist": (TwistGate(X, NVar("Y")), TwistGate(x, negate(y))),
        "par": (ParGate(Par(X, Y), a), ParGate(Par(x, y), a)),
        "tensor": (TensorGate(X, Y, c), TensorGate(x, y, c)),
        "ax": (AxGate(X, c), AxGate(x, c)),
        "cut": (CutGate(NVar("Y"), c), CutGate(negate(y), c)),
        "one": (OneGate(c), OneGate(c)),
        "bot": (BotGate(), BotGate()),
        "big": (BigGate((X, R, L, Y), ()), BigGate((x, R, L, y), ())),
    }[family]


@pytest.mark.parametrize("controlled", [True, False])
@pytest.mark.parametrize("family", list(GATE_TYPES))
def test_gate_protocol(family, controlled):
    schema, g = _schema_and_instance(family, controlled)
    assert type(g) is GATE_TYPES[family]
    assert parse_gate(gate_text(g), controlled) == g
    assert gate_subst(schema, SUBST) == g
    subst: dict = {}
    assert gate_unify(schema, g, subst) and gate_subst(schema, subst) == g
    for other in GATE_TYPES:
        if other != family:
            assert not gate_unify(schema, _schema_and_instance(other, controlled)[1], {})
    if hasattr(g, "controlled"):
        assert not gate_unify(schema, replace(g, controlled=not controlled), {})
    if family == "big":
        assert not gate_unify(schema, BigGate(g.left_word + (a,), g.right_word), {})
        assert not gate_unify(schema, BigGate(g.left_word, (a,)), {})
        assert not gate_unify(schema, BigGate((L,) + g.left_word[1:], ()), {})


def test_diagram_repr_of_every_gate_type():
    phi = parallel(
        *map(
            single,
            [
                TwistGate(a, b),
                ParGate(a, negate(b)),
                TensorGate(a, b),
                TensorGate(a, b, False),
                AxGate(Tensor(a, b)),
                AxGate(a, False),
                CutGate(a),
                CutGate(a, False),
                OneGate(),
                OneGate(False),
                BotGate(),
                BigGate((a, R, L, b), ()),
            ],
        )
    )
    assert repr(phi) == (
        "Diagram(a,b,a,b^,a,R,L,b,a,b,a,R,L,a^,a,a^,L,a,R,L,b,R,L,R => "
        "b,a,(a|b^),(a*b),(a*b),L,(a*b),(b^|a^),R,a,a^,L,1,R,1,_,L,R,L,a,R,L,b,R : "
        "[twist(a,b) par(a,b^) tensor(a,b) tensor!(a,b) ax((a*b)) ax!(a) cut(a) cut!(a) "
        "one one! bot big([a,R,L,b],[-])])"
    )


@pytest.mark.parametrize(
    "text",
    [
        "one()",
        "bot()",
        "twist(a)",
        "foo(a)",
        "ax",
        "tensor!(a,b)",
        "par(a,,b)",
        "big([L,a,R]x,[b])",
        "big([a],[b],[a])",
        "big(a,[b])",
        "ax([a])",
        "cut(a",
    ],
)
def test_parse_gate_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_gate(text, True)
