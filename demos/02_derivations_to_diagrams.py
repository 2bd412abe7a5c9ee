"""From sequent derivations to proof diagrams and back.

The controlled signature brackets every sequent region between L and R
wires, so whether a diagram is a proof is read off its boundary in linear
time. Sequentialization recovers the derivation in one pass over the
canonical form's gates: it peels the lowest, rightmost gate that is not an
axiom or a one, and at a tensor or cut splits the rest into two closed
branches by the wires each half of the boundary reaches. No diagram is
rebuilt on the way, so the cost grows linearly with the gate count at a
fixed boundary width.
"""
from proofdiag.formula import atom, negate
from proofdiag.diagramio import derivation_text, diagram_text
from proofdiag.perm import Permutation
from proofdiag.sequent import ax, bot, exchange, one, par, sequent_str, tensor
from proofdiag.translate import (
    ComparisonCounter,
    is_sequentializable,
    represent,
    sequentialize,
    to_proof_structure,
)

a, b = atom("a"), atom("b")

d = tensor(par(ax(a)), exchange(bot(one()), Permutation((2, 1))))
print("derivation:", derivation_text(d).strip())
print("conclusion: |-", sequent_str(d.conclusion))
print()

phi = represent(d)
print(diagram_text(phi))

counter = ComparisonCounter()
print("sequentializable:", is_sequentializable(phi, counter))
print("label comparisons used:", counter.n, "(the gate count never matters)")
print()

rt = sequentialize(phi)
print("sequentialized back:", derivation_text(rt).strip())
print()

# the uncontrolled signature forgets the brackets and reads as a proof net
ps = to_proof_structure(represent(d, "uncontrolled"))
print("as a proof structure:")
print(ps.graph_text())
