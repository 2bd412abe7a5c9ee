"""Proof diagrams for multiplicative linear logic with units.

A library for string-diagram rewriting over MLL signatures: five polygraphic
rewriting systems, translation between sequent derivations and diagrams, a
linear-time sequentializability check, diagram cut elimination, and a
bounded-search equivalence oracle.  Import what you need from its modules.
"""

__version__ = "0.1.0"
