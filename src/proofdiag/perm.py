"""Permutations as twist diagrams.

Conventions:

- A permutation is stored in one-line notation ``[s(1), ..., s(n)]``,
  1-based: the wire entering at position i leaves at position s(i).
- Sequential composition of diagrams maps to function composition the same
  way: stacking psi below phi gives ``perm(psi) . perm(phi)``.
- ``ladder('left', n, k)`` realizes the cycle (1,k,k-1,...,2) on the first k
  of n wires (the leftmost wire climbs to position k); ``ladder('right', n,
  k)`` realizes (k,1,2,...,k-1).

The canonical diagram of a permutation is defined by the recursion
``lad_left(s(1)) . (id_1 * canonical(erase_first(s)))``, where
``erase_first`` drops s(1) from the image list and closes the gap; it is
irreducible under the permutation polygraph's two rules.  ``fire_perm``
unrolls the recursion into one ``OpSeq`` (the last wire's ladder first; wire
i climbs to its rank among s(i..n)); ``tests/test_perm.py`` keeps the model.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import Atom
from .diagram import Diagram, DiagramError, OpSeq, TwistGate, compose_par, identity


class NonTwistGate(DiagramError):
    pass


class BadIndex(DiagramError):
    pass


#: wire label used for plain (monochrome) permutation diagrams
STRAND = Atom("~")


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise BadIndex(f"not a permutation: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __len__(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, k: int) -> "Permutation":
        """The adjacent transposition (k, k+1) in S_n."""
        if not 1 <= k < n:
            raise BadIndex(f"transposition index {k} out of range for n={n}")
        images = list(range(1, n + 1))
        images[k - 1], images[k] = images[k], images[k - 1]
        return Permutation(tuple(images))

    @staticmethod
    def move(n: int, i: int, j: int) -> "Permutation":
        """Position i goes to j in S_n; the positions between shift one place."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise BadIndex(f"move {i} -> {j} out of range for n={n}")
        order = [k for k in range(1, n + 1) if k != i]
        order.insert(j - 1, i)
        return Permutation(tuple(order)).inverse()

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if len(self) != len(other):
            raise BadIndex("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, len(self) + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * len(self)
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation(tuple(images))

    def apply(self, word: tuple) -> tuple:
        """Reorder a word: output position s(i) carries input i's entry."""
        out = [None] * len(self)
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = word[i - 1]
        return tuple(out)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"

    @staticmethod
    def parse(text: str) -> "Permutation":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise BadIndex(f"expected one-line notation [..]: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return Permutation(())
        return Permutation(tuple(int(p) for p in body.split(",")))


def _plain(n: int) -> tuple:
    return (STRAND,) * n


def _staircase(word: tuple, columns) -> Diagram:
    """One twist per layer, at each column in turn, over ``word``."""
    layers = []
    cur = list(word)
    for j in columns:
        layers.append(tuple(cur[:j] + [TwistGate(cur[j], cur[j + 1])] + cur[j + 2 :]))
        cur[j], cur[j + 1] = cur[j + 1], cur[j]
    return Diagram(tuple(word), layers)


def ladder_left_word(word: tuple) -> Diagram:
    """Staircase carrying the first wire of ``word`` to the last position."""
    return _staircase(word, range(len(word) - 1))


def ladder_right_word(word: tuple) -> Diagram:
    """Staircase carrying the last wire of ``word`` to the first position."""
    return _staircase(word, range(len(word) - 2, -1, -1))


def ladder(side: str, n: int, k: int, word: tuple = None) -> Diagram:
    """Lad^side_k padded with identities to n wires."""
    if side not in ("left", "right"):
        raise BadIndex(f"side must be left or right: {side!r}")
    if not 1 <= k <= n:
        raise BadIndex(f"ladder index k={k} out of range for n={n}")
    if word is None:
        word = _plain(n)
    if len(word) != n:
        raise BadIndex("word length disagrees with n")
    head, tail = tuple(word[:k]), tuple(word[k:])
    lad = ladder_left_word(head) if side == "left" else ladder_right_word(head)
    return compose_par(lad, identity(tail))


def fire_perm(seq: OpSeq, sigma: Permutation, at: int) -> None:
    """Fire the twists of sigma's canonical diagram on the live wires
    [at, at + n) of ``seq``, one ladder per wire, the last wire's first."""
    s = sigma.images
    for i in range(len(s) - 1, -1, -1):
        # wire i climbs past the later wires whose images are smaller
        for j in range(at + i, at + i + sum(v < s[i] for v in s[i + 1 :])):
            x, y = seq.word[j], seq.word[j + 1]
            seq.fire_at(TwistGate(seq.labels[x], seq.labels[y]), j)


def canonical_perm_diagram(sigma: Permutation, word: tuple = None) -> Diagram:
    """The unique irreducible twist diagram realizing sigma, flagged canonical."""
    n = len(sigma)
    if word is None:
        word = _plain(n)
    if len(word) != n:
        raise BadIndex("word length disagrees with permutation size")
    seq = OpSeq(word)
    fire_perm(seq, sigma, 0)
    return seq.to_diagram(canonical=True)


def diagram_to_perm(phi: Diagram) -> Permutation:
    """Interpret a twist-only diagram as the permutation it computes."""
    n = len(phi.input)
    positions = list(range(1, n + 1))  # positions[p] = input index at position p+1
    for _, pos, g in phi.gates():
        if not isinstance(g, TwistGate):
            raise NonTwistGate(f"non-twist gate in permutation diagram: {g}")
        positions[pos], positions[pos + 1] = positions[pos + 1], positions[pos]
    images = [0] * n
    for p, i in enumerate(positions, start=1):
        images[i - 1] = p
    return Permutation(tuple(images))


def perm_twist_count(sigma: Permutation) -> int:
    """Number of inversions = twists in the canonical diagram."""
    n = len(sigma)
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if sigma(i) > sigma(j)
    )
