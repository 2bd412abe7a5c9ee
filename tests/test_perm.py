import itertools
import random

import pytest

from proofdiag.diagram import (
    compose_par,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form,
)
from proofdiag.formula import atom
from proofdiag.perm import (
    BadIndex,
    Permutation,
    STRAND,
    canonical_perm_diagram,
    diagram_to_perm,
    ladder,
    ladder_left_word,
    perm_twist_count,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# The definition of the canonical diagram, as the model: the recursion
# lad_left(s(1)) . (id_1 * canonical(erase_first(s))), canonicalized per level.


def erase_first(sigma):
    """Remove s(1) from the image list, closing the gap: S_{n+1} -> S_n."""
    k = sigma(1)
    return Permutation(tuple(v if v < k else v - 1 for v in sigma.images[1:]))


def model_perm_diagram(sigma, word):
    if len(sigma) <= 1:
        return identity(word)
    sub = model_perm_diagram(erase_first(sigma), tuple(word[1:]))
    top = compose_par(identity(word[:1]), sub)
    k = sigma(1)
    lad = compose_par(ladder_left_word(top.output[:k]), identity(top.output[k:]))
    return interchange_canonical_form(compose_seq(top, lad))


def test_fired_diagram_equals_the_recursive_definition_up_to_s6():
    for n in range(7):
        atoms = tuple(atom(f"x{i}") for i in range(n))
        for s in all_perms(n):
            for word in ((STRAND,) * n, atoms):
                got, want = canonical_perm_diagram(s, word), model_perm_diagram(s, word)
                assert (got.input, got.layers, got.output) == (want.input, want.layers, want.output)
                assert got._canonical == len(got.layers), s


def test_identity_diagram_has_no_gates():
    d = canonical_perm_diagram(Permutation.identity(3))
    assert d == identity((STRAND,) * 3)
    assert gate_count(d) == 0


def test_transposition_is_single_twist():
    d = canonical_perm_diagram(Permutation((2, 1)))
    assert gate_count(d) == 1


def test_round_trip_and_distinctness_up_to_s5():
    for n in range(6):
        seen = set()
        for s in all_perms(n):
            d = canonical_perm_diagram(s)
            assert diagram_to_perm(d).images == s.images
            assert gate_count(d) == perm_twist_count(s)
            seen.add(d)
        assert len(seen) == len(all_perms(n))


def test_ladder_cycles():
    # right ladder: (n,1,2,...,n-1); left ladder: (1,n,n-1,...,2)
    assert diagram_to_perm(ladder("right", 4, 4)).images == (2, 3, 4, 1)
    assert diagram_to_perm(ladder("left", 4, 4)).images == (4, 1, 2, 3)
    assert ladder("left", 1, 1) == identity((STRAND,))
    assert gate_count(ladder("left", 5, 3)) == 2


def test_ladder_bad_index():
    with pytest.raises(BadIndex):
        ladder("left", 3, 4)
    with pytest.raises(BadIndex):
        ladder("left", 3, 0)


def test_erase_first_is_a_bijection():
    for n in range(1, 6):
        images = {}
        for s in all_perms(n):
            images.setdefault((s(1), erase_first(s).images), s)
        # (s(1), Er(s)) determines s: n choices of s(1) times (n-1)! values
        assert len(images) == len(all_perms(n))


def test_sequential_composition_is_permutation_composition():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        p1 = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        p2 = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        d = compose_seq(canonical_perm_diagram(p1), canonical_perm_diagram(p2))
        assert diagram_to_perm(d).images == p2.compose(p1).images


def test_one_line_notation_round_trip():
    p = Permutation((2, 3, 1))
    assert str(p) == "[2,3,1]"
    assert Permutation.parse("[2,3,1]") == p
    assert Permutation.parse("[]") == Permutation(())


def test_move_sends_one_position_and_shifts_the_rest():
    for n in range(1, 9):
        for i in range(1, n + 1):
            # to the end: the tail shifts left; from the end: the tail shifts right
            to_end = tuple(n if k == i else k - (k > i) for k in range(1, n + 1))
            assert Permutation.move(n, i, n).images == to_end
            assert Permutation.move(n, n, i) == Permutation(to_end).inverse()
            # to the front: the head shifts right
            to_front = tuple(1 if k == i else k + (k < i) for k in range(1, n + 1))
            assert Permutation.move(n, i, 1).images == to_front
            for j in range(1, n + 1):
                s = Permutation.move(n, i, j)
                assert s(i) == j and s.inverse() == Permutation.move(n, j, i)
    # list.insert would clamp or wrap these instead of failing
    for i, j in ((1, 0), (1, 4), (0, 1), (4, 1)):
        with pytest.raises(BadIndex):
            Permutation.move(3, i, j)
