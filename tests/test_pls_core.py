"""Tests for squares, isotopism action, orbits, blocks, and group searches."""

from __future__ import annotations

import random
from itertools import permutations as iter_permutations
from math import gcd, lcm

import pytest

from latinsym.perm_algebra import IsotopismStructure, Permutation, lcm_triple_set
from latinsym.pls_core import (
    Isotopism,
    OrderLimitError,
    PartialLatinSquare,
    apply_isotopism,
    autotopism_group,
    canonical_isotopism,
    is_autotopism,
    isotopisms_between,
    parastrophe,
    theta_decomposition,
    triple_orbits,
)

import oracles


# The running 6x6 example: structure (6, 3.2.1, 4.2) with its canonical
# isotopism, and one of the six invariant squares of size 6.
EXAMPLE_STRUCT = IsotopismStructure.parse("6,3.2.1,4.2")
EXAMPLE_CELLS = [(1, 1, 5), (2, 2, 6), (3, 3, 5), (4, 1, 6), (5, 2, 5), (6, 3, 6)]

# The 3x3 square displayed in the completability discussion.
SMALL_BLOCKED = PartialLatinSquare.parse_text("3 . 2\n. 3 1\n2 1 .")


def random_pls(rng: random.Random, n: int, density: float = 0.5) -> PartialLatinSquare:
    cells = []
    rs, cs, rc = set(), set(), set()
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if rng.random() > density:
                continue
            options = [s for s in range(1, n + 1)
                       if (r, s) not in rs and (c, s) not in cs]
            if options:
                s = rng.choice(options)
                cells.append((r, c, s))
                rs.add((r, s))
                cs.add((c, s))
                rc.add((r, c))
    return PartialLatinSquare.from_cells(n, cells)


def random_isotopism(rng: random.Random, n: int) -> Isotopism:
    def perm():
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        return Permutation(tuple(imgs))

    return Isotopism(perm(), perm(), perm())


# ----------------------------------------------------------------------
# Square values and text formats
# ----------------------------------------------------------------------

def test_latin_condition_enforced():
    PartialLatinSquare.from_cells(2, [(1, 1, 1), (2, 2, 1)])
    with pytest.raises(ValueError):
        PartialLatinSquare.from_cells(2, [(1, 1, 1), (1, 1, 2)])  # cell clash
    with pytest.raises(ValueError):
        PartialLatinSquare.from_cells(2, [(1, 1, 1), (1, 2, 1)])  # row clash
    with pytest.raises(ValueError):
        PartialLatinSquare.from_cells(2, [(1, 1, 1), (2, 1, 1)])  # column clash
    with pytest.raises(ValueError):
        PartialLatinSquare.from_cells(2, [(1, 1, 3)])  # symbol out of range


def test_text_round_trip():
    text = "3 . 2\n. 3 1\n2 1 .\n"
    P = PartialLatinSquare.parse_text(text)
    assert P.size == 6
    assert P.format_text() == text
    assert PartialLatinSquare.parse_text(P.format_text()) == P


def test_text_bad_shape():
    with pytest.raises(ValueError):
        PartialLatinSquare.parse_text("1 2\n1\n")
    with pytest.raises(ValueError):
        PartialLatinSquare.parse_text("")


def test_json_round_trip():
    P = PartialLatinSquare.from_cells(3, [(1, 1, 3), (2, 3, 1)])
    assert PartialLatinSquare.parse_json(P.to_json()) == P
    assert '"n": 3' in P.to_json()


def test_empty_square_is_a_value():
    P = PartialLatinSquare(2, frozenset())
    assert P.is_empty() and P.size == 0


# ----------------------------------------------------------------------
# Isotopism values
# ----------------------------------------------------------------------

def test_isotopism_parse_and_str():
    t = Isotopism.parse("(1 2 3 4 5 6);(1 2 3)(4 5);(1 2 3 4)(5 6)")
    assert t.degree == 6
    assert t.beta(6) == 6
    assert str(t) == "(1 2 3 4 5 6);(1 2 3)(4 5)(6);(1 2 3 4)(5 6)"
    t2 = Isotopism.parse("[2,1];[2,1];[1,2]")
    assert t2.degree == 2 and t2.gamma.is_identity()
    with pytest.raises(ValueError):
        Isotopism.parse("(1 2);(1 2)")


def test_isotopism_compose_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        t1, t2 = random_isotopism(rng, n), random_isotopism(rng, n)
        assert (t1 * t1.inverse()).is_identity()
        assert (t1 * t2).apply_triple((1, 1, 1)) == t1.apply_triple(t2.apply_triple((1, 1, 1)))


def test_canonical_isotopism_layout():
    t = canonical_isotopism(EXAMPLE_STRUCT)
    assert str(t.alpha) == "(1 2 3 4 5 6)"
    assert str(t.beta) == "(1 2 3)(4 5)(6)"
    assert str(t.gamma) == "(1 2 3 4)(5 6)"
    assert t.structure() == EXAMPLE_STRUCT


def test_canonical_isotopism_structure_round_trip():
    for spec in ("2,2,2", "2.1,2.1,2.1", "3.1,2.2,2.1.1", "1^4,1^4,1^4"):
        z = IsotopismStructure.parse(spec)
        assert canonical_isotopism(z).structure() == z


# ----------------------------------------------------------------------
# Action
# ----------------------------------------------------------------------

def test_apply_identity():
    P = random_pls(random.Random(1), 4)
    assert apply_isotopism(P, Isotopism.identity(4)) == P


def test_apply_single_cell():
    P = PartialLatinSquare.from_cells(2, [(1, 1, 1)])
    t = Isotopism.parse("(1 2);(1 2);(1 2)")
    assert apply_isotopism(P, t).cells == frozenset({(2, 2, 2)})


def test_apply_degree_mismatch():
    with pytest.raises(ValueError):
        apply_isotopism(PartialLatinSquare(2, frozenset()), Isotopism.identity(3))


def test_example_square_invariant():
    t = canonical_isotopism(EXAMPLE_STRUCT)
    P = PartialLatinSquare.from_cells(6, EXAMPLE_CELLS)
    assert apply_isotopism(P, t) == P
    assert is_autotopism(t, P)


def test_action_preserves_size_and_validity():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        P = random_pls(rng, n)
        t = random_isotopism(rng, n)
        Q = apply_isotopism(P, t)  # constructor re-validates
        assert Q.size == P.size


def test_action_composition_law():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 5)
        P = random_pls(rng, n)
        t1, t2 = random_isotopism(rng, n), random_isotopism(rng, n)
        assert apply_isotopism(P, t1 * t2) == apply_isotopism(apply_isotopism(P, t2), t1)


def test_is_autotopism_examples():
    assert is_autotopism(Isotopism.identity(3), SMALL_BLOCKED)
    flip = Isotopism.parse("(1 2);(1 2);(1 2)", degree=3)
    assert is_autotopism(flip, SMALL_BLOCKED)
    t = Isotopism.parse("(1 2);(1 2);[1,2]")
    assert not is_autotopism(t, PartialLatinSquare.from_cells(2, [(1, 1, 1)]))


# ----------------------------------------------------------------------
# Parastrophy
# ----------------------------------------------------------------------

def test_parastrophe_identity_and_transpose():
    P = PartialLatinSquare.from_cells(3, [(1, 2, 3)])
    assert parastrophe(P, (1, 2, 3)) == P
    assert parastrophe(P, (2, 1, 3)).cells == frozenset({(2, 1, 3)})


def test_parastrophe_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        P = random_pls(rng, n)
        for pi in iter_permutations((1, 2, 3)):
            inv = tuple(pi.index(i) + 1 for i in (1, 2, 3))
            Q = parastrophe(P, pi)
            assert Q.size == P.size
            assert parastrophe(Q, inv) == P


def test_parastrophe_action_compatibility():
    # (P^t)^pi = (P^pi)^(t^pi) for every coordinate permutation
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 5)
        P = random_pls(rng, n)
        t = random_isotopism(rng, n)
        for pi in iter_permutations((1, 2, 3)):
            lhs = parastrophe(apply_isotopism(P, t), pi)
            rhs = apply_isotopism(parastrophe(P, pi), t.parastrophe(pi))
            assert lhs == rhs


# ----------------------------------------------------------------------
# Triple orbits
# ----------------------------------------------------------------------

def test_orbits_identity():
    orbs = triple_orbits(Isotopism.identity(2))
    assert len(orbs) == 8
    assert all(o.length == 1 for o in orbs)


def test_orbits_flip_n2():
    t = Isotopism.parse("(1 2);(1 2);(1 2)")
    orbs = triple_orbits(t)
    assert len(orbs) == 4
    assert all(o.length == 2 for o in orbs)
    by_rep = {o.representative: set(o.triples) for o in orbs}
    assert by_rep[(1, 1, 1)] == {(1, 1, 1), (2, 2, 2)}


def test_orbits_partition_and_lengths():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 5)
        t = random_isotopism(rng, n)
        orbs = triple_orbits(t)
        all_triples = [tr for o in orbs for tr in o.triples]
        assert len(all_triples) == n ** 3
        assert len(set(all_triples)) == n ** 3
        row_len = {pt: len(c) for c in t.alpha.cycles() for pt in c}
        col_len = {pt: len(c) for c in t.beta.cycles() for pt in c}
        sym_len = {pt: len(c) for c in t.gamma.cycles() for pt in c}
        for o in orbs:
            r, c, s = o.representative
            assert o.length == lcm(row_len[r], lcm(col_len[c], sym_len[s]))
        reps = [o.representative for o in orbs]
        assert reps == sorted(reps)


# ----------------------------------------------------------------------
# Block decomposition
# ----------------------------------------------------------------------

def test_decomposition_example():
    t = canonical_isotopism(EXAMPLE_STRUCT)
    P = PartialLatinSquare.from_cells(6, EXAMPLE_CELLS)
    d = theta_decomposition(P, t)
    assert sorted(d.blocks) == [(0, 0), (0, 1), (0, 2)]
    assert [d.dimensions(k) for k in sorted(d.blocks)] == [(6, 3), (6, 2), (6, 1)]
    assert len(d.blocks[(0, 0)]) == 6
    # only the (6,3) pair is admissible here, so the other blocks are empty
    assert len(d.blocks[(0, 1)]) == 0 and len(d.blocks[(0, 2)]) == 0
    assert d.multiplier((0, 0)) == 1


def test_decomposition_identity():
    P = random_pls(random.Random(9), 3)
    d = theta_decomposition(P, Isotopism.identity(3))
    assert len(d.blocks) == 9
    assert all(d.dimensions(k) == (1, 1) for k in d.blocks)
    assert sum(len(v) for v in d.blocks.values()) == P.size


def test_block_sizes_of_invariant_squares():
    # every non-empty block of an invariant square has size w * lcm(i, j)
    # with 1 <= w <= gcd(i, j), and pairs outside LCM_z carry no cells
    rng = random.Random(10)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        t = random_isotopism(rng, n)
        # greedily union random orbits while the result stays a valid square
        orbs = list(triple_orbits(t))
        rng.shuffle(orbs)
        cells: set = set()
        for o in orbs:
            candidate = cells | set(o.triples)
            try:
                PartialLatinSquare.from_cells(n, candidate)
            except ValueError:
                continue
            cells = candidate
            if len(cells) >= n * n // 2:
                break
        if not cells:
            continue
        Q = PartialLatinSquare.from_cells(n, cells)
        assert is_autotopism(t, Q)
        checked += 1
        triples = lcm_triple_set(n)
        z = t.structure()
        pairs_in_lcm_z = {
            (tr.i, tr.j) for tr in triples
            if z.rows.count(tr.i) and z.cols.count(tr.j) and z.syms.count(tr.k)
        }
        d = theta_decomposition(Q, t)
        total = 0
        for key, cells_here in d.blocks.items():
            i, j = d.dimensions(key)
            total += len(cells_here)
            if not cells_here:
                continue
            w = d.multiplier(key)
            assert 1 <= w <= gcd(i, j)
            assert (i, j) in pairs_in_lcm_z
        assert total == Q.size
    assert checked >= 20


# ----------------------------------------------------------------------
# Autotopism groups and isotopism sets
# ----------------------------------------------------------------------

def brute_maps(P: PartialLatinSquare, Q: PartialLatinSquare) -> int:
    n = P.n
    count = 0
    theta_p = (tuple(P.cells),)
    for a in iter_permutations(range(1, n + 1)):
        for b in iter_permutations(range(1, n + 1)):
            for g in iter_permutations(range(1, n + 1)):
                image = frozenset(
                    (a[r - 1], b[c - 1], g[s - 1]) for (r, c, s) in P.cells
                )
                if image == Q.cells:
                    count += 1
    return count


def test_autotopism_group_rejects_empty():
    with pytest.raises(ValueError):
        autotopism_group(PartialLatinSquare(2, frozenset()))


def test_autotopism_group_order_cap():
    P = PartialLatinSquare.from_cells(6, [(1, 1, 1)])
    with pytest.raises(OrderLimitError):
        autotopism_group(P)


def test_autotopism_group_n1():
    P = PartialLatinSquare.from_cells(1, [(1, 1, 1)])
    group = autotopism_group(P)
    assert len(group) == 1 and group[0].is_identity()


def test_autotopism_group_matches_brute():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 3)
        P = random_pls(rng, n)
        if P.is_empty():
            continue
        group = autotopism_group(P)
        assert any(t.is_identity() for t in group)
        assert len(group) == brute_maps(P, P)
        assert all(apply_isotopism(P, t) == P for t in group)
        assert len(set(map(str, group))) == len(group)


def test_isotopisms_between_single_cells():
    # at n=2 the evaluation map on a fixed triple is a bijection from the 8
    # isotopisms onto the 8 cells, so exactly one map hits the target cell
    # (matching |I_{P,Q}| = |A_P| = 1: a single cell's only autotopism at
    # n=2 is the identity)
    P = PartialLatinSquare.from_cells(2, [(1, 1, 1)])
    Q = PartialLatinSquare.from_cells(2, [(2, 2, 2)])
    maps = isotopisms_between(P, Q)
    assert len(maps) == 1 == brute_maps(P, Q)
    assert len(maps) == len(autotopism_group(P))
    assert all(apply_isotopism(P, t) == Q for t in maps)


def test_isotopisms_between_self_is_group():
    P = SMALL_BLOCKED
    assert [str(t) for t in isotopisms_between(P, P)] == [
        str(t) for t in autotopism_group(P)
    ]


def test_isotopisms_between_size_mismatch_empty():
    P = PartialLatinSquare.from_cells(2, [(1, 1, 1)])
    Q = PartialLatinSquare.from_cells(2, [(1, 1, 1), (2, 2, 2)])
    assert isotopisms_between(P, Q) == []


def test_isotopic_squares_share_group_cardinalities():
    # for isotopic P, Q: |A_P| = |A_Q| = |I_{P,Q}|, and conjugating A_P by a
    # fixed element of I_{P,Q} lands exactly on A_Q
    rng = random.Random(14)
    done = 0
    while done < 10:
        n = rng.randint(2, 3)
        P = random_pls(rng, n)
        if P.is_empty():
            continue
        t = random_isotopism(rng, n)
        Q = apply_isotopism(P, t)
        a_p = autotopism_group(P)
        a_q = autotopism_group(Q)
        between = isotopisms_between(P, Q)
        assert len(a_p) == len(a_q) == len(between)
        fixed = between[0]
        conjugated = {str(fixed * a * fixed.inverse()) for a in a_p}
        assert conjugated == {str(t2) for t2 in a_q}
        done += 1
