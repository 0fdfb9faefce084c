"""Tests for permutation and cycle-structure algebra."""

from __future__ import annotations

import time
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinsym.budget import Budget, TimeBudgetExceededError
from latinsym.perm_algebra import (
    MAX_PARSED_ORDER,
    CycleStructure,
    IsotopismStructure,
    LcmTriple,
    Permutation,
    conjugating_isotopism,
    conjugating_permutation,
    count_autotopism_structures,
    count_parastrophic_classes,
    count_structures_and_classes,
    cs_nm_count,
    cycle_structure,
    enumerate_autotopism_structures,
    is_autotopism_structure,
    lcm_triple_set,
    lower_bound_structures,
    parastrophic_class_count,
    parastrophic_representatives,
    partitions_count,
    partitions_desc,
)

import oracles


# Golden classification data for orders 1..17: number of admissible
# structures, number of parastrophic classes, and the partition counts by
# minimal part m for m <= n // 2.
STRUCTURE_COUNTS = {
    1: 1, 2: 5, 3: 15, 4: 65, 5: 223, 6: 869, 7: 2535, 8: 7663,
    9: 21156, 10: 60264, 11: 150953, 12: 385538, 13: 915452,
    14: 2193225, 15: 4928696, 16: 11209311, 17: 24406191,
}
CLASS_COUNTS = {
    1: 1, 2: 3, 3: 7, 4: 22, 5: 60, 6: 197, 7: 526, 8: 1492,
    9: 3937, 10: 10850, 11: 26628, 12: 66984, 13: 157398,
    14: 374127, 15: 836154, 16: 1893607, 17: 4110132,
}
MIN_PART_COUNTS = {
    2: (1,), 3: (2,), 4: (3, 1), 5: (5, 1), 6: (7, 2, 1), 7: (11, 2, 1),
    8: (15, 4, 1, 1), 9: (22, 4, 2, 1), 10: (30, 7, 2, 1, 1),
    11: (42, 8, 3, 1, 1), 12: (56, 12, 4, 2, 1, 1),
    13: (77, 14, 5, 2, 1, 1), 14: (101, 21, 6, 3, 1, 1, 1),
    15: (135, 24, 9, 3, 2, 1, 1), 16: (176, 34, 10, 5, 2, 1, 1, 1),
    17: (231, 41, 13, 5, 3, 1, 1, 1),
}


def random_permutation(rng, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


permutations_st = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda imgs: Permutation(tuple(imgs)))


# ----------------------------------------------------------------------
# Permutation basics
# ----------------------------------------------------------------------

def test_parse_cycle_notation():
    p = Permutation.parse("(1 2 3)(4 5)")
    assert p.images == (2, 3, 1, 5, 4)
    # fixed points may be omitted when the degree is explicit
    q = Permutation.parse("(1 2)", degree=4)
    assert q.images == (2, 1, 3, 4)
    assert Permutation.parse("(1,2,3)(4,5)") == p


def test_parse_image_list():
    assert Permutation.parse("[2,3,1,5,4]").images == (2, 3, 1, 5, 4)
    with pytest.raises(ValueError):
        Permutation.parse("[2,2,1]")
    with pytest.raises(ValueError):
        Permutation.parse("")


def test_parse_rejects_repeated_point():
    with pytest.raises(ValueError):
        Permutation.parse("(1 2)(2 3)")


def test_cycles_canonical_order():
    p = Permutation.parse("(1 2 3)(5 6)", degree=6)
    assert p.cycles() == ((1, 2, 3), (5, 6), (4,))
    assert str(p) == "(1 2 3)(5 6)(4)"


def test_compose_convention():
    # (p * q)(x) = p(q(x))
    p = Permutation.parse("(1 2)", degree=3)
    q = Permutation.parse("(2 3)", degree=3)
    assert (p * q)(2) == p(q(2)) == p(3) == 3
    assert (p * q).images == (2, 3, 1)


def test_inverse():
    p = Permutation.parse("(1 2 3)(4 5)")
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(permutations_st)
def test_cycles_partition_the_points(p):
    pts = sorted(x for cyc in p.cycles() for x in cyc)
    assert pts == list(range(1, p.degree + 1))


@given(permutations_st)
def test_parse_format_roundtrip(p):
    assert Permutation.parse(str(p), degree=p.degree) == p


# ----------------------------------------------------------------------
# Cycle structures
# ----------------------------------------------------------------------

def test_cycle_structure_examples():
    assert cycle_structure(Permutation.identity(4)).parts() == (1, 1, 1, 1)
    assert cycle_structure(Permutation.parse("(1 2)(3 4)")).parts() == (2, 2)
    assert cycle_structure(Permutation.parse("(1 2 3)(5 6)", degree=6)).parts() == (3, 2, 1)


def test_cycle_structure_parse_format():
    z = CycleStructure.parse("3.2.1")
    assert z.degree == 6 and z.parts() == (3, 2, 1)
    assert str(z) == "3.2.1"
    z6 = CycleStructure.parse("1^6")
    assert z6.degree == 6 and z6.count(1) == 6
    assert str(z6) == "1^6"
    assert str(CycleStructure.parse("2^2.1^2")) == "2^2.1^2"
    with pytest.raises(ValueError):
        CycleStructure.parse("3.2", degree=6)
    with pytest.raises(ValueError):
        CycleStructure.parse("0^3")


@pytest.mark.parametrize("parse, text", [
    (CycleStructure.parse, "1^10000000"),
    (CycleStructure.parse, "5000000^2"),
    (Permutation.parse, "(1 10000000)"),
    (Permutation.parse, "[" + "1," * 65 + "1]"),
])
def test_parsed_order_is_capped_before_allocation(parse, text):
    # the order is checked before a list of that length is built
    assert MAX_PARSED_ORDER == 64
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="largest supported order"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert CycleStructure.parse("1^64").degree == 64
    assert Permutation.parse("(1 64)").degree == 64


def test_isotopism_structure_parse():
    z = IsotopismStructure.parse("6,3.2.1,4.2")
    assert z.degree == 6
    assert z.rows.parts() == (6,)
    assert z.cols.parts() == (3, 2, 1)
    assert z.syms.parts() == (4, 2)
    assert str(z) == "6,3.2.1,4.2"
    with pytest.raises(ValueError):
        IsotopismStructure.parse("6,3.2.1,4.3")  # mismatched degrees


def test_structure_component_permutation():
    z = IsotopismStructure.parse("6,3.2.1,4.2")
    swapped = z.permuted((2, 1, 3))
    assert str(swapped) == "3.2.1,6,4.2"
    rotated = z.permuted((2, 3, 1))
    assert str(rotated) == "3.2.1,4.2,6"


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------

def test_partition_counts():
    assert partitions_count(0) == 1
    assert partitions_count(4) == 5
    assert partitions_count(16) == 231


@pytest.mark.parametrize("n", range(0, 12))
def test_partitions_count_matches_brute(n):
    assert partitions_count(n) == len(oracles.brute_partitions(n))


def test_partitions_desc_order():
    assert partitions_desc(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(0, 17))
def test_partitions_desc_matches_brute(n):
    # the brute list is in descending lexicographic order as well
    brute = oracles.brute_partitions(n)
    assert partitions_desc(n) == brute
    for k in (-1, 0, 1, 2, 3, n - 1, n + 2):
        assert partitions_desc(n, k) == [p for p in brute if not p or p[0] <= k], k


def test_cs_nm_examples():
    assert cs_nm_count(4, 2) == 1
    assert cs_nm_count(5, 1) == 5
    assert cs_nm_count(6, 5) == 0
    with pytest.raises(ValueError):
        cs_nm_count(5, 0)
    with pytest.raises(ValueError):
        cs_nm_count(5, 6)


@pytest.mark.parametrize("n", range(1, 13))
def test_cs_nm_matches_brute(n):
    for m in range(1, n + 1):
        assert cs_nm_count(n, m) == oracles.brute_min_part_count(n, m)


@pytest.mark.parametrize("n", range(1, 18))
def test_cs_nm_sums_to_partition_count(n):
    assert sum(cs_nm_count(n, m) for m in range(1, n + 1)) == partitions_count(n)


@pytest.mark.parametrize("n", sorted(MIN_PART_COUNTS))
def test_min_part_table(n):
    row = tuple(cs_nm_count(n, m) for m in range(1, n // 2 + 1))
    assert row == MIN_PART_COUNTS[n]


# ----------------------------------------------------------------------
# lcm triples and admissibility
# ----------------------------------------------------------------------

def test_lcm_triples_smallest():
    assert lcm_triple_set(1) == frozenset({LcmTriple(1, 1, 1)})


def test_lcm_triples_example():
    assert LcmTriple(6, 3, 2) in lcm_triple_set(6)
    assert LcmTriple(6, 4, 2) not in lcm_triple_set(6)


@pytest.mark.parametrize("n", range(1, 9))
def test_lcm_triples_match_brute(n):
    brute = {
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        if oracles.brute_admissible_triple(i, j, k)
    }
    assert {(t.i, t.j, t.k) for t in lcm_triple_set(n)} == brute


def test_lcm_triples_coordinate_symmetry():
    for n in (4, 6):
        triples = {(t.i, t.j, t.k) for t in lcm_triple_set(n)}
        assert all((j, i, k) in triples for (i, j, k) in triples)
        assert all((i, k, j) in triples for (i, j, k) in triples)


def test_is_autotopism_structure_examples():
    assert is_autotopism_structure(IsotopismStructure.parse("2,2,2"))
    assert not is_autotopism_structure(IsotopismStructure.parse("1^2,1^2,2"))
    assert is_autotopism_structure(IsotopismStructure.parse("6,3.2.1,4.2"))


def test_admissibility_symmetric_under_component_permutation():
    for z in enumerate_autotopism_structures(4):
        for pi in ((2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2)):
            assert is_autotopism_structure(z.permuted(pi))


# ----------------------------------------------------------------------
# Classification counts
# ----------------------------------------------------------------------

def test_enumeration_order_n2():
    got = [str(z) for z in enumerate_autotopism_structures(2)]
    assert got == ["2,2,2", "2,2,1^2", "2,1^2,2", "1^2,2,2", "1^2,1^2,1^2"]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_brute(n):
    # in order too: the brute triple loop runs over descending partitions,
    # row-major, which is the listing order the CSVs rely on
    got = [
        (z.rows.parts(), z.cols.parts(), z.syms.parts())
        for z in enumerate_autotopism_structures(n)
    ]
    assert got == oracles.brute_structures(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_fast_count_matches_enumeration(n):
    # the enumeration shares _symbol_masks with the count; the brute list
    # does not
    count = count_autotopism_structures(n)
    assert count == len(enumerate_autotopism_structures(n))
    if n <= 7:
        assert count == len(oracles.brute_structures(n))


@pytest.mark.parametrize("n", [18, 19])
def test_counts_match_pair_table_oracle(n):
    # past the golden table, which stops at 17
    assert count_structures_and_classes(n) == oracles.structures_and_classes_by_pair_table(n)


def test_count_checks_deadline_while_listing_partitions():
    # order 64 has 1,741,630 partitions, far more than half a second's worth
    started = time.monotonic()
    with pytest.raises(TimeBudgetExceededError):
        count_structures_and_classes(64, budget=Budget(timeout_secs=0.5))
    assert time.monotonic() - started < 2


@pytest.mark.parametrize("n", sorted(STRUCTURE_COUNTS))
def test_structure_counts_golden(n):
    assert count_autotopism_structures(n) == STRUCTURE_COUNTS[n]


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_class_counts_golden(n):
    assert count_parastrophic_classes(n) == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_class_count_matches_brute(n):
    structs = enumerate_autotopism_structures(n)
    assert parastrophic_class_count(structs) == oracles.brute_class_count(
        (z.rows.parts(), z.cols.parts(), z.syms.parts()) for z in structs
    )
    assert parastrophic_class_count(structs) == count_parastrophic_classes(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_representatives_match_dedupe_oracle(n):
    # the first member of each class in the listing order, in that order
    reps = list(parastrophic_representatives(n))
    assert [(z.rows.parts(), z.cols.parts(), z.syms.parts()) for z in reps] == \
        oracles.first_of_each_class(oracles.brute_structures(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_representatives_count_matches_burnside(n):
    assert sum(1 for _ in parastrophic_representatives(n)) == count_parastrophic_classes(n)


def test_class_count_rejects_non_closed_input():
    structs = enumerate_autotopism_structures(3)
    asym = next(z for z in structs if len({str(c) for c in z.components}) > 1)
    pool = [z for z in structs if z != asym.permuted((2, 1, 3))]
    with pytest.raises(ValueError):
        parastrophic_class_count(pool)


@pytest.mark.parametrize("n", range(1, 9))
def test_lower_bound_sandwich(n):
    lb = lower_bound_structures(n)
    assert partitions_count(n - 1) ** 3 <= lb <= count_autotopism_structures(n)


def test_lower_bound_small():
    assert lower_bound_structures(1) == 1
    assert 27 <= lower_bound_structures(4) <= 65


# ----------------------------------------------------------------------
# Conjugators
# ----------------------------------------------------------------------

FakeIso = namedtuple("FakeIso", ["alpha", "beta", "gamma"])


def test_conjugating_permutation_roundtrip():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = random_permutation(rng, n)
        g = random_permutation(rng, n)
        q = g * p * g.inverse()
        h = conjugating_permutation(p, q)
        assert h is not None
        assert h * p * h.inverse() == q


def test_conjugating_permutation_none_on_mismatch():
    p = Permutation.parse("(1 2)", degree=4)
    q = Permutation.parse("(1 2 3)", degree=4)
    assert conjugating_permutation(p, q) is None


def test_conjugating_isotopism():
    a = FakeIso(
        Permutation.parse("(1 2 3)", degree=3),
        Permutation.parse("(1 2)", degree=3),
        Permutation.identity(3),
    )
    b = FakeIso(
        Permutation.parse("(1 3 2)", degree=3),
        Permutation.parse("(2 3)", degree=3),
        Permutation.identity(3),
    )
    g = conjugating_isotopism(a, b)
    assert g is not None
    for pa, pb, gg in zip(a, b, g):
        assert gg * pa * gg.inverse() == pb
    # structure mismatch in one slot kills the whole conjugator
    c = FakeIso(a.alpha, Permutation.identity(3), a.gamma)
    assert conjugating_isotopism(a, c) is None


@settings(max_examples=40)
@given(permutations_st, st.randoms(use_true_random=False))
def test_conjugation_preserves_structure(p, rng):
    g = random_permutation(rng, p.degree)
    q = g * p * g.inverse()
    assert cycle_structure(p) == cycle_structure(q)
