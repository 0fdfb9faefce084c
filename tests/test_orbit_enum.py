"""Tests for the invariant-square census, bounds, and closed forms."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from latinsym.perm_algebra import IsotopismStructure, Permutation, enumerate_autotopism_structures
from latinsym.pls_core import (
    Isotopism,
    PartialLatinSquare,
    apply_isotopism,
    autotopism_group,
    canonical_isotopism,
    is_autotopism,
)
from latinsym.orbit_enum import (
    CoverCounter,
    NodeBudgetExceededError,
    TimeBudgetExceededError,
    build_valid_orbits,
    candidate_sizes,
    delta_census,
    delta_closed_nnn,
    delta_closed_row_col_ncycle,
    delta_full,
    delta_isotopism_class,
    delta_min_size,
    delta_size_one,
    iter_invariant_squares,
    size_bounds,
)

import oracles


EXAMPLE = IsotopismStructure.parse("6,3.2.1,4.2")


def rep_of(spec: str) -> Isotopism:
    return canonical_isotopism(IsotopismStructure.parse(spec))


def oracle_per_size(t: Isotopism) -> dict[int, int]:
    theta = (t.alpha.images, t.beta.images, t.gamma.images)
    counts: Counter = Counter()
    for square in oracles.invariant_squares(theta, t.degree):
        counts[len(square)] += 1
    return dict(counts)


def random_conjugate(rng: random.Random, t: Isotopism) -> Isotopism:
    n = t.degree

    def perm():
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        return Permutation(tuple(imgs))

    g = Isotopism(perm(), perm(), perm())
    return g * t * g.inverse()


# ----------------------------------------------------------------------
# Valid orbits
# ----------------------------------------------------------------------

def test_valid_orbits_identity_n2():
    ovs = build_valid_orbits(Isotopism.identity(2))
    assert len(ovs) == 8
    assert all(o.length == 1 for o in ovs.orbits)
    for a in range(8):
        for b in range(a + 1, 8):
            (r1, c1, s1) = ovs.orbits[a].representative
            (r2, c2, s2) = ovs.orbits[b].representative
            shares = (
                (r1, c1) == (r2, c2) or (r1, s1) == (r2, s2) or (c1, s1) == (c2, s2)
            )
            assert ovs.conflict(a, b) == shares


def test_valid_orbits_example_confined_to_first_block():
    # admissible pairs here are only (6,3): rows x first column cycle {1,2,3}
    ovs = build_valid_orbits(canonical_isotopism(EXAMPLE))
    assert len(ovs) > 0
    for o in ovs.orbits:
        assert all(c in (1, 2, 3) for (_, c, _) in o.triples)
        assert o.length == 6


def test_valid_orbit_with_fixed_symbol():
    t = Isotopism.parse("(1 2);(1 2);[1,2]")
    ovs = build_valid_orbits(t)
    reps = {o.representative for o in ovs.orbits}
    assert (1, 1, 1) in reps  # orbit {(1,1,1),(2,2,1)}: lengths (2,2,1) admissible
    orb = next(o for o in ovs.orbits if o.representative == (1, 1, 1))
    assert set(orb.triples) == {(1, 1, 1), (2, 2, 1)}


def test_orbit_subsets_are_invariant_squares():
    rng = random.Random(21)
    for spec in ("2.1,2.1,2.1", "3,3,1^3", "2.1,1^3,1^3"):
        t = rep_of(spec)
        seen = 0
        for cells in iter_invariant_squares(t):
            seen += 1
            Q = PartialLatinSquare(t.degree, cells)  # validates Latin condition
            assert is_autotopism(t, Q)
        assert seen == delta_census(t).total


# ----------------------------------------------------------------------
# Bounds and candidate sizes
# ----------------------------------------------------------------------

def test_size_bounds_examples():
    assert size_bounds(EXAMPLE) == (6, 6)
    assert size_bounds(IsotopismStructure.parse("3,3,2.1")) == (3, 3)
    for n in (2, 3, 4):
        ident = IsotopismStructure.parse(f"1^{n},1^{n},1^{n}")
        assert size_bounds(ident) == (1, n * n)


def test_size_bounds_rejects_inadmissible():
    with pytest.raises(ValueError):
        size_bounds(IsotopismStructure.parse("1^2,1^2,2"))


def test_candidate_sizes_examples():
    assert candidate_sizes(EXAMPLE) == {6}
    assert candidate_sizes(IsotopismStructure.parse("1^2,1^2,1^2")) == {1, 2, 3, 4}
    for n in (3, 4):
        z = IsotopismStructure.parse(f"{n},{n},1^{n}")
        sizes = candidate_sizes(z)
        upper = size_bounds(z).upper
        assert sizes == {k * n for k in range(1, upper // n + 1)}


def test_census_keys_within_candidates_and_bounds():
    for z in enumerate_autotopism_structures(3):
        t = canonical_isotopism(z)
        rep = delta_census(t)
        sizes = candidate_sizes(z)
        bounds = size_bounds(z)
        for s in rep.per_size:
            assert s in sizes
            assert bounds.lower <= s <= bounds.upper


# ----------------------------------------------------------------------
# The census itself
# ----------------------------------------------------------------------

def test_census_n1():
    rep = delta_census(rep_of("1,1,1"))
    assert rep.per_size == {1: 1} and rep.total == 1


def test_census_n3_spot_rows():
    rep = delta_census(rep_of("2.1,2.1,2.1"))
    assert rep.per_size == {1: 1, 2: 10, 3: 10, 4: 24, 5: 24, 6: 20, 7: 20, 8: 4, 9: 4}
    assert rep.total == 117
    assert delta_census(rep_of("1^3,1^3,1^3")).total == 11775


def test_census_n4_spot_row():
    rep = delta_census(rep_of("2^2,2^2,2^2"))
    assert rep.count(2) == 32 and rep.count(16) == 32
    assert rep.total == 10624


def test_census_against_oracle_small():
    rng = random.Random(31)
    for spec in ("2,2,2", "2,2,1^2", "1^2,1^2,1^2", "3,3,3", "2.1,2.1,1^3"):
        t = rep_of(spec)
        expected = oracle_per_size(t)
        assert delta_census(t).per_size == expected
        conj = random_conjugate(rng, t)
        assert delta_census(conj).per_size == expected


def test_census_matches_walker_oracle():
    # every structure of order <= 4; walking the uncapped 1^4 row takes minutes
    for n in (1, 2, 3, 4):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            cap = 5 if str(z) == "1^4,1^4,1^4" else None
            assert delta_census(t, max_size=cap).per_size == \
                oracles.census_by_walker(t, max_size=cap), str(z)


def test_census_max_size_prunes():
    t = rep_of("1^4,1^4,1^4")
    rep = delta_census(t, max_size=2)
    assert rep.per_size == {1: 64, 2: 1728}
    assert rep.node_count == 2196  # DP states; the uncapped census expands 366614


def test_census_budget_errors_distinct():
    t = rep_of("1^4,1^4,1^4")
    with pytest.raises(NodeBudgetExceededError):
        delta_census(t, max_nodes=1000)
    with pytest.raises(TimeBudgetExceededError):
        delta_census(t, timeout_secs=0.05)


def test_census_report_invariants():
    rep = delta_census(rep_of("2.1,2.1,1^3"))
    assert rep.total == sum(rep.per_size.values())
    assert all(v > 0 for v in rep.per_size.values())
    assert rep.node_count == 6  # DP states expanded, against 51 squares counted
    assert rep.structure == IsotopismStructure.parse("2.1,2.1,1^3")


def test_conjugacy_and_parastrophe_invariance():
    # the census depends only on the parastrophic class of the structure
    rng = random.Random(41)
    for spec in ("2.1,2.1,2.1", "3,3,1^3", "2.1,2.1,1^3"):
        t = rep_of(spec)
        base = delta_census(t).per_size
        for _ in range(2):
            assert delta_census(random_conjugate(rng, t)).per_size == base
        for pi in ((2, 1, 3), (2, 3, 1), (3, 2, 1)):
            assert delta_census(t.parastrophe(pi)).per_size == base


# ----------------------------------------------------------------------
# Full squares
# ----------------------------------------------------------------------

def test_delta_full_examples():
    assert delta_full(rep_of("2,2,2")) == 0
    assert delta_full(rep_of("2,2,1^2")) == 2
    assert delta_full(rep_of("1^2,1^2,1^2")) == 2
    assert delta_full(rep_of("1^3,1^3,1^3")) == 12


def test_delta_full_matches_census_top_size():
    for z in enumerate_autotopism_structures(3):
        t = canonical_isotopism(z)
        assert delta_full(t) == delta_census(t).count(9)
    for spec in ("4,4,1^4", "2^2,2^2,2^2", "2.1^2,2.1^2,2.1^2"):
        t = rep_of(spec)
        assert delta_full(t) == delta_census(t).count(16)


def test_cover_counter_budget():
    t = rep_of("1^4,1^4,1^4")
    with pytest.raises(NodeBudgetExceededError):
        delta_full(t, max_nodes=10)


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------

def test_closed_row_col_ncycle():
    assert delta_closed_row_col_ncycle(3, 3) == 9
    assert delta_closed_row_col_ncycle(3, 4) == 0
    assert delta_closed_row_col_ncycle(4, 16) == 24
    with pytest.raises(ValueError):
        delta_closed_row_col_ncycle(3, 0)
    with pytest.raises(ValueError):
        delta_closed_row_col_ncycle(3, 10)


def test_closed_nnn():
    assert delta_closed_nnn(3, 3) == 9
    assert delta_closed_nnn(3, 6) == 9
    assert delta_closed_nnn(4, 8) == 48
    with pytest.raises(ValueError):
        delta_closed_nnn(2, 4)  # the 2n form needs n > 2
    with pytest.raises(ValueError):
        delta_closed_nnn(3, 5)


def test_delta_min_size_examples():
    assert delta_min_size(EXAMPLE) == 6
    assert delta_min_size(IsotopismStructure.parse("1^2,1^2,1^2")) == 8
    assert delta_min_size(IsotopismStructure.parse("2^2,2^2,2^2")) == 32


def test_delta_size_one_examples():
    assert delta_size_one(IsotopismStructure.parse("2.1,2.1,2.1")) == 1
    assert delta_size_one(IsotopismStructure.parse("3.1,3.1,1^4")) == 4
    assert delta_size_one(IsotopismStructure.parse("2,2,1^2")) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_against_census(n):
    for z in enumerate_autotopism_structures(n):
        t = canonical_isotopism(z)
        low = size_bounds(z).lower
        rep = delta_census(t, max_size=low)
        assert rep.count(low) == delta_min_size(z)
        assert rep.count(1) == delta_size_one(z)
    # the two special families
    z_rc = IsotopismStructure.parse(f"{n},{n},1^{n}")
    if n >= 2:
        full = delta_census(canonical_isotopism(z_rc))
        for s in range(1, n * n + 1):
            assert full.count(s) == delta_closed_row_col_ncycle(n, s)
    z_nnn = IsotopismStructure.parse(f"{n},{n},{n}")
    if n > 2:
        full = delta_census(canonical_isotopism(z_nnn))
        assert full.count(n) == delta_closed_nnn(n, n)
        assert full.count(2 * n) == delta_closed_nnn(n, 2 * n)


# ----------------------------------------------------------------------
# Isotopism-class slices
# ----------------------------------------------------------------------

def test_class_slice_size_one():
    t = rep_of("2.1,2.1,2.1")
    P = PartialLatinSquare.from_cells(3, [(3, 3, 3)])
    assert delta_isotopism_class(t, P) == delta_size_one(t.structure()) == 1


def test_class_slices_sum_to_census():
    # summing over one representative per isotopy class at a fixed size
    # recovers the census count for that size
    for spec, size in (("2,2,1^2", 2), ("2.1,2.1,2.1", 4), ("3,3,3", 6)):
        t = rep_of(spec)
        n = t.degree
        members = [c for c in iter_invariant_squares(t, max_size=size) if len(c) == size]
        classes: dict = {}
        for cells in members:
            classes.setdefault(oracles.canon_key(cells, n), cells)
        total = sum(
            delta_isotopism_class(t, PartialLatinSquare(n, cells))
            for cells in classes.values()
        )
        assert total == delta_census(t).count(size)


def test_class_slice_unrelated_square_is_zero():
    t = rep_of("3,3,3")  # minimal invariant squares have size 3
    P = PartialLatinSquare.from_cells(3, [(1, 1, 1)])
    assert delta_isotopism_class(t, P) == 0


def test_class_regularity_of_autotopism_counts():
    # members of one isotopy class carry equally many autotopisms of the
    # census structure
    for spec in ("2,2,1^2", "2.1,2.1,2.1"):
        t = rep_of(spec)
        z = t.structure()
        n = t.degree
        by_class: dict = {}
        for cells in iter_invariant_squares(t, max_size=4):
            by_class.setdefault(oracles.canon_key(cells, n), []).append(cells)
        for members in by_class.values():
            counts = set()
            for cells in members:
                group = autotopism_group(PartialLatinSquare(n, cells))
                counts.add(sum(1 for g in group if g.structure() == z))
            assert len(counts) == 1
