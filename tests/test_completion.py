"""Tests for completability, completability censuses, and bases."""

from __future__ import annotations

import csv
import gc
import inspect
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from itertools import product
from importlib import resources

import pytest

from latinsym.budget import Budget
from latinsym.perm_algebra import IsotopismStructure, enumerate_autotopism_structures
from latinsym.pls_core import (
    Isotopism,
    PartialLatinSquare,
    canonical_isotopism,
    is_autotopism,
)
from latinsym.orbit_enum import (
    NodeBudgetExceededError,
    StateBudgetExceededError,
    TimeBudgetExceededError,
    build_valid_orbits,
    delta_census,
    delta_full,
)
from latinsym.completion import (
    ShapeSet,
    basis_from_shape,
    completability_census,
    count_completions,
    count_latin_squares,
    delta_via_symmetry,
    homogeneous_basis,
    is_completable,
    is_theta_completable,
)

import oracles
import pinned_walks
from oracles import iter_invariant_squares
from test_orbit_enum import random_conjugate


def rep_of(spec: str) -> Isotopism:
    return canonical_isotopism(IsotopismStructure.parse(spec))


def image_tuples(t: Isotopism):
    return (t.alpha.images, t.beta.images, t.gamma.images)


# Counterexample squares: a 3x3 square that cannot be completed at all, and a
# 4x4 one that completes in the plain sense but never to an invariant square.
THREE_SQUARE = PartialLatinSquare.parse_text("3 . 2\n. 3 1\n2 1 .")
THREE_THETA = Isotopism.parse("(1 2);(1 2);(1 2)", degree=3)

FOUR_SQUARE = PartialLatinSquare.from_cells(4, [(1, 1, 3), (1, 2, 4), (2, 1, 4), (2, 2, 3)])
FOUR_THETA = Isotopism.parse("(1 2)(3 4);(1 2)(3 4);(1 2)", degree=4)


# ----------------------------------------------------------------------
# Single-square completability
# ----------------------------------------------------------------------

def test_three_by_three_counterexample():
    assert not is_theta_completable(THREE_THETA, THREE_SQUARE)
    assert count_completions(THREE_THETA, THREE_SQUARE) == 0
    assert not is_completable(THREE_SQUARE)


def test_four_by_four_counterexample():
    assert is_autotopism(FOUR_THETA, FOUR_SQUARE)
    assert not is_theta_completable(FOUR_THETA, FOUR_SQUARE)
    assert count_completions(FOUR_THETA, FOUR_SQUARE) == 0
    assert is_completable(FOUR_SQUARE)
    assert count_completions(Isotopism.identity(4), FOUR_SQUARE) > 0


def test_count_completions_matches_oracle():
    # seeded invariant squares, counted against the invariant Latin squares
    # that contain them
    rng = random.Random(23)
    seen = set()
    for spec in ("2.1,2.1,2.1", "1^3,1^3,1^3", "3,3,1^3",
                 "2^2,2^2,2^2", "2.1^2,2.1^2,2.1^2", "3.1,3.1,3.1"):
        t = rep_of(spec)
        n = t.degree
        theta = image_tuples(t)
        fulls = [L for L in oracles.all_latin_squares(n) if oracles.act(theta, L) == L]
        members = list(iter_invariant_squares(t))
        for cells in rng.sample(members, min(25, len(members))):
            expected = sum(1 for L in fulls if cells <= L)
            P = PartialLatinSquare(n, cells)
            assert count_completions(t, P) == expected, (spec, sorted(cells))
            assert is_theta_completable(t, P) == (expected > 0)
            seen.add(expected > 0)
    assert seen == {True, False}


def test_full_squares_count_once():
    t = rep_of("2,2,1^2")
    fulls = [P for P in iter_invariant_squares(t) if len(P) == 4]
    assert len(fulls) == 2
    for cells in fulls:
        P = PartialLatinSquare(2, cells)
        assert count_completions(t, P) == 1
        assert is_theta_completable(t, P)


def test_non_invariant_square_rejected():
    t = rep_of("2,2,1^2")
    P = PartialLatinSquare.from_cells(2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        count_completions(t, P)
    with pytest.raises(ValueError):
        is_theta_completable(t, P)


def test_small_orders_always_completable():
    # At orders 1 and 2 every invariant square extends, whenever the
    # isotopism is not the identity and admits an invariant full square at
    # all.  The row-column-symbol flip ((1 2),(1 2),(1 2)) admits none (the
    # size spectrum of (2,2,2) is zero at size 4), so its invariant squares
    # are the boundary case where nothing completes.
    flip_count = 0
    for theta in oracles.all_isotopisms(2):
        t = Isotopism.parse(
            f"[{','.join(map(str, theta[0]))}];[{','.join(map(str, theta[1]))}];[{','.join(map(str, theta[2]))}]"
        )
        if t == Isotopism.identity(2):
            continue
        admits_full = delta_full(t) > 0
        for square in oracles.invariant_squares(theta, 2):
            P = PartialLatinSquare(2, square)
            if admits_full:
                assert is_theta_completable(t, P)
            else:
                assert not is_theta_completable(t, P)
                flip_count += 1
    assert flip_count > 0


def test_completability_monotone_under_removal():
    # If a square completes, so does every sub-union of its orbits; stated the
    # other way round, extending a dead square never revives it.
    t = rep_of("2.1^2,2.1^2,2.1^2")
    ovs = build_valid_orbits(t)
    rng = random.Random(11)
    members = [cells for cells in iter_invariant_squares(t)]
    checked = 0
    for cells in rng.sample(members, 60):
        P = PartialLatinSquare(4, cells)
        if not is_theta_completable(t, P):
            continue
        used = [i for i, o in enumerate(ovs.orbits) if set(o.triples) <= cells]
        for i in used:
            sub = cells - set(ovs.orbits[i].triples)
            if sub:
                assert is_theta_completable(t, PartialLatinSquare(4, frozenset(sub)))
                checked += 1
    assert checked >= 30


# ----------------------------------------------------------------------
# Completability census
# ----------------------------------------------------------------------

def test_census_small_orders():
    assert completability_census(rep_of("1,1,1")).per_size == {1: 1}
    assert completability_census(rep_of("2,2,1^2")).per_size == {2: 4, 4: 2}
    assert completability_census(rep_of("3,3,3")).per_size == {3: 9, 6: 9, 9: 3}
    assert completability_census(rep_of("3,3,1^3")).per_size == {3: 9, 6: 18, 9: 6}
    rep = completability_census(rep_of("2.1,2.1,2.1"))
    assert rep.per_size == {1: 1, 2: 10, 3: 10, 4: 24, 5: 24, 6: 16, 7: 16, 8: 4, 9: 4}
    assert rep.total == 109


def test_census_order_four_rows():
    expected = {
        "4,4,2^2": ({4: 16, 8: 40, 12: 32, 16: 8}, 96),
        "4,4,2.1^2": ({4: 16, 8: 40, 12: 32, 16: 8}, 96),
        "4,4,1^4": ({4: 16, 8: 72, 12: 96, 16: 24}, 208),
        "3.1,3.1,3.1": (
            {1: 1, 3: 18, 4: 18, 6: 90, 7: 90, 9: 90, 10: 90, 12: 45, 13: 45, 15: 9, 16: 9},
            505,
        ),
        "2^2,2^2,2^2": ({2: 32, 4: 352, 6: 1408, 8: 2144, 10: 1792, 12: 896, 14: 256, 16: 32}, 6912),
        "2^2,2^2,2.1^2": ({2: 32, 4: 336, 6: 1344, 8: 2144, 10: 1792, 12: 896, 14: 256, 16: 32}, 6832),
        "2^2,2^2,1^4": ({2: 32, 4: 368, 6: 1728, 8: 3792, 10: 4224, 12: 2496, 14: 768, 16: 96}, 13504),
    }
    for spec, (per_size, total) in expected.items():
        rep = completability_census(rep_of(spec))
        assert rep.per_size == per_size, spec
        assert rep.total == total, spec


def test_census_disputed_row_against_exhaustive_search():
    # The shipped reference table says 32 and 136 at sizes 2 and 3 for this
    # structure.  Direct enumeration refutes both cells: four of the size-2
    # members are pairs of fixed cells forcing an impossible diagonal inside
    # the fixed 2x2 block, and more fail further up.  The exhaustive check
    # below recounts from scratch, using nothing but the list of all 576
    # Latin squares of order 4.
    t = rep_of("2.1^2,2.1^2,2.1^2")
    theta = image_tuples(t)
    fulls = [L for L in oracles.all_latin_squares(4) if oracles.act(theta, L) == L]
    assert len(fulls) == 16

    brute: dict[int, int] = {}
    for cells in iter_invariant_squares(t):
        if any(cells <= L for L in fulls):
            brute[len(cells)] = brute.get(len(cells), 0) + 1

    rep = completability_census(t)
    assert rep.per_size == brute
    assert rep.per_size[2] == 24
    assert rep.per_size[3] == 104
    assert rep.total == 10632


def test_census_equals_size_spectrum_when_everything_completes():
    t = rep_of("4,4,1^4")
    census = completability_census(t)
    spectrum = delta_census(t)
    assert census.per_size == spectrum.per_size
    assert census.total == spectrum.total == 208


def test_census_never_exceeds_size_spectrum():
    for spec in ("2.1,2.1,1^3", "3.1,2^2,2^2", "2^2,2.1^2,1^4"):
        t = rep_of(spec)
        census = completability_census(t)
        spectrum = delta_census(t)
        assert set(census.per_size) <= set(spectrum.per_size)
        for s, c in census.per_size.items():
            assert c <= spectrum.per_size[s]


def test_completability_census_matches_oracle():
    # every structure of order <= 3, against completability decided by
    # scanning all Latin squares of the order
    for n in (1, 2, 3):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            theta = image_tuples(t)
            expected = Counter(
                len(cells) for cells in oracles.invariant_squares(theta, n)
                if oracles.is_completable_to_invariant(theta, cells, n)
            )
            assert completability_census(t).per_size == dict(expected), str(z)


def test_completability_census_matches_walk():
    # the census against a walk over every invariant square that asks the
    # cover search about each one
    table5 = (resources.files("latinsym") / "data" / "table5.csv").read_text()
    specs = [row[1] for row in csv.reader(table5.splitlines()[1:]) if row]
    specs += [str(z) for n in (1, 2, 3, 4) for z in enumerate_autotopism_structures(n)
              if str(z) != "1^4,1^4,1^4"]
    specs.append("3.1^2,3.1^2,3.1^2")
    for spec in specs:
        t = rep_of(spec)
        assert completability_census(t).per_size == oracles.completability_by_walker(t), spec


def test_completability_census_identity_order_four():
    # the walk takes minutes here; every partial Latin square of size below
    # n completes (Evans's conjecture, proved by Smetaniuk in 1981), so those
    # sizes equal the size spectrum, and the top term is |LS_4|
    t = Isotopism.identity(4)
    rep = completability_census(t)
    assert rep.per_size == {
        1: 64, 2: 1728, 3: 25920, 4: 225936, 5: 1095552, 6: 2979648, 7: 5210496,
        8: 6556464, 9: 6209280, 10: 4498560, 11: 2495232, 12: 1046592, 13: 322560,
        14: 69120, 15: 9216, 16: 576,
    }
    assert rep.total == 30746944
    assert {s: c for s, c in rep.per_size.items() if s <= 3} \
        == delta_census(t, max_size=3).per_size
    assert rep.per_size[16] == count_latin_squares(4) == 576


def test_census_budget_bounds_ccensus():
    # the census of 3.1^2 spends 382 nodes
    with pytest.raises(NodeBudgetExceededError):
        completability_census(rep_of("3.1^2,3.1^2,3.1^2"), budget=Budget(max_nodes=300))
    # node_count is exactly what the budget was charged
    t = rep_of("1^3,1^3,1^3")
    rep = completability_census(t)
    assert rep.total == 5835 and rep.node_count > 0
    assert completability_census(t, budget=Budget(max_nodes=rep.node_count)).total == 5835
    with pytest.raises(NodeBudgetExceededError):
        completability_census(t, budget=Budget(max_nodes=rep.node_count - 1))


def test_searches_on_one_budget_hold_nothing_once_returned():
    # the live steps and the cover memo are freed when their search returns
    budget = Budget()
    t = rep_of("1^3,1^3,1^3")
    rep = completability_census(t, budget=budget)
    assert rep.node_count == budget.nodes and budget.held == 0
    assert homogeneous_basis(t, budget=budget).cardinality == 12
    assert is_theta_completable(t, PartialLatinSquare.from_cells(3, [(1, 1, 1)]),
                                budget=budget)
    assert budget.held == 0 and budget.nodes > rep.node_count


def test_cover_memo_ceiling(monkeypatch):
    # a ceiling of 20 memo entries, never passed; deciding this order-5
    # square fills 53, the empty order-3 square 9
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 20 * 100)
    P = PartialLatinSquare(5, frozenset({(1, 1, 3), (2, 5, 2), (3, 2, 2),
                                         (4, 1, 1), (5, 2, 1), (5, 4, 2)}))
    with pytest.raises(StateBudgetExceededError, match=r"cover memo holds \d+ entries") as exc:
        is_completable(P)
    assert int(re.search(r"holds (\d+)", str(exc.value)).group(1)) <= 20
    assert is_completable(PartialLatinSquare(3, frozenset()))


def test_aborted_searches_hold_nothing(monkeypatch):
    # a search that raises frees its tables, so the next search on the
    # same budget starts from what the caller holds
    budget = Budget(max_nodes=20)
    with pytest.raises(NodeBudgetExceededError):
        homogeneous_basis(rep_of("1^3,1^3,1^3"), budget=budget)
    assert budget.held == 0
    budget = Budget()
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 1 << 20)
    with pytest.raises(StateBudgetExceededError, match="census level at cell 5"):
        delta_census(rep_of("2^3,2^3,2^3"), budget=budget)
    assert budget.held == 0
    with pytest.raises(StateBudgetExceededError, match="completability level"):
        completability_census(rep_of("1^4,1^4,1^4"), budget=budget)
    assert budget.held == 0
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 20 * 100)
    P = PartialLatinSquare(5, frozenset({(1, 1, 3), (2, 5, 2), (3, 2, 2),
                                         (4, 1, 1), (5, 2, 1), (5, 4, 2)}))
    with pytest.raises(StateBudgetExceededError, match="cover memo"):
        is_completable(P, budget=budget)
    assert budget.held == 0


def test_cover_search_does_not_recurse():
    # deciding this square places one orbit per search level, 132 in all,
    # with room for 60 frames above the test
    n = 12
    P = PartialLatinSquare(n, frozenset((1, c, c) for c in range(1, n + 1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert is_completable(P)
    finally:
        sys.setrecursionlimit(limit)


def test_completability_census_ceiling(monkeypatch):
    # 1 MiB holds the live steps of 1^4 and of 2.1,2.1,2.1 and every level
    # of sets of the latter; the sets of 1^4 outgrow it at cell 6
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 1 << 20)
    with pytest.raises(StateBudgetExceededError,
                       match=r"completability level at cell \d+ holds \d+ sets"):
        completability_census(Isotopism.identity(4))
    assert completability_census(rep_of("2.1,2.1,2.1")).total == 109


def test_census_frees_its_tables_on_return():
    # the live steps and the levels of sets go when the census returns, not
    # at the next cyclic collection: they peak above 256 KB, and under 16 KB
    # is left.  The first call fills the caches of the structure tables.
    t = rep_of("2^2.1,2^2.1,2^2.1")
    completability_census(t)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert completability_census(t).total == 1652257
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - before > 256 << 10
    assert after - before < 16 << 10


def test_ccensus_order_six_class_finishes():
    # the slowest order-6 class that finishes, in seconds; the top size is
    # the full count, and no size has more completable squares than squares
    t = rep_of("2^3,2^3,1^6")
    rep = completability_census(t)
    assert rep.total == 30452603538
    assert max(rep.per_size) == 36 and rep.per_size[36] == delta_full(t) == 460800
    spectrum = delta_census(t).per_size
    assert all(c <= spectrum[s] for s, c in rep.per_size.items())


def test_walks_match_pinned_results():
    # one SHA-256 over the censuses and the bases of pinned_walks's cases;
    # the digests are those of the ZDD-based code that the walks replaced
    assert pinned_walks.census_digest() == (
        "b2c131a61971efab695ffdd0f07660c92c39f8dd3e9d775578ec61e30a0e1083", 231)
    assert pinned_walks.basis_digest() == (
        "bf07c1289c47c205e2b7e0ca6e2204642fe2ecef46067042c5021c03244a84d5", 1032)


def test_library_calls_write_nothing(capfd):
    # a result line on stdout must stay the last line a caller prints
    t = rep_of("2.1^2,2.1^2,2.1^2")
    P = PartialLatinSquare(4, frozenset({(3, 3, 3)}))
    delta_census(t)
    delta_full(t)
    completability_census(t)
    homogeneous_basis(t)
    count_completions(t, P)
    is_theta_completable(t, P)
    assert capfd.readouterr() == ("", "")


def test_completability_constant_on_isotopy_classes_small():
    # Up to order 3, two invariant squares in the same isotopy class are
    # either both completable or both not.  This fails at order 4, which is
    # why the census decides every square on its own.
    for n in (2, 3):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            theta = image_tuples(t)
            by_class: dict[tuple, set[bool]] = {}
            for cells in iter_invariant_squares(t):
                key = oracles.canon_key(cells, n)
                status = oracles.is_completable_to_invariant(theta, cells, n)
                by_class.setdefault(key, set()).add(status)
            assert all(len(v) == 1 for v in by_class.values()), str(z)


def test_census_parastrophic_invariance_small():
    # All structures in one parastrophic class give identical censuses.
    perms3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    for n in (2, 3):
        for z in enumerate_autotopism_structures(n):
            base = completability_census(canonical_isotopism(z))
            for pi in perms3:
                other = completability_census(canonical_isotopism(z.permuted(pi)))
                assert other.per_size == base.per_size, (str(z), pi)


def test_census_conjugation_invariance():
    t = rep_of("2.1,2.1,1^3")
    base = completability_census(t).per_size
    rng = random.Random(5)
    for _ in range(3):
        imgs = []
        for _ in range(3):
            xs = list(range(1, 4))
            rng.shuffle(xs)
            imgs.append(xs)
        g = Isotopism.parse(";".join(f"[{','.join(map(str, xs))}]" for xs in imgs))
        conj = g * t * g.inverse()
        assert completability_census(conj).per_size == base


def test_report_accessors():
    rep = completability_census(rep_of("2,2,1^2"))
    assert rep.count(2) == 4 and rep.count(3) == 0
    assert rep.per_size == {2: 4, 4: 2}
    assert rep.total == 6
    assert rep.node_count > 0


# ----------------------------------------------------------------------
# Bases
# ----------------------------------------------------------------------

def test_count_latin_squares_known_values():
    assert [count_latin_squares(n) for n in (1, 2, 3, 4)] == [1, 2, 12, 576]


def test_full_shape_basis_is_the_set_of_invariant_squares():
    t = rep_of("2,2,1^2")
    shape = ShapeSet(frozenset((r, c) for r in (1, 2) for c in (1, 2)))
    basis = basis_from_shape(t, shape)
    assert basis.cardinality == 2
    assert basis.counts == [1, 1]
    assert basis.homogeneous
    assert sum(basis.counts) == delta_full(t) == 2


def test_full_shape_basis_order_four():
    t = rep_of("2.1^2,2.1^2,2.1^2")
    shape = ShapeSet(frozenset((r, c) for r in range(1, 5) for c in range(1, 5)))
    basis = basis_from_shape(t, shape)
    assert basis.cardinality == 16
    assert basis.counts == [1] * 16
    full_cells = {cells for cells in iter_invariant_squares(t) if len(cells) == 16}
    assert {P.cells for P in basis.elements} == full_cells


def test_fixed_point_shape_basis_order_four():
    t = rep_of("2.1^2,2.1^2,2.1^2")
    shape = ShapeSet(frozenset((r, c) for r in (3, 4) for c in (3, 4)))
    basis = basis_from_shape(t, shape)
    assert basis.cardinality == 2
    assert basis.counts == [8, 8]
    assert basis.homogeneous
    for P in basis.elements:
        assert {(r, c) for (r, c, _) in P.cells} == set(shape.pairs)
        assert is_autotopism(t, P)


def test_basis_other_views():
    t = rep_of("2.1^2,2.1^2,2.1^2")
    # the second shape, a 2-cycle by the fixed points, picks other orbits
    # in each view
    for mode, rows in product(("RS", "CS"), ((3, 4), (1, 2))):
        shape = ShapeSet(frozenset((a, b) for a in rows for b in (3, 4)), mode)
        basis = basis_from_shape(t, shape)
        assert sum(basis.counts) == 16
        assert [(P.cells, c) for P, c in zip(basis.elements, basis.counts)] \
            == oracles.basis_by_shape_walk(t, shape), mode
        for P in basis.elements:
            if mode == "RS":
                pairs = {(r, s) for (r, _, s) in P.cells}
            else:
                pairs = {(c, s) for (_, c, s) in P.cells}
            assert pairs == set(shape.pairs)


def test_basis_requires_an_invariant_full_square():
    # the whole grid is invariant under any isotopism, so the shape passes
    every_cell = ShapeSet(frozenset(product((1, 2, 3), repeat=2)))
    with pytest.raises(ValueError, match="no invariant full square"):
        basis_from_shape(rep_of("3,3,2.1"), every_cell)


def test_basis_checks_the_shape_before_building():
    # the kept levels of the order-6 full count outgrow their ceiling after
    # seconds; a shape out of range is refused before they are built
    started = time.monotonic()
    with pytest.raises(ValueError, match="out of range"):
        basis_from_shape(Isotopism.identity(6), ShapeSet(frozenset({(7, 7)})))
    assert time.monotonic() - started < 1


def test_basis_requires_invariant_shape():
    t = rep_of("2.1^2,2.1^2,2.1^2")
    with pytest.raises(ValueError):
        basis_from_shape(t, ShapeSet(frozenset({(1, 1)})))
    with pytest.raises(ValueError):
        ShapeSet(frozenset({(1, 1)}), "XY")


def test_homogeneous_basis_order_three():
    basis = homogeneous_basis(rep_of("2.1,2.1,2.1"))
    assert basis.cardinality == 1
    assert basis.counts == [4]
    assert delta_via_symmetry(rep_of("2.1,2.1,2.1")) == 4


def test_homogeneous_basis_order_four():
    basis = homogeneous_basis(rep_of("2.1^2,2.1^2,2.1^2"))
    assert basis.cardinality == 2
    assert basis.counts == [8, 8]
    assert delta_via_symmetry(rep_of("2.1^2,2.1^2,2.1^2")) == 16


def test_homogeneous_basis_identity_order_two():
    t = Isotopism.identity(2)
    basis = homogeneous_basis(t)
    assert basis.cardinality == 2
    assert basis.counts == [1, 1]
    assert delta_via_symmetry(t) == 2


def test_homogeneous_basis_honours_its_time_budget():
    # keeping the levels of the full count of order 6 alone outlasts the
    # budget, and would go on to its state ceiling
    started = time.monotonic()
    with pytest.raises(TimeBudgetExceededError):
        homogeneous_basis(rep_of("1^6,1^6,1^6"), budget=Budget(timeout_secs=1))
    assert time.monotonic() - started < 5


def test_homogeneous_basis_matches_shape_walk():
    # every order-<= 4 structure with fixed points in all three components,
    # and a random conjugate of each; walking the shape of 1^4 takes minutes
    rng = random.Random(61)
    checked = 0
    for n in (1, 2, 3, 4):
        for z in enumerate_autotopism_structures(n):
            if not (z.rows.count(1) and z.cols.count(1) and z.syms.count(1)) \
                    or str(z) == "1^4,1^4,1^4":
                continue
            canon = canonical_isotopism(z)
            for t in (canon, random_conjugate(rng, canon)):
                pairs = frozenset((r, c) for r in t.alpha.fixed_points()
                                  for c in t.beta.fixed_points())
                expected = oracles.basis_by_shape_walk(t, ShapeSet(pairs))
                if not expected:
                    with pytest.raises(ValueError):
                        homogeneous_basis(t)
                    continue
                basis = homogeneous_basis(t)
                assert [(P.cells, c) for P, c in zip(basis.elements, basis.counts)] \
                    == expected, str(z)
                checked += 1
    assert checked == 12  # six of the structures admit a full square


def test_homogeneous_basis_identity_order_four_is_every_latin_square():
    basis = homogeneous_basis(Isotopism.identity(4))
    assert {P.cells for P in basis.elements} == set(oracles.all_latin_squares(4))
    assert basis.cardinality == 576 and basis.counts == [1] * 576


def test_homogeneous_basis_needs_fixed_points():
    with pytest.raises(ValueError):
        homogeneous_basis(rep_of("2,2,1^2"))
    with pytest.raises(ValueError):
        homogeneous_basis(rep_of("4,4,1^4"))


def test_delta_via_symmetry_matches_direct_count():
    for spec in ("2.1,2.1,2.1", "3.1,3.1,3.1", "2.1^2,2.1^2,2.1^2"):
        t = rep_of(spec)
        assert delta_via_symmetry(t) == delta_full(t), spec
