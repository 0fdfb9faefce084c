"""Tests for the invariant-square census, bounds, and closed forms."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from latinsym.perm_algebra import IsotopismStructure, Permutation, enumerate_autotopism_structures
from latinsym.pls_core import (
    Isotopism,
    OrderLimitError,
    PartialLatinSquare,
    TripleOrbit,
    apply_isotopism,
    autotopism_group,
    canonical_isotopism,
    is_autotopism,
)
from latinsym import orbit_enum
from latinsym.budget import Budget
from latinsym.completion import count_completions, is_theta_completable
from latinsym.orbit_enum import (
    CoverCounter,
    NodeBudgetExceededError,
    StateBudgetExceededError,
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
    size_bounds,
)

import oracles
from oracles import iter_invariant_squares


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


def test_equal_isotopisms_share_one_valid_orbit_set():
    t = canonical_isotopism(EXAMPLE)
    ovs = build_valid_orbits(t)
    assert build_valid_orbits(canonical_isotopism(EXAMPLE)) is ovs
    images = ";".join("[" + ",".join(map(str, p.images)) + "]" for p in t.components)
    assert build_valid_orbits(Isotopism.parse(images)) is ovs
    conjugate = random_conjugate(random.Random(3), t)
    assert conjugate != t
    other = build_valid_orbits(conjugate)
    assert other is not ovs and other.orbits != ovs.orbits
    assert other.lengths == ovs.lengths


def test_valid_orbits_cross_check_rejects_repeated_pairs(monkeypatch):
    # an orbit that passes the lcm test but repeats a (row, col) pair; a
    # kept set for the identity would skip the build and so the check
    build_valid_orbits.cache_clear()
    bad = TripleOrbit(((1, 1, 1), (1, 1, 2)))
    monkeypatch.setattr(orbit_enum, "triple_orbits", lambda t: [bad])
    with pytest.raises(AssertionError, match="repeated coordinate pairs"):
        build_valid_orbits(Isotopism.identity(2))


def seeded_invariant_square(rng: random.Random, t: Isotopism, size: int,
                            completable: bool = False, spare=((), ())) -> frozenset:
    """Whole orbits of t's triples in a seeded order, each kept when the
    cells stay a partial Latin square of at most size cells, and with
    completable, one that some invariant full square contains.  No triple
    uses a column or symbol of spare = (columns, symbols); those must be
    fixed by t, so that whole orbits stay clear of them."""
    n = t.degree
    theta = (t.alpha.images, t.beta.images, t.gamma.images)
    triples = [(r, c, s) for r in range(1, n + 1) for c in range(1, n + 1)
               for s in range(1, n + 1) if c not in spare[0] and s not in spare[1]]
    rng.shuffle(triples)
    cells: frozenset = frozenset()
    for triple in triples:
        orbit = frozenset([triple])
        while (grown := orbit | oracles.act(theta, orbit)) != orbit:
            orbit = grown
        candidate = cells | orbit
        views = ({(r, c) for r, c, _ in candidate}, {(r, s) for r, _, s in candidate},
                 {(c, s) for _, c, s in candidate})
        if len(candidate) <= size and all(len(v) == len(candidate) for v in views) and (
                not completable or is_theta_completable(t, PartialLatinSquare(n, candidate))):
            cells = candidate
    return cells


def test_completion_answers_do_not_depend_on_kept_valid_orbits():
    # each answer once from a fresh build before every call and once from
    # the kept set, both checked against the independent completion counter
    rng = random.Random(29)
    seen = set()
    for spec, size in (("1^3,1^3,1^3", 3), ("2.1,2.1,2.1", 3),
                       ("1^4,1^4,1^4", 6), ("2^2,2^2,2^2", 6),
                       ("1^5,1^5,1^5", 7), ("2^2.1,2^2.1,2^2.1", 9), ("5,5,5", 5)):
        t = rep_of(spec)
        theta = (t.alpha.images, t.beta.images, t.gamma.images)
        for _ in range(4):
            P = PartialLatinSquare(t.degree, seeded_invariant_square(rng, t, size))
            expected = oracles.count_invariant_completions(theta, P.cells, t.degree)
            fresh = []
            for ask in (count_completions, is_theta_completable):
                build_valid_orbits.cache_clear()
                fresh.append(ask(t, P))
            hits = build_valid_orbits.cache_info().hits
            kept = [count_completions(t, P), is_theta_completable(t, P)]
            assert build_valid_orbits.cache_info().hits == hits + 2
            assert fresh == kept == [expected, expected > 0], (spec, sorted(P.cells))
            seen.add(expected > 0)
    assert seen == {True, False}


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


def test_census_merge_on_conjugated_isotopisms():
    # random row, column and symbol relabellings scatter the alpha-cycles,
    # the fixed columns and the fixed symbols, so the row boundaries come
    # from the orbit masks and the merges from lanes other than the last
    rng = random.Random(53)
    for n in (1, 2, 3, 4):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            conj = random_conjugate(rng, t)
            cap = 5 if str(z) == "1^4,1^4,1^4" else None
            assert delta_census(conj, max_size=cap).per_size == \
                oracles.census_by_walker(conj, max_size=cap), str(z)
            assert delta_full(conj) == delta_full(t), str(z)


def test_row_merge_matches_unmerged_dp(monkeypatch):
    # every structure of orders 3 to 5 whose states can merge, against the
    # same DP with merging switched off, on a random conjugate: the census
    # and the full count at order 5, and at every order the completions of
    # seeded invariant squares of one orbit up to many, which merge under
    # the lanes their orbits leave free; at orders 3 and 4 the completions
    # also against the independent counter.  Where the conjugate has a full
    # square, the squares are completable, so that most counts are not 0;
    # the larger ones spare two fixed columns or symbols, so that they can
    # still merge.
    rng = random.Random(59)
    cases = []
    for n in (3, 4, 5):
        for z in enumerate_autotopism_structures(n):
            if z.cols.count(1) > 1 or z.syms.count(1) > 1:
                conj = random_conjugate(rng, canonical_isotopism(z))
                completable = delta_full(conj) > 0
                cols, syms = conj.beta.fixed_points(), conj.gamma.fixed_points()
                squares = []
                for size in (1, 1, n, 2 * n, 3 * n):
                    spare = ((), ())
                    if size > 1 and len(cols) > 1 and (len(syms) < 2 or rng.random() < 0.5):
                        spare = (rng.sample(cols, 2), ())
                    elif size > 1:
                        spare = ((), rng.sample(syms, 2))
                    squares.append(PartialLatinSquare(n, seeded_invariant_square(
                        rng, conj, size, completable, spare)))
                cases.append((z, conj, squares))
    merged = []
    for z, conj, squares in cases:
        census = (delta_census(conj, max_size=4).per_size, delta_full(conj)) \
            if z.degree == 5 else None
        merged.append((census, [count_completions(conj, P) for P in squares]))
    monkeypatch.setattr(orbit_enum, "_row_merge", lambda ovs, pre: ((), None))
    for (z, conj, squares), (census, completions) in zip(cases, merged):
        if census is not None:
            t = canonical_isotopism(z)
            assert census == (delta_census(t, max_size=4).per_size, delta_full(t)), str(z)
        assert completions == [count_completions(conj, P) for P in squares], str(z)
        if z.degree < 5:
            theta = (conj.alpha.images, conj.beta.images, conj.gamma.images)
            assert completions == [oracles.count_invariant_completions(theta, P.cells, z.degree)
                                   for P in squares], str(z)


def test_row_merge_matches_key_by_key(monkeypatch):
    # every level the DP merges, against the same merge done one key at a
    # time: the census (capped at 8 at order 5) and the full count of every
    # structure of orders 2 to 5, then the completions of seeded squares on
    # random conjugates, whose orbits leave only some lanes free
    real = orbit_enum._row_merge
    checked = []

    def row_merge(ovs, pre):
        cells, merge = real(ovs, pre)
        if merge is None:
            return cells, merge

        def checked_merge(level):
            got = merge(level)
            assert got == oracles.merge_key_by_key(ovs, pre, level)
            checked.append((pre, len(level)))
            return got
        return cells, checked_merge

    monkeypatch.setattr(orbit_enum, "_row_merge", row_merge)
    for n in (2, 3, 4, 5):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            delta_census(t, max_size=8 if n == 5 else None)
            delta_full(t)
    assert (len(checked), sum(size for _, size in checked)) == (599, 116873)
    rng = random.Random(61)
    for n in (3, 4, 5):
        for z in enumerate_autotopism_structures(n):
            conj = random_conjugate(rng, canonical_isotopism(z))
            cols, syms = conj.beta.fixed_points(), conj.gamma.fixed_points()
            if len(cols) < 2 and len(syms) < 2:
                continue
            spare = (rng.sample(cols, 2), ()) if len(cols) > 1 else ((), rng.sample(syms, 2))
            completable = delta_full(conj) > 0
            for size in (1, n, 2 * n):
                count_completions(conj, PartialLatinSquare(n, seeded_invariant_square(
                    rng, conj, size, completable, spare)))
    assert any(pre for pre, _ in checked)


def test_single_cell_completions_under_the_identity():
    # every one of the n^3 single cells of an order-n square lies in |LS_n|/n
    # Latin squares; a merge that relabelled the cell's column or symbol, or
    # that fixed only the columns of the cells in the rows ahead, gets some
    # of them wrong (the order-3 cell (2, 1, 3) would get 0)
    for n, expected in ((3, 4), (4, 144), (5, 32256)):
        t = Isotopism.identity(n)
        for cell in product(range(1, n + 1), repeat=3):
            got = count_completions(t, PartialLatinSquare(n, frozenset({cell})))
            assert got == expected, (n, cell)


def test_row_merge_reaches_a_single_cell_of_order_six(monkeypatch):
    # unmerged, this count stops at the ceiling even at 64 MiB
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 1 << 20)
    P = PartialLatinSquare(6, frozenset({(2, 3, 4)}))
    assert count_completions(Isotopism.identity(6), P) == 135475200


def test_runs_that_merge_spend_pinned_nodes():
    # the DP states expanded by three runs whose levels merge at every row
    # boundary: a change to what merges changes these counts
    assert delta_census(rep_of("1^4,1^4,1^4")).node_count == 6283
    budget = Budget()
    assert delta_full(Isotopism.identity(6), budget=budget) == 812851200
    assert budget.nodes == 4880
    budget = Budget()
    P = PartialLatinSquare(6, frozenset({(2, 3, 4)}))
    assert count_completions(Isotopism.identity(6), P, budget=budget) == 135475200
    assert budget.nodes == 15151


def test_census_max_size_prunes():
    t = rep_of("1^4,1^4,1^4")
    rep = delta_census(t, max_size=2)
    assert rep.per_size == {1: 64, 2: 1728}
    assert rep.node_count == 354  # DP states; the uncapped census expands 6283


def test_census_budget_errors_distinct():
    # the uncapped 1^4 census now ends within 0.05 s; this one takes seconds
    t = rep_of("1^5,1^5,1^5")
    with pytest.raises(NodeBudgetExceededError):
        delta_census(t, budget=Budget(max_nodes=1000))
    with pytest.raises(TimeBudgetExceededError):
        delta_census(t, budget=Budget(timeout_secs=0.05))


def test_census_live_state_ceiling(monkeypatch):
    # a 1 MiB level holds about 3,100 states here; the uncapped census of a
    # structure without fixed points, whose states never merge, outgrows it
    # within a row, while the size-2 census expands 420 states in all
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 1 << 20)
    t = rep_of("2^3,2^3,2^3")
    with pytest.raises(StateBudgetExceededError, match=r"level at cell \d+ holds \d+ states"):
        delta_census(t)
    assert delta_census(t, max_size=2).per_size == {2: 108}


def test_full_count_charges_the_level_read(monkeypatch):
    # 3^2,3^2,3^2 has no fixed column or symbol, so its full count merges
    # nothing; its largest level, 222 states, is built from one of 168.
    # 222 plain-count states of 100 bytes hold that level on its own but
    # not beside the level it is built from; 390 hold both.
    t = rep_of("3^2,3^2,3^2")
    trail: list = []
    orbit_enum._levels(build_valid_orbits(t), 0, Budget(), trail=trail)
    sizes = [len(level) for _, _, level in trail]
    assert max(sizes) == 222 and sizes[sizes.index(222) - 1] == 168
    assert max(a + b for a, b in zip(sizes, sizes[1:])) == 390
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 222 * 100)
    with pytest.raises(StateBudgetExceededError, match=r"level at cell \d+ holds \d+ states"):
        delta_full(t)
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 390 * 100)
    assert delta_full(t) == 648


def test_census_report_invariants():
    rep = delta_census(rep_of("2.1,2.1,1^3"))
    assert rep.total == sum(rep.per_size.values())
    assert all(v > 0 for v in rep.per_size.values())
    assert rep.node_count == 6  # DP states expanded, against 51 squares counted
    assert rep.structure == IsotopismStructure.parse("2.1,2.1,1^3")


def test_censuses_on_one_budget_report_their_own_nodes():
    budget = Budget()
    first = delta_census(rep_of("2.1,2.1,1^3"), budget=budget)
    second = delta_census(rep_of("1^4,1^4,1^4"), max_size=2, budget=budget)
    assert (first.node_count, second.node_count) == (6, 354)
    assert first.node_count + second.node_count == budget.nodes
    assert budget.held == 0


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


def test_cover_counter_packed_interface():
    ovs = build_valid_orbits(rep_of("1^4,1^4,1^4"))
    counter = CoverCounter(ovs)
    assert counter.count_from(0, 0, 0) == 576
    assert counter.budget.nodes > 0
    # one orbit placed: the squares of order 4 with that fixed cell
    N = ovs.n * ovs.n
    rc, rs, cs = (ovs.masks[0] >> k * N & (1 << N) - 1 for k in range(3))
    assert counter.count_from(rc, rs, cs) == 576 // 4
    assert counter.covers(ovs.masks[0])


def test_cover_counter_budget():
    t = rep_of("1^4,1^4,1^4")
    with pytest.raises(NodeBudgetExceededError):
        delta_full(t, budget=Budget(max_nodes=10))


def test_delta_full_matches_oracle():
    # every structure of order <= 4, against the Latin squares it fixes
    for n in (1, 2, 3, 4):
        squares = oracles.all_latin_squares(n)
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            theta = (t.alpha.images, t.beta.images, t.gamma.images)
            expected = sum(1 for L in squares if oracles.act(theta, L) == L)
            got = delta_full(t)
            assert type(got) is int and got == expected, str(z)


def test_delta_full_orders_five_and_six():
    # |LS_5|, |LS_6| and |LS_7| (McKay & Wanless 2005), and the count the
    # memoized cover search gave for an order-6 structure
    assert delta_full(rep_of("1^5,1^5,1^5")) == 161280
    assert delta_full(rep_of("1^6,1^6,1^6")) == 812851200
    assert delta_full(rep_of("1^7,1^7,1^7")) == 61479419904000
    assert delta_full(rep_of("2^3,2^3,1^6")) == 460800


def test_full_count_live_state_ceiling(monkeypatch):
    # a 1 MiB level holds 10,485 plain-count states; 1^7 needs a level of
    # 27,763, 1^4 and 2^3,2^3,1^6 stay under the ceiling
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 1 << 20)
    started = time.perf_counter()
    with pytest.raises(StateBudgetExceededError, match=r"level at cell \d+ holds \d+ states"):
        delta_full(rep_of("1^7,1^7,1^7"))
    assert time.perf_counter() - started < 5.0
    assert delta_full(rep_of("1^4,1^4,1^4")) == 576
    assert delta_full(rep_of("2^3,2^3,1^6")) == 460800


def test_row_merge_holds_nothing_beside_its_levels(monkeypatch):
    # the full count of 1^7 fits under a ceiling of 4.7 MiB or more; the row
    # merges keep no table of their own, so under a 5 MiB ceiling the traced
    # peak, 5.6 MiB, stays within a fixed slack of it.  Tracing makes this
    # run take 10 to 15 s.
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", 5 << 20)
    t = rep_of("1^7,1^7,1^7")
    tracemalloc.start()
    try:
        assert delta_full(t) == 61479419904000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * (1 << 20)


def test_census_row_merge_holds_nothing_beside_its_levels(monkeypatch):
    # the uncapped census of 1^4 fits under a ceiling of 1,204,660 bytes or
    # more.  The charges overstate its tables: under this ceiling the traced
    # peak is 0.96 MiB, and 1.05 MiB where the merges keep every level they
    # read, so the peak must stay under 0.9 of the ceiling.
    ceiling = 1_204_660
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", ceiling)
    t = rep_of("1^4,1^4,1^4")
    build_valid_orbits(t)  # kept between calls, outside the budget
    tracemalloc.start()
    try:
        assert delta_census(t).total == 127545136
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * ceiling
    monkeypatch.setattr(orbit_enum, "_MAX_LEVEL_BYTES", ceiling - 1)
    with pytest.raises(StateBudgetExceededError):
        delta_census(t)


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
    # recovers the census count for that size, at order 4 too
    for spec, size in (("2,2,1^2", 2), ("2.1,2.1,2.1", 4), ("3,3,3", 6),
                       ("2^2,2^2,2^2", 4), ("2.1^2,2.1^2,2.1^2", 2),
                       ("2.1^2,2.1^2,2.1^2", 3)):
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
        assert total == delta_census(t).count(size), (spec, size)


def test_class_slice_matches_canon_oracle():
    # every isotopy class of invariant squares of every structure of order
    # <= 3: the count from the autotopism group against the count of
    # squares sharing the class's canonical form
    for n in (1, 2, 3):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            theta = (t.alpha.images, t.beta.images, t.gamma.images)
            classes: dict = {}
            for cells in oracles.invariant_squares(theta, n):
                classes.setdefault(oracles.canon_key(cells, n), cells)
            for cells in classes.values():
                got = delta_isotopism_class(t, PartialLatinSquare(n, cells))
                assert got == oracles.class_slice_by_canon(theta, cells, n), \
                    (str(z), sorted(cells))


def test_class_slice_edge_cases():
    t = rep_of("2.1,2.1,2.1")
    assert delta_isotopism_class(t, PartialLatinSquare(3, frozenset())) == 0
    with pytest.raises(ValueError):
        delta_isotopism_class(t, PartialLatinSquare.from_cells(2, [(1, 1, 1)]))
    with pytest.raises(OrderLimitError):
        delta_isotopism_class(Isotopism.identity(6),
                              PartialLatinSquare.from_cells(6, [(1, 1, 1)]))


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
