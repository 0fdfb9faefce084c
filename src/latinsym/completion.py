"""Completability of invariant squares, completability censuses, bases of the
set of invariant full squares, and the symmetry-coefficient route to the
full-square count.

A square P invariant under t is "t-completable" when some full Latin square
containing P is itself invariant under t.  Through the orbit bijection this
is a cover question: can P's orbit subset be extended by disjoint valid
orbits to cover all n^2 cells?  Everything here runs on that formulation.
Counts of covers (count_completions, the basis member counts) come from the
census module's frontier DP with plain counts; the yes/no question for
one square (is_theta_completable) goes to the memoized cover search
orbit_enum.CoverCounter, which stops at the first cover.  The completability
census and the bases ask no question per square; both walk the moves between
the live states of the full count, those on some full cover.  The census
counts by size the squares that some cover extends; a basis counts the
covers holding each set of the orbits inside a shape.  Squares and shapes
are read as sets of valid orbits: an invariant square is a union of whole
orbits, each valid since its cells lie in a partial Latin square, so its
orbits are those whose least triple (TripleOrbit.representative) it holds;
an orbit lies inside an invariant shape exactly when its least triple's
pair in the shape's view does.  An orbit set goes to orbit_enum as the OR
of its orbits' ValidOrbitSet.masks, whose layout only orbit_enum knows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .budget import Budget
from .pls_core import Isotopism, PartialLatinSquare, is_autotopism
from .orbit_enum import (
    CensusReport,
    CoverCounter,
    ValidOrbitSet,
    _completable_counts,
    _cover_steps,
    _levels,
    _projected_covers,
    build_valid_orbits,
    delta_full,
)


# ----------------------------------------------------------------------
# Basis types
# ----------------------------------------------------------------------

@dataclass
class ThetaBasis:
    """A family of squares whose completion sets partition the invariant
    full squares; homogeneous when every member completes equally often."""

    elements: list[PartialLatinSquare]
    counts: list[int]
    homogeneous: bool

    @property
    def cardinality(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ShapeSet:
    """A target set of filled coordinate pairs, in one of the three views."""

    pairs: frozenset[tuple[int, int]]
    mode: str = "RC"

    def __post_init__(self) -> None:
        if self.mode not in ("RC", "RS", "CS"):
            raise ValueError(f"mode must be RC, RS, or CS, got {self.mode!r}")


# ----------------------------------------------------------------------
# Completability of one square
# ----------------------------------------------------------------------

def _invariant_state(t: Isotopism, P: PartialLatinSquare
                     ) -> tuple[ValidOrbitSet, int]:
    """The valid orbits of t and the packed cover state of P's orbits.

    An invariant square is a union of whole orbits, each valid because its
    cells lie in a partial Latin square, so its orbits are those whose
    least triple it holds."""
    if not is_autotopism(t, P):
        raise ValueError("the square is not invariant under the isotopism")
    ovs = build_valid_orbits(t)
    key = 0
    for orbit, mask in zip(ovs.orbits, ovs.masks):
        if orbit.representative in P.cells:
            key |= mask
    return ovs, key


def count_completions(t: Isotopism, P: PartialLatinSquare, *,
                      budget: Optional[Budget] = None) -> int:
    """Number of invariant full squares containing P (which must be invariant)."""
    ovs, key = _invariant_state(t, P)
    return _levels(ovs, key, budget or Budget())


def is_theta_completable(t: Isotopism, P: PartialLatinSquare, *,
                         budget: Optional[Budget] = None) -> bool:
    """Early-exit version of count_completions > 0."""
    ovs, key = _invariant_state(t, P)
    budget = budget or Budget()
    held = budget.held
    try:
        return CoverCounter(ovs, budget).covers(key)
    finally:
        budget.held = held  # the memo goes with the counter


def is_completable(P: PartialLatinSquare, *,
                   budget: Optional[Budget] = None) -> bool:
    """Plain completability, i.e. the identity-isotopism special case."""
    return is_theta_completable(Isotopism.identity(P.n), P, budget=budget)


# ----------------------------------------------------------------------
# Completability census
# ----------------------------------------------------------------------

def completability_census(t: Isotopism, *,
                          budget: Optional[Budget] = None) -> CensusReport:
    """Count, for each size, the invariant squares that are t-completable.

    A square is t-completable exactly when its orbit set is a subset of the
    orbit set of some invariant full square, so the census is the subset
    construction over the live moves of the full count.  The count is exact
    at every order.  node_count is what this call charged to budget: the
    full-count states expanded and read back plus the sets expanded; budget
    violations raise NodeBudgetExceededError / TimeBudgetExceededError, and
    tables that would outgrow their memory ceiling StateBudgetExceededError.
    """
    budget = budget or Budget()
    spent, held = budget.nodes, budget.held
    ovs = build_valid_orbits(t)
    try:
        _, steps = _cover_steps(ovs, budget)
        per_size = _completable_counts(ovs, steps, budget) if steps else {}
    finally:
        budget.held = held  # the steps are freed on return
    return CensusReport(
        structure=t.structure(),
        per_size=per_size,
        total=sum(per_size.values()),
        node_count=budget.nodes - spent,
    )


# ----------------------------------------------------------------------
# Bases
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def count_latin_squares(n: int) -> int:
    """|LS_n|, the full squares invariant under the identity isotopism."""
    if n < 1:
        raise ValueError("order must be positive")
    return delta_full(Isotopism.identity(n))


# The two coordinates of a triple (r, c, s) that each view pairs
_VIEW = {"RC": (0, 1), "RS": (0, 2), "CS": (1, 2)}


def _check_shape(t: Isotopism, shape: ShapeSet) -> None:
    """Reject a shape with a pair out of range, then one that is not
    invariant under the two permutations of its view."""
    n = t.degree
    for (a, b) in shape.pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"pair {(a, b)} out of range for order {n}")
    i, j = _VIEW[shape.mode]
    first, second = t.components[i], t.components[j]
    for (a, b) in shape.pairs:
        if (first(a), second(b)) not in shape.pairs:
            raise ValueError(
                f"shape is not invariant: pair {(a, b)} maps outside it"
            )


def basis_from_shape(t: Isotopism, shape: ShapeSet, *,
                     budget: Optional[Budget] = None) -> ThetaBasis:
    """The completable invariant squares whose filled pairs (in the shape's
    view) are exactly the given set, sorted by cells.

    The shape is invariant under the two permutations of its view, so each
    valid orbit lies wholly inside or outside it, as its least triple does,
    and an invariant full square restricts to the shape as its set of inside
    orbits.  The family is the sets of inside orbits that full covers hold,
    walked on the live moves of the full count with the number of covers
    holding each, so it partitions the invariant full squares; the counts
    are asserted to sum to the full count."""
    _check_shape(t, shape)
    ovs = build_valid_orbits(t)
    budget = budget or Budget()
    held = budget.held
    try:
        full, steps = _cover_steps(ovs, budget)
        if not full:
            raise ValueError("the isotopism admits no invariant full square")
        i, j = _VIEW[shape.mode]
        inside = [(o.representative[i], o.representative[j]) in shape.pairs
                  for o in ovs.orbits]
        # Members come as lists of orbit indices in lexicographic order.  Every
        # triple of an orbit lies at or after its least triple, by which the
        # orbits are numbered, so this is also the order of their sorted cells.
        elements, counts = [], []
        for member, count in _projected_covers(steps, inside, budget):
            # from a set: a frozenset grown from a generator keeps a larger table
            cells = frozenset({c for v in member for c in ovs.orbits[v].triples})
            elements.append(PartialLatinSquare(t.degree, cells))
            counts.append(count)
    finally:
        budget.held = held  # the steps are freed on return
    total = sum(counts)
    if total != full:
        raise AssertionError(
            f"basis counts sum to {total}, but there are {full} invariant "
            "full squares; the family does not partition them"
        )
    return ThetaBasis(elements, counts, homogeneous=len(set(counts)) == 1)


def homogeneous_basis(t: Isotopism, *,
                      budget: Optional[Budget] = None) -> ThetaBasis:
    """The fixed-rows x fixed-columns basis.

    Requires fixed points in all three components and at least one invariant
    full square; the family is then as large as the number of Latin squares
    of order z_11, and all completion counts coincide.
    """
    z = t.structure()
    k = z.rows.count(1)
    if not (k and z.cols.count(1) and z.syms.count(1)):
        raise ValueError("needs fixed points in rows, columns, and symbols")
    pairs = frozenset(
        (r, c) for r in t.alpha.fixed_points() for c in t.beta.fixed_points()
    )
    basis = basis_from_shape(t, ShapeSet(pairs, "RC"), budget=budget)
    expected = count_latin_squares(k)
    if basis.cardinality != expected:
        raise AssertionError(
            f"fixed-point basis has {basis.cardinality} members, expected "
            f"|LS_{k}| = {expected}"
        )
    if not basis.homogeneous:
        raise AssertionError("fixed-point basis is not homogeneous")
    return basis


def delta_via_symmetry(t: Isotopism) -> int:
    """Full-square count as basis cardinality times the common completion count."""
    basis = homogeneous_basis(t)
    return basis.cardinality * basis.counts[0]
