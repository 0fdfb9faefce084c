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
census and the bases ask no question per square; both are read off the ZDD
of all full covers.  The census counts by size its down-closure, which holds
exactly the completable squares; a basis is its projection onto the orbits
inside a shape, which holds exactly the shape's restrictions of the full
squares.  An orbit subset is carried as one packed integer, the OR of its
orbits' ValidOrbitSet.masks, which is also the cover search's memo key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .pls_core import Isotopism, PartialLatinSquare, is_autotopism
from .orbit_enum import (
    CensusReport,
    CoverCounter,
    ValidOrbitSet,
    _Budget,
    _full_zdd,
    _levels,
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
# Orbit bookkeeping shared by the searches
# ----------------------------------------------------------------------

def _orbit_indices_of(ovs: ValidOrbitSet, P: PartialLatinSquare) -> list[int]:
    """The indices of the valid orbits making up an invariant square."""
    cell_to_orbit = {
        cell: i for i, o in enumerate(ovs.orbits) for cell in o.triples
    }
    indices = set()
    for cell in P.cells:
        i = cell_to_orbit.get(cell)
        if i is None:
            raise ValueError(
                f"cell {cell} lies on an orbit that can never occur in an "
                "invariant square; is the square really invariant?"
            )
        indices.add(i)
    for i in indices:
        if not set(ovs.orbits[i].triples) <= P.cells:
            raise ValueError("square is not a union of whole orbits")
    return sorted(indices)


def _state_of(ovs: ValidOrbitSet, indices: Iterable[int]) -> int:
    """The packed cover state of a set of orbits."""
    key = 0
    for i in indices:
        key |= ovs.masks[i]
    return key


# ----------------------------------------------------------------------
# Completability of one square
# ----------------------------------------------------------------------

def count_completions(t: Isotopism, P: PartialLatinSquare, *,
                      max_nodes: Optional[int] = None,
                      timeout_secs: Optional[float] = None) -> int:
    """Number of invariant full squares containing P (which must be invariant)."""
    if not is_autotopism(t, P):
        raise ValueError("the square is not invariant under the isotopism")
    ovs = build_valid_orbits(t)
    return _levels(ovs, _state_of(ovs, _orbit_indices_of(ovs, P)),
                   _Budget(max_nodes, timeout_secs))


def is_theta_completable(t: Isotopism, P: PartialLatinSquare, *,
                         max_nodes: Optional[int] = None,
                         timeout_secs: Optional[float] = None) -> bool:
    """Early-exit version of count_completions > 0."""
    if not is_autotopism(t, P):
        raise ValueError("the square is not invariant under the isotopism")
    ovs = build_valid_orbits(t)
    counter = CoverCounter(ovs, _Budget(max_nodes, timeout_secs))
    return counter.covers(_state_of(ovs, _orbit_indices_of(ovs, P)))


def is_completable(P: PartialLatinSquare, *,
                   max_nodes: Optional[int] = None,
                   timeout_secs: Optional[float] = None) -> bool:
    """Plain completability, i.e. the identity-isotopism special case."""
    return is_theta_completable(Isotopism.identity(P.n), P,
                                max_nodes=max_nodes, timeout_secs=timeout_secs)


# ----------------------------------------------------------------------
# Completability census
# ----------------------------------------------------------------------

def completability_census(t: Isotopism, *, max_nodes: Optional[int] = None,
                          timeout_secs: Optional[float] = None) -> CensusReport:
    """Count, for each size, the invariant squares that are t-completable.

    A square is t-completable exactly when its orbit set is a subset of the
    orbit set of some invariant full square.  So the census is the size
    count of the down-closure of the family of full covers, taken on their
    ZDD.  The count is exact at every order.  node_count is the DP states,
    ZDD nodes and memo entries made, which max_nodes bounds; budget
    violations raise NodeBudgetExceededError / TimeBudgetExceededError, and
    tables that would outgrow their memory ceiling StateBudgetExceededError.
    """
    started = time.monotonic()
    budget = _Budget(max_nodes, timeout_secs)
    zdd, root = _full_zdd(build_valid_orbits(t), budget)
    per_size = zdd.size_counts(zdd.down_closure(root))
    return CensusReport(
        structure=t.structure(),
        per_size=per_size,
        total=sum(per_size.values()),
        elapsed=time.monotonic() - started,
        node_count=budget.nodes,
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


def _shape_mask(n: int, pairs: frozenset) -> int:
    mask = 0
    for (a, b) in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"pair {(a, b)} out of range for order {n}")
        mask |= 1 << ((a - 1) * n + (b - 1))
    return mask


def _validate_shape_invariance(t: Isotopism, shape: ShapeSet) -> None:
    first, second = {
        "RC": (t.alpha, t.beta),
        "RS": (t.alpha, t.gamma),
        "CS": (t.beta, t.gamma),
    }[shape.mode]
    for (a, b) in shape.pairs:
        if (first(a), second(b)) not in shape.pairs:
            raise ValueError(
                f"shape is not invariant: pair {(a, b)} maps outside it"
            )


def basis_from_shape(t: Isotopism, shape: ShapeSet, *,
                     max_nodes: Optional[int] = None,
                     timeout_secs: Optional[float] = None) -> ThetaBasis:
    """The completable invariant squares whose filled pairs (in the shape's
    view) are exactly the given set, sorted by cells.

    The shape is invariant under the two permutations of its view, so each
    valid orbit lies wholly inside or outside it, and an invariant full
    square restricts to the shape as its set of inside orbits.  The family
    is that projection of the ZDD of full covers, so it partitions the
    invariant full squares; each member is counted by the DP's full count,
    and the counts are asserted to sum to the full count."""
    ovs = build_valid_orbits(t)
    budget = _Budget(max_nodes, timeout_secs)
    zdd, root = _full_zdd(ovs, budget)
    if not root:
        raise ValueError("the isotopism admits no invariant full square")
    _validate_shape_invariance(t, shape)
    n = ovs.n
    view = ("RC", "RS", "CS").index(shape.mode) * n * n
    target = _shape_mask(n, shape.pairs) << view
    inside = [bool(mask & target) for mask in ovs.masks]
    cells_of = [frozenset(o.triples) for o in ovs.orbits]
    # Members come as lists of orbit indices in lexicographic order.  Every
    # triple of an orbit lies at or after its least triple, by which the
    # orbits are numbered, so this is also the order of their sorted cells.
    elements, counts = [], []
    for member in zdd.members(zdd.project(root, inside)):
        cells = frozenset().union(*(cells_of[i] for i in member))
        elements.append(PartialLatinSquare(n, cells))
        counts.append(_levels(ovs, _state_of(ovs, member), budget))
    total = sum(counts)
    full = _levels(ovs, 0, budget)
    if total != full:
        raise AssertionError(
            f"basis counts sum to {total}, but there are {full} invariant "
            "full squares; the family does not partition them"
        )
    return ThetaBasis(elements, counts, homogeneous=len(set(counts)) == 1)


def homogeneous_basis(t: Isotopism, *, max_nodes: Optional[int] = None,
                      timeout_secs: Optional[float] = None) -> ThetaBasis:
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
    basis = basis_from_shape(t, ShapeSet(pairs, "RC"),
                             max_nodes=max_nodes, timeout_secs=timeout_secs)
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
