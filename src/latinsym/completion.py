"""Completability of invariant squares, completability censuses, bases of the
set of invariant full squares, and the symmetry-coefficient route to the
full-square count.

A square P invariant under t is "t-completable" when some full Latin square
containing P is itself invariant under t.  Through the orbit bijection this
is a cover question: can P's orbit subset be extended by disjoint valid
orbits to cover all n^2 cells?  All searches here run on that formulation,
sharing the cover machinery (and its memo tables) from the census module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as iter_permutations
from typing import Iterable, Optional

from .perm_algebra import IsotopismStructure
from .pls_core import Isotopism, PartialLatinSquare, is_autotopism
from .orbit_enum import (
    CoverCounter,
    ValidOrbitSet,
    _Budget,
    build_valid_orbits,
    delta_full,
)


# ----------------------------------------------------------------------
# Report and basis types
# ----------------------------------------------------------------------

@dataclass
class CompletabilityReport:
    """Per-size counts of invariant squares that extend to invariant full ones."""

    structure: IsotopismStructure
    per_size: dict[int, int]
    total: int

    def count(self, size: int) -> int:
        return self.per_size.get(size, 0)

    def to_json_dict(self) -> dict:
        return {
            "structure": str(self.structure),
            "per_size": {str(k): v for k, v in sorted(self.per_size.items())},
            "total": self.total,
        }

    def to_csv(self) -> str:
        lines = ["size,count"]
        lines += [f"{s},{c}" for s, c in sorted(self.per_size.items())]
        lines.append(f"total,{self.total}")
        return "\n".join(lines) + "\n"


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


def _state_of(ovs: ValidOrbitSet, indices: Iterable[int]) -> tuple[int, int, int]:
    rc = rs = cs = 0
    for i in indices:
        rc |= ovs.rc_masks[i]
        rs |= ovs.rs_masks[i]
        cs |= ovs.cs_masks[i]
    return rc, rs, cs


def _counter_for(t: Isotopism, max_nodes: Optional[int],
                 timeout_secs: Optional[float]) -> CoverCounter:
    return CoverCounter(build_valid_orbits(t), _Budget(max_nodes, timeout_secs))


# ----------------------------------------------------------------------
# Completability of one square
# ----------------------------------------------------------------------

def count_completions(t: Isotopism, P: PartialLatinSquare, *,
                      max_nodes: Optional[int] = None,
                      timeout_secs: Optional[float] = None) -> int:
    """Number of invariant full squares containing P (which must be invariant)."""
    if not is_autotopism(t, P):
        raise ValueError("the square is not invariant under the isotopism")
    counter = _counter_for(t, max_nodes, timeout_secs)
    state = _state_of(counter.ovs, _orbit_indices_of(counter.ovs, P))
    return counter.count_from(*state)


def is_theta_completable(t: Isotopism, P: PartialLatinSquare, *,
                         max_nodes: Optional[int] = None,
                         timeout_secs: Optional[float] = None) -> bool:
    """Early-exit version of count_completions > 0."""
    if not is_autotopism(t, P):
        raise ValueError("the square is not invariant under the isotopism")
    counter = _counter_for(t, max_nodes, timeout_secs)
    state = _state_of(counter.ovs, _orbit_indices_of(counter.ovs, P))
    return counter.can_cover(*state)


def is_completable(P: PartialLatinSquare, *,
                   max_nodes: Optional[int] = None,
                   timeout_secs: Optional[float] = None) -> bool:
    """Plain completability, i.e. the identity-isotopism special case."""
    return is_theta_completable(Isotopism.identity(P.n), P,
                                max_nodes=max_nodes, timeout_secs=timeout_secs)


# ----------------------------------------------------------------------
# Completability census
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_isotopism_images(n: int) -> tuple:
    perms = list(iter_permutations(range(1, n + 1)))
    return tuple((a, b, g) for a in perms for b in perms for g in perms)


def _canonical_key(cells: frozenset, n: int) -> tuple:
    """Least sorted image of the cell set over all order-n isotopisms."""
    return min(
        tuple(sorted((a[r - 1], b[c - 1], g[s - 1]) for (r, c, s) in cells))
        for (a, b, g) in _all_isotopism_images(n)
    )


def _census_direct(counter: CoverCounter) -> dict[int, int]:
    """DFS over orbit subsets; a non-completable node prunes its whole
    subtree, since supersets of a non-completable square stay non-completable."""
    ovs = counter.ovs
    rcm, rsm, csm, lns = ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths
    per_size: dict[int, int] = {}

    def rec(start: int, rc: int, rs: int, cs: int, size: int) -> None:
        for i in range(start, len(lns)):
            if (rc & rcm[i]) or (rs & rsm[i]) or (cs & csm[i]):
                continue
            nrc, nrs, ncs = rc | rcm[i], rs | rsm[i], cs | csm[i]
            if not counter.can_cover(nrc, nrs, ncs):
                continue
            ns = size + lns[i]
            per_size[ns] = per_size.get(ns, 0) + 1
            rec(i + 1, nrc, nrs, ncs, ns)

    rec(0, 0, 0, 0, 0)
    return per_size


def _census_by_classes(counter: CoverCounter) -> dict[int, int]:
    """Group members by isotopy class and decide each class through one
    representative; the statuses agree across a class."""
    ovs = counter.ovs
    n = ovs.n
    rcm, rsm, csm, lns = ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths
    cells_of = [frozenset(o.triples) for o in ovs.orbits]
    members: list[tuple[frozenset, tuple[int, int, int], int]] = []

    def rec(start, rc, rs, cs, size, acc):
        for i in range(start, len(lns)):
            if (rc & rcm[i]) or (rs & rsm[i]) or (cs & csm[i]):
                continue
            state = (rc | rcm[i], rs | rsm[i], cs | csm[i])
            nxt = acc | cells_of[i]
            members.append((nxt, state, size + lns[i]))
            rec(i + 1, state[0], state[1], state[2], size + lns[i], nxt)

    rec(0, 0, 0, 0, 0, frozenset())
    class_status: dict[tuple, bool] = {}
    per_size: dict[int, int] = {}
    for cells, state, size in members:
        key = _canonical_key(cells, n)
        status = class_status.get(key)
        if status is None:
            status = counter.can_cover(*state)
            class_status[key] = status
        if status:
            per_size[size] = per_size.get(size, 0) + 1
    return per_size


def completability_census(t: Isotopism, *, strategy: str = "auto",
                          max_nodes: Optional[int] = None,
                          timeout_secs: Optional[float] = None
                          ) -> CompletabilityReport:
    """Count, for each size, the invariant squares that are t-completable.

    strategy "classes" decides one representative per isotopy class (cheap
    at orders up to 3), "direct" checks every member with subtree pruning
    and memoized cover queries, "auto" picks by order.  Both strategies
    agree wherever both are feasible.
    """
    n = t.degree
    if strategy == "auto":
        strategy = "classes" if n <= 3 else "direct"
    counter = _counter_for(t, max_nodes, timeout_secs)
    if strategy == "classes":
        if n > 3:
            raise ValueError("class grouping is brute force; use it only up to order 3")
        per_size = _census_by_classes(counter)
    elif strategy == "direct":
        per_size = _census_direct(counter)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return CompletabilityReport(
        structure=t.structure(),
        per_size=per_size,
        total=sum(per_size.values()),
    )


# ----------------------------------------------------------------------
# Bases
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def count_latin_squares(n: int) -> int:
    """|LS_n|, counted by the cover search under the identity isotopism."""
    if n < 1:
        raise ValueError("order must be positive")
    return delta_full(Isotopism.identity(n))


def _mode_data(ovs: ValidOrbitSet, mode: str):
    if mode == "RC":
        return ovs.rc_masks
    if mode == "RS":
        return ovs.rs_masks
    return ovs.cs_masks


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
    """Enumerate the completable invariant squares whose filled pairs (in the
    shape's view) are exactly the given set.  Every invariant full square
    restricts to exactly one such square, so the family partitions the
    invariant full squares; the counts are asserted to sum to the full count."""
    counter = _counter_for(t, max_nodes, timeout_secs)
    ovs = counter.ovs
    if not counter.can_cover(0, 0, 0):
        raise ValueError("the isotopism admits no invariant full square")
    _validate_shape_invariance(t, shape)
    n = ovs.n
    target = _shape_mask(n, shape.pairs)
    view = _mode_data(ovs, shape.mode)
    rcm, rsm, csm, lns = ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths
    cells_of = [frozenset(o.triples) for o in ovs.orbits]
    found: list[tuple[frozenset, tuple[int, int, int]]] = []
    spend = counter.budget.spend

    def rec(start, rc, rs, cs, filled, acc):
        spend()
        if filled == target:
            found.append((acc, (rc, rs, cs)))
            return
        for i in range(start, len(lns)):
            if view[i] & ~target:
                continue
            if (rc & rcm[i]) or (rs & rsm[i]) or (cs & csm[i]):
                continue
            rec(i + 1, rc | rcm[i], rs | rsm[i], cs | csm[i],
                filled | view[i], acc | cells_of[i])

    rec(0, 0, 0, 0, 0, frozenset())
    elements, counts = [], []
    for cells, state in found:
        completions = counter.count_from(*state)
        if completions:
            elements.append(PartialLatinSquare(n, cells))
            counts.append(completions)
    if not elements:
        raise ValueError("the shape family is empty; it cannot be a basis")
    order = sorted(range(len(elements)), key=lambda i: elements[i].sorted_cells())
    elements = [elements[i] for i in order]
    counts = [counts[i] for i in order]
    total = sum(counts)
    full = counter.count_from(0, 0, 0)
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
