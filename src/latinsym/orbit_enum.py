"""Exact counting of isotopism-invariant partial Latin squares.

The key structural fact: an invariant square is the union of whole triple
orbits, and an orbit can appear in an invariant square exactly when its three
containing cycle lengths (i, j, k) satisfy the pairwise-lcm condition.  Such
an orbit is itself a valid square, so counting invariant squares of each size
reduces to counting conflict-free subsets of "valid" orbits, where two orbits
conflict when they share a (row,col), (row,sym), or (col,sym) pair.

The census is a forward frontier DP over the n^2 cells in row-major order.
Each valid orbit is grouped under its least cell, so a group places at most
one orbit.  A level maps a state to the size polynomial of the partial
squares decided so far; the state is one packed integer rc | rs << n^2 |
cs << 2n^2 of the three conflict masks, cut down to the bits that orbits
whose least cell lies ahead can still touch.  At each cell every state
either passes or places one compatible orbit of the cell's group, which
shifts its polynomial by the orbit length.  Only two levels are alive at a
time, and the cost grows with the number of distinct states, not with the
number of squares counted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from typing import Iterator, NamedTuple, Optional

from .perm_algebra import (
    IsotopismStructure,
    is_autotopism_structure,
    lcm_triple_set,
)
from .pls_core import (
    Isotopism,
    PartialLatinSquare,
    TripleOrbit,
    isotopisms_between,
    triple_orbits,
)

_UNBOUNDED = 1 << 62


class BudgetExceededError(RuntimeError):
    """Base for search aborts."""


class NodeBudgetExceededError(BudgetExceededError):
    pass


class TimeBudgetExceededError(BudgetExceededError):
    pass


# ----------------------------------------------------------------------
# Valid orbits and masks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ValidOrbitSet:
    """The valid orbits of an isotopism plus the data for conflict testing.

    Masks are integers over n^2 bits; bit (a-1)*n + (b-1) stands for the
    coordinate pair (a, b) of the respective family.
    """

    n: int
    orbits: tuple[TripleOrbit, ...]
    rc_masks: tuple[int, ...]
    rs_masks: tuple[int, ...]
    cs_masks: tuple[int, ...]
    lengths: tuple[int, ...]

    def conflict(self, a: int, b: int) -> bool:
        """Whether orbits a and b cannot coexist in one invariant square."""
        return bool(
            (self.rc_masks[a] & self.rc_masks[b])
            or (self.rs_masks[a] & self.rs_masks[b])
            or (self.cs_masks[a] & self.cs_masks[b])
        )

    def __len__(self) -> int:
        return len(self.orbits)


def _pair_bit(n: int, a: int, b: int) -> int:
    return 1 << ((a - 1) * n + (b - 1))


def build_valid_orbits(t: Isotopism) -> ValidOrbitSet:
    """Filter the triple orbits of t down to those that can occur in an
    invariant square, with their conflict masks.

    Validity is decided arithmetically by the (i,j,k) lcm condition on the
    containing cycle lengths; as a cross-check, each kept orbit must have as
    many distinct pairs in every coordinate family as it has cells.
    """
    n = t.degree
    admissible = lcm_triple_set(n)
    row_len = {pt: len(c) for c in t.alpha.cycles() for pt in c}
    col_len = {pt: len(c) for c in t.beta.cycles() for pt in c}
    sym_len = {pt: len(c) for c in t.gamma.cycles() for pt in c}
    orbits, rc_all, rs_all, cs_all, lengths = [], [], [], [], []
    for orbit in triple_orbits(t):
        r0, c0, s0 = orbit.representative
        if (row_len[r0], col_len[c0], sym_len[s0]) not in admissible:
            continue
        rc = rs = cs = 0
        for (r, c, s) in orbit.triples:
            rc |= _pair_bit(n, r, c)
            rs |= _pair_bit(n, r, s)
            cs |= _pair_bit(n, c, s)
        if not (bin(rc).count("1") == bin(rs).count("1")
                == bin(cs).count("1") == orbit.length):
            raise AssertionError(
                f"orbit at {orbit.representative} passed the lcm test but has "
                "repeated coordinate pairs"
            )
        orbits.append(orbit)
        rc_all.append(rc)
        rs_all.append(rs)
        cs_all.append(cs)
        lengths.append(orbit.length)
    return ValidOrbitSet(n, tuple(orbits), tuple(rc_all), tuple(rs_all),
                         tuple(cs_all), tuple(lengths))


# ----------------------------------------------------------------------
# Size bounds and candidate sizes
# ----------------------------------------------------------------------

class SizeBounds(NamedTuple):
    lower: int
    upper: int


def _lcm_pairs(z: IsotopismStructure) -> set[tuple[int, int]]:
    """Pairs (i, j) of row/column cycle lengths extendable by some symbol length."""
    pairs = set()
    syms = z.syms.support()
    for t in lcm_triple_set(z.degree):
        if t.k in syms and z.rows.count(t.i) and z.cols.count(t.j):
            pairs.add((t.i, t.j))
    return pairs


def _require_admissible(z: IsotopismStructure) -> None:
    if not is_autotopism_structure(z):
        raise ValueError(f"{z} is not the structure of any autotopism")


def size_bounds(z: IsotopismStructure) -> SizeBounds:
    """Minimal and maximal possible size of an invariant square.

    The lower bound is the shortest lcm over admissible row/column cycle
    pairs; the upper bound is the least of the three coordinate pairings'
    capacity sums (rows x cols, rows x syms, cols x syms).
    """
    _require_admissible(z)
    lower = min(lcm(i, j) for (i, j) in _lcm_pairs(z))
    sums = []
    for pi in ((1, 2, 3), (1, 3, 2), (3, 2, 1)):
        zp = z.permuted(pi)
        total = 0
        for (a, b) in _lcm_pairs(zp):
            total += zp.rows.count(a) * zp.cols.count(b) * a * b
        sums.append(total)
    return SizeBounds(lower, min(sums))


def candidate_sizes(z: IsotopismStructure) -> set[int]:
    """All sizes expressible as block-multiplier sums within the upper bound.

    Each admissible pair (i, j) contributes between 0 and
    z_rows(i) * z_cols(j) * gcd(i, j) blocks of lcm(i, j) cells; at least one
    multiplier must be positive.  Every size the census realizes lies here.
    """
    _require_admissible(z)
    upper = size_bounds(z).upper
    sums = {0}
    for (i, j) in sorted(_lcm_pairs(z)):
        unit = lcm(i, j)
        cap = z.rows.count(i) * z.cols.count(j) * gcd(i, j)
        new = set()
        for base in sums:
            for w in range(0, cap + 1):
                s = base + w * unit
                if s <= upper:
                    new.add(s)
        sums = new
    sums.discard(0)
    return sums


# ----------------------------------------------------------------------
# Census reports
# ----------------------------------------------------------------------

@dataclass
class CensusReport:
    """Per-size counts of non-empty invariant squares for one isotopism."""

    structure: IsotopismStructure
    per_size: dict[int, int]
    total: int
    elapsed: float
    node_count: int

    def count(self, size: int) -> int:
        return self.per_size.get(size, 0)

    def to_json_dict(self) -> dict:
        return {
            "structure": str(self.structure),
            "per_size": {str(k): v for k, v in sorted(self.per_size.items())},
            "total": self.total,
            "diagnostics": {"elapsed": self.elapsed, "node_count": self.node_count},
        }

    def to_csv(self) -> str:
        lines = ["size,count"]
        lines += [f"{s},{c}" for s, c in sorted(self.per_size.items())]
        lines.append(f"total,{self.total}")
        return "\n".join(lines) + "\n"


class _Budget:
    """Node and wall-clock accounting for the searches; a census node is one
    DP state expanded at one cell."""

    __slots__ = ("max_nodes", "deadline", "nodes", "_tick")

    def __init__(self, max_nodes: Optional[int], timeout_secs: Optional[float]):
        self.max_nodes = max_nodes if max_nodes is not None else _UNBOUNDED
        self.deadline = time.monotonic() + timeout_secs if timeout_secs else None
        self.nodes = 0
        self._tick = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise NodeBudgetExceededError(f"node budget {self.max_nodes} exhausted")
        self._tick += 1
        if self.deadline is not None and self._tick >= 4096:
            self._tick = 0
            if time.monotonic() > self.deadline:
                raise TimeBudgetExceededError("time budget exhausted")

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceededError("time budget exhausted")


# ----------------------------------------------------------------------
# The census: a level-by-level frontier DP over the cells
# ----------------------------------------------------------------------

def _census_levels(ovs: ValidOrbitSet, cap: int, budget: _Budget) -> dict[int, int]:
    """Per-size counts, sizes 1..cap, of the conflict-free orbit subsets."""
    N = ovs.n * ovs.n
    groups: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    for rc, rs, cs, ln in zip(ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths):
        groups[(rc & -rc).bit_length() - 1].append((rc | rs << N | cs << 2 * N, ln))
    # ahead[p]: the state bits that some orbit with least cell >= p touches
    ahead = [0] * (N + 1)
    for p in range(N - 1, -1, -1):
        ahead[p] = ahead[p + 1]
        for mask, _ in groups[p]:
            ahead[p] |= mask
    # A size polynomial sum(c_s x^s) is stored as the integer sum(c_s 2^(width s)).
    # At most one orbit per group is placed, so every coefficient stays within
    # the product below and the digits never carry into each other.
    width = prod(len(group) + 1 for group in groups).bit_length()
    window = (1 << width * (cap + 1)) - 1
    spend = budget.spend
    level = {0: 1}
    for p in range(N):
        keep = ahead[p + 1]
        moves = [(mask, ln * width) for mask, ln in groups[p]]
        if not moves and keep == ahead[p]:
            continue
        budget.check_time()
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, poly in level.items():
            spend()
            k = key & keep
            nxt[k] = get(k, 0) + poly
            for mask, shift in moves:
                if key & mask:
                    continue
                moved = (poly << shift) & window
                if moved:
                    k = (key | mask) & keep
                    nxt[k] = get(k, 0) + moved
        level = nxt
    poly = level[0]
    digit = (1 << width) - 1
    return {s: c for s in range(1, cap + 1) if (c := (poly >> width * s) & digit)}


def delta_census(t: Isotopism, *, max_size: Optional[int] = None,
                 max_nodes: Optional[int] = None,
                 timeout_secs: Optional[float] = None) -> CensusReport:
    """Count the non-empty invariant squares of t, grouped by size.

    max_size restricts the census to sizes <= max_size (the DP drops every
    partial square above it, so small caps are fast even for huge full
    censuses).  max_nodes bounds the DP states expanded; budget violations
    raise NodeBudgetExceededError / TimeBudgetExceededError.  Counts are exact.
    """
    started = time.monotonic()
    n = t.degree
    ovs = build_valid_orbits(t)
    cap = n * n if max_size is None else max(0, min(max_size, n * n))
    budget = _Budget(max_nodes, timeout_secs)
    counts = _census_levels(ovs, cap, budget)
    return CensusReport(
        structure=t.structure(),
        per_size=counts,
        total=sum(counts.values()),
        elapsed=time.monotonic() - started,
        node_count=budget.nodes,
    )


def iter_invariant_squares(t: Isotopism, max_size: Optional[int] = None
                           ) -> Iterator[frozenset]:
    """Yield the cell sets of all non-empty invariant squares, depth-first
    over the orbits in index order."""
    ovs = build_valid_orbits(t)
    cap = t.degree ** 2 if max_size is None else max_size
    rcm, rsm, csm, lns = ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths
    cells = [frozenset(o.triples) for o in ovs.orbits]

    def rec(start: int, rc: int, rs: int, cs: int, size: int,
            acc: frozenset) -> Iterator[frozenset]:
        for i in range(start, len(lns)):
            if (rc & rcm[i]) or (rs & rsm[i]) or (cs & csm[i]):
                continue
            ns = size + lns[i]
            if ns > cap:
                continue
            nxt = acc | cells[i]
            yield nxt
            yield from rec(i + 1, rc | rcm[i], rs | rsm[i], cs | csm[i], ns, nxt)

    yield from rec(0, 0, 0, 0, 0, frozenset())


# ----------------------------------------------------------------------
# Cover counting (full squares through a partial one)
# ----------------------------------------------------------------------

class CoverCounter:
    """Counts, or tests for, extensions of an orbit-subset state to a full
    cover of all n^2 cells by disjoint valid orbits.

    Shared by the full-square census and the completability machinery; memo
    tables are keyed by the three mask families, which determine the residual
    problem completely.
    """

    def __init__(self, ovs: ValidOrbitSet, budget: Optional[_Budget] = None):
        self.ovs = ovs
        n = ovs.n
        self.full = (1 << (n * n)) - 1
        self.by_cell: list[list[int]] = [[] for _ in range(n * n)]
        for idx, mask in enumerate(ovs.rc_masks):
            m = mask
            while m:
                low = m & -m
                self.by_cell[low.bit_length() - 1].append(idx)
                m ^= low
        self.budget = budget or _Budget(None, None)
        self._count_memo: dict = {}
        self._can_memo: dict = {}

    def _candidates(self, rc: int, rs: int, cs: int) -> Optional[list[int]]:
        """Compatible orbits through the most constrained uncovered cell."""
        ovs = self.ovs
        best: Optional[list[int]] = None
        remaining = self.full & ~rc
        while remaining:
            low = remaining & -remaining
            cell = low.bit_length() - 1
            remaining ^= low
            cands = [
                i for i in self.by_cell[cell]
                if not ((rc & ovs.rc_masks[i]) or (rs & ovs.rs_masks[i])
                        or (cs & ovs.cs_masks[i]))
            ]
            if best is None or len(cands) < len(best):
                best = cands
                if not cands:
                    break
        return best

    def count_from(self, rc: int, rs: int, cs: int) -> int:
        if rc == self.full:
            return 1
        key = (rc, rs, cs)
        hit = self._count_memo.get(key)
        if hit is not None:
            return hit
        self.budget.spend()
        ovs = self.ovs
        total = 0
        for i in self._candidates(rc, rs, cs):
            total += self.count_from(rc | ovs.rc_masks[i], rs | ovs.rs_masks[i],
                                     cs | ovs.cs_masks[i])
        self._count_memo[key] = total
        return total

    def can_cover(self, rc: int, rs: int, cs: int) -> bool:
        if rc == self.full:
            return True
        key = (rc, rs, cs)
        hit = self._can_memo.get(key)
        if hit is not None:
            return hit
        counted = self._count_memo.get(key)
        if counted is not None:
            result = counted > 0
            self._can_memo[key] = result
            return result
        self.budget.spend()
        ovs = self.ovs
        result = False
        for i in self._candidates(rc, rs, cs):
            if self.can_cover(rc | ovs.rc_masks[i], rs | ovs.rs_masks[i],
                              cs | ovs.cs_masks[i]):
                result = True
                break
        self._can_memo[key] = result
        return result


def delta_full(t: Isotopism, *, max_nodes: Optional[int] = None,
               timeout_secs: Optional[float] = None) -> int:
    """Number of full Latin squares invariant under t.

    Counted directly by the cover search rather than by running the whole
    census and reading off the top size.
    """
    ovs = build_valid_orbits(t)
    counter = CoverCounter(ovs, _Budget(max_nodes, timeout_secs))
    return counter.count_from(0, 0, 0)


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------

def delta_closed_row_col_ncycle(n: int, s: int) -> int:
    """Invariant-square count at size s for the structure (n, n, 1^n).

    Nonzero only at multiples of n: s = k*n gives n!^2 / (k! * (n-k)!^2).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if not 1 <= s <= n * n:
        raise ValueError(f"size must lie in [1, {n * n}]")
    if s % n:
        return 0
    k = s // n
    return factorial(n) ** 2 // (factorial(k) * factorial(n - k) ** 2)


def delta_closed_nnn(n: int, s: int) -> int:
    """Invariant-square count for the single-cycle structure (n, n, n) at
    its two smallest sizes: n^2 at s=n, and n^2(n-1)(n-2)/2 at s=2n (n > 2)."""
    if n < 1:
        raise ValueError("order must be positive")
    if s == n:
        return n * n
    if s == 2 * n:
        if n <= 2:
            raise ValueError("the 2n form needs n > 2")
        return n * n * (n - 1) * (n - 2) // 2
    raise ValueError(f"closed form only covers sizes n and 2n, got {s}")


def delta_min_size(z: IsotopismStructure) -> int:
    """Invariant-square count at the minimal size l_z, straight from the
    block-multiplier analysis (single block of one minimal-lcm pair)."""
    _require_admissible(z)
    pairs = _lcm_pairs(z)
    low = min(lcm(i, j) for (i, j) in pairs)
    triples = lcm_triple_set(z.degree)
    total = 0
    for (i, j) in pairs:
        if lcm(i, j) != low:
            continue
        sym_sum = sum(
            k * z.syms.count(k)
            for k in range(1, z.degree + 1)
            if (i, j, k) in triples and z.syms.count(k)
        )
        total += z.rows.count(i) * z.cols.count(j) * gcd(i, j) * sym_sum
    return total


def delta_size_one(z: IsotopismStructure) -> int:
    """Invariant singletons: the product of the three fixed-point counts."""
    return z.rows.count(1) * z.cols.count(1) * z.syms.count(1)


# ----------------------------------------------------------------------
# Isotopism-class slices of the census (brute force, small orders)
# ----------------------------------------------------------------------

def delta_isotopism_class(t: Isotopism, P: PartialLatinSquare,
                          max_order: int = 3) -> int:
    """Number of invariant squares of size |P| isotopic to P."""
    n = t.degree
    if n > max_order:
        raise ValueError(f"order {n} exceeds the brute-force cap {max_order}")
    if P.n != n:
        raise ValueError("degree mismatch")
    count = 0
    for cells in iter_invariant_squares(t, max_size=P.size):
        if len(cells) != P.size:
            continue
        Q = PartialLatinSquare(n, cells)
        if isotopisms_between(Q, P, max_order=max_order):
            count += 1
    return count
