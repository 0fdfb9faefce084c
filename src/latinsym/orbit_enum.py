"""Exact counting of isotopism-invariant partial Latin squares.

The key structural fact: an invariant square is the union of whole triple
orbits, and an orbit can appear in an invariant square exactly when its three
containing cycle lengths (i, j, k) satisfy the pairwise-lcm condition.  Such
an orbit is itself a valid square, so counting invariant squares of each size
reduces to counting conflict-free subsets of "valid" orbits, where two orbits
conflict when they share a (row,col), (row,sym), or (col,sym) pair.

The census and the full count are one forward frontier DP over the n^2
cells in row-major order (_levels).  Each valid orbit is grouped under its
least cell, so a group places at most one orbit.  A level maps a state, one
packed integer rc | rs << n^2 | cs << 2n^2 of the three conflict masks cut
down to the bits that orbits ahead can still touch, to a value.  At each
cell a state that covers the cell passes it; any other either leaves it
blank or places one compatible orbit of the cell's group.  Only two levels
are alive at a time, and the cost grows with the number of distinct states,
not with the number of squares counted.  The two modes differ only in what
they set up before the loop:

- the census: a value is the size polynomial of the partial squares decided
  so far, and placing an orbit shifts it by the orbit's length;
- the full count: a value is a plain count, no cell may be left blank, and
  the state also keeps the bits of the cells ahead.  delta_full and
  count_completions go through it.  Read back from its kept levels, its live
  states, those on some full cover, and their moves (_cover_steps) give the
  completability census by the subset construction (_completable_counts)
  and the bases by a depth-first walk (_projected_covers).

At a row boundary that no valid orbit crosses, states that a relabelling
of the columns and the symbols commuting with beta and gamma relates are
merged (_row_merge), unless the count keeps its levels: fixed points
permuted, cycles turned, cycles of one length swapped.  A count from
placed orbits relabels only the cycles whose columns and symbols they
leave unused.  The uncapped census of 1^4 then expands 6,283 states, where
it expanded 366,614, and at the four boundaries of 1^5 the merge leaves 6,
290, 4,908 and 19,286 states of 1,546, 5,961, 109,905 and 600,410.  The
completions of one cell under the identity take about 0.02 s at order 6
(135,475,200) and about 1.5 s at order 7 (8,782,774,272,000 = |LS_7|/7);
unmerged, the first took 17 s and the second stopped at the ceiling at
cell 14.  The full count of 2^3,2^3,2^3 expands 2,184 states, 15,562 when
only fixed points merged.

Every table a search keeps, the level being read beside the one being built
included, is charged to its budget (Budget.held); one that would take the
charge past _MAX_LEVEL_BYTES aborts with StateBudgetExceededError.
CoverCounter, a memoized exact-cover search on the same packed states, only
decides whether a cover exists, where its early exit beats a full DP pass.

build_valid_orbits keeps the valid orbits of the last isotopism it built,
so the one question per square that completion asks under one isotopism
builds them once.  That set stays alive between calls and is charged to no
budget, since it exists before any search starts: 1.6 MiB for the identity
of order 17 and 23.5 MiB for order 34.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, cycle, filterfalse
from math import factorial, gcd, lcm, prod
from operator import lshift
from typing import Iterator, NamedTuple, Optional

from .budget import (  # the searches' errors, importable from here too
    Budget,
    NodeBudgetExceededError,
    StateBudgetExceededError,
    TimeBudgetExceededError,
)
from .perm_algebra import IsotopismStructure, is_autotopism_structure, lcm_triple_set
from .pls_core import Isotopism, TripleOrbit, triple_orbits

# Most bytes one search's tables may hold together (Budget.held): the DP
# level being read and the one being built, the kept levels and live steps
# of the full count, the two levels of sets of the completability census,
# and the cover memo.  Each entry is charged _ENTRY_BYTES, one cost for
# four kinds that tracemalloc measured at 64 to 112 bytes: a DP state's
# key, value header and dict entry 66 to 92 (full counts of orders 5 and 6,
# censuses of 1^4 and 1^5), a live state's list about 65, a move 64 to 96,
# a set's dict entry and int headers 88 to 112.  A size polynomial or a set
# adds its digits, the polynomial's over the sizes it can have reached
# (_entry_costs).  The uncapped 1^5 census then charges at most 318.4 MiB,
# at cell 19 with 591,816 states read and 600,410 built, and peaks at about
# 291 MiB.  census --z 2^3,2^3,2^3 stopped at cell 16 at 318 MiB while only
# fixed points merged (433 MiB when only the level being built was
# charged); merged under its cycles too, it finishes at a 29 MB peak.
_MAX_LEVEL_BYTES = 320 << 20
_ENTRY_BYTES = 100


def _overflow(budget: Budget, what: str) -> StateBudgetExceededError:
    """The error for a table, said by what, that would take budget.held
    past _MAX_LEVEL_BYTES."""
    return StateBudgetExceededError(
        f"{what} beside {budget.held} bytes held, over the ceiling of {_MAX_LEVEL_BYTES}")


# ----------------------------------------------------------------------
# Valid orbits and masks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ValidOrbitSet:
    """The valid orbits of an isotopism plus the data for conflict testing.

    Masks are integers over n^2 bits; bit (a-1)*n + (b-1) stands for the
    coordinate pair (a, b) of the respective family.  masks[i] packs the
    three families of orbit i into one integer, rc | rs << n^2 | cs << 2n^2,
    so a set of orbits is one integer and a conflict test is one AND; the
    mask of family k (0 rc, 1 rs, 2 cs) is masks[i] >> k n^2 & (2^(n^2) - 1).
    The orbits come in the order of triple_orbits, so by least cell.
    For the row merges (_row_merge): uncrossed holds r*n for every row
    boundary r that no orbit crosses, and col_cycles and sym_cycles are the
    cycles of beta and gamma, fixed points included (Permutation.cycles).
    """

    n: int
    orbits: tuple[TripleOrbit, ...]
    lengths: tuple[int, ...]
    masks: tuple[int, ...]
    uncrossed: frozenset[int]
    col_cycles: tuple[tuple[int, ...], ...]
    sym_cycles: tuple[tuple[int, ...], ...]

    def conflict(self, a: int, b: int) -> bool:
        """Whether orbits a and b cannot coexist in one invariant square."""
        return bool(self.masks[a] & self.masks[b])

    def __len__(self) -> int:
        return len(self.orbits)


def _pack(N: int, rc: int, rs: int, cs: int) -> int:
    return rc | rs << N | cs << 2 * N


@lru_cache(maxsize=1)
def build_valid_orbits(t: Isotopism) -> ValidOrbitSet:
    """Filter the triple orbits of t down to those that can occur in an
    invariant square, with their conflict masks.

    Validity is decided arithmetically by the (i,j,k) lcm condition on the
    containing cycle lengths; as a cross-check, each kept orbit must have as
    many distinct pairs in every coordinate family as it has cells.

    The set of the last isotopism asked for is kept, and an equal isotopism
    gets that same instance back: callers such as count_completions ask
    once per square, usually about one isotopism.  The cost is that set,
    alive between calls and outside every search budget: tracemalloc
    measured 1.6 MiB for the identity of order 17 and 23.5 MiB for order 34.
    """
    n = t.degree
    N = n * n
    admissible = lcm_triple_set(n)
    rows, cols, syms = (p.cycles() for p in t.components)
    row_len = {pt: len(c) for c in rows for pt in c}
    col_len = {pt: len(c) for c in cols for pt in c}
    sym_len = {pt: len(c) for c in syms for pt in c}
    # an orbit's rows are a cycle of alpha; bit r: it crosses above row r (0-based)
    crosses = {pt: (1 << max(c)) - (1 << min(c)) for c in rows for pt in c}
    crossed = 0
    orbits, lengths, packed = [], [], []
    for orbit in triple_orbits(t):
        triples = orbit.triples
        r0, c0, s0 = triples[0]
        if (row_len[r0], col_len[c0], sym_len[s0]) not in admissible:
            continue
        rc = rs = cs = 0
        for (r, c, s) in triples:  # pair (a, b) is bit (a-1)n + b-1
            row, col = (r - 1) * n - 1, (c - 1) * n - 1
            rc |= 1 << row + c
            rs |= 1 << row + s
            cs |= 1 << col + s
        length = len(triples)
        if not rc.bit_count() == rs.bit_count() == cs.bit_count() == length:
            raise AssertionError(
                f"orbit at {orbit.representative} passed the lcm test but has "
                "repeated coordinate pairs"
            )
        orbits.append(orbit)
        lengths.append(length)
        packed.append(_pack(N, rc, rs, cs))
        crossed |= crosses[r0]
    uncrossed = frozenset(r * n for r in range(1, n) if not crossed >> r & 1)
    return ValidOrbitSet(n, tuple(orbits), tuple(lengths), tuple(packed), uncrossed, cols, syms)


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
        sums.append(sum(zp.rows.count(a) * zp.cols.count(b) * a * b
                        for (a, b) in _lcm_pairs(zp)))
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
        sums = {s for base in sums for w in range(cap + 1)
                if (s := base + w * unit) <= upper}
    sums.discard(0)
    return sums


# ----------------------------------------------------------------------
# Census reports
# ----------------------------------------------------------------------

@dataclass
class CensusReport:
    """Per-size counts of non-empty invariant squares for one isotopism;
    node_count is the search nodes that the call that made it charged to
    its budget, also when other searches share that budget."""

    structure: IsotopismStructure
    per_size: dict[int, int]
    total: int
    node_count: int

    def count(self, size: int) -> int:
        return self.per_size.get(size, 0)


# ----------------------------------------------------------------------
# The census and the full count: a level-by-level frontier DP over the cells
# ----------------------------------------------------------------------

def _orbit_groups(ovs: ValidOrbitSet, pre: int
                  ) -> tuple[list[list[int]], list[int]]:
    """The indices of the valid orbits that do not conflict with the packed
    state pre, grouped under their least cell in index order, and ahead[p]:
    the state bits that some grouped orbit with least cell >= p touches."""
    N = ovs.n * ovs.n
    groups: list[list[int]] = [[] for _ in range(N)]
    for i, mask in enumerate(ovs.masks):
        if not mask & pre:
            groups[(mask & -mask).bit_length() - 1].append(i)
    ahead = [0] * (N + 1)
    for p in range(N - 1, -1, -1):
        ahead[p] = ahead[p + 1]
        for i in groups[p]:
            ahead[p] |= ovs.masks[i]
    return groups, ahead


def _sort_lanes(level, shifts, width, clear, moved, still) -> None:
    """A pass of a family of _row_merge without cycles over level: each
    key's lanes sorted, the largest to the most significant place."""
    get, get_still = moved.get, still.get
    for key, value in level.items():
        lanes = [key >> sh & width for sh in shifts]
        ordered = sorted(lanes)
        if lanes == ordered:
            still[key] = get_still(key, 0) + value
        else:
            key = key & clear | sum(map(lshift, ordered, shifts))
            moved[key] = get(key, 0) + value


def _turn_cycles(level, points, width, clear, groups, moved, still) -> None:
    """A pass of a family of _row_merge with cycles over level: in each key
    the fixed points' lanes sorted; each cycle turned to bring its first
    largest lane to its most significant point, and the cycles of one
    length sorted by their turned lanes, where that raises their bits."""
    get, get_still = moved.get, still.get
    for key, value in level.items():
        new = key
        if points:
            lanes = [key >> sh & width for sh in points]
            ordered = sorted(lanes)
            if lanes != ordered:
                new = key & clear | sum(map(lshift, ordered, points))
        for cycles, bits in groups:
            turned, changed = [], False
            for shifts in cycles:
                if len(shifts) == 2:
                    a, b = key >> shifts[0] & width, key >> shifts[1] & width
                    if a < b:
                        a, b, changed = b, a, True
                    turned.append([a, b])
                else:
                    lanes = [key >> sh & width for sh in shifts]
                    top = lanes.index(max(lanes))
                    if top:
                        lanes, changed = lanes[top:] + lanes[:top], True
                    turned.append(lanes)
            if len(turned) > 1:
                ordered = sorted(turned)
                if ordered != turned:
                    turned, changed = ordered, True
            if changed:
                part = 0
                for shifts, lanes in zip(cycles, turned):
                    part |= sum(map(lshift, lanes, shifts))
                if part > key & bits:
                    new = new & ~bits | part
        if new == key:
            still[key] = get_still(key, 0) + value
        else:
            moved[new] = get(new, 0) + value


def _row_merge(ovs: ValidOrbitSet, pre: int):
    """(cells, merge) for merging the states of a DP from the packed state
    pre under relabellings that commute with t: the DP replaces its level
    with merge(level) before each cell in cells, ovs.uncrossed.

    There an orbit placed in the rows before touches no later row, so a
    state's bits are column-symbol pairs and pre's pairs in the rows ahead.
    A relabelling sigma = (id, delta, epsilon), delta in the centralizer of
    beta and epsilon in that of gamma, commutes with t, fixes every row and
    maps valid orbits to valid orbits of the same length.  If delta fixes
    every column that some pair of pre holds and epsilon every such symbol,
    sigma fixes pre's three masks and maps the orbits that
    _orbit_groups(ovs, pre) keeps, those compatible with pre, onto
    themselves.  So it maps the fillings of the rows ahead one-to-one and
    keeps their sizes, and states it relates may share one entry.  Fixing
    only the columns of pre's cells in the rows ahead is not enough:
    _orbit_groups drops every orbit that conflicts with pre in any row, so
    the keys no longer carry the bits that tell such columns apart.  That
    rule got 120 of the 216 single cells of orders 3 to 5 wrong.

    On a state sigma moves only the lanes of the cs matrix: a column's lane
    is its n bits, a symbol's its bit in every column.  The columns and the
    symbols are the two families of moves, each over its cycles that pre
    leaves unused: fixed points permuted, a cycle turned by a power of beta
    (gamma), two cycles of one length swapped point by point.  A family
    brings a key to a canonical form (_sort_lanes without cycles, else
    _turn_cycles), and a move must raise the key as an integer: a sort of
    fixed points always does, and _turn_cycles leaves the cycles of one
    length in place where their form would not.  So a key moves finitely
    often, and a family leaves a key in its form in place.  A family
    without two free fixed points or a longer free cycle is left out.

    merge(level) moves one family at a time over the whole level, one
    without cycles first, so that cycles turn in a level already merged.
    The first pass moves every key and, with two families, passes all of
    them on; each later pass moves the other family (the same one when
    there is one) in the keys passed on, keeps those it leaves in place and
    passes on those it moves.  Keys a pass brings to one key share one
    entry, their values added.  The result is that of moving each key on
    its own: where a key goes depends only on the key and on the family
    next, so keys equal after the same pass go the same way from there.  It
    may miss a merge, which costs only speed; a level of fewer than two
    states is left as it is.
    """
    n = ovs.n
    N = n * n
    cells = ovs.uncrossed
    if not cells:
        return (), None
    lane = (1 << n) - 1
    used_cols = used_syms = 0  # bit c-1 (s-1): some pair of pre holds column c (symbol s)
    for r in range(n if pre else 0):
        used_cols |= pre >> r * n & lane
        used_syms |= pre >> N + r * n & lane
    spread = ((1 << N) - 1) // lane << 2 * N  # one bit per column: sum of 2^(c n)
    fixed, turned = [], []  # the families without cycles pass first
    for cycles, used, base, step, width in ((ovs.col_cycles, used_cols, 2 * N, n, lane),
                                            (ovs.sym_cycles, used_syms, 0, 1, spread)):
        by_length: dict[int, list] = {}  # the free cycles' lane shifts, from the greatest point
        for c in cycles:
            if not (used and any(used >> p - 1 & 1 for p in c)):
                top = c.index(max(c))
                by_length.setdefault(len(c), []).append(
                    [base + (p - 1) * step for p in c[top:] + c[:top]])
        points = sum(by_length.pop(1, []), [])
        if len(points) < 2:
            points = []
        clear = ~sum([width << sh for sh in points])
        if by_length:
            groups = [(sorted(cycles), sum(width << sh for c in cycles for sh in c))
                      for cycles in by_length.values()]
            turned.append((_turn_cycles, (points, width, clear, groups)))
        elif points:
            fixed.append((_sort_lanes, (points, width, clear)))
    families = fixed + turned
    if not families:
        return (), None

    def merge(level: dict[int, int]) -> dict[int, int]:
        if len(level) < 2:
            return level
        out: dict[int, int] = {}
        for i, (canon, args) in enumerate(cycle(families)):
            moved: dict[int, int] = {}
            # a key the first pass leaves in place may still move in the other family
            canon(level, *args, moved, moved if i == 0 and len(families) == 2 else out)
            if not moved:
                return out
            level = moved

    return cells, merge


def _poly_width(groups) -> int:
    """Digit width of the size polynomials over orbit groups: sum(c_s x^s)
    is stored as the integer sum(c_s 2^(width s)).  A family holding at most
    one orbit per group has at most prod(len(group) + 1) members, so the
    digits never carry into each other."""
    return prod(len(group) + 1 for group in groups).bit_length()


def _digit_bytes(bits: int) -> int:
    return (bits + 29) // 30 * 4  # CPython keeps 30 bits in 4 bytes


def _entry_costs(groups, lengths, width: int, cap: int) -> list[int]:
    """The bytes per entry of a level before each group and after the last:
    _ENTRY_BYTES and the digits of a size polynomial over the sizes it can
    have reached, each earlier group's longest orbit summed, capped at cap."""
    longest = [max(map(lengths.__getitem__, group)) if group else 0 for group in groups]
    return [_ENTRY_BYTES + _digit_bytes(width * (min(cap, r) + 1))
            for r in accumulate(longest, initial=0)]


def _size_counts(poly: int, width: int) -> dict[int, int]:
    """The non-zero coefficients of a packed size polynomial, sizes >= 1:
    size 0 is the empty square, which no count reports."""
    digit = (1 << width) - 1
    return {s: c for s in range(1, poly.bit_length() // width + 1)
            if (c := (poly >> width * s) & digit)}


def _levels(ovs: ValidOrbitSet, pre: int, budget: Budget,
            cap: Optional[int] = None, trail: Optional[list] = None):
    """The frontier DP of this module from the packed state pre.  With cap,
    the census: values are size polynomials cut at size cap, and the result
    is the per-size counts of sizes 1..cap.  Without, the full count: the
    number of full covers extending pre.  If trail is a list, (group, keep,
    level) is appended to it for every cell, level being the states before
    the cell, and the kept levels stay in budget.held."""
    N = ovs.n * ovs.n
    groups, ahead = _orbit_groups(ovs, pre)
    if cap is None:
        # An orbit placed at its least cell can cover a later cell that no
        # orbit ahead touches, so a state keeps the bits of the cells ahead.
        cells = (1 << N) - 1
        ahead = [a | cells >> p << p for p, a in enumerate(ahead)]
        kind, width, window, blank = "full-count", 0, -1, []
    else:
        width = _poly_width(groups)
        window = (1 << width * (cap + 1)) - 1
        kind, blank = "census", [(0, 0)]
    cost = _entry_costs(groups, ovs.lengths, width, cap or 0)
    spend = budget.spend
    base = budget.held  # the caller's tables, and the levels kept in trail
    # _cover_steps recomputes the successors of each kept state, which a
    # merge would relabel; a merge from pre fixes pre's columns and symbols
    merge_at, merge = _row_merge(ovs, pre) if trail is None else ((), None)
    try:
        level = {pre & ahead[0]: 1}
        for p in range(N):
            if p in merge_at:
                level = merge(level)
            keep = ahead[p + 1]
            group = groups[p]
            # only the census skips a cell: a full count's ahead[p] holds bit p
            if not group and keep == ahead[p]:
                continue
            bit = 1 << p
            moves = blank + [(ovs.masks[i], ovs.lengths[i] * width) for i in group]
            budget.held = base + len(level) * cost[p]  # the level being read
            if trail is not None:
                trail.append((group, keep, level))
                base = budget.held
            budget.check_time()
            limit = (_MAX_LEVEL_BYTES - budget.held) // cost[p + 1]
            # each state makes at most 1 + len(group) successors
            watch = len(level) * (1 + len(group)) > limit
            nxt: dict[int, int] = {}
            get = nxt.get
            for key, value in level.items():
                spend()
                if key & bit:
                    # cell p is covered, so every orbit of its group conflicts
                    k = key & keep
                    nxt[k] = get(k, 0) + value
                else:
                    for mask, shift in moves:
                        if not key & mask:
                            # unshifted: a blank or a full-count move
                            moved = value << shift & window if shift else value
                            if moved:
                                k = (key | mask) & keep
                                nxt[k] = get(k, 0) + moved
                if watch and len(nxt) > limit:
                    raise _overflow(budget, f"{kind} level at cell {p} holds {len(nxt)} states")
            level = nxt
            if not level:
                break
    finally:  # an abort frees the levels too
        budget.held = base
    value = level.get(0, 0)
    return value if cap is None else _size_counts(value, width)


def delta_census(t: Isotopism, *, max_size: Optional[int] = None,
                 budget: Optional[Budget] = None) -> CensusReport:
    """Count the non-empty invariant squares of t, grouped by size.

    max_size restricts the census to sizes <= max_size (the DP drops every
    partial square above it, so small caps are fast even for huge full
    censuses).  The DP states expanded are charged to budget, and
    node_count is what this call charged; budget violations raise
    NodeBudgetExceededError / TimeBudgetExceededError.  Counts are exact.
    """
    budget = budget or Budget()
    spent = budget.nodes
    n = t.degree
    ovs = build_valid_orbits(t)
    cap = n * n if max_size is None else max(0, min(max_size, n * n))
    counts = _levels(ovs, 0, budget, cap)
    return CensusReport(
        structure=t.structure(),
        per_size=counts,
        total=sum(counts.values()),
        node_count=budget.nodes - spent,
    )


def delta_full(t: Isotopism, *, budget: Optional[Budget] = None) -> int:
    """Number of full Latin squares invariant under t.

    Counted by the frontier DP's full count rather than by running the
    whole census and reading off the top size.  The DP states expanded
    are charged to budget.
    """
    return _levels(build_valid_orbits(t), 0, budget or Budget())


# ----------------------------------------------------------------------
# The live states of the full count, and two walks over them
# ----------------------------------------------------------------------

def _cover_steps(ovs: ValidOrbitSet, budget: Budget):
    """(the number of full covers, steps): the moves between the live states
    of the full count, those that some full cover passes through.

    The full count keeps its levels; a backward pass from the final state 0
    keeps and numbers, in level order, the states that reach it.  steps
    holds (group, moves) per cell p, group being the orbits with least cell
    p and moves[k] the pairs (j, b) of live state k before p: j the position
    in group of the orbit placed, or -1 for a pass, and b the successor's
    number.  A cell where every state passes to its own number is left out,
    and steps is empty without a full cover.  State 0 is number 0 at both
    ends.  Each live state and move is charged _ENTRY_BYTES as a level is read."""
    trail: list = []
    found = _levels(ovs, 0, budget, trail=trail)
    if not found:  # the DP stopped at an empty level; the trail is cut short
        return 0, []
    live, steps = {0: 0}, []
    for p in range(len(trail) - 1, -1, -1):
        group, keep, level = trail.pop()
        budget.check_time()
        masks = [ovs.masks[i] for i in group]
        here: dict[int, int] = {}
        moves = []
        for key in level:
            budget.spend()
            if key >> p & 1:
                out = [(-1, live[key & keep])] if key & keep in live else []
            else:
                out = [(j, live[k]) for j, mask in enumerate(masks)
                       if not key & mask and (k := (key | mask) & keep) in live]
            if out:
                here[key] = len(moves)
                moves.append(out)
        size = _ENTRY_BYTES * (len(moves) + sum(map(len, moves)))
        if budget.held + size > _MAX_LEVEL_BYTES:
            raise _overflow(budget, f"live steps at cell {p} take {size} bytes")
        budget.held += size - len(level) * _ENTRY_BYTES
        if any(out != [(-1, k)] for k, out in enumerate(moves)):
            steps.append((group, moves))
        live = here
    steps.reverse()
    return found, steps


def _completable_counts(ovs: ValidOrbitSet, steps, budget: Budget
                        ) -> dict[int, int]:
    """Number of non-empty squares by size that some full cover extends,
    steps being the live moves of ovs.

    The subset construction (Rabin and Scott, 1959) over the moves: a square
    decides at each cell whether to place an orbit of its group, and its
    state is the bitset of live states that the covers extending it can be
    in.  Left blank, the set takes every move of its members; placing orbit
    j, the j-moves, and the value, the size polynomial, shifts by the
    orbit's length.  An empty set is dropped.  A square makes one path, so
    the value of the final set {0} counts each completable square once."""
    # a completable square holds no orbit of a group that steps leaves out
    groups = [group for group, _ in steps]
    width = _poly_width(groups)
    # a set is charged as a census state, and its bitset's digits beside:
    # one bit per live state before the cell, one for the final set {0}
    entry = _entry_costs(groups, ovs.lengths, width, ovs.n * ovs.n)
    bits = [len(moves) for _, moves in steps] + [1]
    cost = [c + _digit_bytes(b) for c, b in zip(entry, bits)]
    base, level = budget.held, {1: 1}
    try:
        for p, (group, moves) in enumerate(steps):
            budget.held = base + len(level) * cost[p]
            budget.check_time()
            shifts = [ovs.lengths[i] * width for i in group]
            limit = (_MAX_LEVEL_BYTES - budget.held) // cost[p + 1]
            nxt: dict[int, int] = {}
            get = nxt.get
            for members, value in level.items():
                budget.spend()
                blank = 0
                placed = [0] * len(group)
                text = bin(members)[:1:-1]  # bit k of members is text[k]
                k = text.find("1")
                while k >= 0:
                    for j, b in moves[k]:
                        blank |= 1 << b
                        if j >= 0:
                            placed[j] |= 1 << b
                    k = text.find("1", k + 1)
                nxt[blank] = get(blank, 0) + value
                for j, got in enumerate(placed):
                    if got:
                        nxt[got] = get(got, 0) + (value << shifts[j])
                if len(nxt) > limit:
                    raise _overflow(
                        budget, f"completability level at cell {p} holds {len(nxt)} sets")
            level = nxt
    finally:
        budget.held = base
    return _size_counts(level.get(1, 0), width)


def _projected_covers(steps, inside: list[bool], budget: Budget
                      ) -> Iterator[tuple[list[int], int]]:
    """(orbits, covers) for each set of orbits i with inside[i] that some
    full cover of steps holds, orbits in increasing order, and the number
    of full covers holding it; the sets come in lexicographic order, a set
    before its own prefixes.

    A depth-first walk on an explicit stack, whose state maps live states to
    the number of partial covers in them.  At each cell it branches: placing
    each inside orbit of the group in turn, then leaving them all out, which
    takes the passes and the outside orbits.  An empty branch is dropped."""
    stack = [(0, {0: 1}, ())]
    while stack:
        p, counts, chosen = stack.pop()
        if p == len(steps):
            yield list(chosen), counts[0]
            continue
        budget.spend()
        group, moves = steps[p]
        blank = len(group)
        branches: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for k, c in counts.items():
            for j, b in moves[k]:
                branch = branches[j if j >= 0 and inside[group[j]] else blank]
                branch[b] = branch.get(b, 0) + c
        # popped in turn: the inside orbits in increasing order, then blank
        for j in sorted(branches, reverse=True):
            stack.append((p + 1, branches[j],
                          chosen if j == blank else chosen + (group[j],)))


# ----------------------------------------------------------------------
# The cover search: does a partial square extend to a full one?
# ----------------------------------------------------------------------

class CoverCounter:
    """Decides whether an orbit-subset state extends to a full cover of all
    n^2 cells by disjoint valid orbits.

    A state is the packed integer rc | rs << n^2 | cs << 2n^2 of the orbits
    placed so far (ValidOrbitSet.masks), which determines the residual
    problem completely.  covers() is a memoized exact-cover search keyed on
    it that stops at the first cover found; each step branches on the
    compatible orbits through the uncovered cell with fewest of them, taking
    the first cell with at most one.  Each memo entry adds _ENTRY_BYTES to
    budget.held, which _MAX_LEVEL_BYTES caps.  count_from() is the frontier
    DP's full count (_levels) from the same state and on the same budget,
    whose nodes are the search states and DP states expanded.
    """

    def __init__(self, ovs: ValidOrbitSet, budget: Optional[Budget] = None):
        self.ovs = ovs
        N = ovs.n * ovs.n
        self.cells = (1 << N) - 1
        self.full = (1 << 3 * N) - 1
        # by_cell[c]: the packed masks of the orbits covering cell c
        by_cell: list[list[int]] = [[] for _ in range(N)]
        for mask in ovs.masks:
            m = mask & self.cells
            while m:
                low = m & -m
                by_cell[low.bit_length() - 1].append(mask)
                m ^= low
        self.by_cell = by_cell
        self.budget = budget or Budget()
        self._can_memo: dict[int, bool] = {}

    def _candidates(self, key: int) -> list[int]:
        """Masks of the compatible orbits through the most constrained
        uncovered cell of a state that is not yet full."""
        by_cell = self.by_cell
        best: Optional[list[int]] = None
        remaining = self.cells & ~key
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            cands = [*filterfalse(key.__and__, by_cell[low.bit_length() - 1])]
            if best is None or len(cands) < len(best):
                best = cands
                if len(cands) <= 1:
                    break
        return best

    def covers(self, key: int) -> bool:
        """Whether some full cover extends the packed state key.

        A depth-first search on an explicit stack of (state, candidates
        left), so the depth, up to one level per orbit placed, is not
        bounded by the interpreter's recursion limit."""
        memo, full, spend = self._can_memo, self.full, self.budget.spend
        hit = True if key == full else memo.get(key)
        if hit is not None:
            return hit
        spend()
        stack = [(key, iter(self._candidates(key)))]
        while stack:
            key, candidates = stack[-1]
            for mask in candidates:
                child = key | mask
                hit = True if child == full else memo.get(child)
                if hit is None:
                    spend()
                    stack.append((child, iter(self._candidates(child))))
                    break
                if hit:
                    # a cover below a state decides it, innermost first
                    for key, _ in reversed(stack):
                        self._remember(key, True)
                    return True
            else:
                self._remember(key, False)
                stack.pop()
        return False

    def _remember(self, key: int, result: bool) -> None:
        memo, budget = self._can_memo, self.budget
        # checked on insert: the memo grows as the search returns
        if budget.held + _ENTRY_BYTES > _MAX_LEVEL_BYTES:
            raise _overflow(budget, f"cover memo holds {len(memo)} entries")
        budget.held += _ENTRY_BYTES
        memo[key] = result

    def count_from(self, rc: int, rs: int, cs: int) -> int:
        """Number of full covers extending the state of three mask families."""
        return _levels(self.ovs, _pack(self.ovs.n * self.ovs.n, rc, rs, cs), self.budget)


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
# Centralizer orders
# ----------------------------------------------------------------------

def _centralizer_order(z: IsotopismStructure) -> int:
    """|C(t)| for t of structure z: the product, over the three components,
    of j^m * m! for each length j that has m cycles."""
    return prod(j ** m * factorial(m)
                for cs in z.components for j, m in enumerate(cs.counts, start=1))
