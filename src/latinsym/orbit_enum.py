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
are alive at a time, the cost grows with the number of distinct states, not
with the number of squares counted, and a level that would outgrow
_MAX_LEVEL_BYTES aborts with StateBudgetExceededError.  The two modes differ
only in what they set up before the loop:

- the census: a value is the size polynomial of the partial squares decided
  so far, and placing an orbit shifts it by the orbit's length;
- the full count: a value is a plain count, no cell may be left blank, and
  the state also keeps the bits of the cells ahead.  delta_full,
  count_completions and the basis counts go through it; keeping its every
  level gives the family of full covers as a ZDD over the valid orbits
  (_full_zdd), whose down-closure is the completability census and whose
  projection onto the orbits inside an invariant shape is that shape's basis.

At a row boundary that no valid orbit crosses, a state is a column-symbol
mask only, and states that a relabelling of the fixed columns of beta and
the fixed symbols of gamma maps onto each other have equally many fillings
of each size ahead; such states are merged into one (_row_merge), unless the
count starts from placed orbits, whose later rows break the symmetry, or
keeps its levels for the ZDD, which needs every state apart.  The uncapped
census of 1^4 then expands 6,283 states, where it expanded 366,614, and at
the four boundaries of 1^5 the merge leaves 6, 290, 4,908 and 19,286 states
of 1,546, 5,961, 109,905 and 600,410, so that census finishes.
CoverCounter, a memoized exact-cover search on the same packed states, only
decides whether a cover exists, where its early exit beats a full DP pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import filterfalse
from math import factorial, gcd, lcm, prod
from typing import Iterator, NamedTuple, Optional

from .budget import (  # the searches' errors, importable from here too
    NodeBudgetExceededError,
    StateBudgetExceededError,
    TimeBudgetExceededError,
    _Budget,
)
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

# Most bytes the DP level being built, the cover search's memo, or the ZDD
# with the levels it keeps may take.  It bounds that table, not the process:
# the level being read lives beside the one being built, so census --z
# 2^3,2^3,2^3, which aborts at cell 16 with 1,001,625 states, peaks at
# 434 MB.  A state costs about _STATE_BYTES of key and dict entry plus, in
# the census, its size polynomial; the state ceiling is this divided by that
# estimate: 1.86 million states for the largest census in the tables
# (1^4,1^4,1^4 uncapped, whose largest level holds 4,284), 1.08 million for
# an uncapped census at order 5 (1^5's largest level holds 600,410; the
# process peaks at about 310 MB), and 3.36 million for plain-count values.  A
# ZDD node or memo entry measured 90 to 100 bytes by tracemalloc and about
# 112 of RSS (1^5 stops at 2.1 million entries and 255 MB); the margin covers
# the size polynomials of the final count.
_MAX_LEVEL_BYTES = 320 << 20
_STATE_BYTES = 100
_ZDD_ENTRY_BYTES = 150


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
    """

    n: int
    orbits: tuple[TripleOrbit, ...]
    lengths: tuple[int, ...]
    masks: tuple[int, ...]
    fixed_cols: tuple[int, ...]  # the fixed points of beta
    fixed_syms: tuple[int, ...]  # the fixed points of gamma

    def pack(self, rc: int, rs: int, cs: int) -> int:
        """The packed state of three mask families."""
        return _pack(self.n * self.n, rc, rs, cs)

    def conflict(self, a: int, b: int) -> bool:
        """Whether orbits a and b cannot coexist in one invariant square."""
        return bool(self.masks[a] & self.masks[b])

    def __len__(self) -> int:
        return len(self.orbits)


def _pack(N: int, rc: int, rs: int, cs: int) -> int:
    return rc | rs << N | cs << 2 * N


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
    N = n * n
    admissible = lcm_triple_set(n)
    row_len = {pt: len(c) for c in t.alpha.cycles() for pt in c}
    col_len = {pt: len(c) for c in t.beta.cycles() for pt in c}
    sym_len = {pt: len(c) for c in t.gamma.cycles() for pt in c}
    orbits, lengths, packed = [], [], []
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
        lengths.append(orbit.length)
        packed.append(_pack(N, rc, rs, cs))
    return ValidOrbitSet(n, tuple(orbits), tuple(lengths), tuple(packed),
                         t.beta.fixed_points(), t.gamma.fixed_points())


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


def _row_merge(ovs: ValidOrbitSet):
    """(cells, canon) for merging DP states under fixed-point relabellings:
    the DP merges its level with canon before each cell in cells.

    cells holds r*n for every row boundary r that no valid orbit crosses,
    and is empty when no two fixed columns or fixed symbols can be swapped.
    There no placed orbit touches a later row, so a state's bits are column-
    symbol pairs only.  A relabelling (id, delta, epsilon), delta permuting
    the fixed columns of beta and epsilon the fixed symbols of gamma,
    commutes with t, fixes every row and maps valid orbits to valid orbits
    of the same length; so it maps the fillings of the rows ahead one-to-one
    and keeps their sizes, and states it relates may share one entry.

    canon(key) applies such a relabelling: it sorts the fixed column lanes
    of the cs matrix, then its fixed symbol lanes, until neither changes.
    Both sorts raise sum(m[c][s] 2^(c+s)) whenever they move a lane, so the
    loop ends.  It may miss a merge, which costs only speed.
    """
    n = ovs.n
    N = n * n
    fc = [2 * N + (c - 1) * n for c in ovs.fixed_cols]  # column lane shifts
    fs = [s - 1 for s in ovs.fixed_syms]  # symbol lane shifts
    if len(fc) < 2 and len(fs) < 2:
        return (), None
    crossed = 0
    for mask in ovs.masks:
        rc = mask & ((1 << N) - 1)
        first, last = ((rc & -rc).bit_length() - 1) // n, (rc.bit_length() - 1) // n
        crossed |= (1 << last + 1) - (2 << first)  # boundaries first+1..last
    cells = {r * n for r in range(1, n) if not crossed >> r & 1}
    lane = (1 << n) - 1
    spread = sum(1 << 2 * N + c * n for c in range(n))  # one bit per column
    col_clear = ~sum(lane << sh for sh in fc)
    sym_clear = ~sum(spread << sh for sh in fs)
    memo: dict[int, int] = {}

    def canon(key: int) -> int:
        got = memo.get(key)
        if got is None:
            got, old = key, -1
            while got != old:
                old = got
                for shifts, width, clear in ((fc, lane, col_clear),
                                             (fs, spread, sym_clear)):
                    lanes = sorted([got >> sh & width for sh in shifts])
                    got &= clear
                    for sh, v in zip(shifts, lanes):
                        got |= v << sh
            memo[key] = got
        return got

    return cells, canon


def _merged(level: dict[int, int], canon) -> dict[int, int]:
    """level with each state brought to canon(state), values added."""
    out: dict[int, int] = {}
    get = out.get
    for key, value in level.items():
        k = canon(key)
        out[k] = get(k, 0) + value
    return out


def _poly_width(groups) -> int:
    """Digit width of the size polynomials over orbit groups: sum(c_s x^s)
    is stored as the integer sum(c_s 2^(width s)).  A family holding at most
    one orbit per group has at most prod(len(group) + 1) members, so the
    digits never carry into each other."""
    return prod(len(group) + 1 for group in groups).bit_length()


def _size_counts(poly: int, width: int) -> dict[int, int]:
    """The non-zero coefficients of a packed size polynomial, sizes >= 1:
    size 0 is the empty square, which no count reports."""
    digit = (1 << width) - 1
    return {s: c for s in range(1, poly.bit_length() // width + 1)
            if (c := (poly >> width * s) & digit)}


def _levels(ovs: ValidOrbitSet, pre: int, budget: _Budget,
            cap: Optional[int] = None, trail: Optional[list] = None):
    """The frontier DP of this module from the packed state pre.  With cap,
    the census: values are size polynomials cut at size cap, and the result
    is the per-size counts of sizes 1..cap.  Without, the full count: the
    number of full covers extending pre.  If trail is a list, (group, keep,
    level) is appended to it for every cell, level being the states before
    the cell, and the state ceiling bounds the kept levels and the current
    one together."""
    N = ovs.n * ovs.n
    groups, ahead = _orbit_groups(ovs, pre)
    if cap is None:
        # An orbit placed at its least cell can cover a later cell that no
        # orbit ahead touches, so a state keeps the bits of the cells ahead.
        cells = (1 << N) - 1
        ahead = [a | cells >> p << p for p, a in enumerate(ahead)]
        kind, whose, width, window, blank = "full-count", "its", 0, -1, []
    else:
        width = _poly_width(groups)
        window = (1 << width * (cap + 1)) - 1
        kind, whose, blank = "census", "this census's", [(0, 0)]
    # a census value takes up to window's bits; a full count's, -1, adds none
    ceiling = _MAX_LEVEL_BYTES // (_STATE_BYTES + window.bit_length() // 8)
    spend = budget.spend
    kept = 0
    # pre places orbits in later rows, and the ZDD needs every state apart
    merge_at, canon = _row_merge(ovs) if not pre and trail is None else ((), None)
    level = {pre & ahead[0]: 1}
    for p in range(N):
        if p in merge_at:
            level = _merged(level, canon)
        keep = ahead[p + 1]
        group = groups[p]
        # only the census skips a cell: a full count's ahead[p] holds bit p
        if not group and keep == ahead[p]:
            continue
        bit = 1 << p
        moves = blank + [(ovs.masks[i], ovs.lengths[i] * width) for i in group]
        if trail is not None:
            trail.append((group, keep, level))
            kept += len(level)
        budget.check_time()
        limit = ceiling - kept
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
                raise StateBudgetExceededError(
                    f"{kind} level at cell {p} holds {len(nxt)} states"
                    + (f" beside {kept} kept" if kept else "")
                    + f", over {whose} ceiling of {ceiling}"
                )
        if not nxt:
            return 0
        level = nxt
    value = level.get(0, 0)
    return value if cap is None else _size_counts(value, width)


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
    counts = _levels(ovs, 0, budget, cap)
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
    masks, lns = ovs.masks, ovs.lengths
    cells = [frozenset(o.triples) for o in ovs.orbits]

    def rec(start: int, key: int, size: int, acc: frozenset) -> Iterator[frozenset]:
        for i in range(start, len(lns)):
            if key & masks[i]:
                continue
            ns = size + lns[i]
            if ns > cap:
                continue
            nxt = acc | cells[i]
            yield nxt
            yield from rec(i + 1, key | masks[i], ns, nxt)

    yield from rec(0, 0, 0, frozenset())


def delta_full(t: Isotopism, *, max_nodes: Optional[int] = None,
               timeout_secs: Optional[float] = None) -> int:
    """Number of full Latin squares invariant under t.

    Counted by the frontier DP's full count rather than by running the
    whole census and reading off the top size.  max_nodes bounds the DP
    states expanded.
    """
    return _levels(build_valid_orbits(t), 0, _Budget(max_nodes, timeout_secs))


# ----------------------------------------------------------------------
# The family of full covers as a ZDD
# ----------------------------------------------------------------------

class _Zdd:
    """A zero-suppressed decision diagram (Minato, DAC 1993; Knuth, TAOCP 4A
    7.1.4) over variables 0..V-1, variable v standing for an orbit of
    lengths[v] cells.

    Node 0 is the empty family and node 1 the family of the empty set; node
    i > 1 tests var[i], with lo[i] the members without it and hi[i] the
    members with it, less it.  A node's children have lower ids and higher
    variables.  Every node made and every memo entry is charged to the
    budget and takes one unit of room; running out of room raises
    StateBudgetExceededError.  Nothing here recurses.
    """

    __slots__ = ("lengths", "width", "var", "lo", "hi", "unique", "memo",
                 "budget", "room")

    def __init__(self, lengths: tuple[int, ...], width: int, budget: _Budget, room: int):
        self.lengths = lengths
        self.width = width  # digit width of the size polynomials
        top = len(lengths)  # the terminals test no variable
        self.var, self.lo, self.hi = [top, top], [0, 1], [0, 1]
        self.unique: dict[int, int] = {}
        self.memo: dict[int, int] = {}
        self.budget = budget
        self.room = room

    def _charge(self) -> None:
        self.budget.spend()
        self.room -= 1
        if self.room < 0:
            raise StateBudgetExceededError(
                f"ZDD holds {len(self.var)} nodes and {len(self.memo)} memo "
                "entries, the ceiling of this census"
            )

    def node(self, v: int, lo: int, hi: int) -> int:
        """The node testing v over lo and hi, shared if it exists."""
        if not hi:
            return lo
        key = (v << 32 | lo) << 32 | hi
        got = self.unique.get(key)
        if got is None:
            self._charge()
            got = self.unique[key] = len(self.var)
            self.var.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
        return got

    def union(self, f: int, g: int) -> int:
        """The node of the union of the families of f and g."""
        if f == g or not g:
            return f
        if not f:
            return g
        if f > g:
            f, g = g, f
        memo = self.memo
        got = memo.get(f << 32 | g)
        if got is not None:
            return got
        var, lo, hi, node = self.var, self.lo, self.hi, self.node
        # A pair (a, b) on the stack has 0 < a < b, and each pair is a
        # sub-problem of the one below it with a higher least variable, so
        # the stack holds at most V + 1 pairs.
        stack = [(f, g)]
        while stack:
            a, b = stack[-1]
            v, vb = var[a], var[b]
            if v == vb:
                x, y, u, w = lo[a], lo[b], hi[a], hi[b]
            elif v < vb:
                x, y, u, w = lo[a], b, hi[a], 0
            else:
                v, x, y, u, w = vb, a, lo[b], hi[b], 0
            # low = union(x, y), high = union(u, w)
            if x == y or not y:
                low = x
            elif not x:
                low = y
            else:
                if x > y:
                    x, y = y, x
                low = memo.get(x << 32 | y)
                if low is None:
                    stack.append((x, y))
                    continue
            if u == w or not w:
                high = u
            elif not u:
                high = w
            else:
                if u > w:
                    u, w = w, u
                high = memo.get(u << 32 | w)
                if high is None:
                    stack.append((u, w))
                    continue
            stack.pop()
            got = memo[a << 32 | b] = node(v, low, high)
            self._charge()
        return got

    def down_closure(self, root: int) -> int:
        """The node of every subset of a member of root's family:
        down(v, lo, hi) = node(v, union(down lo, down hi), down hi), taken
        over the whole table in id order, children first."""
        var, lo, hi = self.var, self.lo, self.hi
        down = [0, 1]
        for i in range(2, len(var)):
            self._charge()
            high = down[hi[i]]
            down.append(self.node(var[i], self.union(down[lo[i]], high), high))
        return down[root]

    def project(self, root: int, keep: list[bool]) -> int:
        """The node of the family {m & S : m in root's family}, S being the
        variables v with keep[v]: proj(v, lo, hi) = node(v, proj lo, proj hi)
        if keep[v], else union(proj lo, proj hi), taken over the table in id
        order, children first."""
        var, lo, hi = self.var, self.lo, self.hi
        proj = [0, 1]
        for i in range(2, root + 1):
            self._charge()
            v = var[i]
            if keep[v]:
                proj.append(self.node(v, proj[lo[i]], proj[hi[i]]))
            else:
                proj.append(self.union(proj[lo[i]], proj[hi[i]]))
        return proj[root]

    def members(self, root: int) -> Iterator[list[int]]:
        """Each member of root's family as its variables in increasing order,
        the members in lexicographic order of those lists."""
        var, lo, hi = self.var, self.lo, self.hi
        stack = [(root, [])] if root else []
        while stack:
            f, path = stack.pop()
            while f > 1:  # no high child is node 0, so this ends at node 1
                if lo[f]:
                    stack.append((lo[f], path[:]))
                path.append(var[f])
                f = hi[f]
            yield path

    def size_counts(self, root: int) -> dict[int, int]:
        """Number of non-empty members of root's family by size, the size of
        a member being the total length of its orbits.  Counting makes no
        nodes, so the unique table and the memo are dropped first."""
        self.unique.clear()
        self.memo.clear()
        var, lo, hi, lengths, width = self.var, self.lo, self.hi, self.lengths, self.width
        seen = bytearray(root + 1)
        seen[root] = 1
        for i in range(root, 1, -1):
            if seen[i]:
                seen[lo[i]] = seen[hi[i]] = 1
        poly = {0: 0, 1: 1}  # size polynomials packed as by _poly_width
        for i in range(2, root + 1):
            if seen[i]:
                poly[i] = poly[lo[i]] + (poly[hi[i]] << lengths[var[i]] * width)
        return _size_counts(poly[root], width)


def _full_zdd(ovs: ValidOrbitSet, budget: _Budget) -> tuple[_Zdd, int]:
    """The family of full covers as a ZDD, and its root.

    Variable v is valid orbit v: triple_orbits lists the orbits by least
    triple, so _orbit_groups holds 0..V-1 in cell order, as the variables
    must be.  The DP's full count runs forward keeping every level; then each
    state becomes a node, cell by cell from the last: the final state 0 is
    the family of the empty set, and a state that cannot reach it is the
    empty family.  At a covered cell a state is its successor's node; at a
    free cell it is a chain over the compatible orbits of the cell's group,
    each leading to its successor.  Every full cover is exactly one path, so
    the ZDD holds the full covers and nothing else.  The kept levels and the
    ZDD's tables together stay within _MAX_LEVEL_BYTES.
    """
    trail: list = []
    found = _levels(ovs, 0, budget, trail=trail)
    # a family in the closure holds at most one orbit per group
    width = _poly_width(group for group, _, _ in trail)
    kept = sum(len(level) for _, _, level in trail)
    room = (_MAX_LEVEL_BYTES - kept * _STATE_BYTES) // _ZDD_ENTRY_BYTES
    zdd = _Zdd(ovs.lengths, width, budget, room)
    if not found:  # the DP stopped at an empty level; the trail is cut short
        return zdd, 0
    node = zdd.node
    nodes = {0: 1}
    for p in range(len(trail) - 1, -1, -1):
        group, keep, level = trail.pop()
        budget.check_time()
        bit = 1 << p
        moves = [(i, ovs.masks[i]) for i in reversed(group)]
        here: dict[int, int] = {}
        for key in level:
            if key & bit:
                got = nodes.get(key & keep, 0)
            else:
                got = 0
                for v, mask in moves:
                    if not key & mask:
                        got = node(v, got, nodes.get((key | mask) & keep, 0))
            if got:
                here[key] = got
        nodes = here
    return zdd, nodes.get(0, 0)


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
    the first cell with at most one.  Its memo is capped at
    _MAX_LEVEL_BYTES // _STATE_BYTES entries.  count_from() is the frontier
    DP's full count (_levels) from the same state and on the same budget,
    whose nodes are the search states and DP states expanded.
    """

    def __init__(self, ovs: ValidOrbitSet, budget: Optional[_Budget] = None):
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
        self.budget = budget or _Budget(None, None)
        self.max_memo = _MAX_LEVEL_BYTES // _STATE_BYTES
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
        """Whether some full cover extends the packed state key."""
        if key == self.full:
            return True
        memo = self._can_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        self.budget.spend()
        result = False
        for mask in self._candidates(key):
            if self.covers(key | mask):
                result = True
                break
        # checked on insert: the memo grows as the search returns
        if len(memo) >= self.max_memo:
            raise StateBudgetExceededError(
                f"cover memo holds {len(memo)} entries, the ceiling of this search"
            )
        memo[key] = result
        return result

    def count_from(self, rc: int, rs: int, cs: int) -> int:
        """Number of full covers extending the state of three mask families."""
        return _levels(self.ovs, self.ovs.pack(rc, rs, cs), self.budget)

    def can_cover(self, rc: int, rs: int, cs: int) -> bool:
        """covers() of the state given as its three mask families."""
        return self.covers(self.ovs.pack(rc, rs, cs))


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
