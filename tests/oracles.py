"""Independent brute-force oracles.

Everything in here trades speed for obviousness: direct definitions, no
bitmasks, no caching beyond memoizing whole result sets and each square's
canonical form.  Test modules check the fast library code against these on
small orders.  The four exceptions are walks over the library's valid-orbit
masks, kept to check the DP and the cover search on orders where walking
is affordable: iter_invariant_squares lists the invariant squares themselves;
census_by_walker checks the census DP; completability_by_walker,
which asks the library's cover search about every square it visits, checks
the completability census; and basis_by_shape_walk, which counts each square
that fills a shape with count_completions, checks the bases.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import lcm


# ---------------------------------------------------------------- partitions

def brute_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as decreasing tuples, by plain recursion on the largest part."""
    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for head in range(min(cap, remaining), 0, -1):
            for tail in gen(remaining - head, head):
                yield (head,) + tail

    return list(gen(n, n))


def brute_min_part_count(n: int, m: int) -> int:
    """Partitions of n with smallest part exactly m, by filtering the full list."""
    return sum(1 for p in brute_partitions(n) if min(p) == m)


# ---------------------------------------------------------- admissibility

def brute_admissible_triple(i: int, j: int, k: int) -> bool:
    full = lcm(i, lcm(j, k))
    return lcm(i, j) == lcm(i, k) == lcm(j, k) == full


def brute_admissible_parts(rows: tuple[int, ...], cols: tuple[int, ...], syms: tuple[int, ...]) -> bool:
    """Admissibility of a structure given as three part tuples."""
    return any(
        brute_admissible_triple(i, j, k)
        for i in set(rows)
        for j in set(cols)
        for k in set(syms)
    )


def brute_structures(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """All admissible structures of order n as triples of part tuples."""
    parts = brute_partitions(n)
    return [
        (a, b, c)
        for a in parts
        for b in parts
        for c in parts
        if brute_admissible_parts(a, b, c)
    ]


def brute_class_count(structs) -> int:
    """Orbit count under permuting the three components, by explicit orbits."""
    pool = set(structs)
    seen: set = set()
    classes = 0
    for z in pool:
        if z in seen:
            continue
        classes += 1
        for pi in permutations(range(3)):
            seen.add((z[pi[0]], z[pi[1]], z[pi[2]]))
    return classes


def first_of_each_class(structs) -> list:
    """The first member of each parastrophic class in the given order,
    keyed by the sorted list of the class's six component permutations."""
    seen: set = set()
    out = []
    for z in structs:
        key = tuple(sorted(permutations(z)))
        if key not in seen:
            seen.add(key)
            out.append(z)
    return out


def structures_and_classes_by_pair_table(n: int) -> tuple[int, int]:
    """(admissible structures, parastrophic classes) of order n through a
    table over ordered pairs of supports.

    Partitions are grouped by support; K(A, B) is the set of symbol lengths
    admissible with some row length in A and column length in B, and the
    structures with supports A, B are w_A * w_B times the partitions whose
    support meets K(A, B).  The classes come from Burnside over S_3 with the
    diagonal terms K(A, A)."""
    weights = Counter(frozenset(p) for p in brute_partitions(n))
    lengths = range(1, n + 1)
    k_of = {(i, j): frozenset(k for k in lengths if brute_admissible_triple(i, j, k))
            for i in lengths for j in lengths}
    row = {(i, b): frozenset().union(*(k_of[i, j] for j in b))
           for i in lengths for b in weights}
    hits: dict = {}

    def hit(ks: frozenset) -> int:
        if ks not in hits:
            hits[ks] = sum(w for c, w in weights.items() if c & ks)
        return hits[ks]

    def table(a, b) -> frozenset:
        return frozenset().union(*(row[i, b] for i in a))

    full = sum(wa * wb * hit(table(a, b))
               for a, wa in weights.items() for b, wb in weights.items())
    two_equal = sum(w * hit(table(a, a)) for a, w in weights.items())
    all_equal = sum(w for a, w in weights.items() if a & table(a, a))
    numerator = full + 3 * two_equal + 2 * all_equal
    assert numerator % 6 == 0
    return full, numerator // 6


# ------------------------------------------------------- partial Latin squares
#
# A square is modelled as a frozenset of (row, col, sym) triples, 1-based.

@lru_cache(maxsize=None)
def all_pls(n: int) -> tuple[frozenset, ...]:
    """Every non-empty partial Latin square of order n (feasible for n <= 3)."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    out: list[frozenset] = []

    def walk(idx: int, triples: list, row_used: set, col_used: set):
        if idx == len(cells):
            if triples:
                out.append(frozenset(triples))
            return
        r, c = cells[idx]
        walk(idx + 1, triples, row_used, col_used)
        for s in range(1, n + 1):
            if (r, s) in row_used or (c, s) in col_used:
                continue
            triples.append((r, c, s))
            row_used.add((r, s))
            col_used.add((c, s))
            walk(idx + 1, triples, row_used, col_used)
            triples.pop()
            row_used.discard((r, s))
            col_used.discard((c, s))

    walk(0, [], set(), set())
    return tuple(out)


@lru_cache(maxsize=None)
def all_latin_squares(n: int) -> tuple[frozenset, ...]:
    """Every (full) Latin square of order n, by cell-wise backtracking."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    out: list[frozenset] = []

    def walk(idx: int, triples: list, row_used: set, col_used: set):
        if idx == len(cells):
            out.append(frozenset(triples))
            return
        r, c = cells[idx]
        for s in range(1, n + 1):
            if (r, s) in row_used or (c, s) in col_used:
                continue
            triples.append((r, c, s))
            row_used.add((r, s))
            col_used.add((c, s))
            walk(idx + 1, triples, row_used, col_used)
            triples.pop()
            row_used.discard((r, s))
            col_used.discard((c, s))

    walk(0, [], set(), set())
    return tuple(out)


def act(theta, square: frozenset) -> frozenset:
    """Apply an isotopism given as three image tuples to a triple set."""
    al, be, ga = theta
    return frozenset((al[r - 1], be[c - 1], ga[s - 1]) for r, c, s in square)


@lru_cache(maxsize=None)
def invariant_squares(theta, n: int) -> tuple[frozenset, ...]:
    """Non-empty squares fixed by the isotopism, by filtering everything."""
    return tuple(p for p in all_pls(n) if act(theta, p) == p)


def is_completable_to_invariant(theta, square: frozenset, n: int) -> bool:
    """Whether some theta-invariant full Latin square contains the square."""
    for ls in all_latin_squares(n):
        if square <= ls and act(theta, ls) == ls:
            return True
    return False


def is_completable(square: frozenset, n: int) -> bool:
    """Plain completability: some full Latin square contains the square."""
    return any(square <= ls for ls in all_latin_squares(n))


def count_invariant_completions(theta, square: frozenset, n: int) -> int:
    """Latin squares of order n fixed by theta that contain the square, which
    must be fixed by theta itself.

    Fills the empty cells in row-major order; a symbol put in a cell puts the
    whole orbit of that triple under theta, so every square built is fixed by
    theta and each is built once.  Unlike all_latin_squares it never lists
    the squares of order n, so order 5 is affordable.
    """
    al, be, ga = theta
    grid = {(r, c): s for r, c, s in square}
    row_syms = {(r, s) for r, _, s in square}
    col_syms = {(c, s) for _, c, s in square}
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]

    def orbit(triple):
        out = [triple]
        while True:
            r, c, s = out[-1]
            nxt = (al[r - 1], be[c - 1], ga[s - 1])
            if nxt == triple:
                return out
            out.append(nxt)

    def walk(k: int) -> int:
        while k < len(cells) and cells[k] in grid:
            k += 1
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        for s in range(1, n + 1):
            orb = orbit((r, c, s))
            rcs = {(a, b) for a, b, _ in orb}
            rss = {(a, x) for a, _, x in orb}
            css = {(b, x) for _, b, x in orb}
            if not len(rcs) == len(rss) == len(css) == len(orb):
                continue  # the orbit repeats a pair, so no square holds it
            if rcs & grid.keys() or rss & row_syms or css & col_syms:
                continue
            grid.update(((a, b), x) for a, b, x in orb)
            row_syms.update(rss)
            col_syms.update(css)
            total += walk(k + 1)
            for key in rcs:
                del grid[key]
            row_syms.difference_update(rss)
            col_syms.difference_update(css)
        return total

    return walk(0)


# ------------------------------------------------------------------ isotopy

@lru_cache(maxsize=None)
def all_isotopisms(n: int) -> tuple:
    """Every isotopism of order n as a triple of image tuples."""
    perms = list(permutations(range(1, n + 1)))
    return tuple((a, b, g) for a in perms for b in perms for g in perms)


@lru_cache(maxsize=None)
def canon_key(square: frozenset, n: int) -> tuple:
    """Canonical form of a square under isotopy: the least sorted image.

    Once the rows and columns are relabelled, the cells' order is fixed, and
    the least image over the symbol relabellings numbers the symbols in
    order of first appearance.  So the (n!)^2 row and column maps give the
    least image over all (n!)^3 isotopisms.
    """
    perms = list(permutations(range(1, n + 1)))
    best = None
    for al in perms:
        for be in perms:
            label: dict[int, int] = {}
            key = tuple(
                (r, c, label.setdefault(s, len(label) + 1))
                for r, c, s in sorted((al[r - 1], be[c - 1], s) for r, c, s in square)
            )
            if best is None or key < best:
                best = key
    return best


def class_slice_by_canon(theta, square: frozenset, n: int) -> int:
    """Number of theta-invariant squares isotopic to the square: those that
    share its canonical form."""
    return _class_sizes(theta, n)[canon_key(square, n)]


@lru_cache(maxsize=None)
def _class_sizes(theta, n: int) -> Counter:
    """Canonical form -> number of theta-invariant squares that have it."""
    return Counter(canon_key(p, n) for p in invariant_squares(theta, n))


# ------------------------------------------------------------------- census

def _view_masks(ovs, k: int) -> list[int]:
    """The family-k pair masks (0 rc, 1 rs, 2 cs) of the library's valid
    orbits, cut out of their packed masks."""
    N = ovs.n * ovs.n
    return [mask >> k * N & ((1 << N) - 1) for mask in ovs.masks]


def census_by_walker(t, max_size=None) -> dict[int, int]:
    """Per-size counts of non-empty invariant squares of the isotopism t, by
    walking every conflict-free subset of valid orbits once, in index order."""
    from latinsym.orbit_enum import build_valid_orbits

    ovs = build_valid_orbits(t)
    cap = t.degree ** 2 if max_size is None else max_size
    rcm, rsm, csm = (_view_masks(ovs, k) for k in range(3))
    lns = ovs.lengths
    per_size = [0] * (cap + 1)

    def walk(start: int, rc: int, rs: int, cs: int, size: int) -> None:
        for i in range(start, len(lns)):
            if (rc & rcm[i]) or (rs & rsm[i]) or (cs & csm[i]):
                continue
            ns = size + lns[i]
            if ns > cap:
                continue
            per_size[ns] += 1
            walk(i + 1, rc | rcm[i], rs | rsm[i], cs | csm[i], ns)

    walk(0, 0, 0, 0, 0)
    return {s: c for s, c in enumerate(per_size) if c}


def iter_invariant_squares(t, max_size=None):
    """Yield the cell sets of all non-empty invariant squares of the
    isotopism t, depth-first over the library's valid orbits in index order."""
    from latinsym.orbit_enum import build_valid_orbits

    ovs = build_valid_orbits(t)
    cap = t.degree ** 2 if max_size is None else max_size
    masks, lns = ovs.masks, ovs.lengths
    cells = [frozenset(o.triples) for o in ovs.orbits]

    def rec(start: int, key: int, size: int, acc: frozenset):
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


# ------------------------------------------------------- completability

def completability_by_walker(t) -> dict[int, int]:
    """Per-size counts of the t-completable non-empty invariant squares, by a
    depth-first walk over the orbit subsets that asks the library's cover
    search about each one.  A square that does not complete prunes all its
    supersets, since they do not complete either."""
    from latinsym.orbit_enum import CoverCounter, build_valid_orbits

    counter = CoverCounter(build_valid_orbits(t))
    masks, lns = counter.ovs.masks, counter.ovs.lengths
    covers = counter.covers
    per_size: dict[int, int] = {}

    def walk(start: int, key: int, size: int) -> None:
        for i in range(start, len(masks)):
            mask = masks[i]
            if key & mask:
                continue
            nxt = key | mask
            if not covers(nxt):
                continue
            ns = size + lns[i]
            per_size[ns] = per_size.get(ns, 0) + 1
            walk(i + 1, nxt, ns)

    walk(0, 0, 0)
    return per_size


# ------------------------------------------------------------------- bases

def basis_by_shape_walk(t, shape) -> list[tuple[frozenset, int]]:
    """The (cells, completions) pairs of the completable invariant squares
    whose filled pairs, in the shape's view, are exactly shape.pairs, sorted
    by cells: a depth-first walk over the valid orbits lying inside the
    shape, with each square that fills it counted by count_completions."""
    from latinsym.completion import count_completions
    from latinsym.orbit_enum import build_valid_orbits
    from latinsym.pls_core import PartialLatinSquare

    ovs = build_valid_orbits(t)
    n = ovs.n
    view = _view_masks(ovs, ("RC", "RS", "CS").index(shape.mode))
    target = sum(1 << (a - 1) * n + (b - 1) for a, b in shape.pairs)
    masks = ovs.masks
    found: list[frozenset] = []

    def walk(start: int, key: int, filled: int, acc: frozenset) -> None:
        if filled == target:
            found.append(acc)
            return
        for i in range(start, len(masks)):
            if view[i] & ~target or key & masks[i]:
                continue
            walk(i + 1, key | masks[i], filled | view[i],
                 acc | frozenset(ovs.orbits[i].triples))

    walk(0, 0, 0, frozenset())
    counted = [(cells, count_completions(t, PartialLatinSquare(n, cells)))
               for cells in found]
    return sorted(((cells, c) for cells, c in counted if c),
                  key=lambda item: sorted(item[0]))
