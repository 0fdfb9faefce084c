"""Independent brute-force oracles.

Everything in here trades speed for obviousness: direct definitions, no
bitmasks, no caching beyond memoizing whole result sets.  Test modules check
the fast library code against these on small orders.  The one exception is
census_by_walker, the plain depth-first census over the library's valid-orbit
masks, kept to check the census DP on orders where walking is affordable.
"""

from __future__ import annotations

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


def invariant_squares(theta, n: int) -> list[frozenset]:
    """Non-empty squares fixed by the isotopism, by filtering everything."""
    return [p for p in all_pls(n) if act(theta, p) == p]


def is_completable_to_invariant(theta, square: frozenset, n: int) -> bool:
    """Whether some theta-invariant full Latin square contains the square."""
    for ls in all_latin_squares(n):
        if square <= ls and act(theta, ls) == ls:
            return True
    return False


def is_completable(square: frozenset, n: int) -> bool:
    """Plain completability: some full Latin square contains the square."""
    return any(square <= ls for ls in all_latin_squares(n))


# ------------------------------------------------------------------ isotopy

@lru_cache(maxsize=None)
def all_isotopisms(n: int) -> tuple:
    """Every isotopism of order n as a triple of image tuples."""
    perms = list(permutations(range(1, n + 1)))
    return tuple((a, b, g) for a in perms for b in perms for g in perms)


def canon_key(square: frozenset, n: int) -> tuple:
    """Canonical form of a square under isotopy: the least sorted image."""
    return min(
        tuple(sorted(act(theta, square))) for theta in all_isotopisms(n)
    )


# ------------------------------------------------------------------- census

def census_by_walker(t, max_size=None) -> dict[int, int]:
    """Per-size counts of non-empty invariant squares of the isotopism t, by
    walking every conflict-free subset of valid orbits once, in index order."""
    from latinsym.orbit_enum import build_valid_orbits

    ovs = build_valid_orbits(t)
    cap = t.degree ** 2 if max_size is None else max_size
    rcm, rsm, csm, lns = ovs.rc_masks, ovs.rs_masks, ovs.cs_masks, ovs.lengths
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
