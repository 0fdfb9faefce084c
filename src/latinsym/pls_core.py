"""Partial Latin squares, isotopisms acting on them, triple orbits, block
decompositions, and brute-force autotopism/isotopism searches.

A partial Latin square of order n is stored as its set of filled cells, each
a triple (row, column, symbol) with 1-based entries; blanks are simply
absent.  An isotopism is a triple of degree-n permutations acting
coordinatewise on those triples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain, permutations as iter_permutations
from math import lcm
from typing import Iterable, Optional, Sequence

from .perm_algebra import (
    CycleStructure,
    IsotopismStructure,
    Permutation,
    check_parsed_order,
    cycle_structure,
)


class OrderLimitError(ValueError):
    """Raised when a brute-force search is asked to run above its degree cap."""


# The largest order the brute-force isotopism searches take: they scan all
# (n!)^2 row and column maps, 518,400 at order 6 and 25 million at order 7.
MAX_BRUTE_FORCE_ORDER = 5


# ----------------------------------------------------------------------
# Partial Latin squares
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartialLatinSquare:
    """An order-n array with blanks, each symbol at most once per row and column."""

    n: int
    cells: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("order must be positive")
        rc, rs, cs = set(), set(), set()
        for (r, c, s) in self.cells:
            if not (1 <= r <= n and 1 <= c <= n and 1 <= s <= n):
                raise ValueError(f"cell {(r, c, s)} out of range for order {n}")
            if (r, c) in rc:
                raise ValueError(f"two symbols in cell ({r},{c})")
            if (r, s) in rs:
                raise ValueError(f"symbol {s} repeated in row {r}")
            if (c, s) in cs:
                raise ValueError(f"symbol {s} repeated in column {c}")
            rc.add((r, c))
            rs.add((r, s))
            cs.add((c, s))

    @property
    def size(self) -> int:
        """Number of filled cells."""
        return len(self.cells)

    def is_empty(self) -> bool:
        return not self.cells

    @classmethod
    def from_cells(cls, n: int, cells: Iterable[Sequence[int]]) -> "PartialLatinSquare":
        return cls(n, frozenset((r, c, s) for (r, c, s) in cells))

    # ---- text format: n lines of n tokens, "." for a blank ----

    @classmethod
    def parse_text(cls, text: str) -> "PartialLatinSquare":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty square text")
        n = len(lines)
        check_parsed_order(n)
        cells = []
        for r, ln in enumerate(lines, start=1):
            toks = ln.split()
            if len(toks) != n:
                raise ValueError(f"row {r} has {len(toks)} tokens, expected {n}")
            for c, tok in enumerate(toks, start=1):
                if tok == ".":
                    continue
                cells.append((r, c, int(tok)))
        return cls.from_cells(n, cells)

    def format_text(self) -> str:
        grid = [["."] * self.n for _ in range(self.n)]
        for (r, c, s) in self.cells:
            grid[r - 1][c - 1] = str(s)
        return "\n".join(" ".join(row) for row in grid) + "\n"

    # ---- JSON form ----

    @classmethod
    def parse_json(cls, text: str) -> "PartialLatinSquare":
        obj = json.loads(text)
        try:
            n, cells = obj["n"], [tuple(cell) for cell in obj["cells"]]
            # a float or a boolean is no order or coordinate, whatever its value
            if not all(type(v) is int for v in (n, *chain.from_iterable(cells))):
                raise TypeError("an entry that is not an integer")
            check_parsed_order(n)
            return cls.from_cells(n, cells)
        except (KeyError, TypeError) as exc:
            raise ValueError('square JSON needs an integer "n" and "cells" as a '
                             f"list of [row, col, symbol] triples ({exc!r})") from None

    def to_json(self) -> str:
        cells = sorted(self.cells)
        return json.dumps({"n": self.n, "cells": [list(c) for c in cells]})

    def sorted_cells(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(self.cells))


# ----------------------------------------------------------------------
# Isotopisms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Isotopism:
    """A triple (alpha, beta, gamma) of row, column, and symbol permutations."""

    alpha: Permutation
    beta: Permutation
    gamma: Permutation

    def __post_init__(self) -> None:
        # lengths, not the degree property: the group scans build millions
        if not len(self.alpha.images) == len(self.beta.images) == len(self.gamma.images):
            raise ValueError("component degrees differ")

    @property
    def degree(self) -> int:
        return self.alpha.degree

    @property
    def components(self) -> tuple[Permutation, Permutation, Permutation]:
        return (self.alpha, self.beta, self.gamma)

    @classmethod
    def identity(cls, n: int) -> "Isotopism":
        e = Permutation.identity(n)
        return cls(e, e, e)

    def is_identity(self) -> bool:
        return all(p.is_identity() for p in self.components)

    def __mul__(self, other: "Isotopism") -> "Isotopism":
        return Isotopism(self.alpha * other.alpha, self.beta * other.beta,
                         self.gamma * other.gamma)

    def inverse(self) -> "Isotopism":
        return Isotopism(self.alpha.inverse(), self.beta.inverse(), self.gamma.inverse())

    def apply_triple(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        r, c, s = triple
        return (self.alpha(r), self.beta(c), self.gamma(s))

    def structure(self) -> IsotopismStructure:
        return IsotopismStructure(
            cycle_structure(self.alpha),
            cycle_structure(self.beta),
            cycle_structure(self.gamma),
        )

    def parastrophe(self, pi: Sequence[int]) -> "Isotopism":
        """Coordinate-permuted isotopism: slot i of the result is component pi[i].

        Chosen so that acting and permuting commute the right way round:
        parastrophe(apply_isotopism(P, t), pi) equals
        apply_isotopism(parastrophe(P, pi), t.parastrophe(pi)).
        """
        if sorted(pi) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1,2,3): {pi}")
        comps = self.components
        return Isotopism(comps[pi[0] - 1], comps[pi[1] - 1], comps[pi[2] - 1])

    def __str__(self) -> str:
        return ";".join(str(p) for p in self.components)

    @classmethod
    def parse(cls, text: str, degree: Optional[int] = None) -> "Isotopism":
        """Parse "alpha;beta;gamma", each component in either permutation grammar.

        The degree, when not given, is the largest point mentioned in any
        component; image-list components fix it exactly.
        """
        parts = text.split(";")
        if len(parts) != 3:
            raise ValueError(f"expected three ';'-separated permutations: {text!r}")
        if degree is None:
            # two passes: image lists pin the degree, cycle forms only bound it
            degree = 0
            for part in parts:
                part = part.strip()
                if part.startswith("["):
                    degree = max(degree, len(Permutation.parse(part).images))
                else:
                    pts = [int(tok) for tok in re.findall(r"\d+", part)]
                    degree = max(degree, max(pts, default=0))
            if degree == 0:
                raise ValueError(f"cannot infer degree from {text!r}")
        perms = [Permutation.parse(part, degree) for part in parts]
        return cls(perms[0], perms[1], perms[2])


def canonical_isotopism(z: IsotopismStructure) -> Isotopism:
    """The representative isotopism of a structure.

    Each component lays out its cycles in decreasing length with consecutive
    points, so the structure (6, 3.2.1, 4.2) yields
    ((1 2 3 4 5 6), (1 2 3)(4 5)(6), (1 2 3 4)(5 6)).
    """
    def perm_for(cs: CycleStructure) -> Permutation:
        images = list(range(1, cs.degree + 1))
        next_point = 1
        for length in cs.parts():
            pts = list(range(next_point, next_point + length))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a - 1] = b
            next_point += length
        return Permutation(tuple(images))

    return Isotopism(perm_for(z.rows), perm_for(z.cols), perm_for(z.syms))


# ----------------------------------------------------------------------
# Action, parastrophy
# ----------------------------------------------------------------------

def apply_isotopism(P: PartialLatinSquare, t: Isotopism) -> PartialLatinSquare:
    """The image square, with cell set {(alpha r, beta c, gamma s)}."""
    if P.n != t.degree:
        raise ValueError(f"degree mismatch: square order {P.n}, isotopism degree {t.degree}")
    return PartialLatinSquare(P.n, frozenset(t.apply_triple(cell) for cell in P.cells))


def parastrophe(P: PartialLatinSquare, pi: Sequence[int]) -> PartialLatinSquare:
    """Coordinate-permuted square: new triple slot i holds old component pi[i]."""
    if sorted(pi) != [1, 2, 3]:
        raise ValueError(f"not a permutation of (1,2,3): {pi}")
    cells = frozenset(
        (cell[pi[0] - 1], cell[pi[1] - 1], cell[pi[2] - 1]) for cell in P.cells
    )
    return PartialLatinSquare(P.n, cells)


def is_autotopism(t: Isotopism, P: PartialLatinSquare) -> bool:
    """Whether the isotopism fixes the square cell-wise."""
    if P.n != t.degree:
        raise ValueError(f"degree mismatch: square order {P.n}, isotopism degree {t.degree}")
    return all(t.apply_triple(cell) in P.cells for cell in P.cells)


# ----------------------------------------------------------------------
# Triple orbits and block decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TripleOrbit:
    """Orbit of a cell triple under the cyclic group generated by an isotopism."""

    triples: tuple[tuple[int, int, int], ...]

    @property
    def representative(self) -> tuple[int, int, int]:
        return self.triples[0]

    @property
    def length(self) -> int:
        return len(self.triples)


def triple_orbits(t: Isotopism) -> list[TripleOrbit]:
    """Partition of all n^3 triples into orbits, ordered by representative.

    Each orbit is listed starting at its lexicographically least triple and
    follows repeated application of the isotopism from there.
    """
    n = t.degree
    # point i's image at index i, so a step is three lookups
    row, col, sym = ((0, *p.images) for p in t.components)
    seen: set[tuple[int, int, int]] = set()
    orbits = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            for s in range(1, n + 1):
                start = (r, c, s)
                if start in seen:
                    continue
                cyc = [start]
                nxt = (row[r], col[c], sym[s])
                while nxt != start:
                    cyc.append(nxt)
                    a, b, g = nxt
                    nxt = (row[a], col[b], sym[g])
                seen.update(cyc)
                orbits.append(TripleOrbit(tuple(cyc)))
    return orbits


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a square's cells by (row cycle, column cycle) of an isotopism.

    blocks maps (row-cycle index, column-cycle index) to the tuple of cells
    whose row lies in that row cycle and column in that column cycle; indices
    refer to the canonical cycle order of the respective permutation.  Every
    index pair is present, including those with no cells.
    """

    row_cycles: tuple[tuple[int, ...], ...]
    col_cycles: tuple[tuple[int, ...], ...]
    blocks: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = field(hash=False)

    def dimensions(self, key: tuple[int, int]) -> tuple[int, int]:
        return (len(self.row_cycles[key[0]]), len(self.col_cycles[key[1]]))

    def multiplier(self, key: tuple[int, int]) -> int:
        """Block size divided by lcm of the two cycle lengths; integral for invariant squares."""
        i, j = self.dimensions(key)
        size = len(self.blocks[key])
        unit = lcm(i, j)
        if size % unit:
            raise ValueError(f"block {key} size {size} not a multiple of lcm {unit}")
        return size // unit


def theta_decomposition(P: PartialLatinSquare, t: Isotopism) -> BlockDecomposition:
    """Group the square's cells into blocks indexed by row and column cycles."""
    if P.n != t.degree:
        raise ValueError(f"degree mismatch: square order {P.n}, isotopism degree {t.degree}")
    row_cycles = t.alpha.cycles()
    col_cycles = t.beta.cycles()
    row_index = {pt: i for i, cyc in enumerate(row_cycles) for pt in cyc}
    col_index = {pt: j for j, cyc in enumerate(col_cycles) for pt in cyc}
    blocks: dict[tuple[int, int], list] = {
        (i, j): [] for i in range(len(row_cycles)) for j in range(len(col_cycles))
    }
    for cell in sorted(P.cells):
        blocks[(row_index[cell[0]], col_index[cell[1]])].append(cell)
    return BlockDecomposition(
        row_cycles, col_cycles, {k: tuple(v) for k, v in blocks.items()}
    )


# ----------------------------------------------------------------------
# Brute-force searches over the isotopism group
# ----------------------------------------------------------------------

def _isotopisms_mapping(P: PartialLatinSquare, Q: PartialLatinSquare
                        ) -> list[Isotopism]:
    """All isotopisms sending P onto Q, by scanning row/column pairs.

    For fixed alpha and beta the symbol permutation is pinned down on every
    symbol that occurs in P; the free remainder is filled in all possible
    ways, once per distinct pinned map.  Results come out in lexicographic
    (alpha, beta, gamma) order.
    """
    n = P.n
    if n > MAX_BRUTE_FORCE_ORDER:
        raise OrderLimitError(f"order {n} exceeds the brute-force cap {MAX_BRUTE_FORCE_ORDER}")
    if P.size != Q.size:
        return []
    target: dict[tuple[int, int], int] = {(r, c): s for (r, c, s) in Q.cells}
    cells = P.sorted_cells()
    points = range(1, n + 1)
    gammas: dict[tuple[int, ...], list[Permutation]] = {}
    out: list[Isotopism] = []
    for alpha_imgs in iter_permutations(points):
        alpha = Permutation(alpha_imgs)
        for beta_imgs in iter_permutations(points):
            gamma_map: dict[int, int] = {}
            for (r, c, s) in cells:
                s2 = target.get((alpha_imgs[r - 1], beta_imgs[c - 1]))
                if s2 is None or gamma_map.setdefault(s, s2) != s2:
                    break
            else:
                # the map's keys are P's symbols in order of first occurrence
                key = tuple(gamma_map.values())
                if key not in gammas:
                    gammas[key] = _extensions(gamma_map, n)
                if gammas[key]:
                    beta = Permutation(beta_imgs)
                    out += [Isotopism(alpha, beta, gamma) for gamma in gammas[key]]
    return out


def _extensions(gamma_map: dict[int, int], n: int) -> list[Permutation]:
    """The permutations of [n] that agree with gamma_map, in lexicographic
    order; none when the map is not injective."""
    if len(set(gamma_map.values())) < len(gamma_map):
        return []
    images = [gamma_map.get(s, 0) for s in range(1, n + 1)]
    free_src = [s for s in range(1, n + 1) if s not in gamma_map]
    free_dst = sorted(set(range(1, n + 1)).difference(gamma_map.values()))
    out = []
    for ext in iter_permutations(free_dst):
        for s, s2 in zip(free_src, ext):
            images[s - 1] = s2
        out.append(Permutation(tuple(images)))
    return out


def autotopism_group(P: PartialLatinSquare) -> list[Isotopism]:
    """All isotopisms fixing P, in deterministic order.

    The square must be non-empty (censuses never involve the empty square,
    and its stabilizer is the whole group anyway).
    """
    if P.is_empty():
        raise ValueError("autotopism group of the empty square is not taken")
    return _isotopisms_mapping(P, P)


def isotopisms_between(P: PartialLatinSquare, Q: PartialLatinSquare) -> list[Isotopism]:
    """All isotopisms sending P onto Q; empty exactly when they are not isotopic."""
    if P.n != Q.n:
        raise ValueError("squares have different orders")
    return _isotopisms_mapping(P, Q)
