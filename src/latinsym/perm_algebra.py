"""Permutations, cycle structures, partitions, and the classification of
cycle structures of autotopisms of partial Latin squares.

The admissibility test is purely arithmetic: a triple of cycle structures can
belong to an autotopism of some non-empty partial Latin square exactly when
some triple (i, j, k) of cycle lengths with all three counts positive has
lcm(i, j) = lcm(i, k) = lcm(j, k) = lcm(i, j, k).  Everything in this module
is built on that test: the enumeration of admissible structures, all of them
or one per parastrophic (component-permutation) class; their count and that
of their classes, summed over pairs of partition supports with sets of
partitions held as bitsets; the minimal-part partition recursion; and
explicit conjugator construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .budget import Budget


# ----------------------------------------------------------------------
# Permutations
# ----------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# The largest order a parser accepts.  It is checked before anything of that
# size is built, so a typo such as 1^300000 is a usage error, not a long wait
# or a huge allocation; every count here is out of reach long before it.
MAX_PARSED_ORDER = 64


def check_parsed_order(n: int) -> None:
    """Raise ValueError if a parsed order exceeds MAX_PARSED_ORDER."""
    if n > MAX_PARSED_ORDER:
        raise ValueError(f"order {n} exceeds the largest supported order, "
                         f"{MAX_PARSED_ORDER}")


@dataclass(frozen=True)
class Permutation:
    """A bijection of [n] = {1, ..., n}, stored as its image tuple.

    images[i - 1] is the image of point i.  Instances are immutable and
    hashable; composition follows the function convention, so
    (p * q)(x) = p(q(x)).
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [{n}]: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Permutation(tuple(self.images[x - 1] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles in canonical order.

        Cycles are sorted by decreasing length, ties broken by their minimal
        point; each cycle starts at its minimal point.  One-cycles (fixed
        points) are included.
        """
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        out.sort(key=lambda c: (-len(c), c[0]))
        return tuple(out)

    def fixed_points(self) -> tuple[int, ...]:
        """Fixed points in natural order."""
        return tuple(i for i in range(1, self.degree + 1) if self(i) == i)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in self.cycles())

    @classmethod
    def parse(cls, text: str, degree: Optional[int] = None) -> "Permutation":
        """Parse either cycle notation or an explicit image list.

        Cycle notation looks like "(1 2 3)(4 5)"; points may be separated by
        spaces or commas and fixed points may be omitted, in which case the
        degree is the largest point mentioned unless given explicitly.  An
        image list looks like "[2,3,1,5,4]" and fixes the degree by itself.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation spec")
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unterminated image list: {text!r}")
            body = text[1:-1].strip()
            toks = [tok for tok in re.split(r"[,\s]+", body) if tok] if body else []
            check_parsed_order(len(toks))
            images = tuple(int(tok) for tok in toks)
            if degree is not None and degree != len(images):
                raise ValueError(f"image list has degree {len(images)}, expected {degree}")
            return cls(images)
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", text):
            raise ValueError(f"not a permutation spec: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(text):
            pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if pts:
                cycles.append(pts)
        maxpt = max((p for cyc in cycles for p in cyc), default=0)
        n = degree if degree is not None else maxpt
        if maxpt > n:
            raise ValueError(f"point {maxpt} exceeds degree {n}")
        check_parsed_order(n)
        images = list(range(1, n + 1))
        touched = set()
        for cyc in cycles:
            for p in cyc:
                if p < 1:
                    raise ValueError(f"points must be positive, got {p}")
                if p in touched:
                    raise ValueError(f"point {p} repeated across cycles")
                touched.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(tuple(images))


def conjugating_permutation(p: Permutation, q: Permutation) -> Optional[Permutation]:
    """A permutation g with q = g p g^{-1}, or None if none exists.

    Exists exactly when p and q share a cycle structure; built by aligning
    the canonical cycle decompositions pointwise.
    """
    if p.degree != q.degree:
        return None
    cp, cq = p.cycles(), q.cycles()
    if tuple(len(c) for c in cp) != tuple(len(c) for c in cq):
        return None
    images = [0] * p.degree
    for src, dst in zip(cp, cq):
        for a, b in zip(src, dst):
            images[a - 1] = b
    return Permutation(tuple(images))


def conjugating_isotopism(a, b):
    """Componentwise conjugator between two isotopisms.

    Returns an isotopism of the same type as ``a`` whose components g satisfy
    b = g a g^{-1} in each coordinate, or None when some component pair has
    differing cycle structures.
    """
    parts = []
    for pa, pb in zip((a.alpha, a.beta, a.gamma), (b.alpha, b.beta, b.gamma)):
        g = conjugating_permutation(pa, pb)
        if g is None:
            return None
        parts.append(g)
    return type(a)(parts[0], parts[1], parts[2])


# ----------------------------------------------------------------------
# Cycle structures
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class CycleStructure:
    """Multiset of cycle lengths of a degree-n permutation.

    counts[j - 1] is the number of j-cycles; sum of j * counts[j - 1] must
    equal the degree.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.counts)
        if any(c < 0 for c in self.counts):
            raise ValueError("negative cycle count")
        total = sum(j * c for j, c in enumerate(self.counts, start=1))
        if total != n:
            raise ValueError(f"cycle counts sum to {total}, expected degree {n}")

    @property
    def degree(self) -> int:
        return len(self.counts)

    def count(self, length: int) -> int:
        """Number of cycles of the given length."""
        if not 1 <= length <= self.degree:
            return 0
        return self.counts[length - 1]

    def support(self) -> frozenset[int]:
        """The set of cycle lengths that actually occur."""
        return frozenset(j for j, c in enumerate(self.counts, start=1) if c > 0)

    def parts(self) -> tuple[int, ...]:
        """Cycle lengths with multiplicity, in decreasing order."""
        out = []
        for j in range(self.degree, 0, -1):
            out.extend([j] * self.counts[j - 1])
        return tuple(out)

    @classmethod
    def from_parts(cls, parts: Sequence[int], degree: Optional[int] = None) -> "CycleStructure":
        n = degree if degree is not None else sum(parts)
        counts = [0] * n
        for p in parts:
            if not 1 <= p <= n:
                raise ValueError(f"part {p} out of range for degree {n}")
            counts[p - 1] += 1
        return cls(tuple(counts))

    @cached_property
    def _text(self) -> str:
        toks = []
        for j in range(self.degree, 0, -1):
            c = self.counts[j - 1]
            if c == 1:
                toks.append(str(j))
            elif c > 1:
                toks.append(f"{j}^{c}")
        return ".".join(toks)

    def __str__(self) -> str:
        # formatted once: structures --parastrophic prints each many times
        return self._text

    @classmethod
    def parse(cls, text: str, degree: Optional[int] = None) -> "CycleStructure":
        """Parse dot-joined "L^M" tokens, M omitted when 1 (e.g. "3.2.1", "1^6")."""
        text = text.strip()
        if not text:
            raise ValueError("empty cycle-structure spec")
        tokens = []
        for tok in text.split("."):
            m = _TOKEN_RE.match(tok.strip())
            if not m:
                raise ValueError(f"bad cycle-structure token: {tok!r}")
            length = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if length < 1 or mult < 1:
                raise ValueError(f"bad cycle-structure token: {tok!r}")
            tokens.append((length, mult))
        check_parsed_order(sum(length * mult for length, mult in tokens))
        parts = [length for length, mult in tokens for _ in range(mult)]
        n = degree if degree is not None else sum(parts)
        if sum(parts) != n:
            raise ValueError(f"parts of {text!r} sum to {sum(parts)}, expected degree {n}")
        return cls.from_parts(parts, n)


def cycle_structure(p: Permutation) -> CycleStructure:
    """Cycle structure of a permutation."""
    counts = [0] * p.degree
    for cyc in p.cycles():
        counts[len(cyc) - 1] += 1
    return CycleStructure(tuple(counts))


@dataclass(frozen=True)
class IsotopismStructure:
    """The triple of cycle structures of a row, column, and symbol permutation."""

    rows: CycleStructure
    cols: CycleStructure
    syms: CycleStructure

    def __post_init__(self) -> None:
        if not (self.rows.degree == self.cols.degree == self.syms.degree):
            raise ValueError("component degrees differ")

    @property
    def degree(self) -> int:
        return self.rows.degree

    @property
    def components(self) -> tuple[CycleStructure, CycleStructure, CycleStructure]:
        return (self.rows, self.cols, self.syms)

    def permuted(self, pi: Sequence[int]) -> "IsotopismStructure":
        """Component permutation: slot i of the result is component pi[i] of self.

        pi is a permutation of (1, 2, 3) given as a length-3 sequence, so
        permuted((2, 1, 3)) swaps the row and column structures.
        """
        comps = self.components
        if sorted(pi) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1,2,3): {pi}")
        return IsotopismStructure(comps[pi[0] - 1], comps[pi[1] - 1], comps[pi[2] - 1])

    def __str__(self) -> str:
        return f"{self.rows},{self.cols},{self.syms}"

    @classmethod
    def parse(cls, text: str, degree: Optional[int] = None) -> "IsotopismStructure":
        comps = text.split(",")
        if len(comps) != 3:
            raise ValueError(f"expected three comma-separated components: {text!r}")
        first = CycleStructure.parse(comps[0], degree)
        rest = [CycleStructure.parse(c, first.degree) for c in comps[1:]]
        return cls(first, rest[0], rest[1])


class LcmTriple(NamedTuple):
    """A triple of cycle lengths whose pairwise lcms all equal the full lcm."""

    i: int
    j: int
    k: int


# ----------------------------------------------------------------------
# Partitions and minimal-part counts
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions_count(n: int) -> int:
    """The number p(n) of integer partitions of n, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partitions_count(n - g1)
        if g2 <= n:
            total += sign * partitions_count(n - g2)
        k += 1
    return total


@lru_cache(maxsize=None)
def cs_nm_count(n: int, m: int) -> int:
    """Number of partitions of n whose minimal part is exactly m.

    Cases: 1 when m = n; 0 when n/2 < m < n (two parts of size > n/2 cannot
    fit); otherwise p(n - m) minus the partitions of n - m with minimal part
    below m.
    """
    if m < 1 or m > n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    if m == n:
        return 1
    if 2 * m > n:
        return 0
    return partitions_count(n - m) - sum(cs_nm_count(n - m, i) for i in range(1, m))


def partitions_desc(n: int, max_part: Optional[int] = None) -> list[tuple[int, ...]]:
    """All partitions of n as decreasing tuples, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    bound = n if max_part is None else min(max_part, n)
    if bound < 1:  # only 0 has a partition without parts
        return [()] if n == 0 else []
    return list(_partitions(n, bound, Budget()))


def _partitions(n: int, bound: int, budget: Budget) -> Iterator[tuple[int, ...]]:
    """The partitions of n >= 1 into parts <= bound, bound >= 1, in
    descending lexicographic order, by algorithm ZS1 (Zoghbi and
    Stojmenovic, 1998): x[h] is the last part above 1, and every entry after
    it is 1.  Past the budget's deadline, TimeBudgetExceededError is raised."""
    q, r = divmod(n, bound)
    x = [bound] * q + [r] * (r > 0) + [1] * n
    m = q + (r > 0)  # the number of parts
    h = q - (r < 2) if bound > 1 else -1
    yield tuple(x[:m])
    while x[0] != 1:
        budget.check_time()
        if x[h] == 2:  # 2 becomes 1 + 1
            x[h] = 1
            m += 1
            h -= 1
        else:  # lower x[h] by one and refill the rest with parts up to that
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:m])


# ----------------------------------------------------------------------
# Admissibility: which structures belong to autotopisms
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def lcm_triple_set(n: int) -> frozenset[LcmTriple]:
    """All (i, j, k) in [n]^3 with lcm(i,j) = lcm(i,k) = lcm(j,k) = lcm(i,j,k)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lij = lcm(i, j)
            for k in range(1, n + 1):
                if lcm(i, k) == lij and lcm(j, k) == lij:
                    out.add(LcmTriple(i, j, k))
    return frozenset(out)


@lru_cache(maxsize=None)
def _symbol_masks(n: int) -> dict[tuple[int, int], int]:
    """For each (i, j), the bitmask of lengths k with (i, j, k) admissible.

    Bit k-1 is set when (i, j, k) is in the lcm triple set of order n.
    """
    masks: dict[tuple[int, int], int] = {}
    for t in lcm_triple_set(n):
        masks[(t.i, t.j)] = masks.get((t.i, t.j), 0) | (1 << (t.k - 1))
    return masks


def _support_mask(parts: Iterable[int]) -> int:
    mask = 0
    for p in parts:
        mask |= 1 << (p - 1)
    return mask


def _lengths(support: int) -> tuple[int, ...]:
    """The lengths in a support mask, increasing."""
    return tuple(k for k in range(1, support.bit_length() + 1) if support >> (k - 1) & 1)


def is_autotopism_structure(z: IsotopismStructure) -> bool:
    """Whether some non-empty partial Latin square admits an autotopism with this structure."""
    n = z.degree
    masks = _symbol_masks(n)
    sym_mask = _support_mask(z.syms.support())
    for i in z.rows.support():
        for j in z.cols.support():
            if masks.get((i, j), 0) & sym_mask:
                return True
    return False


def _length_masks(n: int, rows: Iterable[int]) -> list[int]:
    """K_A(j) for the row lengths A: entry j - 1 is the mask of symbol
    lengths k with (i, j, k) admissible for some i in A."""
    sym = _symbol_masks(n)
    out = []
    for j in range(1, n + 1):
        acc = 0
        for i in rows:
            acc |= sym.get((i, j), 0)
        out.append(acc)
    return out


def enumerate_autotopism_structures(n: int, *, budget: Optional[Budget] = None
                                     ) -> list[IsotopismStructure]:
    """All admissible structures of order n.

    Components iterate over partitions in descending lexicographic order, the
    triple in row-major order over that sequence; the output order is part of
    the contract (the reference CSVs and the CLI listings rely on it).  Past
    the budget's deadline, TimeBudgetExceededError is raised.
    """
    return list(_admissible_structures(n, budget or Budget(), ascending=False))


def parastrophic_representatives(n: int, *, budget: Optional[Budget] = None
                                 ) -> Iterator[IsotopismStructure]:
    """One admissible structure of order n per parastrophic class: its
    first member in the order of enumerate_autotopism_structures(n).

    That order is lexicographic in the partition indices (a, b, c) of the
    components, so the first member has a <= b <= c, and only those triples
    are walked.  The structures are made as they are iterated, so a caller
    that keeps only their text never holds them all.  The budget is as for
    enumerate_autotopism_structures.
    """
    return _admissible_structures(n, budget or Budget(), ascending=True)


def _admissible_structures(n: int, budget: Budget, ascending: bool
                           ) -> Iterator[IsotopismStructure]:
    """The admissible triples (a, b, c) of partition indices in lexicographic
    order; all of them, or with ascending only those with a <= b <= c."""
    if n < 1:
        raise ValueError("n must be positive")
    structs, supports = [], []
    for parts in _partitions(n, n, budget):
        structs.append(CycleStructure.from_parts(parts, n))
        supports.append(_support_mask(parts))
    lengths = [_lengths(sb) for sb in supports]
    for a, za in enumerate(structs):
        ka = _length_masks(n, lengths[a])
        for b in range(a if ascending else 0, len(structs)):
            budget.check_time()
            kmask = 0  # K(A, B), the admissible symbol lengths
            for j in lengths[b]:
                kmask |= ka[j - 1]
            if kmask:
                zb = structs[b]
                yield from (IsotopismStructure(za, zb, structs[c])
                            for c in range(b if ascending else 0, len(structs))
                            if supports[c] & kmask)


def count_autotopism_structures(n: int, *, budget: Optional[Budget] = None) -> int:
    """|enumerate_autotopism_structures(n)| without materializing the
    structures; budget is as for count_structures_and_classes."""
    return count_structures_and_classes(n, budget=budget)[0]


def count_parastrophic_classes(n: int, *, budget: Optional[Budget] = None) -> int:
    """Number of parastrophic classes of admissible structures of order n;
    budget is as for count_structures_and_classes."""
    return count_structures_and_classes(n, budget=budget)[1]


def count_structures_and_classes(n: int, *, budget: Optional[Budget] = None
                                 ) -> tuple[int, int]:
    """count_autotopism_structures(n) and count_parastrophic_classes(n) in
    one pass.

    Admissibility depends only on the three supports.  Each partition gets
    one bit, the w_A partitions of support A on consecutive bits, so an int
    is a set of partitions.  Rows of support A and columns of support B
    make w_A * w_B times as many structures as there are partitions whose
    support meets K(A, B), the union of K_A(j) over j in B.  The classes
    come from Burnside over S_3 permuting the components: the identity
    fixes every admissible structure, a transposition those with the two
    swapped components equal, a 3-cycle those with all three equal; the
    test is symmetric, so the term B = A serves all three transpositions.
    Past the budget's deadline, also while the partitions are listed,
    TimeBudgetExceededError is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    budget = budget or Budget()
    per_support: dict[int, int] = {}  # w_A by support A
    for parts in _partitions(n, n, budget):
        mask = _support_mask(parts)
        per_support[mask] = per_support.get(mask, 0) + 1
    groups = [(mask, w, _lengths(mask)) for mask, w in per_support.items()]
    having = [0] * n  # having[k - 1]: the partitions with a part k
    offset = 0
    for _, w, ls in groups:
        for k in ls:
            having[k - 1] |= ((1 << w) - 1) << offset
        offset += w
    meeting: dict[int, int] = {}

    def meets(kmask: int) -> int:
        """The partitions whose support meets kmask."""
        if kmask not in meeting:
            hit = 0
            for k in _lengths(kmask):
                hit |= having[k - 1]
            meeting[kmask] = hit
        return meeting[kmask]

    full = two_equal = all_equal = 0
    for a_mask, wa, la in groups:
        budget.check_time()
        ka = _length_masks(n, la)
        va = [meets(kmask) for kmask in ka]
        row = 0
        for _, wb, lb in groups:
            hit = 0
            for j in lb:
                hit |= va[j - 1]
            row += wb * hit.bit_count()
        full += wa * row
        kmask = 0  # K(A, A)
        for j in la:
            kmask |= ka[j - 1]
        two_equal += wa * meets(kmask).bit_count()
        if a_mask & kmask:
            all_equal += wa
    numerator = full + 3 * two_equal + 2 * all_equal
    if numerator % 6:
        raise AssertionError("Burnside sum not divisible by the group order")
    return full, numerator // 6


def parastrophic_class_count(structures: Iterable[IsotopismStructure]) -> int:
    """Number of orbits of the given structures under component permutation.

    Each orbit is counted at the member that parastrophic_representatives
    would list, the one whose components' parts descend.  The input must be
    closed under the S_3 action; a non-closed input is rejected rather than
    silently completed.
    """
    pool = set(structures)
    for z in pool:
        for pi in ((2, 1, 3), (1, 3, 2)):  # these two transpositions generate S_3
            member = z.permuted(pi)
            if member not in pool:
                raise ValueError(
                    f"input not closed under component permutation: {member} missing"
                )
    return sum(z.rows.parts() >= z.cols.parts() >= z.syms.parts() for z in pool)


def lower_bound_structures(n: int) -> int:
    """Sum over admissible length triples of the products of minimal-part partition counts."""
    total = 0
    for t in lcm_triple_set(n):
        total += cs_nm_count(n, t.i) * cs_nm_count(n, t.j) * cs_nm_count(n, t.k)
    return total
