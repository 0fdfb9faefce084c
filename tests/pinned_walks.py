"""The completability censuses and bases of a fixed set of isotopisms,
folded into one SHA-256 digest, so that a change to how they are computed
can be checked against the results of the code it replaces.

The cases:
- the censuses of every structure of order <= 4, each for its canonical
  isotopism and for a random conjugate of it, and of one structure per
  parastrophic class of order 5 other than 1^5;
- the bases of the same order-<= 4 isotopisms, in each of the three views,
  for the fixed-point shape and for the shape of the two cycles through
  point 1.  A basis that raises ValueError contributes its message.

Run as a script to print the digests: PYTHONPATH=src python tests/pinned_walks.py
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

from latinsym.completion import ShapeSet, basis_from_shape, completability_census
from latinsym.perm_algebra import enumerate_autotopism_structures, parastrophic_representatives
from latinsym.pls_core import Isotopism, canonical_isotopism

from test_orbit_enum import random_conjugate

SEED = 1959
VIEWS = {"RC": (0, 1), "RS": (0, 2), "CS": (1, 2)}


def small_isotopisms() -> list[Isotopism]:
    """Every structure of order <= 4: its canonical isotopism, then a random
    conjugate of it, one seeded generator throughout."""
    rng = random.Random(SEED)
    out = []
    for n in (1, 2, 3, 4):
        for z in enumerate_autotopism_structures(n):
            t = canonical_isotopism(z)
            out += [t, random_conjugate(rng, t)]
    return out


def census_isotopisms() -> list[Isotopism]:
    return small_isotopisms() + [
        canonical_isotopism(z) for z in parastrophic_representatives(5)
        if str(z) != "1^5,1^5,1^5"]


def shapes(t: Isotopism) -> list[ShapeSet]:
    """Per view: the fixed points of its two permutations paired, and the
    cycle through point 1 of the first paired with that of the second."""
    out = []
    for mode, (i, j) in VIEWS.items():
        first, second = t.components[i], t.components[j]
        out.append(ShapeSet(frozenset((a, b) for a in first.fixed_points()
                                      for b in second.fixed_points()), mode))
        a_cycle, b_cycle = (next(c for c in p.cycles() if 1 in c) for p in (first, second))
        out.append(ShapeSet(frozenset(product(a_cycle, b_cycle)), mode))
    return out


def _images(t: Isotopism) -> tuple:
    return (t.alpha.images, t.beta.images, t.gamma.images)


def census_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    ts = census_isotopisms()
    for t in ts:
        h.update(repr((_images(t), sorted(completability_census(t).per_size.items())))
                 .encode())
    return h.hexdigest(), len(ts)


def basis_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    calls = 0
    for t in small_isotopisms():
        for shape in shapes(t):
            calls += 1
            try:
                basis = basis_from_shape(t, shape)
            except ValueError as exc:
                got = ("ValueError", str(exc))
            else:
                got = ([tuple(sorted(P.cells)) for P in basis.elements],
                       basis.counts, basis.homogeneous)
            h.update(repr((_images(t), shape.mode, sorted(shape.pairs), got)).encode())
    return h.hexdigest(), calls


if __name__ == "__main__":
    print(census_digest())
    print(basis_digest())
