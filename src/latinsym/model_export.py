"""Solver-ready exports of the symmetry-constrained assignment model.

The invariant squares of an isotopism are exactly the 0/1 points of a small
linear system: one binary x_r_c_s per cell-symbol choice, at-most-one rows
for the three coordinate-pair families, equalities tying the variables of
each triple orbit together, and optionally a size row.  Given the isotopism
and that optional target size, this module writes the system as LP text,
writes the equivalent polynomial ideal (the quadratic form of the same
constraints), and decodes 0/1 assignments coming back from an external
solver.  Each form has one layout: the LP has a zero objective and ties each
orbit as a chain of equalities, and the ideal keeps a literal 0 generator
for each fixed triple.  Counting stays in orbit_enum; nothing here solves
anything.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Optional

from .pls_core import Isotopism, PartialLatinSquare, triple_orbits


def variable_name(r: int, c: int, s: int) -> str:
    """LP-side variable for a cell-symbol choice; 1-based throughout."""
    return f"x_{r}_{c}_{s}"


def ideal_variable(r: int, c: int, s: int) -> str:
    return f"x[{r}][{c}][{s}]"


def _checked_order(t: Isotopism, target_size: Optional[int]) -> int:
    """The model's order, t's degree, once it and target_size are valid."""
    n = t.degree
    if n < 1:
        raise ValueError("order must be positive")
    if target_size is not None and not 1 <= target_size <= n * n:
        raise ValueError(f"target size must lie in 1..{n * n}")
    return n


def _triples(n: int):
    """All (r, c, s) in the flattening order of the 0/1 encoding: symbol
    fastest, then column, then row."""
    return product(range(1, n + 1), repeat=3)


def _at_most_one_rows(n: int):
    """(label, triples) of each at-most-one row, the cs rows (a column and
    a symbol, over the rows) first, then rs, then rc."""
    points = range(1, n + 1)
    for c, s in product(points, repeat=2):
        yield f"cs_{c}_{s}", [(r, c, s) for r in points]
    for r, s in product(points, repeat=2):
        yield f"rs_{r}_{s}", [(r, c, s) for c in points]
    for r, c in product(points, repeat=2):
        yield f"rc_{r}_{c}", [(r, c, s) for s in points]


# ----------------------------------------------------------------------
# LP text
# ----------------------------------------------------------------------

_TERMS_PER_LINE = 8


def _wrapped(prefix: str, terms: list[str], tail: str) -> list[str]:
    """One logical row, wrapped to keep lines short; continuation lines are
    indented so LP parsers treat them as part of the same row."""
    lines = []
    cur = prefix
    for i, term in enumerate(terms):
        piece = term if i == 0 else " " + term
        if i and i % _TERMS_PER_LINE == 0:
            lines.append(cur)
            cur = "      " + term
        else:
            cur += piece
    lines.append(cur + tail)
    return lines


def export_ip(t: Isotopism, target_size: Optional[int] = None) -> str:
    """The invariant-square system of t as fixed-format LP text.

    Rows appear family by family: at-most-one over rows for each column and
    symbol, over columns for each row and symbol, over symbols for each cell,
    then the symmetry equalities, then the optional size row.  The symmetry
    block ties each triple orbit as a chain, each triple equal to the next,
    without the implied closing equation.  The objective is zero: every
    feasible point counts alike.
    """
    n = _checked_order(t, target_size)
    out: list[str] = ["Minimize"]
    zero = [f"0 {variable_name(*triple)}" for triple in _triples(n)]
    out += _wrapped(" obj: ", _join_plain(zero), "")
    out.append("Subject To")

    for label, triples in _at_most_one_rows(n):
        terms = [variable_name(*triple) for triple in triples]
        out += _wrapped(f" {label}: ", _join_plain(terms), " <= 1")

    for k, orbit in enumerate(triple_orbits(t)):
        cells = orbit.triples
        for step in range(len(cells) - 1):
            a = variable_name(*cells[step])
            b = variable_name(*cells[step + 1])
            out.append(f" sym_{k + 1}_{step + 1}: {a} - {b} = 0")

    if target_size is not None:
        terms = [variable_name(r, c, s) for (r, c, s) in _triples(n)]
        out += _wrapped(" size: ", _join_plain(terms), f" = {target_size}")

    out.append("Bounds")
    for triple in _triples(n):
        out.append(f" 0 <= {variable_name(*triple)} <= 1")
    out.append("Binaries")
    out += _wrapped(" ", [variable_name(*triple) for triple in _triples(n)], "")
    out.append("End")
    return "\n".join(out) + "\n"


def _join_plain(names: list[str]) -> list[str]:
    return [names[0]] + [f"+ {name}" for name in names[1:]]


# ----------------------------------------------------------------------
# Polynomial ideal text
# ----------------------------------------------------------------------

def export_ideal(t: Isotopism, target_size: Optional[int]) -> str:
    """The same feasible set, of squares of size target_size, as the
    vanishing locus of quadratic generators.

    Six families, one generator per line: the at-most-one quadratics for the
    three coordinate-pair families, the idempotents, the symmetry
    differences, and the size equation.  A symmetry difference at a fixed
    triple is identically zero; it is kept as a literal 0 line so the
    generator count stays at 2n^3 + 3n^2 + 1.
    """
    n = _checked_order(t, target_size)
    if target_size is None:
        raise ValueError("the ideal form needs a target size")
    lines: list[str] = []
    for _, triples in _at_most_one_rows(n):
        inner = "+".join(ideal_variable(*triple) for triple in triples)
        lines.append(f"({inner})*(1-{inner.replace('+', '-')})")

    for triple in _triples(n):
        name = ideal_variable(*triple)
        lines.append(f"{name}*(1-{name})")

    for triple in _triples(n):
        image = t.apply_triple(triple)
        if image == triple:
            lines.append("0")
        else:
            lines.append(f"{ideal_variable(*triple)}-{ideal_variable(*image)}")

    total = "+".join(ideal_variable(*triple) for triple in _triples(n))
    lines.append(f"{target_size}-({total})")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Assignment encoding and decoding
# ----------------------------------------------------------------------

_NAME_PATTERN = re.compile(
    r"x_([0-9]+)_([0-9]+)_([0-9]+)|x\[([0-9]+)\]\[([0-9]+)\]\[([0-9]+)\]"
)


def _parse_name(name: str) -> tuple[int, int, int]:
    """(r, c, s) of exactly x_r_c_s or x[r][c][s]; anything else is refused."""
    match = _NAME_PATTERN.fullmatch(name)
    if not match:
        raise ValueError(f"unrecognized variable name {name!r}")
    return tuple(int(g) for g in match.groups() if g is not None)  # type: ignore[return-value]


def encode_square(P: PartialLatinSquare) -> dict[str, int]:
    """The 0/1 vector of a square as a name -> value map, every variable
    present, in the flattening order."""
    return {
        variable_name(r, c, s): int((r, c, s) in P.cells)
        for (r, c, s) in _triples(P.n)
    }


def decode_solution(n: int, assignment: dict[str, int], *,
                    allow_empty: bool = False) -> PartialLatinSquare:
    """Rebuild the square from a solver's 0/1 assignment.

    Accepts both the LP naming x_r_c_s and the ideal naming x[r][c][s].  The
    assignment must cover all n^3 variables with 0/1 values; the Latin
    condition is re-checked, so an infeasible vector is reported rather than
    silently decoded.
    """
    values: dict[tuple[int, int, int], int] = {}
    for name, value in assignment.items():
        triple = _parse_name(name)
        r, c, s = triple
        if not (1 <= r <= n and 1 <= c <= n and 1 <= s <= n):
            raise ValueError(f"variable {name!r} out of range for order {n}")
        if value not in (0, 1):
            raise ValueError(f"variable {name!r} has non-binary value {value!r}")
        if triple in values:
            raise ValueError(f"variable {name!r} assigned twice")
        values[triple] = value
    missing = n ** 3 - len(values)
    if missing:
        raise ValueError(f"assignment misses {missing} of the {n ** 3} variables")
    cells = frozenset(triple for triple, v in values.items() if v)
    if not cells and not allow_empty:
        raise ValueError(
            "the all-zero assignment decodes to an empty square; "
            "pass allow_empty to accept it"
        )
    return PartialLatinSquare(n, cells)
