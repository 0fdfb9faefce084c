"""Tests for the LP/ideal exports and assignment decoding.

The exported text is checked by re-parsing it with a deliberately small
solver written right here: wrapped rows are unfolded, the at-most-one rows
and equality rows are read back as variable lists, and feasible 0/1 points
are counted by backtracking over the equality classes.  This keeps the
check independent of the library's own counting path.
"""

from __future__ import annotations

import random
import re
from itertools import product

import pytest

from latinsym.perm_algebra import IsotopismStructure
from latinsym.pls_core import Isotopism, PartialLatinSquare, canonical_isotopism
from latinsym.orbit_enum import delta_census, delta_full
from latinsym.completion import is_theta_completable
from latinsym.model_export import (
    WeightedModel,
    decode_solution,
    encode_square,
    export_ideal,
    export_ip,
    variable_name,
)

from oracles import iter_invariant_squares


def rep_of(spec: str) -> Isotopism:
    return canonical_isotopism(IsotopismStructure.parse(spec))


# ----------------------------------------------------------------------
# A tiny reader/solver for the exported LP text
# ----------------------------------------------------------------------

def unfold(text: str) -> list[str]:
    """Rejoin wrapped rows: continuation lines start with deep indentation."""
    rows: list[str] = []
    for line in text.splitlines():
        if line.startswith("      ") and rows:
            rows[-1] += line[5:]
        else:
            rows.append(line)
    return rows


def parse_lp(text: str):
    rows = unfold(text)
    le_rows: list[list[str]] = []
    eq_pairs: list[tuple[str, str]] = []
    size_row = None
    binaries: list[str] = []
    section = None
    for row in rows:
        if row in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = row
            continue
        body = row.strip()
        if section == "Subject To":
            name, expr = body.split(":", 1)
            if name.startswith(("cs_", "rs_", "rc_")):
                vars_ = expr.replace("<= 1", "").replace("+", " ").split()
                le_rows.append(vars_)
            elif name.startswith("sym_"):
                left = expr.replace("= 0", "").split("-")
                eq_pairs.append((left[0].strip(), left[1].strip()))
            elif name == "size":
                expr, _, m = expr.partition("=")
                size_row = (expr.replace("+", " ").split(), int(m))
        elif section == "Binaries":
            binaries.extend(body.split())
    return le_rows, eq_pairs, size_row, binaries


def count_feasible(text: str) -> int:
    """Backtracking count of 0/1 points satisfying the parsed system."""
    le_rows, eq_pairs, size_row, binaries = parse_lp(text)

    # Union the equality pairs into classes; one decision per class.
    leader = {v: v for v in binaries}

    def find(v):
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    for a, b in eq_pairs:
        leader[find(a)] = find(b)
    classes: dict[str, list[str]] = {}
    for v in binaries:
        classes.setdefault(find(v), []).append(v)
    reps = sorted(classes)

    row_of_var: dict[str, list[int]] = {v: [] for v in binaries}
    for idx, vars_ in enumerate(le_rows):
        for v in vars_:
            row_of_var[v].append(idx)
    sums = [0] * len(le_rows)
    total_vars = {v: i for i, v in enumerate(binaries)}
    assert len(total_vars) == len(binaries)

    size_target = size_row[1] if size_row else None
    count = 0
    placed = 0

    def rec(k: int) -> None:
        nonlocal count, placed
        if size_target is not None:
            remaining = sum(len(classes[r]) for r in reps[k:])
            if placed > size_target or placed + remaining < size_target:
                return
        if k == len(reps):
            if size_target is None or placed == size_target:
                count += 1
            return
        rec(k + 1)  # class at zero
        members = classes[reps[k]]
        ok = True
        touched = []
        for v in members:
            for idx in row_of_var[v]:
                sums[idx] += 1
                touched.append(idx)
                if sums[idx] > 1:
                    ok = False
        if ok:
            placed += len(members)
            rec(k + 1)
            placed -= len(members)
        for idx in touched:
            sums[idx] -= 1

    rec(0)
    return count


# ----------------------------------------------------------------------
# LP export
# ----------------------------------------------------------------------

def test_lp_order_one_shape():
    text = export_ip(WeightedModel(Isotopism.identity(1)))
    le_rows, eq_pairs, size_row, binaries = parse_lp(text)
    assert len(le_rows) == 3
    assert eq_pairs == []
    assert size_row is None
    assert binaries == ["x_1_1_1"]


def test_lp_row_counts_and_sections():
    t = rep_of("2.1,2.1,2.1")
    text = export_ip(WeightedModel(t))
    le_rows, eq_pairs, size_row, binaries = parse_lp(text)
    assert len(le_rows) == 27
    assert len(binaries) == 27
    assert text.index("Minimize") < text.index("Subject To") < text.index("Bounds")
    assert text.index("Bounds") < text.index("Binaries") < text.index("End")


def test_lp_symmetry_rows_pair_orbit_mates():
    t = Isotopism.parse("(1 2);(1 2);(1 2)", degree=2)
    text = export_ip(WeightedModel(t))
    assert " sym_1_1: x_1_1_1 - x_2_2_2 = 0" in text.splitlines()
    # the flip has no fixed triples at order 2, so four orbits of two
    assert sum(1 for line in text.splitlines() if line.lstrip().startswith("sym_")) == 4


def test_lp_deterministic():
    t = rep_of("2.1^2,2.1^2,2.1^2")
    model = WeightedModel(t, target_size=7)
    assert export_ip(model) == export_ip(model)
    reordered = WeightedModel(t, target_size=7,
                              weights={(2, 1, 1): 0.0, (1, 1, 1): 0.0})
    plain = WeightedModel(t, target_size=7,
                          weights={(1, 1, 1): 0.0, (2, 1, 1): 0.0})
    assert export_ip(reordered) == export_ip(plain)


def test_lp_objective_carries_weights():
    model = WeightedModel(Isotopism.identity(2),
                          weights={(1, 1, 1): 2.5, (1, 1, 2): -0.0, (2, 2, 2): -1.0})
    obj = unfold(export_ip(model))[1]
    assert "2.5 x_1_1_1" in obj
    assert "+ 0.0 x_1_1_2" in obj  # one sign, not "+ -0.0"
    assert "- 1.0 x_2_2_2" in obj


@pytest.mark.parametrize(
    "spec",
    ["2,2,2", "2,2,1^2", "1^2,1^2,1^2", "3,3,3", "2.1,2.1,2.1"],
)
def test_lp_feasible_points_match_census(spec):
    t = rep_of(spec)
    census = delta_census(t)
    text = export_ip(WeightedModel(t))
    assert count_feasible(text) == census.total + 1  # plus the empty point
    for size, expected in sorted(census.per_size.items()):
        sized = export_ip(WeightedModel(t, target_size=size))
        assert count_feasible(sized) == expected, (spec, size)


def test_lp_full_size_matches_full_count():
    for spec in ("2,2,1^2", "3,3,3", "2.1,2.1,2.1"):
        t = rep_of(spec)
        n = t.degree
        text = export_ip(WeightedModel(t, target_size=n * n))
        assert count_feasible(text) == delta_full(t), spec


def milp_feasible(text: str, ones: frozenset) -> bool:
    """Whether the LP text has a 0/1 point with the triples in ones set to 1,
    as scipy's MILP solver finds."""
    optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    le_rows, eq_pairs, size_row, binaries = parse_lp(text)
    col = {v: i for i, v in enumerate(binaries)}
    rows = [({v: 1 for v in vs}, -np.inf, 1) for vs in le_rows]
    rows += [({a: 1, b: -1}, 0, 0) for a, b in eq_pairs]
    if size_row:
        names, m = size_row
        rows.append(({v: 1 for v in names}, m, m))
    A = np.zeros((len(rows), len(binaries)))
    for k, (coeffs, _, _) in enumerate(rows):
        for v, a in coeffs.items():
            A[k, col[v]] = a
    lower = np.zeros(len(binaries))
    for triple in ones:
        lower[col[variable_name(*triple)]] = 1
    result = optimize.milp(
        np.zeros(len(binaries)),
        constraints=optimize.LinearConstraint(A, [lo for _, lo, _ in rows],
                                              [hi for _, _, hi in rows]),
        integrality=np.ones(len(binaries)),
        bounds=optimize.Bounds(lower, 1),
    )
    assert result.status in (0, 2), result.message  # solved, or infeasible
    return result.status == 0


def test_lp_milp_witness_matches_theta_completability():
    # P's cells fixed at 1 and the size at n^2: the LP is feasible exactly
    # when an invariant full square contains P
    rng = random.Random(71)
    four = Isotopism.parse("(1 2)(3 4);(1 2)(3 4);(1 2)", degree=4)
    cases = [(four, frozenset({(1, 1, 3), (1, 2, 4), (2, 1, 4), (2, 2, 3)}))]
    # the 32 size-2 squares of the disputed table-5 row, 8 of which do not
    # complete though the reference table says they all do
    disputed = rep_of("2.1^2,2.1^2,2.1^2")
    cases += [(disputed, cells) for cells in iter_invariant_squares(disputed, 2)
              if len(cells) == 2]
    for spec in ("2.1^2,2.1^2,2.1^2", "2^2,2^2,2^2", "1^3,1^3,1^3",
                 "3.1,3.1,3.1", "2,2,1^2"):
        t = rep_of(spec)
        squares = list(iter_invariant_squares(t))
        cases += [(t, cells) for cells in rng.sample(squares, min(8, len(squares)))]
    verdicts = []
    for t, cells in cases:
        n = t.degree
        text = export_ip(WeightedModel(t, target_size=n * n))
        verdict = is_theta_completable(t, PartialLatinSquare(n, cells))
        assert milp_feasible(text, cells) == verdict, (t, sorted(cells))
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ----------------------------------------------------------------------
# Ideal export
# ----------------------------------------------------------------------

def generator_count(n: int) -> int:
    return 2 * n ** 3 + 3 * n ** 2 + 1


def test_ideal_generator_counts():
    assert len(export_ideal(WeightedModel(Isotopism.identity(1), target_size=1)).splitlines()) == 6
    assert len(export_ideal(WeightedModel(Isotopism.identity(2), target_size=3)).splitlines()) == 29
    for n in (1, 2, 3, 4, 5):
        t = Isotopism.identity(n)
        text = export_ideal(WeightedModel(t, target_size=1))
        assert len(text.splitlines()) == generator_count(n)


def test_ideal_requires_target_size():
    with pytest.raises(ValueError):
        export_ideal(WeightedModel(Isotopism.identity(2)))


def evaluate_ideal(text: str, n: int, cells) -> list:
    arr = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for (r, c, s) in cells:
        arr[r][c][s] = 1
    return [eval(line, {"x": arr}) for line in text.splitlines()]


def test_ideal_vanishes_exactly_on_members():
    t = rep_of("2,2,1^2")
    members = list(iter_invariant_squares(t))
    for size in (2, 4):
        text = export_ideal(WeightedModel(t, target_size=size))
        for cells in members:
            values = evaluate_ideal(text, 2, cells)
            if len(cells) == size:
                assert not any(values)
            else:
                assert any(values)
    # a square that is not invariant violates a symmetry generator
    text = export_ideal(WeightedModel(t, target_size=1))
    assert any(evaluate_ideal(text, 2, [(1, 1, 1)]))
    # and a repeated symbol in a row violates a quadratic
    text_id = export_ideal(WeightedModel(Isotopism.identity(2), target_size=2))
    assert any(evaluate_ideal(text_id, 2, [(1, 1, 1), (1, 2, 1)]))


def ideal_solution_count(text: str) -> int:
    """Number of points of the ideal, as sympy's Groebner basis finds.

    Every variable x has the generator x(1 - x), so the ideal is radical
    and its points are 0/1; their number is the dimension of the quotient
    ring, the count of monomials that no leading monomial of the basis
    divides.  Those are squarefree, since x^2 leads x^2 - x."""
    sympy = pytest.importorskip("sympy")
    text = re.sub(r"x\[(\d+)\]\[(\d+)\]\[(\d+)\]", r"x_\1_\2_\3", text)
    gens = [g for g in map(sympy.sympify, text.splitlines()) if g != 0]
    xs = sorted(set().union(*(g.free_symbols for g in gens)), key=str)
    basis = sympy.groebner(gens, *xs, order="grevlex")  # [1] if no points
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(
        not any(all(a <= b for a, b in zip(lead, mono)) for lead in leads)
        for mono in product((0, 1), repeat=len(xs))
    )


def test_ideal_groebner_witness_matches_census():
    # at n = 2 the ideal's points are the invariant squares of size m
    for spec in ("1^2,1^2,1^2", "2,2,2"):  # 2,2,2 has no fixed points
        t = rep_of(spec)
        census = delta_census(t)
        for m in (1, 2, 3, 4):
            text = export_ideal(WeightedModel(t, target_size=m))
            assert ideal_solution_count(text) == census.count(m), (spec, m)


def test_ideal_deterministic():
    model = WeightedModel(rep_of("3,3,3"), target_size=3)
    assert export_ideal(model) == export_ideal(model)


# ----------------------------------------------------------------------
# Encoding and decoding
# ----------------------------------------------------------------------

def random_invariant_square(rng: random.Random, t: Isotopism) -> PartialLatinSquare:
    pool = [cells for cells in iter_invariant_squares(t)]
    return PartialLatinSquare(t.degree, rng.choice(pool))


def test_encode_decode_round_trip():
    rng = random.Random(23)
    for spec in ("2,2,1^2", "2.1,2.1,2.1", "2.1^2,2.1^2,2.1^2", "4,4,1^4"):
        t = rep_of(spec)
        for _ in range(5):
            P = random_invariant_square(rng, t)
            assert decode_solution(t.degree, encode_square(P)) == P


def test_encode_covers_all_variables_in_order():
    P = PartialLatinSquare.from_cells(2, [(1, 2, 1)])
    enc = encode_square(P)
    assert list(enc) == [variable_name(r, c, s)
                         for r in (1, 2) for c in (1, 2) for s in (1, 2)]
    assert sum(enc.values()) == 1


def test_decode_accepts_ideal_naming():
    assignment = {f"x[{r}][{c}][{s}]": 0 for r, c, s in product((1, 2), repeat=3)}
    assignment["x[1][2][1]"] = 1
    P = decode_solution(2, assignment)
    assert P.cells == frozenset({(1, 2, 1)})


def test_decode_errors():
    good = encode_square(PartialLatinSquare.from_cells(2, [(1, 1, 1)]))
    with pytest.raises(ValueError, match="misses"):
        decode_solution(2, {k: v for k, v in list(good.items())[:-1]})
    with pytest.raises(ValueError, match="non-binary"):
        decode_solution(2, {**good, "x_1_1_2": 2})
    with pytest.raises(ValueError, match="unrecognized"):
        decode_solution(2, {**good, "y_0": 0})
    with pytest.raises(ValueError, match="twice"):
        decode_solution(2, {**good, "x[1][1][1]": 1})
    with pytest.raises(ValueError, match="out of range"):
        decode_solution(2, {**good, "x_3_1_1": 0})
    # only x_R_C_S and x[R][C][S]: each name below stands in for x_1_2_3,
    # and none may decode as (1, 2, 3)
    good = encode_square(PartialLatinSquare.from_cells(3, [(1, 1, 1)]))
    for name in ("x[1_2][3", "x_1]][2[3]", "x[1][2][3", "x_1__2_3", "x_1_2_3\n",
                 "x[1]_2_3", "x_1_2_3]", "x_\u0661_2_3"):
        renamed = {(name if key == "x_1_2_3" else key): v for key, v in good.items()}
        with pytest.raises(ValueError, match="unrecognized"):
            decode_solution(3, renamed)


def test_decode_empty_assignment():
    zeros = {variable_name(r, c, s): 0 for r, c, s in product((1, 2), repeat=3)}
    with pytest.raises(ValueError, match="empty"):
        decode_solution(2, zeros)
    P = decode_solution(2, zeros, allow_empty=True)
    assert P.is_empty()


def test_decode_reports_latin_violation():
    enc = {variable_name(r, c, s): 0 for r, c, s in product((1, 2), repeat=3)}
    enc["x_1_1_1"] = 1
    enc["x_1_2_1"] = 1
    with pytest.raises(ValueError, match="symbol 1 repeated in row 1"):
        decode_solution(2, enc)


def test_model_validation():
    with pytest.raises(ValueError):
        WeightedModel(Isotopism.identity(0))
    with pytest.raises(ValueError):
        WeightedModel(Isotopism.identity(2), target_size=5)
    # a key is a triple of ints in range; any other would weigh nothing
    for key in ((3, 1, 1), (1.5, 1, 1), (True, 1, 1), (1, 1), 1, "111"):
        with pytest.raises(ValueError, match="weight key"):
            WeightedModel(Isotopism.identity(2), weights={key: 1.0})
    # a weight is written into the LP objective as it prints
    for w in (float("nan"), float("inf"), -float("inf"), True, "3", None):
        with pytest.raises(ValueError, match="weight"):
            WeightedModel(Isotopism.identity(2), weights={(1, 1, 1): w})
    for w in (3, -2.5, 0):
        WeightedModel(Isotopism.identity(2), weights={(1, 1, 1): w})
