"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints "criterion K: PASS ..." or "criterion K: FAIL ..." so the
suite output doubles as the release checklist (with -rA the lines of passing
tests show up under PASSES).  Checks re-derive their numbers through the
public API and compare against the reference CSV files shipped inside the
package; nothing here trusts caches built by the other test files.
"""

import csv
import random
import time
from collections import Counter
from importlib import resources

import oracles
from oracles import iter_invariant_squares

from latinsym.cli import main as cli_main
from latinsym.completion import (
    ShapeSet,
    basis_from_shape,
    completability_census,
    count_completions,
    delta_via_symmetry,
    homogeneous_basis,
    is_completable,
    is_theta_completable,
)
from latinsym.model_export import decode_solution, encode_square
from latinsym.orbit_enum import (
    candidate_sizes,
    delta_census,
    delta_closed_nnn,
    delta_closed_row_col_ncycle,
    delta_full,
    delta_min_size,
    delta_size_one,
    size_bounds,
)
from latinsym.perm_algebra import (
    IsotopismStructure,
    Permutation,
    count_autotopism_structures,
    count_parastrophic_classes,
    enumerate_autotopism_structures,
)
from latinsym.pls_core import Isotopism, PartialLatinSquare, canonical_isotopism


class _criterion:
    """Context manager that prints the verdict line for one criterion."""

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.note = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "FAIL" if exc_type else "PASS"
        suffix = f" {self.note}" if self.note and exc_type is None else ""
        print(f"criterion {self.number}: {verdict} - {self.label}{suffix}")
        return False


def _reference_rows(name: str) -> list[list[str]]:
    with (resources.files("latinsym") / "data" / name).open() as fh:
        return list(csv.reader(fh))[1:]


def _image_tuples(t: Isotopism) -> tuple:
    n = t.degree
    return tuple(tuple(p(i) for i in range(1, n + 1)) for p in t.components)


def _random_isotopism(n: int, rng: random.Random) -> Isotopism:
    return Isotopism(
        *(Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(3))
    )


def _rep(zstr: str) -> Isotopism:
    return canonical_isotopism(IsotopismStructure.parse(zstr))


# ----------------------------------------------------------------------
# Criteria 1-4: table reproduction
# ----------------------------------------------------------------------

def test_criterion_1_classification_counts():
    with _criterion(1, "structure and class counts for n = 1..17") as c:
        started = time.perf_counter()
        computed = {}
        for row in _reference_rows("table1.csv"):
            n = int(row[0])
            got = (count_autotopism_structures(n), count_parastrophic_classes(n))
            assert got == (int(row[9]), int(row[10])), (n, got)
            computed[n] = got
        assert computed[4] == (65, 22)
        assert computed[17] == (24406191, 4110132)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
        c.note = f"(n=4: 65/22, n=17: 24406191/4110132, {elapsed:.1f}s)"


def test_criterion_2_small_order_spectra(capsys):
    with _criterion(2, "size spectra for every structure of order n <= 3") as c:
        started = time.perf_counter()
        assert cli_main(["reproduce", "--table", "2"]) == 0
        capsys.readouterr()
        assert delta_census(_rep("2.1,2.1,2.1")).total == 117
        assert delta_census(_rep("1^3,1^3,1^3")).total == 11775
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget is 5s"
        c.note = f"(totals 117 and 11775 confirmed, {elapsed:.1f}s)"


def test_criterion_3_order_four_spectra(capsys):
    with _criterion(3, "size spectra for every structure of order 4") as c:
        started = time.perf_counter()
        assert cli_main(["reproduce", "--table", "3"]) == 0
        capsys.readouterr()
        stress = delta_census(_rep("1^4,1^4,1^4"))
        assert stress.total == 127545136
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget is 600s"
        c.note = f"(stress row total 127545136, {elapsed:.1f}s)"


def _exhaustive_completability(zstr: str) -> tuple[dict, int]:
    """Independent per-size completability counts by brute containment."""
    t = _rep(zstr)
    n = t.degree
    imgs = _image_tuples(t)
    fulls = [L for L in oracles.all_latin_squares(n) if oracles.act(imgs, L) == L]
    per_size: Counter = Counter()
    for cells in iter_invariant_squares(t):
        if any(cells <= L for L in fulls):
            per_size[len(cells)] += 1
    return dict(per_size), len(fulls)


def test_criterion_4_completability_table(capsys):
    with _criterion(4, "completability census table for n <= 4"):
        started = time.perf_counter()
        rc = cli_main(["reproduce", "--table", "5"])
        out = capsys.readouterr().out
        assert completability_census(_rep("2.1,2.1,2.1")).total == 109
        assert completability_census(_rep("2^2,2^2,2^2")).total == 6912
        elapsed = time.perf_counter() - started
        assert elapsed < 900.0, f"took {elapsed:.1f}s, budget is 900s"
        if rc != 0:
            diffs = [ln for ln in out.splitlines() if ln.startswith("MISMATCH")]
            zstr = "2.1^2,2.1^2,2.1^2"
            brute, n_fulls = _exhaustive_completability(zstr)
            engine = dict(completability_census(_rep(zstr)).per_size)
            agree = "reproduces the computed values exactly" if brute == engine \
                else f"disagrees with BOTH sides: {brute}"
            raise AssertionError(
                "the shipped reference table differs from the computed census:\n  "
                + "\n  ".join(diffs)
                + f"\nan independent exhaustive check (every invariant square of "
                  f"{zstr} tested for containment in each of the {n_fulls} "
                  f"invariant full squares, which were themselves filtered out "
                  f"of all 576 Latin squares of order 4) " + agree
                + "; the reference data keeps those cells as-is so the "
                  "disagreement stays visible instead of being silently patched"
            )


# ----------------------------------------------------------------------
# Criterion 5: closed-form cross-checks
# ----------------------------------------------------------------------

def test_criterion_5_closed_form_cross_checks():
    with _criterion(5, "closed-form size counts agree with the census, n <= 5") as c:
        checked = 0
        for n in range(1, 6):
            for z in enumerate_autotopism_structures(n):
                t = canonical_isotopism(z)
                low, _ = size_bounds(z)
                assert delta_census(t, max_size=1).count(1) == delta_size_one(z), str(z)
                assert delta_census(t, max_size=low).count(low) == delta_min_size(z), str(z)
                checked += 1
        for n in range(1, 6):
            rep = delta_census(_rep(f"{n},{n},1^{n}"))
            for s in range(1, n * n + 1):
                assert rep.per_size.get(s, 0) == delta_closed_row_col_ncycle(n, s), (n, s)
        assert delta_closed_nnn(1, 1) == 1
        for n in range(2, 6):
            rep = delta_census(_rep(f"{n},{n},{n}"), max_size=2 * n)
            assert rep.count(n) == delta_closed_nnn(n, n), n
            if n > 2:
                assert rep.count(2 * n) == delta_closed_nnn(n, 2 * n), n
        c.note = f"({checked} structures, 4 formula families)"


# ----------------------------------------------------------------------
# Criterion 6: oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_6_oracle_equivalence():
    with _criterion(6, "census equals brute-force filtering for every "
                       "isotopism of order n <= 3") as c:
        started = time.perf_counter()
        rng = random.Random(20260817)
        checked = 0
        for n in (1, 2, 3):
            pool = oracles.all_pls(n)
            for z in enumerate_autotopism_structures(n):
                base = canonical_isotopism(z)
                for i in range(4):
                    if i == 0:
                        t = base
                    else:
                        g = _random_isotopism(n, rng)
                        t = g * base * g.inverse()
                    imgs = _image_tuples(t)
                    brute = Counter(len(p) for p in pool if oracles.act(imgs, p) == p)
                    assert dict(brute) == dict(delta_census(t).per_size), str(z)
                    checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
        c.note = f"({checked} isotopisms, {elapsed:.1f}s)"


# ----------------------------------------------------------------------
# Criterion 7: structural property suite
# ----------------------------------------------------------------------

def test_criterion_7_property_suite():
    with _criterion(7, "structural property suite") as c:
        rng = random.Random(97)

        # conjugating the isotopism leaves the census untouched
        for zstr in ("2.1,2.1,2.1", "3,3,3", "2,2,1^2"):
            t = _rep(zstr)
            g = _random_isotopism(t.degree, rng)
            conj = g * t * g.inverse()
            assert delta_census(conj).per_size == delta_census(t).per_size, zstr

        # permuting the coordinate roles leaves the census untouched,
        # and observed sizes respect the block arithmetic and the bounds
        for n in (1, 2, 3):
            for z in enumerate_autotopism_structures(n):
                rep = delta_census(canonical_isotopism(z))
                for pi in ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
                    other = delta_census(canonical_isotopism(z.permuted(pi)))
                    assert other.per_size == rep.per_size, (str(z), pi)
                observed = {s for s, v in rep.per_size.items() if v}
                assert observed, str(z)
                assert observed <= candidate_sizes(z), str(z)
                low, high = size_bounds(z)
                assert low == min(observed) and max(observed) <= high, str(z)

        # completion counts are equal across a homogeneous basis
        flip3 = _rep("2.1,2.1,2.1")
        hb = homogeneous_basis(flip3)
        assert hb.homogeneous and len(set(hb.counts)) == 1
        assert delta_via_symmetry(flip3) == delta_full(flip3) == 4
        assert homogeneous_basis(Isotopism.identity(2)).counts == [1, 1]

        # completability of an invariant square only depends on its
        # isotopy class (checked against the exhaustive oracle, n <= 3)
        for n in (2, 3):
            for z in enumerate_autotopism_structures(n):
                t = canonical_isotopism(z)
                imgs = _image_tuples(t)
                fulls = [L for L in oracles.all_latin_squares(n)
                         if oracles.act(imgs, L) == L]
                verdicts: dict = {}
                sample = []
                for cells in iter_invariant_squares(t):
                    key = oracles.canon_key(cells, n)
                    ok = any(cells <= L for L in fulls)
                    assert verdicts.setdefault(key, ok) == ok, (str(z), sorted(cells))
                    if len(sample) < 3:
                        sample.append((cells, ok))
                for cells, ok in sample:
                    P = PartialLatinSquare.from_cells(n, cells)
                    assert is_theta_completable(t, P) == ok, (str(z), sorted(cells))

        # bases partition the invariant full squares, n <= 4
        four = _rep("2.1^2,2.1^2,2.1^2")
        imgs4 = _image_tuples(four)
        fulls4 = [L for L in oracles.all_latin_squares(4)
                  if oracles.act(imgs4, L) == L]
        fixed = ShapeSet(frozenset((r, cc) for r in (3, 4) for cc in (3, 4)))
        basis = basis_from_shape(four, fixed)
        assert basis.cardinality == 2 and sorted(basis.counts) == [8, 8]
        assert basis.homogeneous
        for L in fulls4:
            assert sum(1 for e in basis.elements if e.cells <= L) == 1
        everything = ShapeSet(frozenset((r, cc) for r in range(1, 5)
                                        for cc in range(1, 5)))
        whole = basis_from_shape(four, everything)
        assert whole.cardinality == len(fulls4) == delta_full(four) == 16
        assert set(whole.counts) == {1}

        # encoding to solver variables and back is a bijection, n <= 3
        for zstr in ("2.1,2.1,2.1", "1^2,1^2,1^2", "2.1,2.1,1^3"):
            t = _rep(zstr)
            n = t.degree
            seen = set()
            for cells in iter_invariant_squares(t):
                P = PartialLatinSquare.from_cells(n, cells)
                assignment = encode_square(P)
                key = tuple(sorted(assignment.items()))
                assert key not in seen
                seen.add(key)
                assert decode_solution(n, assignment).cells == P.cells

        c.note = "(8 property families)"


# ----------------------------------------------------------------------
# Criterion 8: the two counterexample squares
# ----------------------------------------------------------------------

def test_criterion_8_counterexample_squares():
    with _criterion(8, "counterexample squares: invariant yet not "
                       "invariantly completable") as c:
        flip3 = Isotopism.parse("(1 2);(1 2);(1 2)", degree=3)
        p3 = PartialLatinSquare.parse_text("3 . 2\n. 3 1\n2 1 .")
        assert not is_theta_completable(flip3, p3)

        theta4 = Isotopism.parse("(1 2)(3 4);(1 2)(3 4);(1 2)", degree=4)
        p4 = PartialLatinSquare.from_cells(
            4, [(1, 1, 3), (1, 2, 4), (2, 1, 4), (2, 2, 3)])
        assert not is_theta_completable(theta4, p4)
        plain = count_completions(Isotopism.identity(4), p4)
        assert plain > 0
        assert is_completable(p4)
        c.note = f"(plain completion count of the 4x4 square: {plain})"
