"""The three workloads: their inputs, the calls they make, and the checks.

A workload is a list of rows. A row is one call into latinsym (or one CLI
invocation) plus the check of its output against an expected value:

- reference CSVs shipped with the package for tables 2, 3 and 5;
- `expected.json`, values recorded at the commit that introduced the
  benchmark, which `setup` cross-checks against closed forms and known
  counts of Latin squares before any row runs;
- the independent completion counter in `oracle.py` for seeded squares.

`setup` imports latinsym itself, so the time it takes is the set-up time a
fresh process pays. Call sites go through module attributes
(`orbit_enum.delta_census`, not a name imported from it), so the tracer's
wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import oracle

HERE = Path(__file__).resolve().parent

# Known counts of Latin squares (OEIS A002860), used to cross-check the
# recorded full-square counts of the identity structures.
LATIN_SQUARES = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}

# Table 5 of the reference data disagrees with the program in three cells
# (criterion 4 of the acceptance tests fails by design). The CSV stays as it
# is; these cells expect what the program computes, and setup fails if the
# CSV no longer holds the reference side.
TABLE5_DISAGREEMENT = {
    ("2.1^2,2.1^2,2.1^2", "2"): (32, 24),
    ("2.1^2,2.1^2,2.1^2", "3"): (136, 104),
    ("2.1^2,2.1^2,2.1^2", "total"): (10672, 10632),
}

# spectrum: the full census of tables 2 and 3, with the one row whose full
# census takes minutes capped at this size, plus order-5 rows.
CENSUS_CAP = {"1^4,1^4,1^4": 5}
ORDER5_CENSUS = ["3.1^2,3.1^2,3.1^2", "2^2.1,2^2.1,1^5", "4.1,4.1,4.1", "5,5,5"]

# cover: full-square counts, completability censuses, completions of seeded
# squares and bases.
FULL_ROWS = ["1^5,1^5,1^5", "2^3,2^3,2^3", "1^4,1^4,1^4",
             "2^2.1,2^2.1,2^2.1", "3.1^2,3.1^2,3.1^2"]
CCENSUS_EXTRA = ["1^3,1^3,1^3", "3.1^2,3.1^2,3.1^2"]
# Square sizes per structure. Sizes are fixed and only the cells are drawn
# from the seed, so the cost of a pass varies little from seed to seed.
COMPLETION_SIZES = {"1^4,1^4,1^4": range(1, 9), "1^5,1^5,1^5": range(3, 11)}
SQUARES_PER_SIZE = 3
BASIS_ROWS = ["1^3,1^3,1^3", "2.1^2,2.1^2,2.1^2"]

# cli_tables: the user-facing commands. The `complete` square is drawn from
# the seed and passed on standard input.
CLI_COMMANDS = [
    ["reproduce", "--table", "1"],
    ["reproduce", "--table", "2"],
    ["reproduce", "--table", "5"],
    ["structures", "--n", "17", "--table"],
    ["census", "--z", "1^5,1^5,1^5", "--full-only"],
    ["census", "--z", "3.1,3.1,3.1", "--json"],
    ["ccensus", "--z", "2.1,2.1,2.1"],
    ["export", "--z", "2^3,2^3,2^3", "--format", "lp"],
    ["export", "--z", "2^3,2^3,2^3", "--format", "ideal", "--m", "6"],
]
COMPLETE_STRUCTURE, COMPLETE_ORDER, COMPLETE_SIZE = "1^4,1^4,1^4", 4, 4


def _no_counts(result) -> dict:
    return {}


@dataclass
class Row:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    counts: Callable[[object], dict] = _no_counts


@dataclass
class Workload:
    name: str
    rows: list[Row]
    # Rows replayed in-process for the traced run; the same rows except for
    # cli_tables, whose untraced rows are child processes.
    traced_rows: list[Row]
    # cpu_s and peak_rss_mb come from the child processes of `rows`.
    children: bool = False
    # (structure, isotopism, expected count) of the rows that count full
    # squares, for the cover-state counter of the traced run.
    full_rows: list[tuple] = field(default_factory=list)
    # Fills expected values that need the oracle; run after set-up is timed.
    prepare: Callable[[], None] = lambda: None


# ----------------------------------------------------------------------
# Expected values
# ----------------------------------------------------------------------

def _reference_rows(name: str) -> list[list[str]]:
    from importlib import resources
    with (resources.files("latinsym") / "data" / name).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [header] + [row for row in reader if row]


def _table_spectra(name: str) -> dict[str, tuple[dict[int, int], int]]:
    """structure -> (per-size counts without zeros, total) from a reference CSV."""
    rows = _reference_rows(name)
    header = rows[0]
    z_col = header.index("z")
    sizes = [int(h[1:]) for h in header if h.startswith("s") and h[1:].isdigit()]
    out = {}
    for row in rows[1:]:
        per_size = {}
        for s in sizes:
            cell = row[header.index(f"s{s}")]
            if cell and int(cell):
                per_size[s] = int(cell)
        out[row[z_col]] = (per_size, int(row[header.index("total")]))
    return out


def _table5_expected() -> dict[str, tuple[dict[int, int], int]]:
    table = _table_spectra("table5.csv")
    for (z, cell), (reference, computed) in TABLE5_DISAGREEMENT.items():
        per_size, total = table[z]
        if cell == "total":
            if total != reference:
                raise ValueError(f"table5.csv {z} total is {total}, expected {reference}")
            total = computed
        else:
            if per_size.get(int(cell)) != reference:
                raise ValueError(f"table5.csv {z} s={cell} no longer reads {reference}")
            per_size[int(cell)] = computed
        table[z] = (per_size, total)
    return table


def _load_recorded() -> dict:
    """expected.json, cross-checked against closed forms and |LS_n|."""
    from latinsym import orbit_enum, perm_algebra

    recorded = json.loads((HERE / "expected.json").read_text())
    census = {z: ({int(s): c for s, c in v["per_size"].items()}, v["total"])
              for z, v in recorded["census"].items()}
    full = recorded["full"]
    for z, (per_size, total) in census.items():
        zs = perm_algebra.IsotopismStructure.parse(z)
        checks = [(per_size.get(1, 0), orbit_enum.delta_size_one(zs)),
                  (per_size[min(per_size)], orbit_enum.delta_min_size(zs)),
                  (sum(per_size.values()), total)]
        n = zs.degree
        if all(c.parts() == (n,) for c in zs.components):
            checks += [(per_size.get(n, 0), orbit_enum.delta_closed_nnn(n, n)),
                       (per_size.get(2 * n, 0), orbit_enum.delta_closed_nnn(n, 2 * n))]
        if z in full:
            checks.append((per_size.get(n * n, 0), full[z]))
        for got, want in checks:
            if got != want:
                raise ValueError(f"expected.json census {z}: {got} != {want}")

    def latin_squares(zs):
        """|LS_n| for the identity structure of order n, else None."""
        identity = all(c.parts() == (1,) * zs.degree for c in zs.components)
        return LATIN_SQUARES[zs.degree] if identity else None

    for z, value in full.items():
        want = latin_squares(perm_algebra.IsotopismStructure.parse(z))
        if want is not None and value != want:
            raise ValueError(f"expected.json full {z}: {value} != |LS_n| = {want}")
    ccensus = {z: ({int(s): c for s, c in v["per_size"].items()}, v["total"])
               for z, v in recorded["ccensus"].items()}
    for z, (per_size, total) in ccensus.items():
        zs = perm_algebra.IsotopismStructure.parse(z)
        top = per_size.get(zs.degree ** 2, 0)
        want = full.get(z, latin_squares(zs))
        if top != want or sum(per_size.values()) != total:
            raise ValueError(f"expected.json ccensus {z}: {top} full squares, "
                             f"expected {want}, or sizes do not sum to {total}")
    for z, basis in recorded["basis"].items():
        zs = perm_algebra.IsotopismStructure.parse(z)
        if basis["members"] != LATIN_SQUARES[zs.rows.count(1)] \
                or len(basis["counts"]) != basis["members"] \
                or sum(basis["counts"]) != basis["full"]:
            raise ValueError(f"expected.json basis {z} is inconsistent")
    return {"census": census, "full": full, "ccensus": ccensus,
            "basis": recorded["basis"], "cli": recorded["cli"]}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _spectrum_check(per_size: dict[int, int], total: int):
    def check(report) -> Optional[str]:
        got = {s: c for s, c in report.per_size.items() if c}
        if got != per_size or report.total != total:
            return f"got {got} total {report.total}, expected {per_size} total {total}"
        return None
    return check


def _equal_check(expected):
    def check(value) -> Optional[str]:
        if value != expected or type(value) is not type(expected):
            return f"got {value!r}, expected {expected!r}"
        return None
    return check


def _census_counts(report) -> dict:
    return {"census_nodes": getattr(report, "node_count", None),
            "squares_counted": report.total}


def _stdout_digest(data: bytes) -> dict:
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def _cli_check(expected: dict):
    def check(outcome) -> Optional[str]:
        code, stdout = outcome
        got = dict(_stdout_digest(stdout), exit=code)
        want = {k: expected[k] for k in got}
        if got != want:
            return f"got {got}, expected {want}; stdout begins {stdout[:120]!r}"
        return None
    return check


def _cli_counts(args: list[str]):
    if args[0] != "export":
        return _no_counts
    return lambda outcome: {"model_export.bytes": len(outcome[1])}


# ----------------------------------------------------------------------
# Running the CLI
# ----------------------------------------------------------------------

def run_in_process(cli, args: list[str], stdin: str = "") -> tuple[int, bytes]:
    """The same command through `latinsym.cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def _spectrum(recorded: dict, rng: random.Random, spawner) -> Workload:
    from latinsym import orbit_enum
    spectra = {**_table_spectra("table2.csv"), **_table_spectra("table3.csv")}
    cases = []
    for z, (per_size, total) in spectra.items():
        cap = CENSUS_CAP.get(z)
        if cap is not None:
            per_size = {s: c for s, c in per_size.items() if s <= cap}
            total = sum(per_size.values())
        cases.append((z, cap, per_size, total))
    cases += [(z, None, *recorded["census"][z]) for z in ORDER5_CENSUS]
    rows = [Row(f"census {z}" + (f" s<={cap}" if cap else ""),
                lambda t=_isotopism(z), cap=cap: orbit_enum.delta_census(t, max_size=cap),
                _spectrum_check(per_size, total), _census_counts)
            for z, cap, per_size, total in cases]
    return Workload("spectrum", rows, rows)


def _cover(recorded: dict, rng: random.Random, spawner) -> Workload:
    from latinsym import completion, orbit_enum, pls_core
    rows, full_rows = [], []
    for z in FULL_ROWS:
        t, value = _isotopism(z), recorded["full"][z]
        full_rows.append((z, t, value))
        rows.append(Row(f"full {z}", lambda t=t: orbit_enum.delta_full(t), _equal_check(value)))
    table5 = _table5_expected()
    ccensus = {**table5, **recorded["ccensus"]}
    for z in list(table5) + CCENSUS_EXTRA:
        rows.append(Row(f"ccensus {z}",
                        lambda t=_isotopism(z): completion.completability_census(t),
                        _spectrum_check(*ccensus[z])))
    squares = []
    for z, sizes in COMPLETION_SIZES.items():
        t = _isotopism(z)
        for size in sizes:
            for _ in range(SQUARES_PER_SIZE):
                cells = oracle.random_partial_latin_square(rng, t.degree, size)
                squares.append((z, t, cells))
    # Filled by prepare(), after set-up has been timed.
    completions: list[int] = []
    for i, (z, t, cells) in enumerate(squares):
        P = pls_core.PartialLatinSquare.from_cells(t.degree, cells)
        label = f"{z} square {i} size {len(cells)}"
        rows.append(Row(f"count {label}", lambda t=t, P=P: completion.count_completions(t, P),
                        lambda got, i=i: _equal_check(completions[i])(got)))
        rows.append(Row(f"decide {label}", lambda t=t, P=P: completion.is_theta_completable(t, P),
                        lambda got, i=i: _equal_check(completions[i] > 0)(got)))
    for z in BASIS_ROWS:
        want = recorded["basis"][z]
        rows.append(Row(f"basis {z}",
                        lambda t=_isotopism(z): completion.homogeneous_basis(t),
                        lambda b, want=want: _equal_check((want["members"], want["counts"]))(
                            (b.cardinality, list(b.counts))),
                        lambda b: {"basis_members": b.cardinality}))

    def prepare():
        completions[:] = [oracle.count_latin_completions(t.degree, cells)
                          for z, t, cells in squares]

    return Workload("cover", rows, rows, full_rows=full_rows, prepare=prepare)


def _cli_tables(recorded: dict, rng: random.Random, spawner) -> Workload:
    from latinsym import cli
    cells = oracle.random_partial_latin_square(rng, COMPLETE_ORDER, COMPLETE_SIZE)
    commands = [(args, "", recorded["cli"][" ".join(args)]) for args in CLI_COMMANDS]
    complete_expected: dict = {}  # filled by prepare()
    commands.append((["complete", "--z", COMPLETE_STRUCTURE, "--pls", "-", "--count"],
                     oracle.square_json(COMPLETE_ORDER, cells), complete_expected))

    def rows(run) -> list[Row]:
        return [Row("cli " + " ".join(args), lambda a=args, s=stdin: run(a, s),
                    _cli_check(expected), _cli_counts(args))
                for args, stdin, expected in commands]

    def prepare():
        count = oracle.count_latin_completions(COMPLETE_ORDER, cells)
        verdict = "completable" if count else "not completable"
        complete_expected.update(_stdout_digest(f"{verdict}, count {count}\n".encode()), exit=0)

    full_z = "1^5,1^5,1^5"
    return Workload("cli_tables", rows(lambda a, s: spawner.run(a, s)),
                    rows(lambda a, s: run_in_process(cli, a, s)),
                    children=True,
                    full_rows=[(full_z, _isotopism(full_z), recorded["full"][full_z])],
                    prepare=prepare)


def _isotopism(z: str):
    from latinsym import perm_algebra, pls_core
    return pls_core.canonical_isotopism(perm_algebra.IsotopismStructure.parse(z))


BUILDERS = {"spectrum": _spectrum, "cover": _cover, "cli_tables": _cli_tables}


def setup(name: str, seed: int, spawner=None) -> Workload:
    """Import latinsym, read the expected values and build the seeded rows.

    `spawner` (a spawner.Spawner) starts the child processes of cli_tables;
    without one, those rows cannot run, which a set-up probe never does.
    """
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(BUILDERS)}")
    import latinsym.cli  # noqa: F401  (imports every layer)

    return BUILDERS[name](_load_recorded(), random.Random(f"{name}:{seed}"), spawner)
