"""Command-line front end.

Subcommands map one-to-one onto the library layers: "structures" for the
classification counts, "census" for size spectra, "complete"/"ccensus" for
completability, "export" for solver files, and "reproduce" to diff the
computed tables against the reference data shipped with the package.

Exit codes: 0 success, 2 usage or input error, 3 budget abort, 4 reference
mismatch.  Counts are always printed in full decimal.  main makes one
Budget per command from its --max-nodes and --timeout-secs and passes it to
every search and listing the command runs.  After a command that exits 0,
3 or 4, main prints one diagnostics line on stderr, so stdout stays
byte-identical from run to run: the seconds since that budget was made,
the search nodes spent on it and the peak RSS.  The census counts by a
frontier DP whose state is one packed integer of the three conflict masks;
its node count is the number of DP states expanded.
census --full-only and complete --count run the same DP with plain counts
for values, and ccensus keeps the live states of that count, those on some
full cover, and counts by size the squares that some cover extends.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import resource
import sys
from importlib import resources
from typing import Callable, Optional, Sequence

from .budget import Budget, BudgetExceededError
from .perm_algebra import (
    IsotopismStructure,
    check_parsed_order,
    count_structures_and_classes,
    cs_nm_count,
    parastrophic_representatives,
)
from .pls_core import Isotopism, PartialLatinSquare, canonical_isotopism
from .orbit_enum import candidate_sizes, delta_census, delta_full, size_bounds
from .completion import completability_census, count_completions, is_theta_completable
from .model_export import WeightedModel, export_ideal, export_ip

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


# ----------------------------------------------------------------------
# Shared argument plumbing
# ----------------------------------------------------------------------

def _add_selector(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", metavar="SPEC",
                       help="isotopism as 'alpha;beta;gamma', cycles or image lists")
    group.add_argument("--z", metavar="STRUCT",
                       help="cycle-structure triple such as '2.1,2.1,1^3'; "
                            "a canonical isotopism is synthesized")
    sub.add_argument("--n", type=int, default=None,
                     help="degree hint when --theta omits the largest point")


def _add_timeout(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--timeout-secs", type=float, default=None,
                     help="abort this many seconds after the command starts")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-nodes", type=int, default=None,
                     help="abort after this many search nodes")
    _add_timeout(sub)


def _add_output_format(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument("--csv", action="store_true", help="emit CSV")


def _resolve_isotopism(args: argparse.Namespace) -> Isotopism:
    if args.theta is not None:
        return Isotopism.parse(args.theta, degree=args.n)
    z = IsotopismStructure.parse(args.z)
    return canonical_isotopism(z)


def _read_square(path: str) -> PartialLatinSquare:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return PartialLatinSquare.parse_json(text)
    return PartialLatinSquare.parse_text(text)


def _print_diagnostics(budget: Budget) -> None:
    """Print the seconds since budget was made, the search nodes spent on
    it, and the process's peak RSS as one diagnostics line on stderr."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"diagnostics: elapsed {budget.elapsed:.3f}s, node_count {budget.nodes} nodes, "
          f"peak_rss {peak_mb:.1f} MB", file=sys.stderr)


def _emit(args: argparse.Namespace, z: IsotopismStructure, header: str,
          rows: list[tuple[object, object]], payload: dict) -> None:
    """Print one result on stdout: payload and the structure as JSON with
    sorted keys, header and a label,value line per row as CSV, or the
    structure and a label value line per row as text."""
    if args.json:
        print(json.dumps({**payload, "structure": str(z)}, sort_keys=True))
        return
    lines = [header] if args.csv else [f"structure {z}"]
    sep = "," if args.csv else " "
    lines += [f"{label}{sep}{value}" for label, value in rows]
    print("\n".join(lines))


# ----------------------------------------------------------------------
# structures
# ----------------------------------------------------------------------

def _table1_lines(upto: int, budget: Budget) -> list[str]:
    # the reference table's columns m1..m8 cover n <= 17; larger n add more
    widest = max(8, upto // 2)
    lines = [",".join(["n", *(f"m{m}" for m in range(1, widest + 1)), "structures,classes"])]
    for n in range(1, upto + 1):
        cells = [str(n)]
        for m in range(1, widest + 1):
            cells.append(str(cs_nm_count(n, m)) if m <= n // 2 else "")
        cells += map(str, count_structures_and_classes(n, budget=budget))
        lines.append(",".join(cells))
    return lines


def cmd_structures(args: argparse.Namespace, budget: Budget) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    check_parsed_order(args.n)
    # every mode prints only once complete, so an abort leaves stdout empty
    if args.parastrophic:
        lines = [str(z) for z in parastrophic_representatives(args.n, budget=budget)]
    elif args.table:
        lines = _table1_lines(args.n, budget)
    else:
        lines = ["{}: {}, {}".format(n, *count_structures_and_classes(n, budget=budget))
                 for n in range(1, args.n + 1)]
    print("\n".join(lines))
    return EXIT_OK


# ----------------------------------------------------------------------
# census / ccensus
# ----------------------------------------------------------------------

def _emit_report(args: argparse.Namespace, report) -> None:
    per_size = sorted(report.per_size.items())
    _emit(args, report.structure, "size,count", [*per_size, ("total", report.total)],
          {"per_size": {str(s): c for s, c in per_size}, "total": report.total})


def cmd_census(args: argparse.Namespace, budget: Budget) -> int:
    t = _resolve_isotopism(args)
    z = t.structure()
    if args.sizes:
        lower, upper = size_bounds(z)
        sizes = sorted(candidate_sizes(z))
        _emit(args, z, "field,value",
              [("lower", lower), ("upper", upper), ("sizes", " ".join(map(str, sizes)))],
              {"lower": lower, "upper": upper, "sizes": sizes})
    elif args.full_only:
        value = delta_full(t, budget=budget)
        if args.json or args.csv:
            _emit(args, z, "field,value", [("full", value)], {"full": value})
        else:
            print(value)
    else:
        _emit_report(args, delta_census(t, budget=budget))
    return EXIT_OK


def cmd_ccensus(args: argparse.Namespace, budget: Budget) -> int:
    t = _resolve_isotopism(args)
    _emit_report(args, completability_census(t, budget=budget))
    return EXIT_OK


# ----------------------------------------------------------------------
# complete
# ----------------------------------------------------------------------

def cmd_complete(args: argparse.Namespace, budget: Budget) -> int:
    P = _read_square(args.pls)
    if args.theta is not None and args.n is None:
        args.n = P.n
    t = _resolve_isotopism(args)
    if args.count:
        value = count_completions(t, P, budget=budget)
        verdict = "completable" if value else "not completable"
        print(f"{verdict}, count {value}")
    else:
        ok = is_theta_completable(t, P, budget=budget)
        print("completable" if ok else "not completable")
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def cmd_export(args: argparse.Namespace, budget: Budget) -> int:
    model = WeightedModel(_resolve_isotopism(args), target_size=args.m)
    if args.format == "ideal":
        text = export_ideal(model)
        summary = f"{len(text.splitlines())} generators"
    else:
        text = export_ip(model)
        rows = len(re.findall(r"^ (?:cs|rs|rc|sym|size)\w*:", text, flags=re.M))
        summary = f"{rows} constraint rows"
    if args.output == "-":
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(summary)
    return EXIT_OK


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

def _reference_rows(name: str) -> list[list[str]]:
    """A reference CSV's rows, the header first."""
    with (resources.files("latinsym") / "data" / name).open() as fh:
        return [row for row in csv.reader(fh) if row]


def _diff_table1(budget: Budget) -> tuple[list[str], int]:
    """Compare the cells of _table1_lines with table1.csv, skipping the
    reference's empty cells."""
    header, *rows = _reference_rows("table1.csv")
    computed = {row[0]: row for row in csv.reader(_table1_lines(17, budget)[1:])}
    mismatches, cells = [], 0
    for row in rows:
        for label, got, ref in zip(header[1:], computed[row[0]][1:], row[1:]):
            if ref == "":
                continue
            cells += 1
            if got != ref:
                mismatches.append(f"n={row[0]} {label}: computed {got}, reference {ref}")
    return mismatches, cells


def _diff_census_table(name: str, census: Callable, budget: Budget
                       ) -> tuple[list[str], int]:
    """Compare census(t, budget=budget) with a reference table whose header
    names its z, s<k> and total columns."""
    header, *rows = _reference_rows(name)
    z_col, total_col = header.index("z"), header.index("total")
    sizes = [(int(h[1:]), col) for col, h in enumerate(header)
             if h.startswith("s") and h[1:].isdigit()]
    mismatches, cells = [], 0
    for row in rows:
        z = IsotopismStructure.parse(row[z_col])
        report = census(canonical_isotopism(z), budget=budget)
        for s, col in sizes:
            cells += 1
            ref = int(row[col] or 0)
            got = report.per_size.get(s, 0)
            if got != ref:
                mismatches.append(f"z={z} s={s}: computed {got}, reference {ref}")
        cells += 1
        ref_total = int(row[total_col])
        if report.total != ref_total:
            mismatches.append(f"z={z} total: computed {report.total}, reference {ref_total}")
    return mismatches, cells


def cmd_reproduce(args: argparse.Namespace, budget: Budget) -> int:
    if args.table == 1:
        mismatches, cells = _diff_table1(budget)
    elif args.table == 5:
        mismatches, cells = _diff_census_table("table5.csv", completability_census, budget)
    else:
        mismatches, cells = _diff_census_table(f"table{args.table}.csv", delta_census, budget)
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(f"{len(mismatches)} of {cells} cells differ")
        return EXIT_MISMATCH
    if args.table == 1:
        print(f"all rows n <= 17 match ({cells} cells)")
    else:
        print(f"all {cells} cells match")
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinsym",
        description="Censuses, completability, and solver exports for partial "
                    "Latin squares invariant under an isotopism.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("structures", help="classification counts per order")
    p.add_argument("--n", type=int, required=True, help="largest order to list")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true",
                      help="emit the full CSV layout with the min-part columns")
    mode.add_argument("--parastrophic", action="store_true",
                      help="list one representative per parastrophic class at order N")
    _add_timeout(p)
    p.set_defaults(func=cmd_structures)

    p = subs.add_parser("census", help="per-size counts of invariant squares")
    _add_selector(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sizes", action="store_true",
                      help="report size bounds and attainable sizes only")
    mode.add_argument("--full-only", action="store_true",
                      help="count only the invariant full squares")
    _add_budget(p)
    _add_output_format(p)
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("complete", help="test one square for completability")
    _add_selector(p)
    p.add_argument("--pls", required=True, metavar="FILE",
                   help="square as text grid or JSON; '-' reads stdin")
    p.add_argument("--count", action="store_true",
                   help="also count the invariant completions")
    _add_budget(p)
    p.set_defaults(func=cmd_complete)

    p = subs.add_parser("ccensus", help="per-size counts of completable squares")
    _add_selector(p)
    _add_budget(p)
    _add_output_format(p)
    p.set_defaults(func=cmd_ccensus)

    p = subs.add_parser("export", help="write the solver model")
    _add_selector(p)
    p.add_argument("--m", type=int, default=None, help="target size constraint")
    p.add_argument("--format", choices=("lp", "ideal"), default="lp")
    p.add_argument("-o", "--output", default="-", metavar="FILE",
                   help="output path; '-' writes stdout")
    p.set_defaults(func=cmd_export)

    p = subs.add_parser("reproduce", help="diff computed tables against the "
                                          "reference data shipped in the package")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 5), required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the command's one budget; export and reproduce take no bound
        budget = Budget(getattr(args, "max_nodes", None), getattr(args, "timeout_secs", None))
        code = args.func(args, budget)
    except BudgetExceededError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_diagnostics(budget)
    return code


if __name__ == "__main__":
    sys.exit(main())
