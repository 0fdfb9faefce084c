"""Command-line front end.

Subcommands map one-to-one onto the library layers: "structures" for the
classification counts, "census" for size spectra, "complete"/"ccensus" for
completability, "export" for solver files, and "reproduce" to diff the
computed tables against the reference data shipped with the package.

Exit codes: 0 success, 2 usage or input error, 3 budget abort, 4 reference
mismatch.  Counts are always printed in full decimal.  Timing and node
diagnostics go to stderr so stdout stays byte-identical from run to run.
The census counts by a frontier DP whose state is one packed integer of the
three conflict masks; its node count is the number of DP states expanded.
census --full-only and complete --count run the same DP with plain counts
for values, and ccensus counts the down-closure of the ZDD of full covers
that this count builds.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from importlib import resources
from typing import Optional, Sequence

from .budget import BudgetExceededError, deadline_after
from .perm_algebra import (
    _S3,
    IsotopismStructure,
    check_parsed_order,
    count_structures_and_classes,
    cs_nm_count,
    enumerate_autotopism_structures,
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

def _add_selector(sub: argparse.ArgumentParser, *, theta_only: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", metavar="SPEC",
                       help="isotopism as 'alpha;beta;gamma', cycles or image lists")
    if not theta_only:
        group.add_argument("--z", metavar="STRUCT",
                           help="cycle-structure triple such as '2.1,2.1,1^3'; "
                                "a canonical isotopism is synthesized")
    sub.add_argument("--n", type=int, default=None,
                     help="degree hint when --theta omits the largest point")


def _add_timeout(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--timeout-secs", type=float, default=None,
                     help="abort after this much search time")


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
    text = sys.stdin.read() if path == "-" else open(path).read()
    if text.lstrip().startswith("{"):
        return PartialLatinSquare.parse_json(text)
    return PartialLatinSquare.parse_text(text)


# ----------------------------------------------------------------------
# structures
# ----------------------------------------------------------------------

def _table1_lines(upto: int, deadline: Optional[float]) -> list[str]:
    lines = ["n,m1,m2,m3,m4,m5,m6,m7,m8,structures,classes"]
    for n in range(1, upto + 1):
        cells = [str(n)]
        for m in range(1, 9):
            cells.append(str(cs_nm_count(n, m)) if m <= n // 2 else "")
        cells += map(str, count_structures_and_classes(n, deadline=deadline))
        lines.append(",".join(cells))
    return lines


def cmd_structures(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    check_parsed_order(args.n)
    deadline = deadline_after(args.timeout_secs)
    # every mode prints only once complete, so an abort leaves stdout empty
    if args.parastrophic:
        lines, seen = [], set()
        for z in enumerate_autotopism_structures(args.n, deadline=deadline):
            key = tuple(sorted(str(z.permuted(pi)) for pi in _S3))
            if key not in seen:
                seen.add(key)
                lines.append(str(z))
    elif args.table:
        lines = _table1_lines(args.n, deadline)
    else:
        lines = ["{}: {}, {}".format(n, *count_structures_and_classes(n, deadline=deadline))
                 for n in range(1, args.n + 1)]
    print("\n".join(lines))
    return EXIT_OK


# ----------------------------------------------------------------------
# census / ccensus
# ----------------------------------------------------------------------

def _emit_report(report, args: argparse.Namespace) -> None:
    if args.json:
        payload = report.to_json_dict()
        diagnostics = payload.pop("diagnostics", None)
        print(json.dumps(payload, sort_keys=True))
        if diagnostics:
            print(f"diagnostics: {diagnostics}", file=sys.stderr)
        return
    if args.csv:
        sys.stdout.write(report.to_csv())
        return
    print(f"structure {report.structure}")
    for size, value in sorted(report.per_size.items()):
        print(f"{size} {value}")
    print(f"total {report.total}")


def cmd_census(args: argparse.Namespace) -> int:
    t = _resolve_isotopism(args)
    z = t.structure()
    if args.sizes:
        lower, upper = size_bounds(z)
        sizes = sorted(candidate_sizes(z))
        if args.json:
            print(json.dumps({"structure": str(z), "lower": lower,
                              "upper": upper, "sizes": sizes}, sort_keys=True))
        elif args.csv:
            print("field,value")
            print(f"lower,{lower}")
            print(f"upper,{upper}")
            print(f"sizes,{' '.join(map(str, sizes))}")
        else:
            print(f"structure {z}")
            print(f"lower {lower}")
            print(f"upper {upper}")
            print(f"sizes {' '.join(map(str, sizes))}")
        return EXIT_OK
    if args.full_only:
        value = delta_full(t, max_nodes=args.max_nodes, timeout_secs=args.timeout_secs)
        if args.json:
            print(json.dumps({"structure": str(z), "full": value}, sort_keys=True))
        elif args.csv:
            print("field,value")
            print(f"full,{value}")
        else:
            print(value)
        return EXIT_OK
    report = delta_census(t, max_nodes=args.max_nodes,
                          timeout_secs=args.timeout_secs)
    _emit_report(report, args)
    print(f"elapsed {report.elapsed:.3f}s, nodes {report.node_count}", file=sys.stderr)
    return EXIT_OK


def cmd_ccensus(args: argparse.Namespace) -> int:
    t = _resolve_isotopism(args)
    report = completability_census(t, max_nodes=args.max_nodes,
                                   timeout_secs=args.timeout_secs)
    _emit_report(report, args)
    return EXIT_OK


# ----------------------------------------------------------------------
# complete
# ----------------------------------------------------------------------

def cmd_complete(args: argparse.Namespace) -> int:
    P = _read_square(args.pls)
    if args.theta is not None and args.n is None:
        args.n = P.n
    t = _resolve_isotopism(args)
    if args.count:
        value = count_completions(t, P, max_nodes=args.max_nodes,
                                  timeout_secs=args.timeout_secs)
        verdict = "completable" if value else "not completable"
        print(f"{verdict}, count {value}")
    else:
        ok = is_theta_completable(t, P, max_nodes=args.max_nodes,
                                  timeout_secs=args.timeout_secs)
        print("completable" if ok else "not completable")
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def cmd_export(args: argparse.Namespace) -> int:
    t = _resolve_isotopism(args)
    model = WeightedModel(t.degree, t, target_size=args.m)
    if args.format == "ideal":
        text = export_ideal(model, skip_zero_generators=args.skip_zero)
        summary = f"{len(text.splitlines())} generators"
    else:
        text = export_ip(model, raw_symmetry=args.raw)
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
    with (resources.files("latinsym") / "data" / name).open() as fh:
        reader = csv.reader(fh)
        next(reader)
        return [row for row in reader if row]


def _diff_table1() -> tuple[list[str], int]:
    mismatches, cells = [], 0
    for row in _reference_rows("table1.csv"):
        n = int(row[0])
        for m in range(1, 9):
            ref = row[m]
            if ref == "":
                continue
            cells += 1
            got = cs_nm_count(n, m)
            if got != int(ref):
                mismatches.append(f"n={n} m={m}: computed {got}, reference {ref}")
        counts = count_structures_and_classes(n)
        for label, got, ref in zip(("structures", "classes"), counts, row[9:11]):
            cells += 1
            ref = int(ref)
            if got != ref:
                mismatches.append(f"n={n} {label}: computed {got}, reference {ref}")
    return mismatches, cells


def _diff_census_table(name: str, size_columns: int, has_order_column: bool,
                       completability: bool) -> tuple[list[str], int]:
    mismatches, cells = [], 0
    for row in _reference_rows(name):
        offset = 1 if has_order_column else 0
        z = IsotopismStructure.parse(row[offset])
        t = canonical_isotopism(z)
        if completability:
            report = completability_census(t)
        else:
            report = delta_census(t)
        for s in range(1, size_columns + 1):
            cells += 1
            ref = int(row[offset + s] or 0)
            got = report.per_size.get(s, 0)
            if got != ref:
                mismatches.append(f"z={z} s={s}: computed {got}, reference {ref}")
        cells += 1
        ref_total = int(row[offset + size_columns + 1])
        if report.total != ref_total:
            mismatches.append(f"z={z} total: computed {report.total}, reference {ref_total}")
    return mismatches, cells


def cmd_reproduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.table == 1:
        mismatches, cells = _diff_table1()
    elif args.table == 2:
        mismatches, cells = _diff_census_table("table2.csv", 9, True, False)
    elif args.table == 3:
        mismatches, cells = _diff_census_table("table3.csv", 16, False, False)
    else:
        mismatches, cells = _diff_census_table("table5.csv", 16, True, True)
    print(f"elapsed {time.perf_counter() - started:.1f}s", file=sys.stderr)
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
    p.add_argument("--table", action="store_true",
                   help="emit the full CSV layout with the min-part columns")
    p.add_argument("--parastrophic", action="store_true",
                   help="list one representative per parastrophic class at order N")
    _add_timeout(p)
    p.set_defaults(func=cmd_structures)

    p = subs.add_parser("census", help="per-size counts of invariant squares")
    _add_selector(p)
    p.add_argument("--sizes", action="store_true",
                   help="report size bounds and attainable sizes only")
    p.add_argument("--full-only", action="store_true",
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
    p.add_argument("--raw", action="store_true",
                   help="LP only: one symmetry equality per moved triple")
    p.add_argument("--skip-zero", action="store_true",
                   help="ideal only: drop identically zero generators")
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
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
