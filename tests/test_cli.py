"""End-to-end tests for the command-line interface.

Everything drives latinsym.cli.main(argv) in-process and inspects the
captured stdout/stderr plus the integer return code, the same contract the
console script sees.
"""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from latinsym import cli
from latinsym.budget import Budget
from latinsym.cli import main
from latinsym.completion import count_completions
from latinsym.orbit_enum import delta_full
from latinsym.perm_algebra import IsotopismStructure, partitions_count
from latinsym.pls_core import Isotopism, PartialLatinSquare, canonical_isotopism

COUNTEREXAMPLE_3 = "3 . 2\n. 3 1\n2 1 .\n"
FLIP_3 = "(1 2);(1 2);(1 2)"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


DIAGNOSTICS = re.compile(r"diagnostics: elapsed \d+\.\d{3}s, node_count (\d+) nodes, "
                         r"peak_rss \d+\.\d MB\n")


def diagnosed(err):
    """The stderr before the diagnostics line that ends it, and that line's
    node count; the line must fullmatch the one format."""
    *before, last = err.splitlines(keepends=True)
    match = DIAGNOSTICS.fullmatch(last)
    assert match, f"no diagnostics line at the end of {err!r}"
    return "".join(before), int(match[1])


# ----------------------------------------------------------------------
# structures
# ----------------------------------------------------------------------

def test_structures_rows(capsys):
    rc, out, _ = run(capsys, ["structures", "--n", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1: 1, 1"
    assert lines[3] == "4: 65, 22"
    assert len(lines) == 4


def test_structures_largest_tabulated_order(capsys):
    rc, out, _ = run(capsys, ["structures", "--n", "17"])
    assert rc == 0
    assert out.splitlines()[-1] == "17: 24406191, 4110132"


def test_structures_table_matches_reference_file(capsys):
    rc, out, _ = run(capsys, ["structures", "--n", "17", "--table"])
    assert rc == 0
    reference = (resources.files("latinsym") / "data" / "table1.csv").read_text()
    assert out.strip() == reference.strip()


def test_structures_table_min_part_columns_past_seventeen(capsys):
    # every partition of n has a least part m <= n // 2 or is (n) itself
    rc, out, _ = run(capsys, ["structures", "--n", "20", "--table"])
    assert rc == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header == ["n", *(f"m{m}" for m in range(1, 11)), "structures", "classes"]
    assert len(rows) == 20
    for row in rows[1:]:
        n = int(row[0])
        assert sum(int(c) for c in row[1:11] if c) + 1 == partitions_count(n)
    assert rows[-1][10] == "1"  # m10 at n = 20: the partition 10 + 10


def test_structures_diagnostics_on_stderr(capsys):
    rc, out, err = run(capsys, ["structures", "--n", "17", "--table"])
    assert rc == 0
    reference = (resources.files("latinsym") / "data" / "table1.csv").read_text()
    assert out == reference
    assert diagnosed(err) == ("", 0)  # the listings spend no nodes


def test_structures_parastrophic_representatives(capsys):
    rc, out, _ = run(capsys, ["structures", "--n", "2", "--parastrophic"])
    assert rc == 0
    assert out.splitlines() == ["2,2,2", "2,2,1^2", "1^2,1^2,1^2"]
    rc, out, _ = run(capsys, ["structures", "--n", "3", "--parastrophic"])
    assert len(out.splitlines()) == 7


def test_structures_parastrophic_lists_classes_without_every_structure(capsys):
    # order 11 has 26,628 classes among 150,953 structures; only the
    # representatives are built
    started = time.monotonic()
    rc, out, _ = run(capsys, ["structures", "--n", "11", "--parastrophic"])
    assert rc == 0
    assert len(out.splitlines()) == 26628
    assert time.monotonic() - started < 3


@pytest.mark.parametrize("mode", [[], ["--table"], ["--parastrophic"]])
def test_structures_timeout_exit_code(capsys, mode):
    # order 40 would run for minutes; each mode must stop soon after the limit
    started = time.monotonic()
    rc, out, err = run(capsys, ["structures", "--n", "40", "--timeout-secs", "0.5", *mode])
    assert rc == 3
    assert out == ""  # no partial table
    assert diagnosed(err)[0] == "aborted: time budget exhausted\n"
    assert time.monotonic() - started < 20


def test_structures_order_cap(capsys):
    # refused before any work, like every parsed order above the cap
    rc, out, err = run(capsys, ["structures", "--n", "65", "--timeout-secs", "5"])
    assert rc == 2
    assert out == ""
    assert "exceeds the largest supported order, 64" in err


def test_structures_deadline_while_building_partitions(capsys):
    # order 60 has 966,467 partitions; listing them and their structures
    # takes well over the budget, so the deadline is checked as they are made
    started = time.monotonic()
    rc, out, err = run(capsys, ["structures", "--n", "60", "--parastrophic",
                                "--timeout-secs", "1"])
    assert rc == 3
    assert out == ""
    assert "aborted: time budget exhausted" in err
    assert time.monotonic() - started < 5


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

def test_census_human_output(capsys):
    rc, out, err = run(capsys, ["census", "--z", "2.1,2.1,2.1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "structure 2.1,2.1,2.1"
    assert "2 10" in lines
    assert lines[-1] == "total 117"
    assert "nodes" in err  # diagnostics stay off stdout


def test_census_json_and_csv(capsys):
    rc, out, _ = run(capsys, ["census", "--z", "2.1,2.1,2.1", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["total"] == 117
    assert payload["per_size"]["9"] == 4
    assert "diagnostics" not in payload
    rc, out, _ = run(capsys, ["census", "--z", "2.1,2.1,2.1", "--csv"])
    assert out.splitlines()[0] == "size,count"
    assert out.splitlines()[-1] == "total,117"


def test_census_theta_matches_z(capsys):
    _, by_z, _ = run(capsys, ["census", "--z", "2,2,1^2"])
    _, by_theta, _ = run(capsys, ["census", "--theta", "(1 2);(1 2);()", "--n", "2"])
    assert by_z == by_theta


def test_census_stdout_repeats_byte_for_byte(capsys):
    _, first, _ = run(capsys, ["census", "--z", "2.1,2.1,2.1"])
    _, second, _ = run(capsys, ["census", "--z", "2.1,2.1,2.1"])
    assert first == second


def test_census_sizes_mode(capsys):
    rc, out, _ = run(capsys, ["census", "--z", "2,2,2", "--sizes"])
    assert rc == 0
    assert out == "structure 2,2,2\nlower 2\nupper 4\nsizes 2 4\n"
    rc, out, _ = run(capsys, ["census", "--z", "2,2,2", "--sizes", "--json"])
    assert json.loads(out) == {"structure": "2,2,2", "lower": 2,
                               "upper": 4, "sizes": [2, 4]}
    rc, out, _ = run(capsys, ["census", "--z", "2,2,2", "--sizes", "--csv"])
    assert rc == 0
    assert out == "field,value\nlower,2\nupper,4\nsizes,2 4\n"


def test_census_full_only(capsys):
    rc, out, _ = run(capsys, ["census", "--z", "2,2,2", "--full-only"])
    assert rc == 0 and out == "0\n"
    rc, out, _ = run(capsys, ["census", "--z", "1^3,1^3,1^3", "--full-only"])
    assert rc == 0 and out == "12\n"
    rc, out, _ = run(capsys, ["census", "--z", "1^3,1^3,1^3", "--full-only", "--json"])
    assert rc == 0 and out == '{"full": 12, "structure": "1^3,1^3,1^3"}\n'
    rc, out, _ = run(capsys, ["census", "--z", "1^3,1^3,1^3", "--full-only", "--csv"])
    assert rc == 0 and out == "field,value\nfull,12\n"


@pytest.mark.parametrize("argv, stdin, expected", [
    (["census", "--z", "1^3,1^3,1^3", "--full-only"], "", "12\n"),
    (["census", "--z", "1^3,1^3,1^3", "--full-only", "--csv"], "", "field,value\nfull,12\n"),
    (["complete", "--theta", "(1 2);(1 2);()", "--pls", "-", "--count"], "1 2\n2 1\n",
     "completable, count 1\n"),
    (["complete", "--theta", FLIP_3, "--pls", "-"], COUNTEREXAMPLE_3, "not completable\n"),
], ids=["full-only", "full-only-csv", "complete-count", "complete"])
def test_full_count_and_complete_diagnostics_go_to_stderr(capsys, monkeypatch,
                                                          argv, stdin, expected):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc, out, err = run(capsys, argv)
    assert rc == 0 and out == expected
    before, nodes = diagnosed(err)
    assert before == "" and nodes > 0


@pytest.mark.parametrize("argv, stdin, search", [
    (["census", "--z", "1^4,1^4,1^4", "--full-only"], "",
     lambda budget: delta_full(canonical_isotopism(IsotopismStructure.parse("1^4,1^4,1^4")),
                               budget=budget)),
    (["complete", "--theta", "(1 2);(1 2);()", "--pls", "-", "--count"], "1 .\n. 1\n",
     lambda budget: count_completions(Isotopism.parse("(1 2);(1 2);()", degree=2),
                                      PartialLatinSquare.parse_text("1 .\n. 1\n"),
                                      budget=budget)),
], ids=["full-only", "complete-count"])
def test_full_count_and_complete_print_their_node_count(capsys, monkeypatch,
                                                        argv, stdin, search):
    # the line's count is exactly what the search charged to its budget
    budget = Budget()
    search(budget)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc, _, err = run(capsys, argv)
    assert rc == 0 and diagnosed(err) == ("", budget.nodes)


def test_census_budget_abort_exit_code(capsys):
    # the node that passes the bound is charged before the abort
    rc, out, err = run(capsys, ["census", "--z", "1^4,1^4,1^4",
                                "--max-nodes", "1000"])
    assert rc == 3 and out == ""
    assert diagnosed(err) == ("aborted: node budget 1000 exhausted\n", 1001)


@pytest.mark.parametrize("option, value, code", [
    ("--max-nodes", "0", 3),
    ("--timeout-secs", "0", 3),
    ("--timeout-secs", "nan", 2),
    ("--timeout-secs", "-1", 2),
    ("--max-nodes", "-1", 2),
])
def test_census_budget_edge_values(capsys, option, value, code):
    # a budget of 0 has run out before the first node; a NaN or negative
    # one is malformed input
    rc, out, err = run(capsys, ["census", "--z", "1^3,1^3,1^3", f"{option}={value}"])
    assert rc == code and out == ""
    assert err.startswith("aborted: " if code == 3 else "error: ")
    # a command refused as malformed ran nothing to report on
    assert ("diagnostics:" in err) == (code == 3)


def test_census_state_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 1 << 20)
    rc, out, err = run(capsys, ["census", "--z", "2^3,2^3,2^3"])
    assert rc == 3
    assert out == ""
    assert "aborted: census level at cell" in err and "Traceback" not in err


def test_census_full_only_state_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 1 << 20)
    started = time.perf_counter()
    rc, out, err = run(capsys, ["census", "--z", "1^7,1^7,1^7", "--full-only"])
    assert time.perf_counter() - started < 5.0
    assert rc == 3
    assert out == ""
    assert "aborted: full-count level at cell" in err and "Traceback" not in err


def test_ccensus_ceiling_exit_code(capsys, monkeypatch):
    # the live steps and the levels of sets share the ceiling; 2.1,2.1,2.1
    # fits under it, 1^4 does not
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 1 << 20)
    rc, out, _ = run(capsys, ["ccensus", "--z", "2.1,2.1,2.1"])
    assert rc == 0 and out.endswith("total 109\n")
    rc, out, err = run(capsys, ["ccensus", "--z", "1^4,1^4,1^4"])
    assert rc == 3
    assert out == ""
    assert "aborted: completability level at cell" in err and "Traceback" not in err


def test_ccensus_live_steps_ceiling_exit_code(capsys, monkeypatch):
    # under 128 KiB the levels of 1^4's full count fit, but its live steps
    # at cell 11 (14,400 bytes) overflow the ceiling
    monkeypatch.setattr("latinsym.orbit_enum._MAX_LEVEL_BYTES", 128 << 10)
    rc, out, err = run(capsys, ["ccensus", "--z", "1^4,1^4,1^4"])
    assert rc == 3
    assert out == ""
    assert "aborted: live steps at cell" in err and "Traceback" not in err


def test_read_square_closes_its_file(tmp_path):
    # under -X dev an unclosed file prints a ResourceWarning on stderr as
    # the file object is collected
    path = tmp_path / "square.txt"
    path.write_text(". .\n. .\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "latinsym.cli",
         "complete", "--z", "1^2,1^2,1^2", "--pls", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "completable\n")
    assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("argv, stdin", [
    (["census", "--z", "1^65,1^65,1^65", "--sizes"], ""),
    (["census", "--z", "1^300,1^300,1^300", "--sizes"], ""),
    (["census", "--theta", "(1 65);();()", "--sizes"], ""),
    (["census", "--theta", "[" + ",".join(map(str, range(1, 66))) + "];();()", "--sizes"], ""),
    (["census", "--theta", "();();()", "--n", "100000000", "--sizes"], ""),
    (["complete", "--theta", "();();()", "--pls", "-"], '{"n": 100000000, "cells": []}'),
    (["complete", "--theta", "();();()", "--pls", "-"], "\n".join([". " * 65] * 65)),
])
def test_parsed_order_cap(argv, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert "exceeds the largest supported order, 64" in err


def test_parsed_order_cap_is_inclusive(capsys):
    rc, out, _ = run(capsys, ["census", "--z", "1^64,1^64,1^64", "--sizes"])
    assert rc == 0
    assert out.splitlines()[:3] == ["structure 1^64,1^64,1^64", "lower 1", "upper 4096"]


def test_bad_structure_spec_is_usage_error(capsys):
    rc, _, err = run(capsys, ["census", "--z", "2.x,2,1"])
    assert rc == 2
    assert "error:" in err


def test_bad_isotopism_spec_is_usage_error(capsys):
    rc, _, err = run(capsys, ["census", "--theta", "(1 2);(1 2)"])
    assert rc == 2
    assert "error:" in err


def test_n_is_checked_against_z(capsys):
    rc, out, err = run(capsys, ["census", "--z", "1^3,1^3,1^3", "--n", "5"])
    assert rc == 2 and out == ""
    assert "expected degree 5" in err
    rc, out, _ = run(capsys, ["census", "--z", "1^3,1^3,1^3", "--n", "3"])
    assert rc == 0 and out == run(capsys, ["census", "--z", "1^3,1^3,1^3"])[1]


def test_selector_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# complete
# ----------------------------------------------------------------------

def test_complete_counterexample(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text(COUNTEREXAMPLE_3)
    rc, out, _ = run(capsys, ["complete", "--theta", FLIP_3, "--pls", str(path)])
    assert rc == 0
    assert out == "not completable\n"
    rc, out, _ = run(capsys, ["complete", "--theta", FLIP_3, "--pls", str(path),
                              "--count"])
    assert out == "not completable, count 0\n"


def test_complete_full_square_counts_once(tmp_path, capsys):
    path = tmp_path / "full.txt"
    path.write_text("1 2\n2 1\n")
    rc, out, _ = run(capsys, ["complete", "--theta", "(1 2);(1 2);()",
                              "--pls", str(path), "--count"])
    assert rc == 0
    assert out == "completable, count 1\n"


def test_complete_json_input_and_stdin(tmp_path, capsys, monkeypatch):
    payload = json.dumps({"n": 3, "cells": [[1, 1, 3], [2, 2, 3]]})
    path = tmp_path / "square.json"
    path.write_text(payload)
    rc, out, _ = run(capsys, ["complete", "--theta", FLIP_3, "--pls", str(path)])
    assert rc == 0 and out == "completable\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    rc, out, _ = run(capsys, ["complete", "--theta", FLIP_3, "--pls", "-"])
    assert rc == 0 and out == "completable\n"


def test_complete_rejects_non_invariant_square(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text("1 . .\n. . .\n. . .\n")
    rc, _, err = run(capsys, ["complete", "--theta", FLIP_3, "--pls", str(path)])
    assert rc == 2
    assert "not invariant" in err


@pytest.mark.parametrize("payload", [
    '{"cells": [[1, 1, 3]]}',
    '{"n": 3}',
    '{"n": null, "cells": []}',
    '{"n": 3, "cells": 7}',
    '{"n": 3, "cells": [["a", "b", "c"]]}',
    '{"n": Infinity, "cells": []}',
    # numbers that are not JSON integers
    '{"n": 3, "cells": [[1.5, 1, 1]]}',
    '{"n": 3, "cells": [[3, 3, 3.0]]}',
    '{"n": 3.7, "cells": []}',
    '{"n": true, "cells": []}',
    # nested too deep for json.loads, which raises RecursionError
    pytest.param('{"n": 3, "cells": ' + "[" * 3000 + "]" * 3000 + "}", id="nested-3000-deep"),
])
def test_complete_malformed_json_square_is_usage_error(payload, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    rc, _, err = run(capsys, ["complete", "--theta", FLIP_3, "--pls", "-"])
    assert rc == 2
    assert "error:" in err


def test_complete_missing_file(capsys):
    rc, _, err = run(capsys, ["complete", "--theta", FLIP_3,
                              "--pls", "/nonexistent/square.txt"])
    assert rc == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# ccensus
# ----------------------------------------------------------------------

def test_ccensus_totals(capsys):
    rc, out, _ = run(capsys, ["ccensus", "--z", "2.1,2.1,2.1"])
    assert rc == 0
    assert out.splitlines()[-1] == "total 109"


def test_ccensus_strategies_match(capsys):
    # One search serves every census; it agrees with the oracle's count of
    # completable invariant squares, and no --strategy option is left to pick
    rc, out, _ = run(capsys, ["ccensus", "--z", "3,3,3", "--json"])
    assert rc == 0
    t = canonical_isotopism(IsotopismStructure.parse("3,3,3"))
    theta = (t.alpha.images, t.beta.images, t.gamma.images)
    expected = Counter(
        len(cells) for cells in oracles.invariant_squares(theta, 3)
        if oracles.is_completable_to_invariant(theta, cells, 3)
    )
    assert json.loads(out)["per_size"] == {str(k): v for k, v in expected.items()}
    for strategy in ("direct", "classes"):
        with pytest.raises(SystemExit) as exc:
            main(["ccensus", "--z", "3,3,3", "--strategy", strategy])
        assert exc.value.code == 2


def test_ccensus_classes_refused_above_order_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ccensus", "--z", "2.1^2,2.1^2,2.1^2", "--strategy", "classes"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_ccensus_json_diagnostics_go_to_stderr(capsys):
    rc, out, err = run(capsys, ["ccensus", "--z", "2,2,1^2", "--json"])
    assert rc == 0
    assert json.loads(out) == {"per_size": {"2": 4, "4": 2},
                               "structure": "2,2,1^2", "total": 6}
    before, nodes = diagnosed(err)
    assert before == "" and nodes > 0


def test_ccensus_csv(capsys):
    rc, out, _ = run(capsys, ["ccensus", "--z", "2,2,1^2", "--csv"])
    assert rc == 0
    assert out == "size,count\n2,4\n4,2\ntotal,6\n"


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_export_lp_order_one(capsys):
    rc, out, err = run(capsys, ["export", "--z", "1^1,1^1,1^1"])
    assert rc == 0
    assert out.startswith("Minimize\n")
    assert out.rstrip().endswith("End")
    assert diagnosed(err) == ("3 constraint rows\n", 0)


def test_export_ideal_generator_summary(capsys):
    rc, out, err = run(capsys, ["export", "--z", "1^2,1^2,1^2",
                                "--format", "ideal", "--m", "2"])
    assert rc == 0
    assert diagnosed(err) == ("29 generators\n", 0)
    assert len(out.splitlines()) == 29


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "model.lp"
    rc, out, _ = run(capsys, ["export", "--z", "2,2,1^2", "-o", str(target)])
    assert rc == 0
    assert out == "16 constraint rows\n"  # 12 cover rows + 4 symmetry chains
    assert target.read_text().startswith("Minimize\n")


def test_export_ideal_needs_target_size(capsys):
    rc, _, err = run(capsys, ["export", "--z", "1^2,1^2,1^2", "--format", "ideal"])
    assert rc == 2
    assert "target size" in err


def test_export_size_row_counted(capsys):
    rc, _, err = run(capsys, ["export", "--z", "1^1,1^1,1^1", "--m", "1"])
    assert rc == 0
    assert diagnosed(err) == ("4 constraint rows\n", 0)


# the first two are the cli_tables rows of perfbench/expected.json
@pytest.mark.parametrize("argv, sha256, length", [
    (["export", "--z", "2^3,2^3,2^3", "--format", "lp"],
     "bb8f9dc1a6c12c38b4bd6524b30a91d289e18d6917fe479838d72aea31af05b1", 20121),
    (["export", "--z", "2^3,2^3,2^3", "--format", "ideal", "--m", "6"],
     "187e6d3a121805f885e5707985d9e31b3f95db23791ce42c74c519382eb6b160", 27652),
    (["export", "--z", "3.1,3.1,3.1", "--m", "8"],
     "1ba786ef50a80b91411a833bada50c2d31d458419dc1d12949ddfb0c93f0936a", 7180),
], ids=["lp", "ideal-m6", "lp-m8"])
def test_export_stdout_bytes_are_pinned(argv, sha256, length, capsys):
    rc, out, _ = run(capsys, argv)
    data = out.encode()
    assert rc == 0
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, length)


def test_export_file_bytes_are_pinned(tmp_path, capsys):
    # three fixed triples, so three literal 0 generators
    target = tmp_path / "model.txt"
    rc, out, _ = run(capsys, ["export", "--z", "2.1,2.1,1^3", "--format", "ideal",
                              "--m", "3", "-o", str(target)])
    data = target.read_bytes()
    assert rc == 0 and out == "82 generators\n"
    assert data.splitlines().count(b"0") == 3
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "e1383d0eaccd271ca5f7dfb33dd64c0c6bc0fdce2ce4a61c707614ddccb41fc6", 3481)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

def test_reproduce_classification_table(capsys):
    rc, out, err = run(capsys, ["reproduce", "--table", "1"])
    assert rc == 0
    assert out == "all rows n <= 17 match (106 cells)\n"
    assert diagnosed(err) == ("", 0)


def test_reproduce_classification_table_reports_one_changed_cell(capsys, monkeypatch):
    real = cli._reference_rows

    def altered(name):
        rows = real(name)
        if name == "table1.csv":
            row = next(r for r in rows if r[0] == "12")
            row[rows[0].index("m3")] = str(int(row[rows[0].index("m3")]) + 1)
        return rows

    monkeypatch.setattr(cli, "_reference_rows", altered)
    rc, out, _ = run(capsys, ["reproduce", "--table", "1"])
    assert rc == 4
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("MISMATCH")] == \
        ["MISMATCH n=12 m3: computed 4, reference 5"]
    assert lines[-1] == "1 of 106 cells differ"


def test_reproduce_spectrum_small_orders(capsys):
    rc, out, _ = run(capsys, ["reproduce", "--table", "2"])
    assert rc == 0
    assert out == "all 110 cells match\n"


def test_reproduce_spectrum_order_four(capsys):
    rc, out, _ = run(capsys, ["reproduce", "--table", "3"])
    assert rc == 0
    assert out == "all 374 cells match\n"


def test_reproduce_completability_table_reports_known_disagreement(capsys):
    # The shipped reference table preserves two printed cells (and the row
    # total they imply) that an exhaustive search contradicts; the diff is
    # expected to surface exactly those three positions and signal failure.
    rc, out, err = run(capsys, ["reproduce", "--table", "5"])
    assert rc == 4
    before, nodes = diagnosed(err)
    assert before == "" and nodes > 0  # the nodes of every census it ran
    lines = out.splitlines()
    assert lines[-1] == "3 of 221 cells differ"
    assert "MISMATCH z=2.1^2,2.1^2,2.1^2 s=2: computed 24, reference 32" in lines
    assert "MISMATCH z=2.1^2,2.1^2,2.1^2 s=3: computed 104, reference 136" in lines
    assert ("MISMATCH z=2.1^2,2.1^2,2.1^2 total: computed 10632, reference 10672"
            in lines)


# ----------------------------------------------------------------------
# parser-level behaviour
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["census", "--z", "2,2,2", "--sizes", "--full-only"],
    ["structures", "--n", "3", "--table", "--parastrophic"],
    ["export", "--z", "2,2,1^2", "--theta", "();();()"],
    ["ccensus", "--z", "2,2,1^2", "--json", "--csv"],
])
def test_conflicting_options_are_refused(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's mutually exclusive groups
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "not allowed with" in captured.err or "applies only to" in captured.err


@pytest.mark.parametrize("option, fmt", [("--raw", ["lp"]),
                                         ("--skip-zero", ["ideal", "--m", "2"])])
def test_export_has_one_form_per_format(option, fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--z", "2,2,1^2", "--format", *fmt, option])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {option}" in captured.err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_structures_rejects_nonpositive_order(capsys):
    rc, _, err = run(capsys, ["structures", "--n", "0"])
    assert rc == 2
    assert "at least 1" in err


# ----------------------------------------------------------------------
# parser fuzz: whatever the text, the exit is 0, 2 or 3, never a traceback
# ----------------------------------------------------------------------

# numbers of any length: parsed orders are capped, so no spec builds a huge
# permutation and a valid spec's --sizes report stays quick
_SPECS = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="()[],;.^ 0123456789-x", max_size=20),
)
_THETAS = st.one_of(_SPECS, st.lists(_SPECS, min_size=3, max_size=3).map(";".join))
_STRUCTURES = st.one_of(_SPECS, st.lists(_SPECS, min_size=3, max_size=3).map(",".join))
_TEXT_SQUARES = st.one_of(
    st.lists(st.lists(st.one_of(st.sampled_from([".", "0", "1", "2", "3", "4", "-1", "x",
                                                 "1.0"]),
                                st.integers().map(str)),
                      max_size=4), max_size=4)
    .map(lambda rows: "\n".join(" ".join(row) for row in rows)),
    st.text(max_size=30),
    st.integers(1, 80).map(lambda n: "\n".join([". " * n] * n)),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@st.composite
def _spoiled_order_3_squares(draw):
    """An order-3 square of one to three triples in 1..3, one entry swapped
    for a float in [1, 3] or a boolean. Without parse_json's integer check
    such a float reaches the code that indexes by it; the other strategies
    seldom draw one."""
    cells = draw(st.lists(st.lists(st.integers(1, 3), min_size=3, max_size=3),
                          min_size=1, max_size=3))
    row = draw(st.integers(0, len(cells) - 1))
    cells[row][draw(st.integers(0, 2))] = draw(st.one_of(st.floats(1, 3), st.booleans()))
    return {"n": 3, "cells": cells}


_JSON_SQUARES = st.one_of(
    _spoiled_order_3_squares(),
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(-1, 4), st.integers(), _JSON_VALUES, st.sampled_from(
            [float("inf"), float("-inf"), float("nan"), 2.5, "3", True, 64, 65, 10 ** 8])),
        "cells": st.one_of(st.lists(st.lists(st.one_of(st.integers(-1, 99), st.floats(),
                                                       st.booleans()),
                                             max_size=4), max_size=5),
                           _JSON_VALUES),
    }),
    _JSON_VALUES,
).map(json.dumps)
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _exit_code(argv: list[str], stdin: str = "") -> int:
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code
    finally:
        sys.stdin = saved


@_FUZZ
@given(_STRUCTURES)
def test_fuzz_structure_specs(text):
    assert _exit_code(["census", "--z", text, "--sizes"]) in (0, 2, 3)


@_FUZZ
@given(_THETAS)
def test_fuzz_isotopism_specs(text):
    assert _exit_code(["census", "--theta", text, "--sizes"]) in (0, 2, 3)
    assert _exit_code(["complete", "--theta", text, "--pls", "-"], COUNTEREXAMPLE_3) in (0, 2, 3)


@_FUZZ
@given(_TEXT_SQUARES, st.booleans())
def test_fuzz_text_squares(text, count):
    argv = ["complete", "--z", "2.1,2.1,2.1", "--pls", "-"] + ["--count"] * count
    assert _exit_code(argv, text) in (0, 2, 3)


@_FUZZ
@given(_JSON_SQUARES, st.booleans())
def test_fuzz_json_squares(text, count):
    argv = ["complete", "--z", "2.1,2.1,2.1", "--pls", "-"] + ["--count"] * count
    assert _exit_code(argv, text) in (0, 2, 3)
