"""What the benchmark's tracer (perfbench/tracing.py) reads of the program.

The tracer wraps the entry points of every latinsym layer that is loaded
when it is installed, and reports a counter as null when an entry point is
missing.  The benchmark installs it after importing only latinsym.cli, so
that import must load every layer; and the census report must keep the
fields the tracer reads.  The check runs in a fresh interpreter, since this
test process has imported every layer already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import importlib.util, json, sys
import latinsym.cli

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    from latinsym.orbit_enum import delta_census
    from latinsym.perm_algebra import IsotopismStructure
    from latinsym.pls_core import canonical_isotopism
    report = delta_census(canonical_isotopism(IsotopismStructure.parse("2.1,2.1,1^3")))
finally:
    tracer.uninstall()
print(json.dumps({
    "missing": tracer.missing,
    "fields": {name: type(getattr(report, name)).__name__ for name in ("node_count", "total")},
    "census": [s.counts for s in tracer.spans if s.name == "orbit_enum.delta_census"],
}))
"""


def test_cli_import_loads_every_traced_entry_point():
    tracing = ROOT / "perfbench" / "tracing.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tracing)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert got["fields"] == {"node_count": "int", "total": "int"}
    assert got["census"] == [{"census_nodes": 6, "squares_counted": 51}]
