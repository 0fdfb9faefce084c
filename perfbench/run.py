"""latinsym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; latinsym is imported from its `src`
directory. A run sets up (imports latinsym, reads the expected values, draws
the seeded inputs), then repeats passes over the workload until `--seconds`
would be exceeded by one more pass, checking every output. All work is a
closed loop with one caller: one call, or one child process, at a time.

With `--trace 0` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json, each the median over the run's passes (set-up:
over seven fresh processes). With `--trace 1` it holds the per-layer metrics:
after a warm-up pass, passes alternate untraced and traced, spans are
recorded around calls into each latinsym module, and the tracing overhead is
the median difference between a traced pass and the untraced one before it. The line before it, `detail {...}`, has quartiles, sample counts,
per-group times, work counts, failures and machine facts.

Exit status 0 when the run completed (the result's "correct" says whether
every output matched); 2 when latinsym cannot be found or set up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 3

# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)   # (row label, error)
    counts: dict = field(default_factory=dict)     # work counts the rows report
    groups: dict = field(default_factory=dict)     # seconds per row group
    spans: list = field(default_factory=list)      # traced passes only


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        if key in total and total[key] is None:
            continue
        total[key] = None if value is None else total.get(key, 0) + value


def run_pass(rows, cpu_clock, tracer=None) -> Pass:
    """One pass over the rows; cpu_clock gives our own CPU, or the children's."""
    result = Pass()
    cpu0 = cpu_clock()
    start = time.perf_counter()
    with tracer.root() if tracer else contextlib.nullcontext():
        for row in rows:
            began = time.perf_counter()
            try:
                outcome = row.call()
                error = row.check(outcome)
                counts = row.counts(outcome)
            except Exception as exc:  # a failing row is counted, the run goes on
                error, counts = f"{type(exc).__name__}: {exc}", {}
            group = row.label.split()[0]
            result.groups[group] = result.groups.get(group, 0.0) + time.perf_counter() - began
            result.attempted += 1
            if error is not None:
                result.failures.append((row.label, error))
            _add_counts(result.counts, counts)
    result.wall = time.perf_counter() - start
    result.cpu = cpu_clock() - cpu0
    if tracer:
        result.spans = tracer.spans
    return result


def repeat(run_one, seconds: float) -> list:
    """Run passes until one more would end after `seconds`; at least one."""
    passes, start = [], time.perf_counter()
    while True:
        batch = run_one()
        passes.extend(batch)
        spent = time.perf_counter() - start
        if spent + sum(p.wall for p in batch) > seconds:
            return passes


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def summary(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def group_medians(passes: list) -> dict:
    names = sorted({g for p in passes for g in p.groups})
    return {g: statistics.median(p.groups.get(g, 0.0) for p in passes) for g in names}


def repeat_check(passes: list) -> list[str]:
    """Work counts that differ between passes; each must repeat exactly."""
    problems = []
    for key in sorted({k for p in passes for k in p.counts}):
        seen = {repr(p.counts.get(key)) for p in passes}
        if len(seen) > 1:
            problems.append(f"{key} differs between passes: {sorted(seen)}")
    return problems


# ----------------------------------------------------------------------
# Set-up and machine facts
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def machine_facts() -> dict:
    from importlib import metadata
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "latinsym").rglob("*.py")))
    return {"python": platform.python_version(), "numba_imports": numba_imports,
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "src_latinsym_py_lines": src_lines}


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def end_to_end(wl, spawner, seed: int, seconds: float,
               first_setup: float) -> tuple[dict, dict, list]:
    clock = spawner.cpu_seconds if wl.children else time.process_time
    passes = repeat(lambda: [run_pass(wl.rows, clock)], seconds)
    peak_rss_kb = (spawner.maxrss_kb if wl.children
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    setups = [first_setup] + [setup_probe(wl.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    stats = {"wall_s": summary([p.wall for p in passes]),
             "cpu_s": summary([p.cpu for p in passes]),
             "setup_s": summary(setups),
             "peak_rss_mb": summary([peak_rss_kb / 1024])}
    values = {name: s["median"] for name, s in stats.items()}
    detail = {"stats": stats, "group_s": group_medians(passes)}
    return values, detail, passes


def cover_states(full_rows, problems: list[str]):
    """Memo states of a CoverCounter built for each full-square row, summed;
    None when the program no longer has that counter."""
    from latinsym import orbit_enum

    counter_class = getattr(orbit_enum, "CoverCounter", None)
    if counter_class is None:
        return None
    states = 0
    for z, t, expected in full_rows:
        counter = counter_class(orbit_enum.build_valid_orbits(t))
        got = counter.count_from(0, 0, 0)
        if got != expected:
            problems.append(f"cover counter for {z}: {got}, expected {expected}")
        nodes = getattr(getattr(counter, "budget", None), "nodes", None)
        if nodes is None:
            return None
        states += nodes
    return states


def traced(wl, spawner, seconds: float) -> tuple[dict, dict, list, list[str]]:
    import tracing

    problems: list[str] = []
    began = time.perf_counter()
    extra = []
    startup_s = child_rss_mb = 0.0
    if wl.children:
        extra.append(run_pass(wl.rows, spawner.cpu_seconds))
        startups = []
        for _ in range(STARTUP_SAMPLES):
            started = time.perf_counter()
            code, _ = spawner.run(["--help"])
            startups.append(time.perf_counter() - started)
            if code != 0:
                problems.append(f"latinsym --help exited {code}")
        startup_s = statistics.median(startups)
        child_rss_mb = spawner.maxrss_kb / 1024
    # The first in-process pass fills caches and does lazy imports; it is
    # checked but not timed against the traced passes.
    extra.append(run_pass(wl.traced_rows, time.process_time))

    tracer = tracing.Tracer()

    def pair():
        plain = run_pass(wl.traced_rows, time.process_time)
        tracer.reset()
        tracer.install()
        try:
            spanned = run_pass(wl.traced_rows, time.process_time, tracer)
        finally:
            tracer.uninstall()
        return [plain, spanned]

    passes = repeat(pair, seconds - (time.perf_counter() - began))
    plain, spanned = passes[0::2], passes[1::2]

    per_pass = []
    for p in spanned:
        m = tracing.layer_metrics(p.spans, tracer.missing)
        root = p.spans[0].duration
        total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
        if abs(total_self - root) > 1e-6 * max(1.0, root):
            problems.append(f"self times sum to {total_self}, traced pass took {root}")
        m["trace.wall_s"] = root
        m["trace.spans"] = len(p.spans)
        per_pass.append(m)

    stats = {name: summary([m[name] for m in per_pass]) for name in per_pass[0]}
    values = {name: s["median"] for name, s in stats.items()}
    for name in per_pass[0]:
        if not name.endswith("_s"):
            seen = {repr(m[name]) for m in per_pass}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(seen)}")
            values[name] = per_pass[0][name]
    # Paired: each traced pass against the untraced pass just before it.
    values["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(plain, spanned))
    values["cli.startup_s"] = startup_s
    values["cli.child_rss_mb"] = child_rss_mb
    values["orbit_enum.cover_states"] = cover_states(wl.full_rows, problems)

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}.json"
    spans_file.write_text(json.dumps([s.as_list() for s in spanned[-1].spans]))
    detail = {"stats": stats, "group_s": group_medians(spanned),
              "untraced_wall_s": summary([p.wall for p in plain]),
              "missing_entry_points": tracer.missing,
              "spans_file": str(spans_file.relative_to(ROOT))}
    return values, detail, plain + spanned + extra, problems


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latinsym" / "__init__.py").is_file():
        print(f"error: no latinsym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return probe(args)
    import spawner

    # Started while this process is still small; see spawner.py.
    children = spawner.Spawner()
    try:
        return measure(args, spec, children)
    finally:
        children.close()


def probe(args) -> int:
    """Set-up only, timed; prints the seconds."""
    sys.path.insert(0, str(SRC))
    import workloads

    began = time.perf_counter()
    workloads.setup(args.workload, args.seed)
    print(time.perf_counter() - began)
    return 0


def measure(args, spec: dict, spawner) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    began = time.perf_counter()
    try:
        wl = workloads.setup(args.workload, args.seed, spawner)
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    first_setup = time.perf_counter() - began
    import latinsym
    if Path(latinsym.__file__).resolve().parent != SRC / "latinsym":
        print(f"error: latinsym imported from {latinsym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl.prepare()

    if args.trace:
        values, detail, passes, problems = traced(wl, spawner, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, detail, passes = end_to_end(wl, spawner, args.seed, args.seconds, first_setup)
        problems = []
        wanted = spec["end_to_end"]
    problems += repeat_check(passes)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes), **detail,
              "failed_frac": len(failures) / attempted,
              "counts": passes[0].counts,
              "known_disagreement_cells": len(workloads.TABLE5_DISAGREEMENT),
              "problems": problems, "failures": failures[:10],
              "machine": machine_facts()}
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
