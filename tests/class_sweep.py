"""Run census or ccensus on one structure of every parastrophic class of an
order, each in its own child process under a time budget, and fold the
finished outputs into one SHA-256 digest, so that a change can be checked
against the code it replaces: the same classes must finish with the same
digest.  A second digest folds each finished structure with the node_count
of its child's diagnostics line, so that a change that keeps the outputs
but spends other search nodes shows too.

Usage, from the root of a checkout (the children import latinsym from the
checkout's src directory):

    python tests/class_sweep.py census 6
    python tests/class_sweep.py ccensus 5 --timeout-secs 15

It prints how many classes finish, the stderr line of each one that exits 3,
the seconds and peak RSS of the slowest child, and the two digests.  The
children run one at a time, so the machine holds one search's memory at a
time.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _latinsym(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "latinsym.cli", *args],
                          capture_output=True, text=True, env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("census", "ccensus"))
    parser.add_argument("n", type=int, help="the order")
    parser.add_argument("--timeout-secs", type=float, default=15.0,
                        help="the budget of each child (default 15)")
    args = parser.parse_args()
    listing = _latinsym(["structures", "--n", str(args.n), "--parastrophic"])
    if listing.returncode:
        sys.stderr.write(listing.stderr)
        return 2
    classes = listing.stdout.split()
    digest, nodes = hashlib.sha256(), hashlib.sha256()
    finished, aborts, slowest = 0, [], (0.0, "")
    started = time.monotonic()
    for z in classes:
        t = time.monotonic()
        child = _latinsym([args.command, "--z", z, "--timeout-secs", str(args.timeout_secs)])
        slowest = max(slowest, (time.monotonic() - t, z))
        if child.returncode == 0:
            finished += 1
            digest.update(f"{z}\n{child.stdout}".encode())
            spent = re.search(r"node_count (\d+) nodes", child.stderr).group(1)
            nodes.update(f"{z} {spent}\n".encode())
        elif child.returncode == 3:
            aborts.append(f"{z}: {child.stderr.splitlines()[0]}")
        else:
            sys.stderr.write(f"{z} exited {child.returncode}:\n{child.stderr}")
            return 1
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{args.command} order {args.n}: {finished} of {len(classes)} classes finish "
          f"in {time.monotonic() - started:.1f} s")
    for line in aborts:
        print(f"  {line}")
    print(f"  slowest {slowest[1]} at {slowest[0]:.1f} s; largest child peak {peak:.0f} MiB")
    print(f"  sha256 {digest.hexdigest()}")
    print(f"  nodes sha256 {nodes.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
