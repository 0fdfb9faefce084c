"""Starts the `latinsym` CLI child processes from a small helper process.

Linux folds the parent's memory high-water mark into the peak RSS of a child
started by vfork and exec, so a child started straight from the benchmark
would read at least the benchmark's own peak (21 MB after set-up, more after
an in-process pass). The helper is started before the benchmark imports
latinsym and imports little itself, so it stays near the size of a bare
interpreter and the peaks it reports are the children's own.

Protocol: one JSON request per line on the helper's stdin,
{"args": [...], "stdin": "...", "timeout": seconds}; one JSON reply per
line, {"exit": code, "stdout": base64, "cpu_s": ..., "maxrss_kb": ...},
where cpu_s and maxrss_kb cover all the helper's children so far.
"""

from __future__ import annotations

import base64
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Spawner:
    """Client side: owns the helper process; close() stops it."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def run(self, args: list[str], stdin: str = "", timeout: float = 120.0) -> tuple[int, bytes]:
        """Run `python -m latinsym.cli ARGS`; returns exit code and stdout."""
        request = {"args": args, "stdin": stdin, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        self.cpu_s, self.maxrss_kb = reply["cpu_s"], reply["maxrss_kb"]
        return reply["exit"], base64.b64decode(reply["stdout"])

    def cpu_seconds(self) -> float:
        """User+sys CPU of all children so far, as of the last reply."""
        return self.cpu_s

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for line in sys.stdin:
        request = json.loads(line)
        try:
            proc = subprocess.run([sys.executable, "-m", "latinsym.cli", *request["args"]],
                                  input=request["stdin"].encode(), capture_output=True,
                                  env=env, cwd=SRC.parent, timeout=request["timeout"])
        except (OSError, subprocess.TimeoutExpired) as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            reply = {"exit": proc.returncode,
                     "stdout": base64.b64encode(proc.stdout).decode(),
                     "cpu_s": usage.ru_utime + usage.ru_stime,
                     "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
