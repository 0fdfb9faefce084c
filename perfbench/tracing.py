"""Spans around calls into latinsym's modules, recorded from the outside.

The tracer swaps each listed entry point for a wrapper that opens a span
(name, layer, start, end, parent) and, for some entry points, reads a work
count off the returned value. The wrapper is bound under every name that
points at the original in any loaded latinsym module, so a call from
`latinsym.cli` or `latinsym.completion` into `orbit_enum` is seen as well as
a call from the benchmark. Classmethods are swapped on their class. Spans
stay in memory; `uninstall` puts the originals back.

A layer's self time is the time its spans cover minus the time covered by
their child spans. With a root span around a whole pass, the self times of
all layers plus the root's own (the benchmark's remainder) add up to the
pass's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Optional


def _len(result) -> dict:
    return {"n": len(result)}


def _census(result) -> dict:
    return {"census_nodes": getattr(result, "node_count", None),
            "squares_counted": result.total}


def _basis(result) -> dict:
    return {"basis_members": result.cardinality}


def _text_bytes(result) -> dict:
    return {"bytes": len(result.encode())}


# Entry points per layer. An entry point a later version of the program no
# longer has is skipped, and the counts it fed are then reported as null.
# Helpers that the program calls once per search node are left out, so the
# wrappers cost little next to the work they time.
ENTRY_POINTS: dict[str, dict[str, Optional[Callable]]] = {
    "perm_algebra": {
        "Permutation.parse": None,
        "CycleStructure.parse": None,
        "IsotopismStructure.parse": None,
        "cycle_structure": None,
        "cs_nm_count": None,
        "lcm_triple_set": None,
        "is_autotopism_structure": None,
        "enumerate_autotopism_structures": None,
        "count_autotopism_structures": None,
        "count_parastrophic_classes": None,
    },
    "pls_core": {
        "Isotopism.parse": None,
        "PartialLatinSquare.parse_text": None,
        "PartialLatinSquare.parse_json": None,
        "canonical_isotopism": None,
        "triple_orbits": _len,
        "is_autotopism": None,
        "apply_isotopism": None,
    },
    "orbit_enum": {
        "build_valid_orbits": _len,
        "delta_census": _census,
        "delta_full": None,
        "size_bounds": None,
        "candidate_sizes": None,
    },
    "completion": {
        "completability_census": None,
        "count_completions": None,
        "is_theta_completable": None,
        "basis_from_shape": None,
        "homogeneous_basis": _basis,
        "count_latin_squares": None,
    },
    "model_export": {
        "export_ip": _text_bytes,
        "export_ideal": _text_bytes,
    },
    "cli": {
        "main": None,
    },
}

LAYERS = tuple(ENTRY_POINTS)
PACKAGE = "latinsym"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts")

    def __init__(self, name: str, layer: str, start: float, parent: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent]


class Tracer:
    """Installs the wrappers and keeps the spans of the current recording."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span that encloses one pass; its layer is "bench"."""
        index = self._open("pass", "bench")
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # ---- installing ----

    def _wrap(self, fn: Callable, name: str, layer: str,
              observe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    self.spans[index].counts = observe(result)
                return result
            finally:
                self._close(index)

        return wrapper

    @staticmethod
    def _modules():
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = self._modules()
        for layer, points in ENTRY_POINTS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for qualname, observe in points.items():
                name = f"{layer}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer, observe))
                    setattr(owner, attr, wrapped)
                    self._undo.append((owner, attr, raw))
                    continue
                wrapped = self._wrap(raw, name, layer, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer ("bench" for the root), summing to the root's span."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        out[span.layer] = out.get(span.layer, 0.0) + span.duration - children
    return out


def outermost_time(spans: list[Span], names: set[str]) -> float:
    """Time covered by spans with one of the names, nested ones counted once."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            total += span.duration
    return total


def count_sum(spans: list[Span], name: str, key: str):
    """Sum of one observed count over the spans of one entry point; None when
    any result lacked it (the program no longer keeps that counter)."""
    total = 0
    for span in spans:
        if span.name == name:
            value = (span.counts or {}).get(key)
            if value is None:
                return None
            total += value
    return total


def layer_metrics(spans: list[Span], missing: list[str]) -> dict:
    """The per-layer metrics of one traced pass whose root span is spans[0]."""
    def inclusive(*names: str) -> float:
        return outermost_time(spans, set(names))

    def count(name: str, key: str):
        return None if name in missing else count_sum(spans, name, key)

    own = self_times(spans)
    m = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    m["bench.self_s"] = own.get("bench", 0.0)
    m["orbit_enum.census_s"] = inclusive("orbit_enum.delta_census")
    m["orbit_enum.full_s"] = inclusive("orbit_enum.delta_full")
    m["orbit_enum.build_s"] = inclusive("orbit_enum.build_valid_orbits")
    m["completion.ccensus_s"] = inclusive("completion.completability_census")
    m["completion.completions_s"] = inclusive("completion.count_completions")
    m["completion.decide_s"] = inclusive("completion.is_theta_completable")
    m["completion.basis_s"] = inclusive("completion.homogeneous_basis",
                                        "completion.basis_from_shape")
    nodes = count("orbit_enum.delta_census", "census_nodes")
    squares = count("orbit_enum.delta_census", "squares_counted")
    m["orbit_enum.census_nodes"] = nodes
    m["orbit_enum.squares_counted"] = squares
    # 0 when the pass counts no squares at all.
    m["orbit_enum.nodes_per_square"] = (
        None if nodes is None or squares is None else nodes / squares if squares else 0.0)
    m["orbit_enum.valid_orbits"] = count("orbit_enum.build_valid_orbits", "n")
    m["pls_core.triple_orbits"] = count("pls_core.triple_orbits", "n")
    m["completion.basis_members"] = count("completion.homogeneous_basis", "basis_members")
    exported = [count(f"model_export.{f}", "bytes") for f in ("export_ip", "export_ideal")]
    m["model_export.bytes"] = None if None in exported else sum(exported)
    m["perm_algebra.calls"] = sum(1 for s in spans if s.layer == "perm_algebra")
    m["cli.invocations"] = sum(1 for s in spans if s.name == "cli.main")
    return m
