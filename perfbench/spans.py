"""Spans around the calls into each ``hochhom`` layer, recorded from outside.

The tracer replaces a chosen set of public functions with timing wrappers at
every module that has bound them (``homology.enumerate_strand`` as well as
``koszul.enumerate_strand``), so the program's own files stay untouched.
Spans are kept in memory as ``(name, start, end, parent, op)`` rows; self
time is a span's duration minus the part of it that its children cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Functions wrapped per layer module; ``Class.method`` wraps a method.
# ``scalar`` is traced only at the freeness test: a span per field operation
# would cost more than the operation, so scalar speed is measured by the
# micro-benchmarks instead.
TRACED = {
    "scalar": ("RationalModel.is_free_of_maximal_rank",),
    "algebra": ("normal_mul_monomials",),
    "linalg": ("rank_kernel", "subquotient_dim"),
    "koszul": ("is_in_C", "enumerate_strand", "diff_full"),
    "homology": ("hh_report", "strand_homology", "homology_of_strand",
                 "quotient_strand_acyclicity"),
    "cohomology": ("cohomology_report", "center_truncated", "hh1_window",
                   "duality_identity_check"),
    "cli": ("run", "load_config", "emit_report"),
}
SPAN_NAMES = [
    f"{layer}.{name.rpartition('.')[2]}" for layer, names in TRACED.items() for name in names
]


class Tracer:
    """Records spans and boundary counters for one worker process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.strand_keys: set = set()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each ``hochhom`` module that binds it."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "hochhom" or name.startswith("hochhom."))
        }
        wrappers = {}
        for layer, names in TRACED.items():
            mod = modules[f"hochhom.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, attr)
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(fn)] = wrapper
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])


# ---------------------------------------------------------------------------
# Boundary counters.
# ---------------------------------------------------------------------------


def _count_is_in_c(tracer: Tracer, args, result) -> None:
    tracer.counters["koszul.is_in_C.hits"] += bool(result)


def _count_strand(tracer: Tracer, args, strand) -> None:
    size = sum(len(g) for g in strand.generators.values())
    tracer.counters["koszul.strand_generators"] += size
    key = "koszul.strand_max_generators"
    tracer.counters[key] = max(tracer.counters[key], size)


def _count_rank_kernel(tracer: Tracer, args, result) -> None:
    entries = args[0].entries
    tracer.counters["linalg.rows_in"] += len({i for i, _ in entries})
    tracer.counters["linalg.nnz_in"] += len(entries)


def _count_subquotient(tracer: Tracer, args, result) -> None:
    vectors = [*args[0], *args[1]]
    tracer.counters["linalg.rows_in"] += len(vectors)
    tracer.counters["linalg.nnz_in"] += sum(len(v) for v in vectors)


def _count_strand_homology(tracer: Tracer, args, result) -> None:
    spec, w = args[0], args[1]
    tracer.strand_keys.add((json.dumps(spec.model.to_config()), spec.r, w))


HOOKS = {
    "koszul.is_in_C": _count_is_in_c,
    "koszul.enumerate_strand": _count_strand,
    "linalg.rank_kernel": _count_rank_kernel,
    "linalg.subquotient_dim": _count_subquotient,
    "homology.strand_homology": _count_strand_homology,
}


# ---------------------------------------------------------------------------
# Self time and per-layer metrics.
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, op_commands: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``op_commands[i]`` is op i's subcommand."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    hh_layer_s = 0.0
    for (name, start, end, parent, op), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += own
        layer = name.split(".", 1)[0]
        layer_s[layer] += own
        if op >= 0 and op_commands[op] == "hh" and layer in ("koszul", "linalg"):
            hh_layer_s += own
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for layer in TRACED:
        metrics[f"layer.{layer}.self_s"] = layer_s[layer]
    hits = tracer.counters["koszul.is_in_C.hits"]
    in_c_calls = calls["koszul.is_in_C"]
    metrics["koszul.is_in_C.hit_ratio"] = hits / in_c_calls if in_c_calls else 0.0
    for key in ("koszul.strand_generators", "koszul.strand_max_generators",
                "linalg.rows_in", "linalg.nnz_in"):
        metrics[key] = tracer.counters[key]
    strand_calls = calls["homology.strand_homology"]
    metrics["homology.strand_unique_ratio"] = (
        len(tracer.strand_keys) / strand_calls if strand_calls else 0.0
    )
    hh_run_s = sum(
        end - start
        for name, start, end, parent, op in tracer.spans
        if name == "cli.run" and op_commands[op] == "hh"
    )
    metrics["layer.koszul_linalg_share_of_hh"] = hh_layer_s / hh_run_s if hh_run_s else 0.0
    return metrics
