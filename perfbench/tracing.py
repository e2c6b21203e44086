"""Span recorder for the traced run.

`install` wraps the public functions of every ``qtc`` module, and the public
methods of the classes they define, with span-recording wrappers.  A wrapper
replaces the function everywhere it is looked up at call time: the defining
module, every other ``qtc`` module that bound it by name (``from .x import
f``), module-level dispatch tables such as ``qtc.cli._COMMANDS``, and the
class dictionary for methods.  Local imports (``from .rotation import fwht``
inside a function body) read the module attribute, so they see the wrapper
too.  The library source is never edited.

Each span holds its name, start, end and parent.  The bit-I/O leaves
``BitString.write_uint`` and ``BitReader.read_uint`` run hundreds of
thousands of times per run, so they are folded into counters on their parent
span instead of getting spans of their own.  Spans stay in memory until
`Recorder.write_csv` is called at exit.

A layer's self time is the duration of its spans minus the part covered by
their child spans (and by the aggregated bit-I/O calls, which are charged to
``core``).  Time in the benchmark's own code is the ``harness`` pseudo-layer.
"""

from __future__ import annotations

import importlib
import inspect
import math
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "rotation", "scalar", "adaptive", "vector", "sideinfo", "dme", "optim", "aoi", "cli")

# SeedPath derivation is bookkeeping that every workload does; it is not a
# layer boundary, so its (small) cost stays with the caller.  This keeps the
# `core` layer equal to bit I/O plus the Quantizer round-trip contract.
_UNWRAPPED_CLASSES = {("core", "SeedPath")}

# Functions whose outputs feed per-layer sample-time metrics.
_SAMPLERS = {
    "vector": {"ratq_apply", "atuq_vector_apply", "ratq_sample", "rcs_ratq_sample", "simq_plus_sample"},
    "sideinfo": {"rmq_sample", "wz_known_sample", "daq_sample", "rdaq_sample",
                 "wz_unknown_sample", "boosted_rdaq_sample"},
}


class Span:
    __slots__ = ("idx", "name", "layer", "parent", "start", "end", "child_s",
                 "io_calls", "io_s", "bits_written", "bits_read")

    def __init__(self, idx: int, name: str, layer: str, parent: int) -> None:
        self.idx = idx
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.io_calls = 0
        self.io_s = 0.0
        self.bits_written = 0
        self.bits_read = 0


class Recorder:
    """In-memory span store; recording happens only inside `root` blocks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = False
        self.counters: Counter = Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].idx if self.stack else -1
        span = Span(len(self.spans), name, layer, parent)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    @contextmanager
    def root(self, name: str = "harness.pass"):
        """Record everything called inside the block under one harness span."""
        span = self.open(name, "harness")
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self.close(span)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf8", newline="\n") as fh:
            fh.write("idx,name,layer,parent,start_s,end_s,child_s,io_calls,io_s,bits_written,bits_read\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for s in self.spans:
                fh.write(f"{s.idx},{s.name},{s.layer},{s.parent},{s.start - t0:.9f},"
                         f"{s.end - t0:.9f},{s.child_s:.9f},{s.io_calls},{s.io_s:.9f},"
                         f"{s.bits_written},{s.bits_read}\n")


# ---------------------------------------------------------------------------
# Wrappers


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_hooks(rec: Recorder) -> dict:
    """Per-function counters, keyed by span name; each takes (args, kwargs, out)."""
    c = rec.counters

    def fwht(args, kwargs, out):
        d = out.shape[-1]
        rows = out.size // d
        c["rotation.fwht_calls"] += 1
        c["rotation.rows"] += rows
        # computed, not measured: every butterfly stage reads and writes the
        # whole float64 batch once
        c["rotation.bytes_computed"] += 2 * out.nbytes * int(math.log2(d)) if d > 1 else 0

    def coords(args, kwargs, out):
        c["scalar.coords"] += out.size

    def run_dme(args, kwargs, out):
        c["dme.client_trials"] += _arg(args, kwargs, 0, "instance").n * _arg(args, kwargs, 3, "trials")
        c["dme.delta_violations"] += out.delta_violations

    def descent(args, kwargs, out):
        c["optim.steps"] += _arg(args, kwargs, 3, "T")

    def simulate(args, kwargs, out):
        c["aoi.sim_cycles"] += out.cycles

    def solve(args, kwargs, out):
        c["aoi.solves"] += 1
        c["aoi.certified"] += int(out.certified)

    return {
        "rotation.fwht": fwht,
        "scalar.cuq_encode": coords,
        "scalar.cuq_decode": coords,
        "scalar.mq_encode": coords,
        "scalar.mq_decode": coords,
        "dme.run_dme": run_dme,
        "optim.psgd_run": descent,
        "optim.mirror_descent_run": descent,
        "aoi.simulate_update_scheme": simulate,
        "aoi.optimize_age": solve,
        "aoi.optimize_delay": solve,
    }


def _wrap(rec: Recorder, fn, layer: str, name: str, hook):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if hook is not None:
            hook(args, kwargs, out)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _wrap_bit_io(rec: Recorder, fn, written: bool):
    """Fold `write_uint(value, width)` / `read_uint(width)` into the parent span."""

    def bit_io(self, *args):
        if not rec.active:
            return fn(self, *args)
        t0 = perf_counter()
        out = fn(self, *args)
        dt = perf_counter() - t0
        parent = rec.stack[-1]
        parent.child_s += dt
        parent.io_calls += 1
        parent.io_s += dt
        if written:
            parent.bits_written += args[-1]
        else:
            parent.bits_read += args[-1]
        return out

    return bit_io


def _instrument_quantizer(rec: Recorder, q, layer: str, factory: str) -> None:
    """Give a Quantizer's encode/decode closures spans of their factory's layer."""
    budget = q.bit_budget
    c = rec.counters

    def count_message(args, kwargs, out):
        if budget is not None:
            c["core.messages"] += 1
            c["core.budget_exact"] += int(out.nbits == budget)

    q.encode = _wrap(rec, q.encode, layer, f"{layer}.{factory}.encode", count_message)
    q.decode = _wrap(rec, q.decode, layer, f"{layer}.{factory}.decode", None)


def _wrap_factory(rec: Recorder, fn, layer: str, name: str):
    traced = _wrap(rec, fn, layer, name, None)

    def factory(*args, **kwargs):
        q = traced(*args, **kwargs)
        _instrument_quantizer(rec, q, layer, fn.__name__)
        return q

    factory.__wrapped__ = fn
    factory.__name__ = fn.__name__
    return factory


def install(rec: Recorder, callers=()) -> None:
    """Replace every public qtc function and method with a recording wrapper.

    `callers` are further modules (the benchmark's own) whose names bound to
    qtc functions are rebound to the wrappers as well.
    """
    hooks = _count_hooks(rec)
    modules = {layer: importlib.import_module(f"qtc.{layer}") for layer in LAYERS}
    replaced: dict = {}  # original function object -> wrapper

    def wrap_function(fn, layer: str, name: str):
        if inspect.signature(fn).return_annotation == "Quantizer":
            return _wrap_factory(rec, fn, layer, name)
        return _wrap(rec, fn, layer, name, hooks.get(name))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[obj] = wrap_function(obj, layer, f"{layer}.{attr}")
            elif isinstance(obj, type) and (layer, attr) not in _UNWRAPPED_CLASSES:
                _wrap_methods(rec, obj, layer, wrap_function)
    for mod in (*modules.values(), *callers):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and val in replaced:
                        obj[key] = replaced[val]


def _wrap_methods(rec: Recorder, cls: type, layer: str, wrap_function) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if (cls.__name__, attr) in (("BitString", "write_uint"), ("BitReader", "read_uint")):
            setattr(cls, attr, _wrap_bit_io(rec, obj, written=attr == "write_uint"))
        elif isinstance(obj, types.FunctionType):
            setattr(cls, attr, wrap_function(obj, layer, name))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(wrap_function(obj.__func__, layer, name)))
        elif isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(wrap_function(obj.__func__, layer, name)))


# ---------------------------------------------------------------------------
# Per-layer metrics


def percentile_ms(values: list, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in ms (0 when empty)."""
    if not values:
        return 0.0
    values = sorted(values)
    return 1e3 * values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


def layer_metrics(rec: Recorder, traced_wall_s: float) -> dict:
    """Per-layer numbers from the recorded spans; see README.md for definitions."""
    calls = Counter()
    self_s = defaultdict(float)
    inclusive = defaultdict(float)  # span name -> summed duration
    io_calls = 0
    io_s = 0.0
    bits_written = bits_read = 0
    roundtrip_ms = defaultdict(list)
    spans = rec.spans
    for s in spans:
        dur = s.end - s.start
        calls[s.layer] += 1
        self_s[s.layer] += dur - s.child_s
        inclusive[s.name] += dur
        io_calls += s.io_calls
        io_s += s.io_s
        bits_written += s.bits_written
        bits_read += s.bits_read
        if s.name.endswith(".encode") and s.layer in ("vector", "sideinfo") and s.parent >= 0:
            parent = spans[s.parent]
            if parent.name == "core.Quantizer.roundtrip":
                roundtrip_ms[s.layer].append(parent.end - parent.start)
    calls["core"] += io_calls
    self_s["core"] += io_s

    def sampled_s(layer: str) -> float:
        names = _SAMPLERS[layer]
        total = 0.0
        for s in spans:
            if s.layer == layer and s.name.split(".")[-1] in names:
                parent = spans[s.parent] if s.parent >= 0 else None
                if parent is None or parent.layer != layer or parent.name.split(".")[-1] not in names:
                    total += s.end - s.start
        return total

    def by_suffix(layer: str, suffix: str) -> float:
        return sum((v for k, v in inclusive.items() if k.startswith(layer + ".") and k.endswith(suffix)), 0.0)

    c = rec.counters
    out: dict = {}
    wall = max(traced_wall_s, 1e-12)
    for layer in LAYERS + ("harness",):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (self_s[layer] / wall, "frac")
    bits = bits_written + bits_read
    out["core.bits_written"] = (bits_written, "bit")
    out["core.bits_read"] = (bits_read, "bit")
    out["core.mbit_per_s"] = (bits / self_s["core"] / 1e6 if self_s["core"] > 0 else 0.0, "Mbit/s")
    out["core.budget_exact_frac"] = (
        c["core.budget_exact"] / c["core.messages"] if c["core.messages"] else 0.0, "frac")
    out["rotation.rows"] = (c["rotation.rows"], "count")
    out["rotation.rows_per_call"] = (
        c["rotation.rows"] / c["rotation.fwht_calls"] if c["rotation.fwht_calls"] else 0.0, "count")
    out["rotation.bytes_computed"] = (c["rotation.bytes_computed"], "B")
    out["scalar.coords"] = (c["scalar.coords"], "count")
    out["scalar.mq_encode_s"] = (inclusive["scalar.mq_encode"], "s")
    out["scalar.mq_decode_s"] = (inclusive["scalar.mq_decode"], "s")
    for layer in ("vector", "sideinfo"):
        out[f"{layer}.encode_s"] = (by_suffix(layer, ".encode"), "s")
        out[f"{layer}.decode_s"] = (by_suffix(layer, ".decode"), "s")
        out[f"{layer}.sample_s"] = (sampled_s(layer), "s")
        out[f"{layer}.roundtrip_p99_ms"] = (percentile_ms(roundtrip_ms[layer], 0.99), "ms")
    out["dme.client_trials"] = (c["dme.client_trials"], "count")
    out["dme.delta_violations"] = (c["dme.delta_violations"], "count")
    out["optim.steps"] = (c["optim.steps"], "count")
    out["aoi.sim_s"] = (inclusive["aoi.simulate_update_scheme"], "s")
    out["aoi.sim_cycles"] = (c["aoi.sim_cycles"], "count")
    out["aoi.solves"] = (c["aoi.solves"], "count")
    out["aoi.certified_frac"] = (c["aoi.certified"] / c["aoi.solves"] if c["aoi.solves"] else 0.0, "frac")
    return out
