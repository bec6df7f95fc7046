"""In-memory span recorder that instruments the ``dmap`` modules from outside.

The benchmark wraps every public function of each ``dmap`` layer module,
in every ``dmap`` module namespace that holds a reference to it (so
``dmap.model.solve_ridge_map`` is wrapped as well as
``dmap.linmap.solve_ridge_map``).  Each call records one span: name,
start, end, parent span and the job it belongs to, plus counters computed
from the arguments (bytes of a matrix file, computed GFLOP of a solve).
Spans stay in memory; :meth:`SpanRecorder.dump` writes them out when the
run ends.  :func:`instrument` restores every original attribute on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: The layers are the modules of ``src/dmap``; ``errors`` does no work.
LAYERS = ("io", "linmap", "model", "consistency", "core", "evaluation", "synth", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of the calls made while it is active.

    ``job`` tags the spans of one benchmark job, so spans of one request
    share an identifier.  A span's id is taken when its call starts, so
    the calls inside it can name it as their parent; spans are appended
    when they end.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, meter, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = Span(span_id, name, start, end, parent, self.job)
            self.spans.append(span)
        if meter is not None:
            span.counters = meter(args, kwargs, result)
        return result

    def job_spans(self, job: int) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def dump(self, path) -> None:
        rows = [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def totals(spans) -> dict:
    """Function name -> calls, summed duration, summed self time and counters."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.duration
        t["self_s"] += selfs[s.id]
        for key, value in s.counters.items():
            t[key] = t.get(key, 0.0) + value
    return out


# --- counters computed from arguments -------------------------------------

def _shape(x):
    return getattr(getattr(x, "data", x), "shape")


def ridge_gflop(d: int, n: int, p: int, k: int) -> float:
    """Computed GFLOP of one ``solve_ridge_map`` call, by the branch it takes.

    Counts the Gram product, the ``eigvalsh`` condition check (4/3 m^3 for
    the tridiagonal reduction), the Cholesky factor (m^3 / 3) and the
    products and triangular solves of each side.
    """
    def side(m, other, rhs):
        return 2 * m * m * other + 4 / 3 * m ** 3 + m ** 3 / 3 + 2 * m * m * rhs

    feature = side(min(d, n), max(d, n), k) + 2 * d * n * k
    embedding = side(min(p, k), max(p, k), d if p <= k else p) + 2 * d * k * p
    return (feature + embedding) / 1e9


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _meter_load_matrix(args, kwargs, result):
    return {"mb": _file_mb(args[0])}


def _meter_save_matrix(args, kwargs, result):
    return {"mb": _file_mb(args[1])}


def _meter_save_prediction(args, kwargs, result):
    return {"mb": _file_mb(args[2])}


def _meter_solve_ridge_map(args, kwargs, result):
    (d, n), (p, k) = _shape(args[0]), _shape(args[1])
    return {"gflop": ridge_gflop(d, n, p, k)}


def _meter_predict_semantic(args, kwargs, result):
    d, p = _shape(args[0])
    return {"gflop": 2 * d * p * _shape(args[1])[1] / 1e9}


METERS = {
    "io.load_matrix": _meter_load_matrix,
    "io.save_matrix": _meter_save_matrix,
    "io.save_prediction": _meter_save_prediction,
    "linmap.solve_ridge_map": _meter_solve_ridge_map,
    "linmap.predict_semantic": _meter_predict_semantic,
}


# --- patching ---------------------------------------------------------------

def public_functions(package: str = "dmap") -> dict:
    """Original function -> span name, for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def _make_wrapper(recorder: SpanRecorder, name: str, fn):
    meter = METERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, meter, args, kwargs)

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder, package: str = "dmap"):
    """Wrap the public layer functions wherever a ``dmap`` module holds them.

    The original attributes are put back on exit, also when the body raises.
    """
    names = public_functions(package)
    wrappers = {fn: _make_wrapper(recorder, name, fn) for fn, name in names.items()}
    patched = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        yield recorder
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
