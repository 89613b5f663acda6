"""Spans around the benchmark's calls into the program's layers.

A :class:`Tracer` wraps chosen public functions of ``spatialmoran`` for the
length of a ``with`` block, by rebinding every module attribute that names
them.  Each call becomes a span: name, start, end, parent, and attributes
taken from the arguments or the result.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _model_size(args, kwargs):
    model = args[0] if args else None
    n = getattr(model, "n", None)
    return {} if n is None else {"n": int(n)}


def _kernel_attrs(result) -> dict:
    P = result.P
    if hasattr(P, "nbytes"):
        nbytes = P.nbytes
    else:
        nbytes = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    return {"rows": int(result.size), "kernel_bytes": int(nbytes)}


def _solver_attrs(result) -> dict:
    return {"method": result.solver.method, "iterations": int(result.solver.iterations)}


def _simulation_attrs(result) -> dict:
    return {"trials": int(result.trials)}


#: (module, function, attributes from the arguments, attributes from the result)
TRACED = (
    ("spatialmoran.modelio", "load_model", None, None),
    ("spatialmoran.graph", "validate_weight_matrix", None, None),
    ("spatialmoran.graph", "stationary_distribution", None, None),
    ("spatialmoran.dynamics", "transition_kernel", _model_size, _kernel_attrs),
    ("spatialmoran.exact", "fixation_probabilities", _model_size, _solver_attrs),
    ("spatialmoran.montecarlo", "estimate_fixation", _model_size, _simulation_attrs),
    ("spatialmoran.analysis", "martingale_report", _model_size, None),
    ("spatialmoran.analysis", "ratio_constancy", _model_size, None),
    ("spatialmoran.analysis", "macro_markov_check", _model_size, None),
    ("spatialmoran.verification", "builtin_suite", None, None),
    ("spatialmoran.verification", "describe_model", _model_size, None),
)


class Tracer:
    """Records nested spans; ``with tracer.installed():`` traces the program."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # a span belongs to the operation and round of its root span
            for key in ("op", "round"):
                attrs.setdefault(key, self.spans[parent].attrs.get(key))
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        assert popped == index, "spans must close in the order they opened"
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    def _wrap(self, name, fn, from_args, from_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, **(from_args(args, kwargs) if from_args else {}))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, **(from_result(result) if from_result and result is not None
                                     else {}))
        return traced

    def installed(self):
        return _Installed(self)

    def export(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.self_time, **s.attrs}
                for i, s in enumerate(self.spans)]


class _Installed:
    """Rebinds every module attribute that names a traced function, and restores it."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spatialmoran" or name.startswith("spatialmoran."))]
        for module_name, fn_name, from_args, from_result in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._tracer._wrap(f"{module_name.split('.')[-1]}.{fn_name}",
                                         original, from_args, from_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self._tracer

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()
        return False
