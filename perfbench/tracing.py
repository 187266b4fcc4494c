"""In-process spans around dmdkit's layers, installed from outside the package.

Each public function is wrapped where its caller looks it up: the CLI calls
``dmdkit.cli.fit_svd_dmd``, the DMD fit calls ``dmdkit.dmd.svd_truncated``,
and so on, so replacing those module attributes puts a span at every layer
boundary without editing dmdkit. Dictionary and kernel methods are wrapped on
their classes. ``install`` returns a function that puts every original back.

A span records its name, start, end and parent. Its self time is its duration
minus the time its direct children cover (children run one after another
inside it). A call made while a span of the same name is open is not recorded
again, so a method that calls its base class's version is counted once.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute the caller looks up, span name)
FUNCTION_TARGETS = [
    ("dmdkit.cli", "simulate", "systems.simulate"),
    ("dmdkit.cli", "save_trajectory", "data.save_trajectory"),
    ("dmdkit.cli", "load_trajectory", "data.load_trajectory"),
    ("dmdkit.cli", "snapshot_pairs", "data.pairs"),
    ("dmdkit.cli", "delay_embed", "data.pairs"),
    ("dmdkit.cli", "concat_pairs", "data.pairs"),
    ("dmdkit.cli", "fit_svd_dmd", "dmd.fit_svd_dmd"),
    ("dmdkit.cli", "predict", "dmd.predict"),
    ("dmdkit.cli", "fit_edmd", "edmd.fit_edmd"),
    ("dmdkit.cli", "edmd_predict", "edmd.edmd_predict"),
    ("dmdkit.cli", "fit_kernel_edmd", "kernel_edmd.fit_kernel_edmd"),
    ("dmdkit.cli", "kernel_predict", "kernel_edmd.kernel_predict"),
    ("dmdkit.cli", "save_model", "model_io.save_model"),
    ("dmdkit.cli", "load_model", "model_io.load_model"),
    ("dmdkit.dmd", "svd_truncated", "linalg.svd_truncated"),
    ("dmdkit.dmd", "eig", "linalg.eig"),
    ("dmdkit.edmd", "svd_truncated", "linalg.svd_truncated"),
    ("dmdkit.edmd", "eig", "linalg.eig"),
    ("dmdkit.kernel_edmd", "eig", "linalg.eig"),
]

# per-layer metric -> (span name, "total" or "self")
LAYER_METRICS = {
    "cli.fit.self_s": ("cli.fit", "self"),
    "cli.spectrum.self_s": ("cli.spectrum", "self"),
    "cli.predict.self_s": ("cli.predict", "self"),
    "systems.simulate_s": ("systems.simulate", "total"),
    "data.save_trajectory_s": ("data.save_trajectory", "total"),
    "data.load_trajectory_s": ("data.load_trajectory", "total"),
    "data.pairs_s": ("data.pairs", "total"),
    "observables.transform_s": ("observables.transform", "total"),
    "observables.gram_s": ("observables.gram", "total"),
    "linalg.svd_truncated_s": ("linalg.svd_truncated", "total"),
    "linalg.eig_s": ("linalg.eig", "total"),
    "dmd.fit_svd_dmd.self_s": ("dmd.fit_svd_dmd", "self"),
    "dmd.predict_s": ("dmd.predict", "total"),
    "edmd.fit_edmd.self_s": ("edmd.fit_edmd", "self"),
    "edmd.edmd_predict_s": ("edmd.edmd_predict", "total"),
    "kernel_edmd.fit_kernel_edmd.self_s": ("kernel_edmd.fit_kernel_edmd", "self"),
    "kernel_edmd.kernel_predict_s": ("kernel_edmd.kernel_predict", "total"),
    "model_io.save_model_s": ("model_io.save_model", "total"),
    "model_io.load_model_s": ("model_io.load_model", "total"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Keeps spans in memory; ``clear`` starts a new round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        if any(self.spans[i].name == name for i in self._open):
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(index)
        try:
            yield
        finally:
            record = self.spans[index]
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def layer_metrics(self) -> dict:
        """Seconds per metric of LAYER_METRICS over the spans recorded so far."""
        out = {metric: 0.0 for metric in LAYER_METRICS}
        for metric, (name, kind) in LAYER_METRICS.items():
            for record in self.spans:
                if record.name == name:
                    out[metric] += record.self_time if kind == "self" else record.duration
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer):
    """Wrap dmdkit's layers with spans; return a function that undoes it.

    A target that this version of dmdkit lacks is skipped, so its metric
    reads 0 rather than stopping the benchmark.
    """
    patched = []

    def patch(owner, attr, name):
        original = owner.__dict__.get(attr)
        if original is None:
            return
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))

    for module_name, attr, name in FUNCTION_TARGETS:
        patch(importlib.import_module(module_name), attr, name)
    observables = importlib.import_module("dmdkit.observables")
    for cls in [observables.Dictionary, *_subclasses(observables.Dictionary)]:
        patch(cls, "transform", "observables.transform")
    for cls in [observables.Kernel, *_subclasses(observables.Kernel)]:
        patch(cls, "gram", "observables.gram")

    def uninstall():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return uninstall
