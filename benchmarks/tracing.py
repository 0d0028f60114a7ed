"""Spans around the package's layer functions, recorded from outside.

``installed`` replaces each function in ``LAYERS`` with a wrapper in every
``fdia_lab`` module that binds it, because ``cli`` and ``nn.network`` look
many of them up through their own ``from ... import`` names; patching only
the defining module would miss those calls. A layer whose function no
longer exists records no span. Spans are kept in memory; each carries its
name, start, end, parent span and the id of the CLI stage call it belongs
to. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _variant(args, kwargs) -> str:
    return _arg(args, kwargs, 2, "variant").value


def _forward_mode(args, kwargs) -> str:
    return "infer" if _arg(args, kwargs, 2, "rng") is None else "train"


def _steps(args, kwargs, result) -> dict:
    return {"steps": len(_arg(args, kwargs, 0, "trace"))}


def _windows(args, kwargs, result) -> dict:
    return {"windows": len(_arg(args, kwargs, 1, "windows"))}


def _window_epochs(args, kwargs, result) -> dict:
    windows, cfg = _arg(args, kwargs, 0, "windows"), _arg(args, kwargs, 3, "cfg")
    return {"window_epochs": len(windows) * cfg.epochs}


def _rows_added(args, kwargs, result) -> dict:
    return {"rows_added": len(result.values) - len(_arg(args, kwargs, 0, "d").values)}


def _csv_written(args, kwargs, result) -> dict:
    data = Path(_arg(args, kwargs, 0, "path")).read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _csv_read(args, kwargs, result) -> dict:
    path = Path(_arg(args, kwargs, 0, "path"))
    return {"rows": len(result[1]), "bytes": path.stat().st_size}


@dataclass(frozen=True)
class Layer:
    module: str                   # defining module
    attr: str                     # function name in it
    name: str                     # span name, ``<module>.<function>``
    labels: tuple[str, ...] = ()  # suffixes ``label`` can return
    label: Callable | None = None
    count: Callable | None = None

    def span_name(self, args, kwargs) -> str:
        if self.label is None:
            return self.name
        try:
            return f"{self.name}.{self.label(args, kwargs)}"
        except (AttributeError, IndexError, TypeError):
            return self.name

    def span_names(self) -> list[str]:
        return [f"{self.name}.{s}" for s in self.labels] or [self.name]


def _layers(module: str, prefix: str, *attrs: str, **extra) -> list[Layer]:
    return [Layer(module, attr, f"{prefix}.{attr}", **extra) for attr in attrs]


LAYERS = (
    [Layer("fdia_lab.akf", "run", "akf.run", ("improved", "classic"), _variant, _steps)]
    + _layers("fdia_lab.passive_detect", "passive_detect", "calibrate_channels",
              "evaluate_stream", "write_verdicts_csv")
    + _layers("fdia_lab.fusion", "fusion", "combine_streams")
    + _layers("fdia_lab.nn.network", "nn", "gradients")
    + _layers("fdia_lab.nn.layers", "nn", "gru_backward", "conv_backward",
              "pool_backward")
    + _layers("fdia_lab.nn.training", "nn", "adam_step")
    + [Layer("fdia_lab.nn.training", "train", "nn.train", count=_window_epochs),
       Layer("fdia_lab.nn.network", "forward", "nn.forward", ("infer", "train"),
             _forward_mode, _windows)]
    + _layers("fdia_lab.nn.layers", "nn", "gru_forward", "conv_forward", "pool_forward")
    + _layers("fdia_lab.data_pipeline", "data_pipeline", "impute_mean")
    + [Layer("fdia_lab.data_pipeline", "cks_oversample",
             "data_pipeline.cks_oversample", count=_rows_added)]
    + _layers("fdia_lab.data_pipeline", "data_pipeline", "split", "window",
              "read_dataset_csv", "write_dataset_csv")
    + _layers("fdia_lab.signal_model", "signal_model", "simulate", "read_trace_csv",
              "write_trace_csv")
    + _layers("fdia_lab.attack", "attack", "inject", "labels_for")
    + [Layer("fdia_lab.io_utils", "write_csv", "io_utils.write_csv", count=_csv_written),
       Layer("fdia_lab.io_utils", "read_csv", "io_utils.read_csv", count=_csv_read)]
    + _layers("fdia_lab.io_utils", "io_utils", "write_json", "read_json")
    + _layers("fdia_lab.nn.network", "nn", "save_checkpoint", "load_checkpoint")
    + _layers("fdia_lab.cli", "cli", "cmd_simulate", "cmd_train", "cmd_detect",
              "cmd_report")
)

SPAN_NAMES = [name for layer in LAYERS for name in layer.span_names()]

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [(f"{name}.{stat}", "s") for name in SPAN_NAMES for stat in ("s", "self_s")]
    + [(f"{name}.calls", "count") for name in (
        "nn.gradients", "nn.gru_backward", "nn.conv_backward", "nn.pool_backward",
        "nn.adam_step", "attack.inject")]
    + [("akf.run.improved.steps", "count"), ("akf.run.improved.us_per_step", "us"),
       ("akf.run.classic.steps", "count"), ("akf.run.classic.us_per_step", "us"),
       ("nn.train.window_epochs", "count"), ("nn.forward.infer.windows", "count"),
       ("data_pipeline.cks_oversample.rows_added", "count"),
       ("io_utils.write_csv.rows", "count"), ("io_utils.write_csv.bytes", "bytes"),
       ("io_utils.read_csv.rows", "count"), ("io_utils.read_csv.bytes", "bytes"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


class Span(NamedTuple):
    id: int
    parent: int | None
    stage: int
    name: str
    start: float
    end: float
    counts: dict


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._stage = -1

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[span_id] = Span(span_id, parent, self._stage, name, start, end, {})
        if count is not None:
            try:
                self.spans[span_id].counts.update(count(args, kwargs, result))
            except (AttributeError, IndexError, TypeError, OSError):
                pass  # the function's signature changed; keep the span, drop the count
        return result

    def stage(self, name: str, fn, *args):
        """Root span of one CLI stage call; its descendants share its stage id."""
        self._stage += 1
        return self.call(name, fn, args)

    def wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer.span_name(args, kwargs), fn, args, kwargs, layer.count)
        return traced

    def write(self, path) -> None:
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span._asdict()) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS, package: str = "fdia_lab"):
    """Patch every binding of each layer function for the duration."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    patched = []
    try:
        for layer in layers:
            original = getattr(sys.modules.get(layer.module), layer.attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: busy time ``s``, ``self_s``, ``calls`` and summed counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        stats = out[span.name]
        duration = span.end - span.start
        stats["s"] += duration
        stats["self_s"] += duration - child_time[span.id]
        stats["calls"] += 1
        for key, value in span.counts.items():
            stats[key] += value
    for stats in out.values():
        if stats.get("steps"):
            stats["us_per_step"] = stats["s"] / stats["steps"] * 1e6
    return out


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Values of the ``PER_LAYER`` metrics (0 for a layer the pass never called)."""
    values = {}
    for metric, _ in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        values[metric] = float(summary.get(name, {}).get(stat, 0.0))
    return values
