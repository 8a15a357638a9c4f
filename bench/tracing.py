"""Spans around calls into the coopcap layers, recorded from outside.

A Tracer replaces selected public functions, in every coopcap module that
binds them, with wrappers that record a span: name, start, end, parent and
the process's RSS high-water mark when the span ends, plus a few counts
read from the arguments or the result. Spans stay in memory until the run
writes them out. layer_metrics turns the spans of one round into the
per-layer figures.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import os
import resource
import statistics
import time

import coopcap
import coopcap.bounds
import coopcap.capacity
import coopcap.channel
import coopcap.cli
import coopcap.coding
import coopcap.experiments

_MODULES = (
    coopcap,
    coopcap.bounds,
    coopcap.capacity,
    coopcap.channel,
    coopcap.cli,
    coopcap.coding,
    coopcap.experiments,
)


def peak_rss_mb() -> float:
    """The process's RSS high-water mark so far, in MB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _serialize_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"binary": bool(kwargs.get("binary", False)), "bytes": os.path.getsize(path)}


def _deserialize_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        header = len(fh.readline())
    n = result.n
    return {"binary": size - header == (n * n + 7) // 8, "bytes": size}


def _verify_attrs(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    return {"orientation": code.orientation.value, "pairs": result.pairs_checked}


def _monte_carlo_attrs(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 1, "trials"))}


def _altmax_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _grid_attrs(args, kwargs, result):
    channel = _arg(args, kwargs, 0, "channel")
    steps = int(_arg(args, kwargs, 1, "grid_steps"))
    per_side = math.comb(steps + channel.n - 1, channel.n - 1)
    return {"grid_pairs": per_side * per_side}


def _sweep_attrs(args, kwargs, result):
    phases = {"construct": 0.0, "code": 0.0, "optimize": 0.0}
    for record in result:
        for phase in phases:
            phases[phase] += record.wall_time.get(phase, 0.0)
    return {f"{phase}_s": value for phase, value in phases.items()}


def _cli_attrs(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or []
    return {"command": argv[0] if argv else None}


# (module, function name, span name, attribute reader)
TRACED = (
    (coopcap.channel, "sample_matrix", "channel.sample_matrix", None),
    (coopcap.channel, "check_block_goodness", "channel.check_block_goodness", None),
    (coopcap.channel, "estimate_bad_density", "channel.estimate_bad_density", None),
    (coopcap.channel, "construct_channel", "channel.construct_channel", None),
    (coopcap.channel, "serialize_channel", "channel.serialize_channel", _serialize_attrs),
    (coopcap.channel, "deserialize_channel", "channel.deserialize_channel", _deserialize_attrs),
    (coopcap.coding, "verify_zero_error", "coding.verify_zero_error", _verify_attrs),
    (coopcap.coding, "monte_carlo_error", "coding.monte_carlo_error", _monte_carlo_attrs),
    (coopcap.capacity, "sum_rate", "capacity.sum_rate", None),
    (coopcap.capacity, "alternating_maximization", "capacity.alternating_maximization", _altmax_attrs),
    (coopcap.capacity, "maximize_sum_rate", "capacity.maximize_sum_rate", None),
    (coopcap.capacity, "brute_force_sum_capacity", "capacity.brute_force_sum_capacity", _grid_attrs),
    (coopcap.experiments, "run_sweep", "experiments.run_sweep", _sweep_attrs),
    (coopcap.cli, "main", "cli.main", _cli_attrs),
)


class Tracer:
    """Records spans while installed; restores the originals on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span's record."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_mb"] = peak_rss_mb()
            self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        for module, fname, name, attrs in TRACED:
            original = getattr(module, fname)
            wrapper = self._wrap(original, name, attrs)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {span["id"]: _duration(span) for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= _duration(span)
    return own


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Spans under root_id (spans are stored in opening order)."""
    inside = {root_id}
    found = []
    for span in spans:
        if span["parent"] in inside:
            inside.add(span["id"])
            found.append(span)
    return found


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans of one round. A figure of a layer
    the round does not call is 0 or absent, which reads as 0."""
    own = self_times(spans)
    values: dict[str, float] = collections.defaultdict(float)

    def add(key, amount):
        values[key] += amount

    for span in spans:
        name, took = span["name"], _duration(span)
        if name == "channel.sample_matrix":
            add("channel.sample_matrix_s", took)
            values["channel.rss_after_sample_mb"] = max(values["channel.rss_after_sample_mb"], span["rss_mb"])
        elif name == "channel.check_block_goodness":
            add("channel.check_block_goodness_s", took)
            add("channel.check_block_goodness_calls", 1)
        elif name == "channel.estimate_bad_density":
            add("channel.estimate_bad_density_s", took)
        elif name in ("channel.serialize_channel", "channel.deserialize_channel"):
            verb = "serialize" if name == "channel.serialize_channel" else "deserialize"
            kind = "binary" if span["binary"] else "text"
            add(f"channel.{verb}_{kind}_s", own[span["id"]])
            add("channel.maccf_bytes", span["bytes"])
        elif name == "coding.verify_zero_error":
            key = "coding.verify_r1_s" if span["orientation"] == "R1_full" else "coding.verify_r2_s"
            add(key, took)
            add("coding.pairs_checked", span["pairs"])
        elif name == "coding.monte_carlo_error":
            add("coding.monte_carlo_error_s", took)
            add("coding.mc_trials", span["trials"])
        elif name == "capacity.sum_rate":
            add("capacity.sum_rate_s", took)
        elif name == "capacity.maximize_sum_rate":
            add("capacity.maximize_sum_rate_s", took)
        elif name == "capacity.alternating_maximization":
            add("capacity.alternating_maximization_s", took)
            add("capacity.runs", 1)
            add("capacity.sweeps", span["iterations"])
            add("capacity.runs_converged", int(span["converged"]))
        elif name == "capacity.brute_force_sum_capacity":
            add("capacity.brute_force_sum_capacity_s", took)
            add("capacity.grid_pairs", span["grid_pairs"])
        elif name == "experiments.run_sweep":
            phases = span["construct_s"] + span["code_s"] + span["optimize_s"]
            for phase in ("construct", "code", "optimize"):
                add(f"experiments.{phase}_s", span[f"{phase}_s"])
            add("experiments.persist_s", took - phases)
        elif name == "cli.main":
            add("cli.overhead_s", own[span["id"]])
            if span["command"] == "capacity":
                add("cli.capacity_s", took)
    verify_s = values["coding.verify_r1_s"] + values["coding.verify_r2_s"]
    if verify_s > 0:
        values["coding.pairs_per_s"] = values["coding.pairs_checked"] / verify_s
    if values["coding.monte_carlo_error_s"] > 0:
        values["coding.mc_trials_per_s"] = values["coding.mc_trials"] / values["coding.monte_carlo_error_s"]
    if values["capacity.runs"]:
        values["capacity.alternating_maximization_s"] /= values["capacity.runs"]
    values["trace.spans"] = float(len(spans))
    return dict(values)


def span_cost_s(calls: int = 10_000, repeats: int = 5) -> float:
    """The measured cost of one span: a traced no-op call minus a plain
    one, the median over repeats."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "noop", None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
