"""Span tracing from outside the program.

`Tracer.install` replaces every public function of every kpshap module, in
every kpshap namespace that holds it, with a wrapper that records a span:
name, start, end, parent span and op id. `TracedOracle` is a forwarding
oracle that records one span per coalition evaluation. Spans stay in memory
in flat arrays; `layer_metrics` turns them into per-op layer metrics, where a
span's self time is its duration minus the durations of its child spans.

Nothing under src/ is edited: wrapping happens at run time, in the traced
run only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import kpshap
from kpshap.oracle import CoalitionValueOracle

MODULES = (
    "analysis", "cli", "gkr", "grouping", "images", "manifest",
    "oracle", "perturb", "rng", "shapley", "skeleton",
)
ROOT_SPAN = "bench.op"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts taken where the work happens, keyed by span name. Each hook sees the
# call's arguments and result after the span has closed.
def _exact_shapley(counts, args, kwargs, result):
    counts["shapley.game_values"] += 1 << _arg(args, kwargs, 1, "n")


def _read_png(counts, args, kwargs, result):
    counts["images.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))
    counts["images.png_pixels"] += result.shape[0] * result.shape[1]


def _read_ppm(counts, args, kwargs, result):
    counts["images.bytes_read"] += _file_size(_arg(args, kwargs, 0, "path"))


def _write_image(counts, args, kwargs, result):
    counts["images.bytes_written"] += _file_size(_arg(args, kwargs, 0, "path"))


def _sha256_file(counts, args, kwargs, result):
    counts["manifest.files_hashed"] += 1
    counts["manifest.bytes_hashed"] += _file_size(_arg(args, kwargs, 0, "path"))


def _plan_gkr(counts, args, kwargs, result):
    counts["gkr.rects"] += len(result.rects)


def _apply_plan(counts, args, kwargs, result):
    for r in _arg(args, kwargs, 1, "plan").rects:
        x0, y0, x1, y1 = r.rect
        counts["gkr.erased_px"] += (x1 - x0) * (y1 - y0)


HOOKS = {
    "shapley.exact_shapley": _exact_shapley,
    "images.read_png": _read_png,
    "images.read_ppm": _read_ppm,
    "images.write_png": _write_image,
    "images.write_ppm": _write_image,
    "manifest.sha256_file": _sha256_file,
    "gkr.plan_gkr": _plan_gkr,
    "gkr.apply_plan": _apply_plan,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = True
        self.counts: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str):
        return _Span(self, self._intern(name))

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each public kpshap function once and rebind every reference."""
        modules = [importlib.import_module(f"kpshap.{m}") for m in MODULES]
        namespaces = [kpshap, *modules]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)

    def durations(self):
        """(name, op id, duration, self time) per span."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [(self.names[self.name_id[i]], self.op[i], dur[i], dur[i] - child[i]) for i in range(n)]

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("span,name,start,end,parent,op\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid) if self.tracer.active else None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)


class TracedOracle(CoalitionValueOracle):
    """Forwards every evaluation to `inner` inside an `oracle.eval` span and
    counts calls and distinct coalitions per op."""

    def __init__(self, inner: CoalitionValueOracle, tracer: Tracer):
        super().__init__(inner.schema)
        self.inner = inner
        self.tracer = tracer
        self._nid = tracer._intern("oracle.eval")
        self._seen: set[int] = set()
        self._seen_op = None

    def eval(self, instances, coalition, trial: int = 0):
        tracer = self.tracer
        if tracer.op_id != self._seen_op:
            self.flush()
            self._seen_op = tracer.op_id
        tracer.counts["oracle.eval_calls"] += 1
        self._seen.add(coalition.bits)
        idx = tracer._open(self._nid)
        try:
            return self.inner.eval(instances, coalition, trial)
        finally:
            tracer._close(idx)

    def flush(self) -> None:
        self.tracer.counts["oracle.distinct_coalitions"] += len(self._seen)
        self._seen = set()

    def describe(self) -> str:
        return self.inner.describe()

    def close(self) -> None:
        self.flush()
        self.inner.close()


def _pct(values, q):
    """q-th percentile, 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, ops: int, refused: int, wire: dict | None, overhead_pct: float, scale: float) -> dict:
    """Per-layer metrics as {name: {"value", "unit"}}.

    Counts and times are totals over the traced phase divided by the ops
    attempted in it, `refused` of them ended by a degenerate-row refusal; a
    layer the workload does not reach reads 0. `wire` is
    the serving child's counts on coco17-wire, else None. Span times are
    multiplied by `scale`, the reference over the measured host speed, to
    read in the same reference seconds as the end-to-end metrics.
    """
    incl: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    module_self: dict[str, float] = defaultdict(float)
    eval_us = []
    spawn_s = 0.0
    for name, op, dur, self_time in tracer.durations():
        if op < 0:  # set-up, before the first op
            spawn_s += dur if name == "oracle.spawn" else 0.0
            continue
        incl[name] += dur
        selft[name] += self_time
        calls[name] += 1
        module_self[name.split(".", 1)[0]] += self_time
        if name == "oracle.eval":
            eval_us.append(dur * 1e6)
    c = tracer.counts
    per = 1.0 / max(ops, 1)
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        if unit in ("s", "s/op", "us"):
            value *= scale
        elif unit == "Mpx/s":
            value /= scale
        m[name] = (float(value), unit)

    wire = wire or {}
    eval_s = incl["oracle.eval"]
    rows = wire.get("rows", c["oracle.eval_calls"])
    put("oracle.eval_calls", c["oracle.eval_calls"] * per, "count/op")
    put("oracle.model_evals", rows * per, "count/op")
    put("oracle.distinct_coalitions", c["oracle.distinct_coalitions"] * per, "count/op")
    put("oracle.distinct_ratio", c["oracle.distinct_coalitions"] / c["oracle.eval_calls"] if c["oracle.eval_calls"] else 0.0, "ratio")
    put("oracle.eval_busy_s", eval_s * per, "s/op")
    put("oracle.eval_p50_us", _pct(eval_us, 50), "us")
    put("oracle.eval_p90_us", _pct(eval_us, 90), "us")
    put("oracle.wire_round_trips", wire.get("requests", 0) * per, "count/op")
    put("oracle.wire_bytes_sent", wire.get("bytes_in", 0) * per, "B/op")
    put("oracle.wire_bytes_received", wire.get("bytes_out", 0) * per, "B/op")
    put("oracle.child_busy_s", wire.get("busy_s", 0.0) * per, "s/op")
    put("oracle.wire_wait_s", (eval_s - wire.get("busy_s", 0.0)) * per if wire else 0.0, "s/op")
    put("oracle.spawn_s", spawn_s, "s")
    put("perturb.delta_perf_matrix_s", incl["perturb.delta_perf_matrix"] * per, "s/op")
    put("perturb.delta_perf_matrix_self_s", selft["perturb.delta_perf_matrix"] * per, "s/op")
    put("perturb.degenerate_row_ops", refused * per, "ratio")
    put("grouping.interdependency_s", incl["grouping.interdependency"] * per, "s/op")
    put("grouping.cluster_s", incl["grouping.cluster"] * per, "s/op")
    put("grouping.cluster_calls", calls["grouping.cluster"] * per, "count/op")
    put("shapley.run_group_attribution_s", incl["shapley.run_group_attribution"] * per, "s/op")
    put("shapley.run_group_attribution_self_s", selft["shapley.run_group_attribution"] * per, "s/op")
    put("shapley.exact_shapley_calls", calls["shapley.exact_shapley"] * per, "count/op")
    put("shapley.exact_shapley_s", incl["shapley.exact_shapley"] * per, "s/op")
    put("shapley.game_values", c["shapley.game_values"] * per, "count/op")
    put("shapley.combined_attribution_s", incl["shapley.combined_attribution"] * per, "s/op")
    put("analysis.render_heatmap_s", incl["analysis.render_heatmap"] * per, "s/op")
    read_png_s = incl["images.read_png"]
    put("images.read_png_s", read_png_s * per, "s/op")
    put("images.read_png_mpix_per_s", c["images.png_pixels"] / 1e6 / read_png_s if read_png_s else 0.0, "Mpx/s")
    put("images.write_png_s", incl["images.write_png"] * per, "s/op")
    put("images.read_ppm_s", incl["images.read_ppm"] * per, "s/op")
    put("images.write_ppm_s", incl["images.write_ppm"] * per, "s/op")
    put("images.bytes_read", c["images.bytes_read"] * per, "B/op")
    put("images.bytes_written", c["images.bytes_written"] * per, "B/op")
    put("gkr.parse_annotations_s", incl["gkr.parse_annotations"] * per, "s/op")
    put("gkr.plan_gkr_s", incl["gkr.plan_gkr"] * per, "s/op")
    put("gkr.read_plans_s", incl["gkr.read_plans"] * per, "s/op")
    put("gkr.apply_plan_s", incl["gkr.apply_plan"] * per, "s/op")
    put("gkr.rects", c["gkr.rects"] * per, "count/op")
    put("gkr.erased_px", c["gkr.erased_px"] * per, "px/op")
    put("manifest.build_manifest_s", incl["manifest.build_manifest"] * per, "s/op")
    put("manifest.files_hashed", c["manifest.files_hashed"] * per, "count/op")
    put("manifest.bytes_hashed", c["manifest.bytes_hashed"] * per, "B/op")
    put("rng.generator_calls", calls["rng.generator"] * per, "count/op")
    put("rng.generator_s", incl["rng.generator"] * per, "s/op")
    put("cli.invocations", calls["cli.main"] * per, "count/op")
    put("cli.main_s", incl["cli.main"] * per, "s/op")
    for mod in ("bench",) + MODULES:
        name = "cli.main_self_s" if mod == "cli" else f"{mod}.self_s"
        put(name, module_self[mod] * per, "s/op")
    put("trace.spans", sum(calls.values()) * per, "count/op")
    put("trace.overhead_pct", overhead_pct, "%")
    return {k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in m.items()}

