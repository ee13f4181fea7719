"""Spans around the benchmark's calls into cantordyn, and the per-layer
metrics derived from them.

A span is one call the benchmark made into a public cantordyn function (or
one whole op, the root of its calls).  It records the name, start and end
from perf_counter_ns, the index of its parent span, the op id, and counts
the benchmark attached after the call returned.  Spans stay in memory and
are written out when the run ends.
"""

import json
from contextlib import nullcontext
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag(self, **attrs):
        pass

    def op(self, kind, op_id):
        return nullcontext()


class Tracer:
    """Tracing on: every call and op becomes a span."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, op_id, attrs]
        self._open = []
        self._op_id = "setup"

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        span = [name, perf_counter_ns(), 0, parent, self._op_id, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def _end(self, span):
        span[2] = perf_counter_ns()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def tag(self, **attrs):
        """Attach counts to the span of the call that just returned."""
        self.spans[-1][5].update(attrs)

    def op(self, kind, op_id):
        return _OpSpan(self, "op." + kind, op_id)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op_id, attrs in self.spans:
                f.write(json.dumps({"name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent,
                                    "op": op_id, "attrs": attrs}) + "\n")


class _OpSpan:
    def __init__(self, tracer, name, op_id):
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        self.tracer._op_id = self.op_id
        self.span = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.span)
        self.tracer._op_id = None
        return False


# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = [
    ("quadratic_map.derive_params.calls", "count"),
    ("quadratic_map.derive_params.time_ms", "ms"),
    ("model_cantor.build_model_system.calls", "count"),
    ("model_cantor.build_model_system.segments", "count"),
    ("model_cantor.build_model_system.time_s", "s"),
    ("model_cantor.build_model_system.ns_per_segment", "ns"),
    ("target_cantor.build_target_system.segments", "count"),
    ("target_cantor.build_target_system.strict_centred.time_s", "s"),
    ("target_cantor.build_target_system.strict_centred.us_per_segment", "us"),
    ("target_cantor.build_target_system.strict_other.time_s", "s"),
    ("target_cantor.build_target_system.strict_other.us_per_segment", "us"),
    ("target_cantor.build_target_system.natural.time_s", "s"),
    ("target_cantor.build_target_system.natural.us_per_segment", "us"),
    ("conjugacy.build_phi.time_ms", "ms"),
    ("conjugacy.eval_fstar.us_per_call", "us"),
    ("conjugacy.eval_phi.us_per_call", "us"),
    ("conjugacy.eval_phi_inverse.us_per_call", "us"),
    ("conjugacy.eval.calls", "count"),
    ("orbit_engine.iterate_target.calls", "count"),
    ("orbit_engine.iterate_target.steps", "count"),
    ("orbit_engine.iterate_target.escaped_ratio", "ratio"),
    ("orbit_engine.iterate_target.bounded.us_per_step", "us"),
    ("orbit_engine.iterate_target.escaping.us_per_step", "us"),
    ("orbit_engine.reloaded.escaped_ratio", "ratio"),
    ("orbit_engine.classify_grid.points", "count"),
    ("orbit_engine.classify_grid.us_per_point", "us"),
    ("orbit_engine.mandelbrot.pixel_iters", "count"),
    ("orbit_engine.mandelbrot.ns_per_pixel_iter", "ns"),
    ("orbit_engine.cobweb_trace.time_ms", "ms"),
    ("fileio.save_system.bytes", "bytes"),
    ("fileio.save_system.mb_per_s", "MB/s"),
    ("fileio.load_system.bytes", "bytes"),
    ("fileio.load_system.mb_per_s", "MB/s"),
    ("fileio.export_escape_image.time_ms", "ms"),
    ("fileio.export_cobweb.time_ms", "ms"),
    ("cli.main.verify.time_s", "s"),
    ("verification.suites_run", "count"),
    ("verification.suites_failed", "count"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num, den):
    """num / den, or 0 when the layer did no such work in this workload."""
    return num / den if den else 0.0


def layer_metrics(spans, overhead_ratio):
    """Aggregate spans into the LAYER_METRICS values.

    time_* metrics are the mean duration of one call; per-unit rates divide
    the summed durations by the summed counts.  A layer the workload never
    calls reports 0 calls and 0 time.
    """
    calls, ns, sums = {}, {}, {}

    def add(key, dt):
        calls[key] = calls.get(key, 0) + 1
        ns[key] = ns.get(key, 0) + dt

    def count(key, n):
        sums[key] = sums.get(key, 0) + n

    child_ns = {}
    for name, t0, t1, parent, _op, attrs in spans:
        dt = t1 - t0
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + dt
        add(name, dt)
        if name == "model_cantor.build_model_system":
            count("model_segments", attrs["segments"])
        elif name == "target_cantor.build_target_system":
            add("target." + attrs["category"], dt)
            count("target." + attrs["category"], attrs["segments"])
            count("target_segments", attrs["segments"])
        elif name == "orbit_engine.iterate_target":
            group = "escaping" if attrs["escaped"] else "bounded"
            add("iterate." + group, dt)
            count("iterate." + group + ".steps", max(attrs["steps"], 1))
            count("iterate.steps", attrs["steps"])
            count("iterate.escaped", int(attrs["escaped"]))
            if attrs.get("reloaded"):
                count("reloaded.n", 1)
                count("reloaded.escaped", int(attrs["escaped"]))
        elif name == "orbit_engine.classify_grid":
            count("classify.points", attrs["points"])
        elif name == "fileio.export_escape_image":
            count("pixel_iters", attrs["pixel_iters"])
        elif name in ("fileio.save_system", "fileio.load_system"):
            count(name + ".bytes", attrs["bytes"])
        elif name == "cli.main.verify":
            count("suites_run", attrs["suites_run"])
            count("suites_failed", attrs["suites_failed"])

    self_ns = op_count = 0
    for i, span in enumerate(spans):
        if span[0].startswith("op."):
            op_count += 1
            self_ns += span[2] - span[1] - child_ns.get(i, 0)

    def mean(key, scale):
        return _ratio(ns.get(key, 0), calls.get(key, 0)) / scale

    def per(key, count_key, scale):
        return _ratio(ns.get(key, 0), sums.get(count_key, 0)) / scale

    g = sums.get
    target = "target_cantor.build_target_system"
    iterate = "orbit_engine.iterate_target"
    n_iter = calls.get(iterate, 0)
    evals = sum(calls.get("conjugacy." + f, 0)
                for f in ("eval_fstar", "eval_phi", "eval_phi_inverse"))
    values = {
        "quadratic_map.derive_params.calls":
            calls.get("quadratic_map.derive_params", 0),
        "quadratic_map.derive_params.time_ms":
            mean("quadratic_map.derive_params", 1e6),
        "model_cantor.build_model_system.calls":
            calls.get("model_cantor.build_model_system", 0),
        "model_cantor.build_model_system.segments": g("model_segments", 0),
        "model_cantor.build_model_system.time_s":
            mean("model_cantor.build_model_system", 1e9),
        "model_cantor.build_model_system.ns_per_segment":
            per("model_cantor.build_model_system", "model_segments", 1),
        f"{target}.segments": g("target_segments", 0),
        "conjugacy.build_phi.time_ms": mean("conjugacy.build_phi", 1e6),
        "conjugacy.eval_fstar.us_per_call": mean("conjugacy.eval_fstar", 1e3),
        "conjugacy.eval_phi.us_per_call": mean("conjugacy.eval_phi", 1e3),
        "conjugacy.eval_phi_inverse.us_per_call":
            mean("conjugacy.eval_phi_inverse", 1e3),
        "conjugacy.eval.calls": evals,
        f"{iterate}.calls": n_iter,
        f"{iterate}.steps": g("iterate.steps", 0),
        f"{iterate}.escaped_ratio": _ratio(g("iterate.escaped", 0), n_iter),
        f"{iterate}.bounded.us_per_step":
            per("iterate.bounded", "iterate.bounded.steps", 1e3),
        f"{iterate}.escaping.us_per_step":
            per("iterate.escaping", "iterate.escaping.steps", 1e3),
        "orbit_engine.reloaded.escaped_ratio":
            _ratio(g("reloaded.escaped", 0), g("reloaded.n", 0)),
        "orbit_engine.classify_grid.points": g("classify.points", 0),
        "orbit_engine.classify_grid.us_per_point":
            per("orbit_engine.classify_grid", "classify.points", 1e3),
        "orbit_engine.mandelbrot.pixel_iters": g("pixel_iters", 0),
        "orbit_engine.mandelbrot.ns_per_pixel_iter":
            per("fileio.export_escape_image", "pixel_iters", 1),
        "orbit_engine.cobweb_trace.time_ms":
            mean("orbit_engine.cobweb_trace", 1e6),
        "fileio.export_escape_image.time_ms":
            mean("fileio.export_escape_image", 1e6),
        "fileio.export_cobweb.time_ms": mean("fileio.export_cobweb", 1e6),
        "cli.main.verify.time_s": mean("cli.main.verify", 1e9),
        "verification.suites_run": g("suites_run", 0),
        "verification.suites_failed": g("suites_failed", 0),
        "bench.self_ms": _ratio(self_ns, op_count) / 1e6,
        "trace.overhead_ratio": overhead_ratio,
    }
    for cat in ("strict_centred", "strict_other", "natural"):
        values[f"{target}.{cat}.time_s"] = mean("target." + cat, 1e9)
        values[f"{target}.{cat}.us_per_segment"] = per(
            "target." + cat, "target." + cat, 1e3)
    for name in ("fileio.save_system", "fileio.load_system"):
        nbytes = g(name + ".bytes", 0)
        values[name + ".bytes"] = nbytes
        values[name + ".mb_per_s"] = _ratio(nbytes / 1e6, ns.get(name, 0) / 1e9)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}
