"""Spans and counters recorded around flipq's public functions.

Used only by the traced run.  ``install`` replaces every binding of each
target function inside the loaded ``flipq`` modules (the places its
callers look it up) with a wrapper that records a span and the target's
counts; flipq's source is untouched.  Spans stay in memory until
``write`` dumps them once, at the end of the run.

A span is (name, start, end, parent span index, operation id).  Self time
is a span's duration minus the durations of its direct children; calls
are single-threaded (``--threads 1``), so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, positional index of the lane axis or None)
TARGETS = (
    ("flipq.config_io", "load_run_config", None),
    ("flipq.core", "validate_config", None),
    ("flipq.cli", "run_verify", None),
    ("flipq.cli", "run_scan", None),
    ("flipq.cli", "run_match", None),
    ("flipq.perturbation", "verify_conditions", None),
    ("flipq.perturbation", "rest_bound_scan", None),
    ("flipq.core", "min_metric_eigenvalue", None),
    ("flipq.perturbation", "solve_rho", None),
    ("flipq.perturbation", "matching_map", None),
    ("flipq.perturbation", "solve_rho_blowup", None),
    ("flipq.quotient", "moment_value", None),
    ("flipq.quotient", "segre_point", None),
    ("flipq.perturbation", "chi_parts_batch", 1),
    ("flipq.perturbation", "matching_map_batch", None),
    ("flipq.perturbation", "chi_eval_batch", None),
    ("flipq.quotient", "level_rho_batch", 1),
    ("flipq.core", "fiber_norms_batch", 1),
    ("flipq.kernels", "fourier_norm_sq", 0),
    ("flipq.kernels", "scale_root", 0),
    ("flipq.kernels", "newton_rescale", 0),
    ("flipq.sampling", "random_domain_batch", None),
)
KERNELS = ("kernels.fourier_norm_sq", "kernels.scale_root", "kernels.newton_rescale")
PHI = "perturbation.phi"
ROOT = "cli.main"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [(f"{ROOT}.self_s", "s"), ("cli.output_bytes", "bytes"), ("cli.scan_rows", "count"),
           (f"{PHI}.calls", "count"), (f"{PHI}_s", "s")]
    for module, attr, lane_arg in TARGETS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}_s", "s")]
        if lane_arg is not None:
            out.append((f"{name}.lanes", "count"))
        if name in KERNELS:
            out += [(f"{name}.lanes_per_call", "lanes/call"), (f"{name}.bytes_computed", "bytes")]
    newton = "kernels.newton_rescale"
    out += [(f"{newton}.iterations_sum", "count"), (f"{newton}.iterations_max", "count"),
            (f"{newton}.useful_ratio", "ratio"), (f"{newton}.status_ok", "count"),
            (f"{newton}.status_no_root", "count"), (f"{newton}.status_no_convergence", "count")]
    cache = "perturbation.metrics_cache"
    out += [(f"{cache}.hits", "count"), (f"{cache}.misses", "count"), (f"{cache}.hit_ratio", "ratio")]
    # run-level figures a traced run also reports, ungated
    out += [("trace.run_s", "s"), ("trace.self_sum_s", "s"), ("trace.overhead_s", "s"),
            ("run_s_tail", "s"), ("error_rate", "ratio")]
    return out


def derive(layers: dict) -> dict:
    """Add the ratio metrics to one operation's summary."""
    out = dict(layers)
    for name in KERNELS:
        calls = out.get(f"{name}.calls", 0)
        out[f"{name}.lanes_per_call"] = out.get(f"{name}.lanes", 0) / calls if calls else 0.0
    newton = "kernels.newton_rescale"
    steps = out.pop(f"{newton}.lane_steps", 0)
    # share of the masked loop's lane-steps (lanes x iterations_max, per call) that did work
    out[f"{newton}.useful_ratio"] = out.get(f"{newton}.iterations_sum", 0) / steps if steps else 1.0
    cache = "perturbation.metrics_cache"
    lookups = out.get(f"{cache}.hits", 0) + out.get(f"{cache}.misses", 0)
    out[f"{cache}.hit_ratio"] = out.get(f"{cache}.hits", 0) / lookups if lookups else 0.0
    return out


def _nbytes(values) -> int:
    return sum(getattr(v, "nbytes", 0) for v in values)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack: list[int] = []
        self._newton: dict = defaultdict(list)

    def wrap(self, name: str, fn, lane_arg: int | None = None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self._count(name, lane_arg, args, kwargs, result)
            return result

        return traced

    def _count(self, name, lane_arg, args, kwargs, result):
        c = self.counts[self.op]
        c[f"{name}.calls"] += 1
        if lane_arg is not None:
            c[f"{name}.lanes"] += len(args[lane_arg])
        if name in KERNELS:
            outputs = result if isinstance(result, tuple) else (result,)
            c[f"{name}.bytes_computed"] += _nbytes(args) + _nbytes(kwargs.values()) + _nbytes(outputs)
        if name == "kernels.newton_rescale":
            self._newton[self.op].append(result[2:])  # (iterations, status), summed later
        if name == "cli.run_scan":
            c["cli.scan_rows"] += len(result)

    def install(self) -> None:
        """Wrap every target at each place a flipq module binds it."""
        for module, _, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "flipq" or n.startswith("flipq.")]
        for module, attr, lane_arg in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(span_name(module, attr), original, lane_arg)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # phi is a closure built per run: wrap what the factory returns
        import flipq.cli

        factory = flipq.cli.phi_from_config
        flipq.cli.phi_from_config = lambda run_cfg: self.wrap(PHI, factory(run_cfg))

    def run_op(self, op, fn, *args):
        """Call fn(*args) as operation ``op``; returns (result, wall seconds)."""
        from flipq import perturbation

        before = perturbation._metrics_cached.cache_info()
        self.op = op
        try:
            t0 = perf_counter()
            result = fn(*args)
            wall = perf_counter() - t0
        finally:
            self.op = None
        after = perturbation._metrics_cached.cache_info()
        c = self.counts[op]
        c["perturbation.metrics_cache.hits"] += after.hits - before.hits
        c["perturbation.metrics_cache.misses"] += after.misses - before.misses
        return result, wall

    def summary(self, op) -> dict:
        """Self times and counts of one operation, keyed by metric name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in spans:
            key = f"{ROOT}.self_s" if name == ROOT else f"{name}_s"
            self_time = (end - start) - child_time[i]
            out[key] += self_time
            out["trace.self_sum_s"] += self_time
        out.update(self.counts[op])
        self._newton_counts(out, self._newton[op])
        return dict(out)

    @staticmethod
    def _newton_counts(out, results) -> None:
        from flipq import kernels

        name = "kernels.newton_rescale"
        for key in ("iterations_sum", "iterations_max", "lane_steps", "status_ok",
                    "status_no_root", "status_no_convergence"):
            out[f"{name}.{key}"] = 0
        for iters, status in results:
            top = int(iters.max()) if iters.size else 0
            out[f"{name}.iterations_sum"] += int(iters.sum())
            out[f"{name}.iterations_max"] = max(out[f"{name}.iterations_max"], top)
            out[f"{name}.lane_steps"] += iters.size * top
            out[f"{name}.status_ok"] += int((status == kernels.STATUS_OK).sum())
            out[f"{name}.status_no_root"] += int((status == kernels.STATUS_NO_POSITIVE_ROOT).sum())
            out[f"{name}.status_no_convergence"] += int((status == kernels.STATUS_NO_CONVERGENCE).sum())

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, f)
