"""Span tracer that times calls into the public functions of the dydila layers.

The tracer replaces every module-level binding of a layer's public
functions with a timing wrapper, under the names the calling modules look
them up by (``dydila.projection.matmul`` is the same function as
``dydila.numerics.matmul`` but a different binding, and both are wrapped).
It is installed only in the traced worker process; the untraced process
never imports dydila with wrappers in place.

Every span gets a stage.  Stage names are the ``flops_estimate`` components
prefixed with the layer that owns them (``projection.qkv_projection``,
``routing.kernel_routing``, ``differential.attention_core`` ...).  A span's
self time (its duration minus its children's) is charged to its stage, so
the stage self times plus the pass's own self time add up to the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# The layers whose public functions are wrapped.  ``fileio``, ``cli`` and
# ``bench`` do no work inside a timed pass; ``flops`` only supplies counts.
LAYERS = ("numerics", "routing", "projection", "kernels", "differential",
          "attention", "config", "oracle", "checks")

_MARK = "__perfbench_wrapped__"
_LONG_INNER_DEFAULT = 2048

# Functions that open their own stage wherever they are called from
# (unless they run under an oracle, which keeps its own stage).
_FIXED = {
    "projection.project_shared": "projection.qkv_projection",
    "projection.dpm_forward": "projection.routed_projection",
    "kernels.dmk_forward": "kernels.kernel_map",
    "kernels.focused_rows": "kernels.kernel_map",
    "kernels.focused_kernel": "kernels.kernel_map",
    "differential.concat_streams": "routing.lambda_routing",
    "differential.select_lambdas": "routing.lambda_routing",
    "differential.tdo_forward": "differential.diff_combine",
    "differential.mapwise_forward": "differential.diff_combine",
    "differential.expand_tokenwise": "differential.attention_core",
    "attention.dwc_forward": "attention.dwc",
    "attention.multihead_forward": "attention.head_loop",
    "attention.dydila_forward": "attention.head_loop",
    "attention.stack_forward": "attention.stack",
    "attention.softmax_attention": "attention.attention_core",
    "attention.linear_attention": "attention.attention_core",
    "numerics.softmax_rows": "attention.row_softmax",
    "config.init_params": "config.init_params",
    "checks.run_checks": "checks.run_checks",
    "oracle.pipeline_oracle": "oracle.pipeline_oracle",
    "oracle.per_token_projection": "oracle.per_token_projection",
}

# route_argmax is charged to the routing stage of whoever called it.
_ROUTE_CALLERS = {
    "projection.dpm_forward": "routing.projection_routing",
    "kernels.dmk_forward": "routing.kernel_routing",
    "differential.tdo_forward": "routing.lambda_routing",
    "differential.mapwise_forward": "routing.lambda_routing",
    "differential.select_lambdas": "routing.lambda_routing",
}
# A routing run straight from the head loop only fills diagnostics: its
# result never reaches the block output.
_DIAGNOSTIC_CALLERS = ("attention.multihead_forward", "attention.dydila_forward")


class _Frame:
    __slots__ = ("sid", "name", "stage", "child", "diag")

    def __init__(self, sid, name, stage, diag):
        self.sid = sid
        self.name = name
        self.stage = stage
        self.child = 0.0
        self.diag = diag


def _stage_for(name, parent, args):
    """(stage, diagnostic) of a call to `name` made under `parent`."""
    if parent is None or parent.stage is None:
        return _FIXED.get(name, name), False
    inherited = parent.stage
    if inherited.startswith("oracle."):
        return inherited, parent.diag
    if name in _FIXED:
        return _FIXED[name], parent.diag
    if name == "routing.route_argmax":
        if parent.name in _DIAGNOSTIC_CALLERS:
            return "routing.lambda_routing", True
        return _ROUTE_CALLERS.get(parent.name, inherited), parent.diag
    if name == "numerics.matmul":
        width_one = len(args) > 1 and getattr(args[1], "ndim", 0) == 2 and args[1].shape[1] == 1
        if parent.name == "differential.tdo_forward":
            return ("differential.normalizer" if width_one else "differential.attention_core"), parent.diag
        if parent.name == "differential.mapwise_forward":
            return "differential.attention_core", parent.diag
        if parent.name == "attention.linear_attention":
            return ("attention.normalizer" if width_one else "attention.attention_core"), parent.diag
    if name.startswith("oracle."):
        return "oracle.other", parent.diag
    return inherited, parent.diag


class Tracer:
    """Collects spans of one pass at a time; see :meth:`pass_metrics`."""

    def __init__(self):
        self.long_inner = _LONG_INNER_DEFAULT
        self._stack = []
        self._installed = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []  # (sid, parent_sid, name, stage, start, end, self_s)
        self.matmul = []  # (sid, flops, bytes, long_inner)
        self.gamma_pairs = set()  # (calling span, gamma) of focused_rows
        self.projector_slots = 0
        self.projectors_used = 0
        self.diagnostic_routes = 0
        self._next = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stage, diag = _stage_for(name, parent, args)
            sid = tracer._next
            tracer._next += 1
            frame = _Frame(sid, name, stage, diag)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent.child += dur
                tracer.spans.append((sid, parent.sid if parent else None, name, stage,
                                     start, end, dur - frame.child))
            tracer._count(name, sid, parent, diag, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count(self, name, sid, parent, diag, args, result):
        if name == "numerics.matmul":
            a, b = args[0], args[1]
            n, inner = a.shape
            m = b.shape[1]
            self.matmul.append((sid, 2 * n * inner * m,
                                (n * inner + inner * m + n * m) * a.dtype.itemsize,
                                inner >= self.long_inner))
        elif name == "routing.route_argmax":
            self.diagnostic_routes += diag
        elif name == "kernels.focused_rows":
            self.gamma_pairs.add((parent.sid if parent else None, float(args[1])))
        elif name == "projection.dpm_forward":
            routes = [r.indices for r in tuple(result)[5:7] if hasattr(r, "indices")]
            self.projector_slots += len(routes) * getattr(args[1], "n_projectors", 0)
            self.projectors_used += sum(len(set(r.tolist())) for r in routes)

    def install(self):
        """Wrap every public function of every layer, at every binding of it."""
        import dydila

        layers = {layer: importlib.import_module(f"dydila.{layer}") for layer in LAYERS}
        holders = [dydila, *layers.values()]
        for layer, module in layers.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._installed.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        self.long_inner = getattr(layers["numerics"], "_STRIDED_INNER_LIMIT",
                                  _LONG_INNER_DEFAULT)

    def uninstall(self):
        for holder, key, fn in reversed(self._installed):
            setattr(holder, key, fn)
        self._installed.clear()

    # -- per-pass results -------------------------------------------------

    def run_pass(self, forward):
        """Run `forward` as the root span of a fresh pass; returns (output, seconds)."""
        self.reset()
        root = _Frame(-1, "pass", None, False)
        self._stack.append(root)
        start = time.perf_counter()
        try:
            out = forward()
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
        return out, seconds

    def pass_metrics(self, seconds, flops):
        """Per-layer metrics of the last pass (see README.md for each)."""
        incl, calls, stage = {}, {}, {}
        for _sid, _parent, name, st, start, end, self_s in self.spans:
            incl[name] = incl.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            stage[st] = stage.get(st, 0.0) + self_s
        mm_s = incl.get("numerics.matmul", 0.0)
        by_sid = {s[0]: s for s in self.spans}
        mm_flops = sum(f for _, f, _, _ in self.matmul)
        long_s = sum(by_sid[sid][5] - by_sid[sid][4] for sid, _, _, lng in self.matmul if lng)
        routes = calls.get("routing.route_argmax", 0)
        proj_mm = sum(1 for sid, _, _, _ in self.matmul
                      if by_sid[sid][3] in ("projection.qkv_projection",
                                            "projection.routed_projection",
                                            "routing.projection_routing"))
        dpm_calls = calls.get("projection.dpm_forward", 0)
        frows = calls.get("kernels.focused_rows", 0)

        def gflops(component, stage_name):
            s = stage.get(stage_name, 0.0)
            return flops.get(component, 0) / s / 1e9 if s > 0 else 0.0

        return {
            "numerics.matmul.s": mm_s,
            "numerics.matmul.calls": calls.get("numerics.matmul", 0),
            "numerics.matmul.gflop_per_s": mm_flops / mm_s / 1e9 if mm_s > 0 else 0.0,
            "numerics.matmul.bytes_computed": sum(b for _, _, b, _ in self.matmul),
            "numerics.matmul.long_inner.s": long_s,
            "projection.qkv_projection.s": stage.get("projection.qkv_projection", 0.0),
            "projection.qkv_projection.gflop_per_s": gflops("qkv_projection", "projection.qkv_projection"),
            "projection.routed_projection.s": stage.get("projection.routed_projection", 0.0),
            "projection.routed_projection.gflop_per_s": gflops("routed_projection", "projection.routed_projection"),
            "projection.matmul_calls_per_block": proj_mm / dpm_calls if dpm_calls else 0.0,
            "projection.projectors_used_ratio": (self.projectors_used / self.projector_slots
                                                 if self.projector_slots else 0.0),
            "routing.projection_routing.s": stage.get("routing.projection_routing", 0.0),
            "routing.kernel_routing.s": stage.get("routing.kernel_routing", 0.0),
            "routing.lambda_routing.s": stage.get("routing.lambda_routing", 0.0),
            "routing.calls": routes,
            "routing.useful_ratio": (routes - self.diagnostic_routes) / routes if routes else 0.0,
            "kernels.kernel_map.s": stage.get("kernels.kernel_map", 0.0),
            "kernels.focused_rows.calls": frows,
            "kernels.gamma_group_ratio": len(self.gamma_pairs) / frows if frows else 0.0,
            "differential.attention_core.s": stage.get("differential.attention_core", 0.0),
            "differential.attention_core.gflop_per_s": gflops("attention_core", "differential.attention_core"),
            "differential.normalizer.s": stage.get("differential.normalizer", 0.0),
            "differential.diff_combine.s": stage.get("differential.diff_combine", 0.0),
            "attention.softmax_attention.s": incl.get("attention.softmax_attention", 0.0),
            "numerics.softmax_rows.s": incl.get("numerics.softmax_rows", 0.0),
            "attention.dwc.s": stage.get("attention.dwc", 0.0),
            "attention.head_loop.self_s": stage.get("attention.head_loop", 0.0),
            "attention.stack.self_s": stage.get("attention.stack", 0.0),
            "oracle.pipeline_oracle.s": stage.get("oracle.pipeline_oracle", 0.0),
            "oracle.per_token_projection.s": stage.get("oracle.per_token_projection", 0.0),
            "oracle.other.s": stage.get("oracle.other", 0.0),
            "checks.run_checks.self_s": stage.get("checks.run_checks", 0.0),
            "trace.unattributed_s": seconds - sum(stage.values()),
        }

    def setup_seconds(self, name):
        """Inclusive seconds of every span named `name` since the last reset."""
        return sum(end - start for _, _, n, _, start, end, _ in self.spans if n == name)


def wrapped_bindings():
    """Number of wrapper objects currently bound in the dydila modules."""
    import sys

    count = 0
    for name, module in list(sys.modules.items()):
        if name == "dydila" or name.startswith("dydila."):
            count += sum(1 for v in vars(module).values() if getattr(v, _MARK, False))
    return count


def median_metrics(per_pass):
    """Metric-wise median of a list of per-pass metric dicts."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
