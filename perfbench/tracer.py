"""Span tracer that wraps binwidth's public functions from outside.

`Tracer.install()` replaces each target function wherever a binwidth
module binds it (the defining module and every module that imported the
name), so calls made through those bindings open a span. `uninstall()`
puts every original object back. Spans nest through a stack: each span
knows its parent, and a span's self time is its duration minus the
durations of its direct children.

Conv and fc op calls made inside `Network.forward` / `Network.backward`
are also attributed to template layers. The k-th conv (or fc) call of a
forward pass belongs to the k-th conv (or fc) layer in execution order
(`space.layer_geometry` order, which places a projection shortcut conv
at its residual add); backward passes run the same layers in reverse.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every function that opens a span when traced.
SPAN_TARGETS = (
    ("ops", "conv2d_forward"),
    ("ops", "conv2d_backward"),
    ("ops", "fully_connected_forward"),
    ("ops", "fully_connected_backward"),
    ("ops", "batch_norm_forward"),
    ("ops", "batch_norm_backward"),
    ("ops", "max_pool2d_forward"),
    ("ops", "max_pool2d_backward"),
    ("ops", "global_avg_pool_forward"),
    ("ops", "global_avg_pool_backward"),
    ("quant", "binarize_activations"),
    ("quant", "ste_activation_grad"),
    ("quant", "binarize_weights"),
    ("quant", "ste_weight_grad"),
    ("train", "sgd_step"),
    ("train", "softmax_cross_entropy"),
    ("train", "train_network"),
    ("train", "accuracy"),
    ("data", "parse_mnist_idx"),
    ("data", "parse_cifar10_bin"),
    ("data", "stratified_split"),
    ("config", "load_run_config"),
    ("search", "evolve"),
    ("search", "evaluate_candidate"),
    ("search", "select_parent"),
    ("search", "crossover"),
    ("search", "mutate"),
    ("search", "SearchLogRecord.to_json"),
    ("search", "SearchLogRecord.from_json"),
    ("runner", "read_search_log"),
    ("runner", "run_search"),
    ("runner", "run_train"),
    ("cost", "count_cost"),
    ("space", "layer_geometry"),
    ("space", "resolve_channels"),
    ("net", "instantiate"),
    ("net", "Network.forward"),
    ("net", "Network.backward"),
    ("net", "Network.load_state_dict"),
    ("checkpoint", "serialize_checkpoint"),
    ("checkpoint", "deserialize_checkpoint"),
    ("checkpoint", "inherit_weights"),
)
# Called per unit on every forward and backward; only counted, since a
# span would cost more than the call itself.
COUNT_TARGETS = (("templates", "NetworkTemplate.block_at"),)
# A generator: its span covers the time spent inside each `next`.
GENERATOR_TARGETS = (("data", "make_batches"),)

_UNIT_OPS = {
    "ops.conv2d_forward": ("conv", "fwd"),
    "ops.conv2d_backward": ("conv", "bwd"),
    "ops.fully_connected_forward": ("fc", "fwd"),
    "ops.fully_connected_backward": ("fc", "bwd"),
}
_PASSES = {"net.Network.forward": "fwd", "net.Network.backward": "bwd"}


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, sample count) for the highest percentile that
    has at least ten samples above its value.

    With n sorted samples the value is the (n-10)-th smallest, so exactly
    ten samples lie beyond it; the percentile is the share of samples at
    or below it. Fewer than eleven samples leave no such percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail percentile needs at least 11 samples, got {n}")
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def median(samples) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class _Span:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class _Pass:
    """One Network.forward or Network.backward in progress."""

    __slots__ = ("template", "phase", "next_index")

    def __init__(self, template, phase: str):
        self.template = template
        self.phase = phase
        self.next_index = {"conv": 0, "fc": 0}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.unit_s: dict[str, float] = {}  # "net.<layer>.fwd_ms" -> seconds
        self.unit_log: list | None = None  # (layer, phase, output channels) when enabled
        self._stack: list[_Span] = []
        self._passes: list[_Pass] = []
        self._orders: dict[str, dict[str, list[str]]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._layer_geometry = None

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append(_Span(name, self.clock()))

    def exit(self) -> float:
        span = self._stack.pop()
        duration = self.clock() - span.start
        name = span.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - span.child_s
        parent = self._stack[-1].name if self._stack else ""
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration
        if self._stack:
            self._stack[-1].child_s += duration
        return duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def children_total_s(self, parent: str) -> float:
        return sum(total for (p, _), (_, total) in self.edges.items() if p == parent)

    # -- per-layer attribution --------------------------------------------

    def layer_order(self, template) -> dict[str, list[str]]:
        """Conv and fc layer names of `template` in execution order."""
        order = self._orders.get(template.name)
        if order is None:
            from binwidth import space

            geometry = self._layer_geometry or space.layer_geometry
            geoms = geometry(template, space.uniform_code(1, template.n_genes))
            order = {kind: [g.spec.name for g in geoms if g.spec.kind == kind] for kind in ("conv", "fc")}
            self._orders[template.name] = order
        return order

    def _attribute(self, kind: str, phase: str, duration: float, out_channels: int) -> None:
        if not self._passes or self._passes[-1].phase != phase:
            return
        current = self._passes[-1]
        names = self.layer_order(current.template)[kind]
        index = current.next_index[kind]
        current.next_index[kind] = index + 1
        layer = names[index] if phase == "fwd" else names[len(names) - 1 - index]
        key = f"net.{layer}.{phase}_ms"
        self.unit_s[key] = self.unit_s.get(key, 0.0) + duration
        if self.unit_log is not None:
            self.unit_log.append((layer, phase, out_channels))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        unit = _UNIT_OPS.get(name)
        phase = _PASSES.get(name)
        tracer = self

        if phase is not None:
            @functools.wraps(fn)
            def traced_pass(net, *args, **kwargs):
                tracer._passes.append(_Pass(net.template, phase))
                tracer.enter(name)
                try:
                    return fn(net, *args, **kwargs)
                finally:
                    tracer.exit()
                    tracer._passes.pop()

            return traced_pass

        if unit is not None:
            kind, op_phase = unit

            @functools.wraps(fn)
            def traced_unit(*args, **kwargs):
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = tracer.exit()
                # Output channels: of the op's output, or of the gradient a backward op receives.
                out = args[1] if op_phase == "bwd" else result[0]
                tracer._attribute(kind, op_phase, duration, int(out.shape[1]))
                return result

            return traced_unit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def _generator_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.count(name)
            inner = fn(*args, **kwargs)
            wait = name + ".wait"
            while True:
                tracer.enter(wait)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return traced_generator

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        groups = ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper),
                  (GENERATOR_TARGETS, self._generator_wrapper))
        for targets, _ in groups:
            for module_name, _ in targets:
                importlib.import_module(f"binwidth.{module_name}")
        self._layer_geometry = sys.modules["binwidth.space"].layer_geometry
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "binwidth" or key.startswith("binwidth."))]
        try:
            for targets, make in groups:
                for module_name, qualname in targets:
                    name = f"{module_name}.{qualname}"
                    module = sys.modules[f"binwidth.{module_name}"]
                    if "." in qualname:
                        self._patch_method(module, qualname, name, make)
                    else:
                        self._patch_function(modules, module, qualname, name, make)
        except BaseException:
            self.uninstall()
            raise

    def _patch_function(self, modules, module, attr: str, name: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(name, original)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def _patch_method(self, module, qualname: str, name: str, make) -> None:
        class_name, attr = qualname.split(".")
        cls = getattr(module, class_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(name, original.__func__))
        else:
            replacement = make(name, original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: `<name>.calls` and `<name>.self_ms` for every
        span target, `.calls` for count targets, `.calls` and `.wait_ms`
        for generator targets, and the per-unit `net.<layer>.*_ms`."""
        out: dict[str, float] = {}
        for module_name, qualname in SPAN_TARGETS:
            name = f"{module_name}.{qualname}"
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_ms"] = 1e3 * self.self_s.get(name, 0.0)
        for module_name, qualname in COUNT_TARGETS:
            name = f"{module_name}.{qualname.split('.')[-1]}"
            out[name + ".calls"] = self.calls.get(f"{module_name}.{qualname}", 0)
        for module_name, qualname in GENERATOR_TARGETS:
            name = f"{module_name}.{qualname}"
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".wait_ms"] = 1e3 * self.total_s.get(name + ".wait", 0.0)
        for key, seconds in self.unit_s.items():
            out[key] = 1e3 * seconds
        return out
