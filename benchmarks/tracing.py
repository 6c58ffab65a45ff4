"""Per-layer tracing installed from outside the library.

A :class:`Tracer` rebinds public names of the ``liecurv`` modules to timing
wrappers (every module attribute bound to the same function object is
rebound, so ``from .liecore import exp_so3`` copies are caught too) and
wraps the callables of the ``LocalConnectionForm``, ``Surface`` and
``PathSpec`` objects that reach the stepping loops, using
``dataclasses.replace``. The library is not edited; ``uninstall`` restores
every name. Untraced runs never create a tracer.

Each wrapper is a span. A layer's self time is its span time minus the time
covered by the spans it calls. Counts and self times are totals; the
benchmark divides them by the number of traced passes.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

# modules by import name: the package re-exports the function ``transport``
# over the attribute that would name the submodule
PKG, LIECORE, CONNECTIONS, TRANSPORT, VERIFY, CLI = (
    importlib.import_module(m)
    for m in ("liecurv", "liecurv.liecore", "liecurv.connections", "liecurv.transport", "liecurv.verify",
              "liecurv.cli")
)
MODULES = (PKG, LIECORE, CONNECTIONS, TRANSPORT, VERIFY, CLI)
KERNELS = ("exp_so3", "quat_exp", "quat_mul", "log_so3", "rotation_to_quat")
SURFACE_MAPS = ("chart_tangent", "normal_at", "shape_derivative_at")  # the chart tangent and the normal


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.intervals = 0
        self.output_bytes = 0
        self._stack = [0.0]  # time covered by child spans, per open span; [0] collects top-level spans
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def span(self, name, fn, prepare=None, on_result=None):
        """Wrap ``fn`` as a span called ``name``."""
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
            if on_result is not None:
                on_result(out)
            return out

        wrapper.traced_span = name
        return wrapper

    # -- objects that carry callables -------------------------------------

    def trace_form(self, form):
        if getattr(form.evaluate, "traced_span", None):
            return form
        surface = getattr(form, "surface", None)
        if surface is not None and getattr(surface, "kind", None) == form.descriptor:
            # the surface form's evaluate closes over its surface: rebuild it on a traced one
            form = CONNECTIONS.surface_rolling_form(self.trace_surface(surface))
        return dataclasses.replace(form, evaluate=self.span("connections.form_eval", form.evaluate))

    def trace_surface(self, surface):
        maps = {k: self.span("connections.surface", getattr(surface, k))
                for k in SURFACE_MAPS if getattr(surface, k, None) is not None}
        return dataclasses.replace(surface, **maps)

    def trace_path(self, path):
        if getattr(path.position, "traced_span", None):
            return path
        return dataclasses.replace(
            path,
            position=self.span("transport.path", path.position),
            velocity=self.span("transport.path", path.velocity),
        )

    def _trace_arg(self, obj):
        if isinstance(obj, CONNECTIONS.LocalConnectionForm):
            return self.trace_form(obj)
        if isinstance(obj, TRANSPORT.PathSpec):
            return self.trace_path(obj)
        return obj

    def _trace_args(self, args, kwargs):
        return (tuple(self._trace_arg(a) for a in args),
                {k: self._trace_arg(v) for k, v in kwargs.items()})

    # -- installation -----------------------------------------------------

    def _rebind(self, module, attr, name, **hooks):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self.span(name, fn, **hooks)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))

    def _count_intervals(self, nodes):
        self.intervals += len(nodes) - 1

    def _count_bytes(self, text):
        self.output_bytes += len(text.encode())

    def install(self):
        lc, tr, vf, cli = LIECORE, TRANSPORT, VERIFY, CLI
        for k in KERNELS:
            self._rebind(lc, k, f"liecore.{k}")
        # the stepping loops: forms and paths are traced as they enter
        self._rebind(tr, "transport", "transport.run", prepare=self._trace_args)
        self._rebind(tr, "transport_quat", "transport.run", prepare=self._trace_args)
        self._rebind(vf, "lift_transport", "verify.lift", prepare=self._trace_args)
        self._rebind(tr, "integration_grid", "transport.grid", on_result=self._count_intervals)
        self._rebind(tr, "small_loop_curvature", "transport.small_loop")
        self._rebind(vf, "unit_sphere_section", "verify.section")
        self._rebind(cli, "parse_args", "cli.parse")
        self._rebind(cli, "run", "cli.run")
        self._rebind(cli, "write_result", "cli.serialize", on_result=self._count_bytes)

    def uninstall(self):
        while self._undo:
            mod, key, fn = self._undo.pop()
            setattr(mod, key, fn)

    # -- report -------------------------------------------------------------

    def metrics(self, passes: int, overhead_frac: float, scale: float) -> dict[str, float]:
        """Per-layer values for one pass, named as in BENCHMARK.json; self times are multiplied by ``scale``."""

        def calls(name):
            return self.calls.get(name, 0) / passes

        def self_s(name):
            return scale * self.self_s.get(name, 0.0) / passes

        out: dict[str, float] = {}
        for name in [f"liecore.{k}" for k in KERNELS] + [
            "connections.form_eval", "connections.surface", "transport.run", "transport.path",
            "transport.small_loop", "verify.lift", "verify.section",
        ]:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        intervals = self.intervals / passes
        out["transport.intervals"] = intervals
        out["connections.evals_per_interval"] = calls("connections.form_eval") / intervals if intervals else 0.0
        out["transport.path_calls_per_interval"] = calls("transport.path") / intervals if intervals else 0.0
        for name in ("transport.grid", "cli.parse", "cli.run", "cli.serialize"):
            out[f"{name}.self_s"] = self_s(name)
        out["cli.output_bytes"] = self.output_bytes / passes
        out["trace.overhead_frac"] = overhead_frac
        return out

    def table(self, passes: int, traced_op_s: float, scale: float) -> str:
        """Per-layer breakdown for one pass; self times are multiplied by ``scale``."""
        rows = sorted(self.self_s, key=lambda n: -self.self_s[n])
        width = max(len(n) for n in rows + ["(outside any span)"])
        lines = [f"{'layer':<{width}}  {'calls/pass':>12}  {'self s/pass':>12}  {'share':>6}"]
        for name in rows:
            s = self.self_s[name]
            lines.append(f"{name:<{width}}  {self.calls[name] / passes:>12.1f}  {scale * s / passes:>12.5f}  "
                         f"{s / traced_op_s:>6.1%}")
        outside = traced_op_s - sum(self.self_s.values())
        lines.append(f"{'(outside any span)':<{width}}  {'':>12}  {scale * outside / passes:>12.5f}  "
                     f"{outside / traced_op_s:>6.1%}")
        return "\n".join(lines)
