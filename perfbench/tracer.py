"""Spans around the program's public functions, installed from the benchmark.

Nothing inside the program records spans.  `Tracer.install` replaces each
public function of core, catalog, harness and cli with a timing wrapper in
every module that binds it by name (harness and cli do
`from .core import quantity, ...`, the package re-exports core), so calls
made between layers are seen as well as calls made by the benchmark.

A span's self time is its duration minus the time of the outermost spans
of other modules inside it: for a harness function, the core and catalog
calls it made, however deeply its own helpers nest them.
"""

from __future__ import annotations

import time

import besselbounds
from besselbounds import catalog, cli, core, harness

MODULES = (besselbounds, core, catalog, harness, cli)
QUANTITY_TAGS = tuple(k.value for k in core.QuantityKind)
HARNESS_FUNCTIONS = ("validity_records", "sweep_validity", "enclosure_checks",
                     "sharpness_records", "consistency_checks",
                     "equality_and_limit_checks", "gronwall_probe",
                     "application_checks", "conjecture_probe")
I_PATHS = ("series", "asymptotic")
K_PATHS = ("reflection", "quadrature", "asymptotic")


def _ctx(args, kwargs):
    return args[0] if args else kwargs["ctx"]


def _kind(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return getattr(kind, "value", kind)


class Tracer:
    """Aggregated spans: key -> [calls, seconds, seconds in other modules' spans].

    `clock` times the spans; the job passes one that leaves out the time of
    its speed probes (speed.SpeedSampler.clock)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "cold"
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _add(self, key: str, dur: float, foreign: float) -> None:
        s = self.stats.get(key)
        if s is None:
            self.stats[key] = [1, dur, foreign]
        else:
            s[0] += 1
            s[1] += dur
            s[2] += foreign

    def _wrap(self, fn, module: str, keys):
        stack = self._stack
        add = self._add
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [module, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += frame[1] if parent[0] == module else dur
                for key in keys(args, kwargs, ok):
                    add(key, dur, frame[1])

        return traced

    def install(self) -> None:
        """Wrap every traced function in every module that binds it."""
        path = core.evaluation_path
        phase = lambda: self.phase

        def eval_keys(fn_tag):
            def keys(args, kwargs, ok):
                if not ok:
                    return (f"core.eval_{fn_tag}.error",)
                ctx = _ctx(args, kwargs)
                return (f"core.eval_{fn_tag}.{path(fn_tag, ctx.nu, ctx.x)}",)
            return keys

        def ratio_i_keys(args, kwargs, ok):
            return ("core.ratio_I.x_le_50" if _ctx(args, kwargs).x <= 50.0
                    else "core.ratio_I.x_gt_50",)

        def quantity_keys(args, kwargs, ok):
            return (f"core.quantity.{_kind(args, kwargs)}", f"core.quantity.{phase()}")

        def fixed(key):
            return lambda args, kwargs, ok: (key,)

        def phased(key):
            return lambda args, kwargs, ok: (f"{key}.{phase()}",)

        targets = [
            (core.eval_I, "core", eval_keys("I")),
            (core.eval_K, "core", eval_keys("K")),
            (core.ratio_I, "core", ratio_i_keys),
            (core.ratio_K, "core", fixed("core.ratio_K")),
            (core.quantity, "core", quantity_keys),
            (core.numeric_derivative, "core", fixed("core.numeric_derivative")),
            (catalog.best_bounds, "catalog", fixed("catalog.best_bounds")),
            (catalog.evaluate_bound, "catalog", fixed("catalog.evaluate_bound")),
            (harness.run_suite, "harness", phased("harness.run_suite")),
            (cli.cmd_verify, "cli", phased("cli.cmd_verify")),
            (cli.cmd_figure, "cli", fixed("cli.cmd_figure")),
        ]
        targets += [(getattr(harness, name), "harness", phased(f"harness.{name}"))
                    for name in HARNESS_FUNCTIONS]
        wrappers = {id(fn): (fn, self._wrap(fn, module, keys)) for fn, module, keys in targets}
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def _get(self, key: str) -> tuple[int, float, float]:
        calls, total, foreign = self.stats.get(key, (0, 0.0, 0.0))
        return calls, total, total - foreign

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, 0 where this job made no such call."""
        out: dict[str, tuple[float, str]] = {}

        def per_call(name: str, key: str, with_calls: bool = True) -> None:
            calls, total, _ = self._get(key)
            out[f"{name}.us"] = (total / calls * 1e6 if calls else 0.0, "us")
            if with_calls:
                out[f"{name}.calls"] = (calls, "count")

        for p in I_PATHS:
            per_call(f"core.eval_I.{p}", f"core.eval_I.{p}")
        for p in K_PATHS:
            per_call(f"core.eval_K.{p}", f"core.eval_K.{p}")
        for region in ("x_le_50", "x_gt_50"):
            per_call(f"core.ratio_I.{region}", f"core.ratio_I.{region}")
        per_call("core.ratio_K", "core.ratio_K")
        for tag in QUANTITY_TAGS:
            per_call(f"core.quantity.{tag}", f"core.quantity.{tag}", with_calls=False)
        for phase in ("cold", "warm"):
            per_call(f"core.quantity.{phase}", f"core.quantity.{phase}", with_calls=False)
        per_call("core.numeric_derivative", "core.numeric_derivative")
        per_call("catalog.best_bounds", "catalog.best_bounds")
        per_call("catalog.evaluate_bound", "catalog.evaluate_bound")

        # harness and cmd_verify: seconds per verify run; plain names are the
        # warm runs, `.cold.` the first run of the process
        runs = {phase: self._get(f"cli.cmd_verify.{phase}")[0] for phase in ("cold", "warm")}
        for name in HARNESS_FUNCTIONS:
            for phase, infix in (("warm", ""), ("cold", ".cold")):
                _, total, self_s = self._get(f"harness.{name}.{phase}")
                n = runs[phase] or 1
                out[f"harness.{name}{infix}.s"] = (total / n, "s")
                out[f"harness.{name}{infix}.self_s"] = (self_s / n, "s")
        for phase, infix in (("warm", ""), ("cold", ".cold")):
            _, _, self_s = self._get(f"cli.cmd_verify.{phase}")
            out[f"cli.cmd_verify{infix}.self_s"] = (self_s / (runs[phase] or 1), "s")
        out["cli.cmd_figure.s"] = (self._get("cli.cmd_figure")[1], "s")
        return out
