"""Outside-in tracing of the halfwave layers for the benchmark's traced run.

Nothing in the package is edited.  While a Tracer is installed, the
public callables of each layer are replaced, in every module that binds
them by name, with wrappers that time the call:

- ``integrate``: evolve and make_stepper (each stepper it returns gets a
  timed ``step``); the norms, energy and Hankel calls bound by
  ``integrate`` are the in-loop monitors;
- ``norms``, ``problems``, ``hankel``, ``normalform``: their public
  entry points;
- ``operators``: the five field functions cubic_term, product,
  triple_product, to_grid_values and from_grid_values;
- ``numpy.fft.fft`` and ``ifft``, the kernel, counted as operators.fft;
- ``experiments``: run_and_write and the per-row workers (module
  functions ``_<name>_row``);
- ``fields``: TorusField constructions are counted, not timed.

Hot calls go into count-and-busy-time accumulators.  Units, experiment
runs, rows, evolve, spectral_summary and taylor_residual are also kept as spans
(name, start, end, parent span).  A layer's self time is the time of its
frames minus the time of the wrapped calls made inside them.
"""

from __future__ import annotations

import math
import re
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from halfwave import experiments, fields, hankel, integrate, normalform, norms, operators, problems

LAYER_FUNCS = {
    "experiments": (experiments, ("run_and_write",)),
    "integrate": (integrate, ("evolve", "make_stepper")),
    "norms": (norms, ("besov_norm", "sobolev_norm")),
    "problems": (problems, ("energy",)),
    "hankel": (hankel, ("build_hankel", "spectral_summary", "peller_ratio")),
    "normalform": (normalform, ("taylor_residual", "poisson_bracket", "functional_value",
                                "vector_field", "chi_flow", "normal_form_flow",
                                "enumerate_resonances", "resonances_from_cases")),
    "operators": (operators, ("cubic_term", "product", "triple_product",
                              "to_grid_values", "from_grid_values")),
}
#: cheap invariants, traced only where integrate binds them (monitor time)
MONITOR_ONLY = ("charge", "momentum")
FFT_FUNCS = ("fft", "ifft")
SPAN_NAMES = frozenset({"bench.unit", "experiments.run_and_write", "experiments.row",
                        "integrate.evolve",
                        "hankel.spectral_summary", "normalform.taylor_residual"})
#: layers whose self time is reported; the FFT is its own leaf (operators.fft_s)
SELF_LAYERS = ("bench", "experiments", "integrate", "norms", "problems", "hankel",
               "normalform", "operators")
_ROW_WORKER = re.compile(r"^_[a-z]+_row$")


class _StepperRecord:
    """Steps taken by one stepper, its dt and the row span that made it."""

    def __init__(self, dt, row):
        self.dt = dt
        self.row = row
        self.steps = 0


class Tracer:
    """Installs the wrappers; accumulates counts, busy times and spans."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_busy = defaultdict(float)  # outermost frames of a layer
        self.monitor_s = 0.0
        self.monitor_samples = 0
        self.fft_points = 0
        self.fft_flops = 0.0
        self.constructions = 0
        self.max_hankel = 0
        self.steppers = []
        self.spans = []
        self._stack = []
        self._span_stack = []

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one traced frame of the given layer."""
        frame = [0.0, layer]  # time in wrapped calls made inside; layer
        self._stack.append(frame)
        span_id = None
        if name in SPAN_NAMES:
            span_id = len(self.spans)
            parent = self._span_stack[-1] if self._span_stack else None
            self.spans.append([name, 0.0, 0.0, parent])
            self._span_stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            dur = end - start
            self._stack.pop()
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[layer] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            if not self._stack or self._stack[-1][1] != layer:
                self.layer_busy[layer] += dur
            if span_id is not None:
                self._span_stack.pop()
                self.spans[span_id][1:3] = (start, end)

    def _current_row(self):
        for span_id in reversed(self._span_stack):
            if self.spans[span_id][0] == "experiments.row":
                return span_id
        return None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, layer, monitor=False):
        tracer = self

        if not monitor:
            def wrapper(*args, **kwargs):
                return tracer.call(name, layer, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return tracer.call(name, layer, fn, *args, **kwargs)
                finally:
                    tracer.monitor_s += perf_counter() - start
                    if name == "problems.energy":  # one energy per sample
                        tracer.monitor_samples += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_make_stepper(self, fn):
        tracer = self

        def make_stepper(problem, grid, dt, *args, **kwargs):
            stepper = tracer.call("integrate.make_stepper", "integrate", fn,
                                  problem, grid, dt, *args, **kwargs)
            record = _StepperRecord(dt, tracer._current_row())
            tracer.steppers.append(record)
            step = stepper.step

            def timed_step(coeff):
                record.steps += 1
                return tracer.call("integrate.step", "integrate", step, coeff)

            stepper.step = timed_step
            return stepper

        make_stepper.__wrapped__ = fn
        return make_stepper

    def _wrap_fft(self, fn):
        tracer = self

        def transform(a, *args, **kwargs):
            out = tracer.call("operators.fft", "fft", fn, a, *args, **kwargs)
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            n = out.shape[axis]
            batch = out.size // n if n else 0
            tracer.fft_points += n * batch
            if n > 1:
                tracer.fft_flops += 5.0 * n * math.log2(n) * batch
            return out

        transform.__wrapped__ = fn
        return transform

    def _count_hankel_size(self, fn):
        tracer = self

        def spectral_summary(h, *args, **kwargs):
            tracer.max_hankel = max(tracer.max_hankel, h.size)
            return fn(h, *args, **kwargs)

        return spectral_summary

    def _count_construction(self, post_init):
        tracer = self

        def __post_init__(field):
            tracer.constructions += 1
            post_init(field)

        return __post_init__

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "halfwave" or n.startswith("halfwave.")]
        bindings = []  # (module, attr, target, layer, fname)
        for layer, (home, names) in LAYER_FUNCS.items():
            for fname in names:
                target = getattr(home, fname)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is target:
                            bindings.append((module, attr, target, layer, fname))
        for module, attr, target, layer, fname in bindings:
            if fname == "make_stepper":
                new = self._wrap_make_stepper(target)
            else:
                fn = self._count_hankel_size(target) if fname == "spectral_summary" else target
                monitor = module is integrate and layer != "integrate"
                new = self._wrap(fn, f"{layer}.{fname}", layer, monitor=monitor)
            self._patch(module, attr, new)
        for fname in MONITOR_ONLY:
            target = getattr(norms, fname)
            if getattr(integrate, fname, None) is target:
                self._patch(integrate, fname,
                            self._wrap(target, f"norms.{fname}", "norms", monitor=True))
        for attr, value in list(vars(experiments).items()):
            if _ROW_WORKER.match(attr) and callable(value):
                self._patch(experiments, attr,
                            self._wrap(value, "experiments.row", "experiments"))
        for fname in FFT_FUNCS:
            self._patch(np.fft, fname, self._wrap_fft(getattr(np.fft, fname)))
        self._patch(fields.TorusField, "__post_init__",
                    self._count_construction(fields.TorusField.__post_init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-unit summary -------------------------------------------------

    def richardson_share(self):
        """Share of steps taken by the dt/2 rerun steppers of each row."""
        coarsest = {}
        for rec in self.steppers:
            coarsest[rec.row] = max(coarsest.get(rec.row, 0.0), rec.dt)
        total = rerun = 0
        for rec in self.steppers:
            total += rec.steps
            if rec.row is not None and rec.dt < coarsest[rec.row] * (1 - 1e-9):
                rerun += rec.steps
        return rerun / total if total else 0.0

    def unit_metrics(self, rows):
        """Per-layer metrics of the unit traced since the last reset()."""
        c, b = self.calls, self.busy
        steps = c["integrate.step"]
        fft_s = b["operators.fft"]
        field_names = [f"operators.{f}" for f in LAYER_FUNCS["operators"][1]]
        enumeration = ("normalform.enumerate_resonances", "normalform.resonances_from_cases")
        m = {
            "experiments.rows": rows,
            "experiments.row_s": b["experiments.row"],
            "experiments.richardson_share": self.richardson_share(),
            "integrate.evolve_calls": c["integrate.evolve"],
            "integrate.steps": steps,
            "integrate.step_s": b["integrate.step"],
            "integrate.step_us": 1e6 * b["integrate.step"] / steps if steps else 0.0,
            "integrate.monitor_samples": self.monitor_samples,
            "integrate.monitor_s": self.monitor_s,
            "operators.fft_calls": c["operators.fft"],
            "operators.fft_points": self.fft_points,
            "operators.fft_flops": self.fft_flops,
            "operators.fft_s": fft_s,
            "operators.fft_gflops": self.fft_flops / fft_s / 1e9 if fft_s else 0.0,
            "operators.field_calls": sum(c[n] for n in field_names),
            "operators.field_s": self.layer_busy["operators"],
            "norms.besov_calls": c["norms.besov_norm"],
            "norms.besov_s": b["norms.besov_norm"],
            "norms.sobolev_calls": c["norms.sobolev_norm"],
            "norms.sobolev_s": b["norms.sobolev_norm"],
            "problems.energy_calls": c["problems.energy"],
            "problems.energy_s": b["problems.energy"],
            "hankel.summary_calls": c["hankel.spectral_summary"],
            "hankel.summary_s": b["hankel.spectral_summary"],
            "hankel.max_size": self.max_hankel,
            "normalform.taylor_residual_s": b["normalform.taylor_residual"],
            "normalform.poisson_bracket_s": b["normalform.poisson_bracket"],
            "normalform.enumeration_s": sum(b[n] for n in enumeration),
            "normalform.calls": sum(v for k, v in c.items() if k.startswith("normalform.")),
            "fields.constructions": self.constructions,
        }
        for layer in SELF_LAYERS:
            m[f"{layer}.self_s"] = self.self_time[layer]
        return m
