"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces, for the life of the run, the names the program
looks up at call time:

- ``conceptfit.estimator.fista_minimize``, whose value, gradient and prox
  callables are wrapped per block solve to count and time their calls;
- ``conceptfit.cli.load_archive``, ``read_entries_csv`` and
  ``write_predictions_csv``, and ``conceptfit.model.predict_response_prob``,
  which ``conceptfit predict`` calls.

A name that no longer exists is left alone and reported in ``absent``; the
metrics that depend on it are then marked absent instead of failing the run.
The same holds for the two settings the stall flags are judged against,
``conceptfit.solvers._STEP_FLOOR`` and ``FistaConfig.max_iterations``.
Spans stay in memory until ``write``.
"""

import functools
import inspect
import json
import time

import numpy as np


class Tracer:
    def __init__(self, estimator, solvers, cli, model):
        self.spans = []
        self.absent = set()
        self._origin = time.perf_counter()
        self._patched = []
        self._fit = None  # span of the fit in progress
        self._shapes = {}
        self._estimator, self._cli, self._model = estimator, cli, model
        # the step at which the line search of fista_minimize gives up shrinking
        self._floor = getattr(solvers, "_STEP_FLOOR", None)
        if self._floor is None:
            self.absent.add("conceptfit.solvers._STEP_FLOOR")
        self._default_max_iter = getattr(
            getattr(solvers, "FistaConfig", None), "max_iterations", None
        )
        if self._default_max_iter is None:
            self.absent.add("conceptfit.solvers.FistaConfig.max_iterations")

    def now(self):
        return time.perf_counter() - self._origin

    def _span(self, name, start, end, **fields):
        span = {"id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": self._fit["id"] if self._fit else None}
        span.update(fields)
        self.spans.append(span)
        return span

    # -- installation -------------------------------------------------------

    def _patch(self, module, name, make_wrapper):
        original = getattr(module, name, None)
        if original is None:
            self.absent.add(f"{module.__name__}.{name}")
            return
        wrapper = make_wrapper(original)
        if wrapper is None:
            self.absent.add(f"{module.__name__}.{name}")
            return
        setattr(module, name, wrapper)
        self._patched.append((module, name, original))

    def install(self):
        self._patch(self._estimator, "fista_minimize", self._wrap_fista)
        for name in ("load_archive", "read_entries_csv", "write_predictions_csv"):
            self._patch(self._cli, name, functools.partial(self._wrap_timed, "io." + name))
        self._patch(self._model, "predict_response_prob",
                    functools.partial(self._wrap_timed, "model.predict_response_prob"))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- fits ---------------------------------------------------------------

    def begin_fit(self, kind, dataset, start, dims):
        """Open the parent span of one fit; ``dims`` is (Q, N, V, K)."""
        Q, N, V, K = dims
        self._shapes = {(Q, K + 1): "W", (K, N): "C"}
        if V:
            self._shapes[(K, V)] = "T"
        self._fit = self._span("fit", self.now(), None, kind=kind, dataset=dataset,
                               start_seed=start)

    def end_fit(self, wall_s, sweeps):
        self._fit["end"] = self.now()
        self._fit["wall_s"] = wall_s
        self._fit["sweeps"] = sweeps
        self._fit = None

    def _wrap_fista(self, original):
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            return None
        needed = {"smooth_gradient", "smooth_value", "prox", "x0"}
        if not needed <= set(signature.parameters):
            return None
        tracer = self

        @functools.wraps(original)
        def fista_minimize(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            counts = {"value": [0, 0.0], "grad": [0, 0.0], "prox": [0, 0.0]}
            min_step = [np.inf]

            def counted(key, fn):
                def call(*a, **kw):
                    t0 = time.perf_counter()
                    out = fn(*a, **kw)
                    cell = counts[key]
                    cell[0] += 1
                    cell[1] += time.perf_counter() - t0
                    return out
                return call

            prox = arguments["prox"]

            def prox_with_step(point, step):
                min_step[0] = min(min_step[0], float(np.min(step)))
                return prox(point, step)

            arguments["smooth_value"] = counted("value", arguments["smooth_value"])
            arguments["smooth_gradient"] = counted("grad", arguments["smooth_gradient"])
            arguments["prox"] = counted("prox", prox_with_step)
            block = tracer._shapes.get(np.shape(arguments["x0"]), "?")
            config = arguments.get("config")
            max_iter = getattr(config, "max_iterations", tracer._default_max_iter)
            start = tracer.now()
            result = original(*bound.args, **bound.kwargs)
            end = tracer.now()
            iterations = counts["grad"][0]
            child = counts["value"][1] + counts["grad"][1] + counts["prox"][1]
            tracer._span(
                "solve", start, end, block=block, iterations=iterations,
                value_calls=counts["value"][0], value_s=counts["value"][1],
                grad_calls=counts["grad"][0], grad_s=counts["grad"][1],
                prox_calls=counts["prox"][0], prox_s=counts["prox"][1],
                self_s=(end - start) - child, min_step=min_step[0],
                floor_stall=(None if tracer._floor is None
                             else iterations == 1 and min_step[0] <= tracer._floor),
                max_iter_hit=None if max_iter is None else iterations >= max_iter,
            )
            return result

        return fista_minimize

    # -- io and prediction --------------------------------------------------

    def _wrap_timed(self, name, original):
        tracer = self
        calls = []

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = tracer.now()
            out = original(*args, **kwargs)
            calls.append(tracer.now() - t0)
            return out

        # per-pair prediction calls are too many for one span each: they are
        # summed into one span per batch by ``flush``
        timed.calls = calls
        timed.span_name = name
        return timed

    def flush_timed(self):
        """Turn the calls timed since the last flush into one span per name."""
        for module, name, _ in self._patched:
            wrapper = getattr(module, name)
            calls = getattr(wrapper, "calls", None)
            if calls is None or not calls:
                continue
            end = self.now()
            total = sum(calls)
            self._span(wrapper.span_name, end - total, end, calls=len(calls), total_s=total)
            calls.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
