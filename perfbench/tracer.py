"""Per-layer spans and counts for kspaces, recorded by wrappers that the
benchmark installs around the program's public names; the program itself is
not changed.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses, so the self times of all spans add up to
the time spent inside ``cli.run_command``.  Time in unwrapped code is charged
to the nearest enclosing span: the Fourier phase factor, for instance, is
computed in an unwrapped closure that gauge calls, so it is gauge self time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack[:] = [[0.0]]  # the wrappers hold this list

    def span(self, name, fn, count=None):
        """Wrap ``fn`` as span ``name``; ``count(tracer, args, result)`` runs
        after each call to add work counts."""
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
            if count is not None:
                count(self, args, result)
            return result

        return wrapped

    def install(self, cli):
        """Wrap the names the ``ks`` commands reach, where they are bound."""
        from kspaces import fourier, kernels, kp

        def eval_points(t, args, result):
            t.counts["expr.points"] += np.broadcast(*args).size

        compile_span = self.span("expr.compile", cli.compile_expression)
        cli.compile_expression = lambda *a, **k: self.span(
            "expr.eval", compile_span(*a, **k), eval_points
        )
        cli.parse_expression = self.span("expr.compile", cli.parse_expression)

        def panels(t, args, result):
            t.counts["kernels.gk15_panels"] += len(args[1])

        def terms(t, args, result):
            t.counts["kernels.sum_terms"] += np.size(args[0])

        kernels.gk15_batch = self.span("kernels.gk15", kernels.gk15_batch, panels)
        kernels.neumaier_sum = self.span("kernels.sum", kernels.neumaier_sum, terms)

        def functional(t, args, result):
            t.counts["kp.functional_calls"] += 1

        cli.hk_integrate = self.span("gauge.hk", cli.hk_integrate)
        cli.integrate_nd_result = self.span("gauge.nd", cli.integrate_nd_result)
        kp.hk_integrate = self.span("gauge.hk", kp.hk_integrate, functional)
        kp.integrate_nd_result = self.span("gauge.nd", kp.integrate_nd_result, functional)
        fourier.integrate_nd_result = self.span("gauge.nd", fourier.integrate_nd_result)

        cli.compute_functionals_detailed = self.span(
            "kp.functionals", cli.compute_functionals_detailed
        )
        cli.kp_norm = self.span("kp.assemble", cli.kp_norm)
        cli.k2_inner = self.span("kp.assemble", cli.k2_inner)

        fourier_result = self.span("fourier", cli.fourier_tame_result)

        def fourier_tame_result(*args, **kwargs):
            before = self.counts["expr.points"]
            try:
                return fourier_result(*args, **kwargs)
            finally:
                self.counts["fourier.points"] += self.counts["expr.points"] - before

        cli.fourier_tame_result = fourier_tame_result
        cli.run_command = self.span("cli", cli.run_command)

    def metrics(self, rounds: int) -> dict:
        """Per-round totals, named as in BENCHMARK.json."""
        s, c, n = self.self_s, self.calls, self.counts
        eval_calls = c["expr.eval"]
        gk15_calls = c["kernels.gk15"]
        raw = {
            "cli.requests": (c["cli"], "count"),
            "cli.self_s": (s["cli"], "s"),
            "expr.compile_s": (s["expr.compile"], "s"),
            "expr.eval_s": (s["expr.eval"], "s"),
            "expr.eval_calls": (eval_calls, "count"),
            "expr.eval_points": (n["expr.points"], "count"),
            "kernels.gk15_s": (s["kernels.gk15"], "s"),
            "kernels.gk15_calls": (gk15_calls, "count"),
            "kernels.gk15_panels": (n["kernels.gk15_panels"], "count"),
            "kernels.sum_s": (s["kernels.sum"], "s"),
            "kernels.sum_calls": (c["kernels.sum"], "count"),
            "kernels.sum_terms": (n["kernels.sum_terms"], "count"),
            "gauge.hk_calls": (c["gauge.hk"], "count"),
            "gauge.hk_self_s": (s["gauge.hk"], "s"),
            "gauge.nd_calls": (c["gauge.nd"], "count"),
            "gauge.nd_self_s": (s["gauge.nd"], "s"),
            "kp.functional_calls": (n["kp.functional_calls"], "count"),
            "kp.functionals_self_s": (s["kp.functionals"], "s"),
            "kp.assemble_s": (s["kp.assemble"], "s"),
            "fourier.points": (n["fourier.points"], "count"),
            "fourier.self_s": (s["fourier"], "s"),
        }
        out = {name: {"value": v / rounds, "unit": unit} for name, (v, unit) in raw.items()}
        out["expr.points_per_call"] = {
            "value": n["expr.points"] / eval_calls if eval_calls else 0.0,
            "unit": "points/call",
        }
        out["kernels.panels_per_call"] = {
            "value": n["kernels.gk15_panels"] / gk15_calls if gk15_calls else 0.0,
            "unit": "panels/call",
        }
        return out
