"""The timed half of the benchmark, run in a fresh process per run.

Reads a job from stdin: ``{"src", "requests", "seconds", "trace"}``, where
each request is a ``ks`` argv.  One client sends the requests one after the
other, in process, through ``kspaces.cli.run_command`` (a closed loop), and
repeats the whole list until ``seconds`` have passed.  Around each request
it times a fixed reference computation, so that each latency can be divided
by the speed the host had at that moment.  Prints one JSON object with the
raw latencies, reference times, outputs and peak memory; the parent checks
the outputs and derives the metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

# Cheap requests run once before timing, so that first-call costs inside
# NumPy and kspaces are not charged to the first measured request.
WARMUP = [
    ["integrate", "--expr", "x1", "--interval", "0,1"],
    ["integrate", "--expr", "x1*x2", "--box=0,1;0,1"],
    ["norm", "-p", "2", "--expr", "x1", "-K", "4"],
    ["inner", "--expr", "x1", "--expr2", "1", "-K", "4"],
    ["fourier", "--expr", "x1", "--box=0,1", "--at=0.5"],
]


_REF_X = np.linspace(0.0, 1.0, 512)
_REF_NODES = np.linspace(-1.0, 1.0, 15)


def reference_work():
    """A fixed computation to divide request times by.  It uses no kspaces
    code and no BLAS, and mixes what the requests spend time on: interpreted
    float arithmetic, NumPy calls on 15-element arrays, NumPy element-wise
    work on 512 elements, and a small adaptive bisection loop."""
    acc, x = 0.0, 0.3
    for _ in range(2000):
        x = 3.7 * x * (1.0 - x)
        acc += x
    for i in range(150):
        w = _REF_NODES * (i * 1e-3) + 0.5
        acc += float(np.abs(w - 0.5 * w.sum()).max())
    for _ in range(40):
        acc += float(np.sin(_REF_X * x).sum())
    panels = [(0.0, 1.0)]
    while panels:
        a, b = panels.pop()
        xs = a + (b - a) * 0.5 * (_REF_NODES + 1.0)
        fx = np.cos(7.0 * xs) * np.exp(-xs)
        coarse = float(fx[::2].sum()) * (b - a) / 8.0
        fine = float(fx.sum()) * (b - a) / 15.0
        if abs(coarse - fine) > 1e-4 * (b - a) and len(panels) < 64:
            m = 0.5 * (a + b)
            panels += [(a, m), (m, b)]
        else:
            acc += fine
    return acc


def blas_threads():
    """OpenBLAS thread count of the NumPy in use, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _call(cli, argv):
    """Run one request; an exception escaping the program is a failed
    request (exit code -1, traceback as its output), not the end of the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.run_command(argv)
        except Exception:
            rc = -1
            traceback.print_exc()
        dt = perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def _time_reference():
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def _round(cli, requests, tracer):
    """One pass over the requests.  The reference is timed before the first
    request and after each one, so ``ref_s`` has one more entry than
    ``latency`` and request i lies between ``ref_s[i]`` and ``ref_s[i+1]``."""
    latency, ref_s, outputs, points = [], [_time_reference()], [], []
    for argv in requests:
        before = tracer.counts["expr.points"] if tracer else 0
        rc, dt, out, err = _call(cli, argv + ["--format", "json"])
        latency.append(dt)
        outputs.append([rc, json.loads(out) if rc == 0 else err.strip()])
        if tracer:
            points.append(tracer.counts["expr.points"] - before)
        ref_s.append(_time_reference())
    return {"latency": latency, "ref_s": ref_s, "outputs": outputs, "points": points}


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from kspaces import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli)
    for argv in WARMUP:
        _call(cli, argv)
    if tracer:
        tracer.reset()

    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < job["seconds"]:
        rounds.append(_round(cli, job["requests"], tracer))
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "layers": tracer.metrics(len(rounds)) if tracer else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
