"""Benchmark for kspaces: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload dyadic-kp --seed 1 --seconds 20 --trace 0

Run from the root of a source tree that holds ``src/kspaces``.  The run

1. builds the workload's requests from ``--seed`` and computes their exact
   values (``corpus.py``, ``reference.py``), untimed;
2. with ``--trace 0``, times a fresh interpreter importing ``kspaces.cli``
   several times (``setup_s``);
3. runs the requests in a fresh worker process for ``--seconds``
   (``worker.py``), with per-layer wrappers installed when ``--trace 1``
   (``tracer.py``);
4. checks every output and prints the metrics as the last line of stdout:
   ``{"correct", "attempted", "failed", "metrics"}``.

Exits 2, printing no result, when the kspaces sources are missing, and 1
when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 7  # timed interpreter starts per run; the median is reported
WORKER_GRACE_S = 120  # time past --seconds before a worker is killed


def measure_setup() -> float:
    """Median time for a fresh interpreter to import kspaces.cli, which is
    what every ``ks`` invocation pays before it computes anything.  One
    untimed start first writes the bytecode caches."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kspaces.cli"
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def run_worker(requests, seconds: float, trace: bool) -> dict:
    job = {
        "src": str(SRC),
        "requests": [r.argv for r in requests],
        "seconds": seconds,
        "trace": trace,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_GRACE_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(requests, rounds):
    """Check every output of every round.

    Returns (attempted, failed, problems, evaluations per round).  A request
    fails when it exits non-zero or its check rejects the output.  Failures
    of requests not named as known faults, and evaluation counts that differ
    between rounds, are problems: they make the run incorrect.
    """
    attempted = failed = 0
    problems, evals = [], []
    for rnd in rounds:
        total = 0
        for req, (rc, payload), points in zip(
            requests, rnd["outputs"], rnd["points"] or [None] * len(requests)
        ):
            attempted += 1
            if rc != 0:
                reason = f"exit code {rc}: {payload}"
            else:
                reason = req.check(payload)
                count = req.evaluations(payload)
                total += count
                if points is not None and points != count:
                    problems.append(f"{req.name}: traced {points} integrand points, "
                                    f"the program reports {count} evaluations")
            if reason:
                failed += 1
                if not req.fault:
                    problems.append(f"{req.name}: {reason}")
        evals.append(total)
    if len(set(evals)) > 1:
        problems.append(f"evaluations differ between rounds: {sorted(set(evals))}")
    return attempted, failed, problems, evals[0]


def _normalized(rnd):
    """Each request's latency over the reference time around it."""
    ref = rnd["ref_s"]
    return [t / (0.5 * (a + b)) for t, a, b in zip(rnd["latency"], ref, ref[1:])]


def timings(rounds) -> dict:
    """Median round time and median request latency, raw and normalized.

    The host's speed drifts by up to 1.7x within minutes, so raw times are
    reported for reading only; the normalized ones are the metrics."""
    norm = [_normalized(r) for r in rounds]
    return {
        "wall_s": statistics.median(sum(r["latency"]) for r in rounds),
        "latency_ms.p50": 1000.0 * statistics.median(t for r in rounds for t in r["latency"]),
        "ref_ms": 1000.0 * statistics.median(t for r in rounds for t in r["ref_s"]),
        "wall_norm": statistics.median(sum(n) for n in norm),
        "latency_norm.p50": statistics.median(t for n in norm for t in n),
    }


def end_to_end(out, evaluations: int, setup_s: float, times: dict) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_norm": {"value": times["wall_norm"], "unit": "ratio"},
        "latency_norm.p50": {"value": times["latency_norm.p50"], "unit": "ratio"},
        "evaluations": {"value": evaluations, "unit": "count"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kspaces" / "cli.py").is_file():
        print(f"kspaces sources not found under {SRC}", file=sys.stderr)
        return 2

    requests = corpus.build(args.workload, args.seed)
    try:
        setup_s = None if args.trace else measure_setup()
        out = run_worker(requests, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems, evaluations = check_outputs(requests, out["rounds"])
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(out["rounds"]),
        "requests_per_round": len(requests),
        "known_faults": sorted({r.name for r in requests if r.fault}),
        "blas_threads": out["blas_threads"],
    }
    times = timings(out["rounds"])
    info["timings"] = times
    if args.trace:
        metrics = out["layers"]
    else:
        metrics = end_to_end(out, evaluations, setup_s, times)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
