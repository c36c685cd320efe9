"""bevsim benchmark: one seeded, closed-loop, single-client run of a workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass (see
tracer.py). The line before it holds details: the result digest, the error
rate, and the percentile and sample count behind ``latency_tail_ms``.
Workloads, metrics and predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_RUNS = 7  # fresh processes timed for setup_s; the median is reported
# The same code runs up to a third faster or slower from one fresh process
# to the next on the same host, so one run measures in this many fresh
# processes, one after another, each for an equal share of the seconds.
WORKERS = 10
SHOWN_FAILURES = 3  # tracebacks printed per process


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c",
             "import time\n"
             "t0 = time.perf_counter()\n"
             "import bevsim\n"
             "bevsim.default_config()\n"
             "bevsim.load_udds()\n"
             "print(time.perf_counter() - t0)\n"],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Pass:
    """Timings, check results and file counters of consecutive requests."""

    latencies: list = field(default_factory=list)
    sim_s: list = field(default_factory=list)
    failed: int = 0
    counters: dict = field(default_factory=dict)  # name -> per-request values
    digests: dict = field(default_factory=dict)  # request index -> digest
    origins: dict = field(default_factory=dict)  # repeat index -> original

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_requests(workload, first: int, seconds: float = 0.0, count: int = 0,
                 tracer=None) -> Pass:
    """Run requests first, first+1, ... in a closed loop with one client.

    Stops, once ``count`` requests are done, at the block boundary nearest
    to where the summed request time reaches ``seconds``. Only the request
    itself is timed; generating its input and checking its output are not.
    """
    from tracer import NOT_RECORDING
    from workloads import digest_text

    def done() -> bool:
        n = i - first
        if n < count or i % workload.block:
            return False
        half_block = p.busy_s / n * workload.block / 2 if n else 0.0
        return p.busy_s + half_block >= seconds

    p = Pass()
    i = first
    while not done():
        req = workload.request(i)
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        try:
            result = workload.execute(req)
        except Exception:
            result = None
            _show_failure(p, i, req)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.request_id = NOT_RECORDING
        p.latencies.append(latency)
        p.sim_s.append(0.0)
        if result is None:
            p.failed += 1
        else:
            try:
                checked = workload.check(i, req, result, latency, tracer)
            except Exception:
                p.failed += 1
                _show_failure(p, i, req)
            else:
                p.digests[i] = digest_text(checked.canon)
                if req.origin >= 0:
                    p.origins[i] = req.origin
                p.sim_s[-1] = checked.sim_s
                for k, v in checked.counters.items():
                    p.counters.setdefault(k, []).append(v)
        i += 1
    return p


def _show_failure(p: Pass, i: int, req) -> None:
    if p.failed < SHOWN_FAILURES:
        print(f"request {i} ({req.kind}) failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def reproduced(passes: list[Pass]) -> tuple[dict, int]:
    """Digests by request index, and the number of results that differ from
    the result of the request they repeat or of an earlier run of it."""
    seen: dict[int, str] = {}
    differ = 0
    for p in passes:
        for i, key in p.digests.items():
            origin = p.origins.get(i, -1)
            if seen.get(i, key) != key or seen.get(origin, key) != key:
                differ += 1
            seen.setdefault(i, key)
    return seen, differ


def worker(name: str, seed: int, first: int, seconds: float, count: int) -> Pass:
    """One fresh process's share of a run: warm up, then measure."""
    from workloads import WORKLOADS, Inputs

    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](Inputs(scratch), seed)
        for req in workload.warmup():
            workload.check(-1, req, workload.execute(req), 1.0, None)
        return run_requests(workload, first, seconds, count)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workers(name: str, seed: int, seconds: float, digest_requests: int) -> list[Pass]:
    passes: list[Pass] = []
    first = 0
    for _ in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds / WORKERS),
             "--worker-first", str(first),
             "--worker-count", str(max(0, digest_requests - first))],
            env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            check=True, timeout=170,
        )
        doc = json.loads(done.stdout.splitlines()[-1])
        doc["digests"] = {int(k): v for k, v in doc["digests"].items()}
        doc["origins"] = {int(k): v for k, v in doc["origins"].items()}
        passes.append(Pass(**doc))
        first += len(passes[-1].latencies)
    return passes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; below 11 samples, the largest.
    Returns (value, percentile).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    """Per-process figures averaged over the worker processes; the tail
    over all their samples together."""
    value, percentile = tail([x for p in passes for x in p.latencies])
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (
            statistics.fmean(len(p.latencies) / p.busy_s for p in passes), "1/s"
        ),
        "latency_p50_ms": (
            statistics.fmean(statistics.median(p.latencies) for p in passes) * 1e3, "ms"
        ),
        "latency_tail_ms": (value * 1e3, "ms"),
        "realtime_factor": (
            statistics.fmean(sum(p.sim_s) / p.busy_s for p in passes), "ratio"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "latency_tail_percentile": percentile,
        "latency_samples": sum(len(p.latencies) for p in passes),
        "workers": len(passes),
    }
    return metrics, details


def per_layer(tracer, traced: Pass, untraced: Pass) -> dict:
    functions = ("engine.run", "engine.step", "cli.main", "cli.emit_trace", "plots.emit_plot")
    s = tracer.layer_stats(functions)
    c = tracer.counters
    steps = c["engine.run_steps"] + c["engine.step_steps"]
    engine_s = s["engine.run.busy_s"] + s["engine.step.busy_s"]
    rows_written = sum(traced.counters.get("csv_rows", []))
    svg_points = sum(traced.counters.get("svg_points", []))
    # Every exported plot has the same number of series (one polyline each).
    series = sum(traced.counters.get("svg_polylines", []))
    plots = len(traced.counters.get("svg_polylines", []))
    points_in = c["plots.points_in"] * series / plots if plots else 0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def median(key: str) -> float:
        values = traced.counters.get(key)
        return statistics.median(values) if values else 0.0

    requests = len(traced.latencies)
    return {
        "params.calls": (s["params.calls"], "count"),
        "params.busy_s": (s["params.busy_s"], "s"),
        "cycle.calls": (s["cycle.calls"], "count"),
        "cycle.busy_s": (s["cycle.busy_s"], "s"),
        "engine.run.calls": (s["engine.run.calls"], "count"),
        "engine.run.self_s": (s["engine.run.self_s"], "s"),
        "engine.steps": (steps, "count"),
        "engine.us_per_step": (ratio(engine_s * 1e6, steps), "us"),
        "engine.step.calls": (s["engine.step.calls"], "count"),
        "engine.step.self_s": (s["engine.step.self_s"], "s"),
        "engine.trace_rows": (c["engine.trace_rows"], "count"),
        "engine.trace_rows_kept_ratio": (ratio(rows_written, c["engine.trace_rows"]), "ratio"),
        "engine.runs_per_request": (ratio(s["engine.run.calls"], requests), "ratio"),
        "driver.calls": (s["driver.calls"], "count"),
        "driver.busy_s": (s["driver.busy_s"], "s"),
        "dynamics.calls": (s["dynamics.calls"], "count"),
        "dynamics.busy_s": (s["dynamics.busy_s"], "s"),
        "powertrain.calls": (s["powertrain.calls"], "count"),
        "powertrain.busy_s": (s["powertrain.busy_s"], "s"),
        "experiments.calls": (s["experiments.calls"], "count"),
        "experiments.self_s": (s["experiments.self_s"], "s"),
        "experiments.pool_overhead_s": (median("pool_overhead_s"), "s"),
        "experiments.parallel_speedup": (median("parallel_speedup"), "ratio"),
        "experiments.pool_fallbacks": (c["experiments.pool_fallbacks"], "count"),
        "cli.main.self_s": (s["cli.main.self_s"], "s"),
        "cli.emit_trace.busy_s": (s["cli.emit_trace.busy_s"], "s"),
        "cli.emit_trace.us_per_row": (ratio(s["cli.emit_trace.busy_s"] * 1e6, rows_written), "us"),
        "cli.bytes_written": (sum(traced.counters.get("csv_bytes", [])), "bytes"),
        "plots.emit_plot.busy_s": (s["plots.emit_plot.busy_s"], "s"),
        "plots.points_kept_ratio": (ratio(svg_points, points_in), "ratio"),
        "plots.bytes_written": (sum(traced.counters.get("svg_bytes", [])), "bytes"),
        "trace.overhead_ratio": (ratio(traced.busy_s, untraced.busy_s), "ratio"),
    }


def traced_run(name: str, seed: int) -> tuple[list[Pass], dict, dict]:
    """A traced pass over a fixed number of requests, so that counts repeat
    exactly for a seed, then an untraced pass over the same requests in the
    same process; their time ratio is the tracing overhead. Tracing first
    keeps the counts those of a first sight of each request."""
    from tracer import Tracer
    from workloads import WORKLOADS, Inputs

    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](Inputs(scratch), seed)
        for req in workload.warmup():
            workload.check(-1, req, workload.execute(req), 1.0, None)
        n = workload.trace_requests
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_requests(workload, 0, count=n, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced = run_requests(workload, 0, count=n)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tracer.write(str(SCRATCH / f"spans-{name}.npz"))
    details = {"spans": len(tracer.start), "traced_s": traced.busy_s,
               "untraced_s": untraced.busy_s}
    return [traced, untraced], per_layer(tracer, traced, untraced), details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A worker process's share of a run; set by the run itself.
    parser.add_argument("--worker-first", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--worker-count", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bevsim" / "__init__.py").is_file():
        print(f"error: no bevsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS, digest_text

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.worker_first is not None:
        p = worker(args.workload, args.seed, args.worker_first, args.seconds,
                   args.worker_count)
        print(json.dumps(asdict(p)))
        return 0

    digest_requests = WORKLOADS[args.workload].digest_requests
    if args.trace == 0:
        setup_s = measure_setup()
        passes = run_workers(args.workload, args.seed, args.seconds, digest_requests)
        metrics, details = end_to_end(passes, setup_s)
    else:
        passes, metrics, details = traced_run(args.workload, args.seed)

    digests, differ = reproduced(passes)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes) + differ
    prefix = [digests.get(i) for i in range(digest_requests)]
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        result_digest=digest_text("".join(d or "missing" for d in prefix)),
        digest_requests=digest_requests,
        error_rate=failed / attempted,
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and None not in prefix,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
