"""The four benchmark workloads: seeded request generators, the request
itself (the only code that is timed), and the output checks.

Every request carries only generated config JSON text and drive-cycle CSV
text (or files holding them); the program parses them inside the request.
Configs are perturbations of the default within ranges ``validate()``
accepts; cycles are built from the bundled UDDS, ``repeat`` and
``synth_trapezoid``. Requests are generated in blocks with a fixed mix of
kinds per block (shuffled by the seed), so every seed sees the same mix and
the medians do not drift with the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from bevsim import cli, cycle, engine, experiments, params

from tracer import NOT_RECORDING

# Output tolerances, the same as tests/test_acceptance.py.
TRACKING_LIMIT = 0.015  # of the cycle peak, UDDS-based cycles only
ACCEL_REL_TOL = 0.01  # vs accel_time_oracle
TOPSPEED_TOL_KMH = 2.0  # vs top_speed_oracle

TRACE_HEADER = ",".join(engine.TRACE_FIELDS)


class CheckFailed(Exception):
    """An output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    args: dict
    origin: int = -1  # index of the request this one repeats exactly, or -1


@dataclass
class Checked:
    """What the check of one request yields: a canonical text of every
    summary and ledger (for the digest), the simulated seconds the result
    covers, and per-request counters for the traced run (bytes and rows
    read back from the files written, pool timings)."""

    canon: str
    sim_s: float
    counters: dict = field(default_factory=dict)


def canon(x) -> str:
    """Exact, canonical text of a result (floats as hex)."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, enum.Enum):
        return str(x.value)
    if dataclasses.is_dataclass(x):
        return canon(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    return repr(x)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def steps_for(duration_s: float, dt: float) -> int:
    """Steps a run over the duration takes (the engine's own rule)."""
    q = duration_s / dt
    r = round(q)
    return int(r) if abs(q - r) < 1e-6 else int(math.ceil(q))


class Inputs:
    """Generated input material shared by all workloads of one run."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.base = params.default_config()
        self.udds = cycle.load_udds()
        self.udds_text = cycle.serialize_cycle(self.udds)
        stats = cycle.cycle_stats(self.udds)
        self.udds_peak = stats.max_speed_kmh
        self.udds_km = stats.distance_km

    def config_text(self, rng: random.Random, spread: float, **extra) -> str:
        """Config JSON with body and battery fields scaled by 1 +- spread.

        Motor fields stay at their defaults: the rated point must satisfy
        tau*n/9550 = P within 1%, which independent scaling would break.
        """
        b = self.base.body
        bat = self.base.battery

        def f(x: float) -> float:
            return x * rng.uniform(1.0 - spread, 1.0 + spread)

        doc = {
            "body": {
                "mass": f(b.mass),
                "drag_coefficient": f(b.drag_coefficient),
                "frontal_area": f(b.frontal_area),
                "f0": f(b.f0),
            },
            "battery": {"capacity_energy": f(bat.capacity_energy)},
        }
        for section, values in extra.items():
            doc.setdefault(section, {}).update(values)
        return json.dumps(doc)

    def trapezoid(self, rng: random.Random):
        return cycle.synth_trapezoid(
            float(rng.randint(30, 110)), float(rng.randint(10, 40)),
            float(rng.randint(0, 120)),
        )

    def cycle_equivalent_s(self, distance_km: float) -> float:
        """Simulated seconds of a repeated-UDDS run, from its distance.

        Depletion reports carry no duration; the distance over the UDDS
        mean speed stands in for it (within about 1%, and exact between
        two commits whose outputs agree).
        """
        return distance_km / self.udds_km * self.udds.duration_s


class Workload:
    name = ""
    block = 1  # requests per block with a fixed mix of kinds
    digest_requests = 1  # leading requests every run completes and digests
    trace_requests = 1  # requests in a traced pass (whole blocks)

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.seed = seed
        self.requests: list[Request] = []

    def request(self, i: int) -> Request:
        while len(self.requests) <= i:
            b = len(self.requests) // self.block
            rng = random.Random(f"{self.seed}:{self.name}:{b}")
            self.requests.extend(self.make_block(rng))
        return self.requests[i]

    def warmup(self) -> list[Request]:
        """A few requests from a stream of their own, run before timing."""
        return self.make_block(random.Random(f"{self.seed}:{self.name}:warmup"))[:3]

    def make_block(self, rng: random.Random) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, index: int, req: Request, result, latency_s: float, tracer) -> Checked:
        raise NotImplementedError


class Sweep(Workload):
    """Many short independent requests mirroring the cheap CLI subcommands;
    a quarter of them repeat an earlier request exactly."""

    name = "sweep"
    block = 20
    digest_requests = 40
    trace_requests = 100
    # Six UDDS runs per block make 40%-80% of latencies one cluster of equal
    # work, which holds the median inside it rather than in a sparse gap.
    FRESH = (
        ["udds"] * 6 + ["trapezoid"] * 2 + ["udds_x2"] + ["trapezoid_xn"]
        + ["accel"] * 2 + ["topspeed"] * 2 + ["size_motor"]
    )
    REPEATS = 5  # per block of 20: a 25% share of exact repeats

    def make_block(self, rng):
        kinds = self.FRESH + ["repeat"] * self.REPEATS
        rng.shuffle(kinds)
        first = len(self.requests)
        if first == 0 and kinds[0] == "repeat":
            j = next(i for i, k in enumerate(kinds) if k != "repeat")
            kinds[0], kinds[j] = kinds[j], kinds[0]
        block: list[Request] = []
        for kind in kinds:
            if kind == "repeat":
                j = rng.randrange(first + len(block))
                original = (self.requests + block)[j]
                origin = original.origin if original.origin >= 0 else j
                block.append(Request(original.kind, original.args, origin))
            else:
                block.append(self.fresh(kind, rng))
        return block

    def fresh(self, kind: str, rng: random.Random) -> Request:
        inp = self.inputs
        config = inp.config_text(rng, 0.1)
        if kind in ("udds", "udds_x2", "trapezoid", "trapezoid_xn"):
            if kind == "udds":
                cyc, peak = inp.udds, inp.udds_peak
            elif kind == "udds_x2":
                cyc, peak = cycle.repeat(inp.udds, 2), inp.udds_peak
            elif kind == "trapezoid":
                cyc, peak = inp.trapezoid(rng), None
            else:
                cyc, peak = cycle.repeat(inp.trapezoid(rng), rng.randint(2, 4)), None
            return Request("simulate", {
                "config": config,
                "cycle": cycle.serialize_cycle(cyc),
                "name": cyc.name,
                "regen": rng.random() >= 0.25,
                "tracking_peak": peak,
            })
        if kind == "accel":
            return Request("accel", {"config": config, "target": rng.uniform(50.0, 120.0)})
        if kind == "topspeed":
            # 150 s or more: a heavier, draggier car settles later than the
            # default does in 120 s.
            return Request("topspeed", {"config": config, "duration": float(rng.randint(150, 200))})
        if rng.random() < 0.5:
            return Request("size_motor", {"config": config, "speed": rng.uniform(40.0, 160.0)})
        return Request("size_motor", {"config": config, "power": rng.uniform(5.0, 60.0)})

    def execute(self, req):
        a = req.args
        config = params.parse_config(a["config"])
        if req.kind == "simulate":
            cyc = cycle.parse_cycle(a["cycle"], name=a["name"])
            _, summary, ledger = engine.run(
                config, cyc, regen_enabled=a["regen"], trace_every=0
            )
            return summary, ledger, engine.ledger_check(ledger)
        if req.kind == "accel":
            report = experiments.accel_test(config, a["target"])
            return report, experiments.accel_time_oracle(config, a["target"])
        if req.kind == "topspeed":
            return experiments.top_speed_test(config, a["duration"])
        if "speed" in a:
            return experiments.size_motor(config, a["speed"])
        return experiments.design_speed_for_power(config, a["power"])

    def check(self, index, req, result, latency_s, tracer):
        a = req.args
        if req.kind == "simulate":
            summary, ledger, ledger_ok = result
            require(ledger_ok.passed, f"ledger residual {ledger_ok.residual_fraction}")
            require(engine.ledger_check(ledger).passed, "ledger_check failed")
            if a["tracking_peak"] is not None:
                require(
                    summary.max_tracking_error_kmh <= TRACKING_LIMIT * a["tracking_peak"],
                    f"tracking error {summary.max_tracking_error_kmh} km/h",
                )
            return Checked(canon((summary, ledger)), summary.duration_s)
        if req.kind == "accel":
            report, oracle = result
            rel = abs(report.time_to_target_s - oracle) / oracle
            require(rel <= ACCEL_REL_TOL, f"accel {report.time_to_target_s} vs oracle {oracle}")
            return Checked(canon(result), report.time_to_target_s)
        if req.kind == "topspeed":
            require(
                abs(result.discrepancy_kmh) <= TOPSPEED_TOL_KMH,
                f"top speed off the oracle by {result.discrepancy_kmh} km/h",
            )
            return Checked(canon(result), result.speed_trajectory[-1][0])
        # size-motor: check against the road-load formula, independently.
        b = params.parse_config(a["config"]).body

        def road_kw(v: float) -> float:
            x = v / 100.0
            rr = b.mass * b.gravity * (b.f0 + b.f1 * x + b.f4 * x**4)
            return v * (rr + b.drag_coefficient * b.frontal_area * v * v / 21.15) / 3600.0

        if "speed" in a:
            want = road_kw(a["speed"])
            require(abs(result - want) <= 1e-9 * want, f"size_motor {result} vs {want}")
        else:
            got = road_kw(result)
            require(abs(got - a["power"]) <= 1e-3 * a["power"], f"speed {result} gives {got} kW")
        return Checked(canon(result), 0.0)


class Range(Workload):
    """Regen-on/off depletion comparisons through the process pool, without
    trace or I/O: each leg runs about 71 k steps (a 0.05 SoC window)."""

    name = "range"
    digest_requests = 10
    trace_requests = 20
    # A full 0.9 -> 0.1 depletion (1.1 M steps per leg, seconds per request)
    # leaves too few requests per run for a steady median or any tail.
    SOC_FLOOR = 0.85
    verified = False  # request 0 re-run serially (every request when traced)

    def make_block(self, rng):
        return [Request("range", {
            "config": self.inputs.config_text(
                rng, 0.05, battery={"soc_floor": self.SOC_FLOOR}
            ),
            "cycle": self.inputs.udds_text,
        })]

    def execute(self, req):
        config = params.parse_config(req.args["config"])
        cyc = cycle.parse_cycle(req.args["cycle"], name="udds")
        return experiments.regen_comparison(config, cyc, parallel=True)

    def check(self, index, req, result, latency_s, tracer):
        config = params.parse_config(req.args["config"])
        floor = config.battery.soc_floor
        on, off = result.regen_on, result.regen_off
        for leg in (on, off):
            require(leg.soc_end <= floor < leg.soc_end + 1e-3, f"soc_end {leg.soc_end}")
            require(leg.cycles_completed >= 1, "no cycle completed")
        require(on.energy_regen_kwh > 0.0, "no energy recovered with regen on")
        require(off.energy_regen_kwh == 0.0, "energy recovered with regen off")
        require(0.0 < result.gain_fraction < 0.5, f"gain {result.gain_fraction}")
        counters = {}
        if tracer is not None or (index == 0 and not self.verified):
            # Re-run both legs serially in this process: the reports must
            # match the pooled ones exactly and both ledgers must close.
            # Traced runs time the legs for the pool overhead and speed-up.
            self.verified = True
            cyc = cycle.parse_cycle(req.args["cycle"], name="udds")
            legs = []
            for regen in (True, False):
                with _recording(tracer, index):
                    t0 = time.perf_counter()
                    report, _, _, ledger = experiments.range_test_detailed(
                        config, cyc, regen_enabled=regen
                    )
                    legs.append(time.perf_counter() - t0)
                require(engine.ledger_check(ledger).passed, "depletion ledger_check failed")
                require(report == (on if regen else off), "pooled leg differs from serial leg")
            counters["pool_overhead_s"] = latency_s - max(legs)
            counters["parallel_speedup"] = sum(legs) / latency_s
        sim_s = sum(self.inputs.cycle_equivalent_s(leg.distance_km) for leg in (on, off))
        return Checked(canon(result), sim_s, counters)


class Export(Workload):
    """The CLI in-process: simulate with --out and --plot, and a short
    range with --out --every N; trace collection, CSV, SVG and memory."""

    name = "export"
    block = 10
    digest_requests = 10
    trace_requests = 20
    # Latencies cluster by --every. The full-rate requests (four simulates
    # and two ranges of similar cost, 60% of a block) form one cluster that
    # holds both the median and the tail, rather than a gap between two.
    SIMULATE_EVERY = (1, 1, 1, 1, 2, 10)
    RANGE_EVERY = (1, 1, 2, 10)
    SOC_DROP = 0.01  # depletion per range request: about 14 k steps

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.dir = inputs.scratch / "export"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cycle_path = self.dir / "udds.csv"
        self.cycle_path.write_text(inputs.udds_text, encoding="utf-8")
        self.out = self.dir / "trace.csv"
        self.plot = self.dir / "plot.svg"
        self.configs = 0

    def _config_file(self, text: str) -> str:
        path = self.dir / f"config-{self.configs}.json"
        self.configs += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def make_block(self, rng):
        kinds = [("simulate", n) for n in self.SIMULATE_EVERY]
        kinds += [("range", n) for n in self.RANGE_EVERY]
        rng.shuffle(kinds)
        block = []
        for kind, every in kinds:
            config = self._config_file(self.inputs.config_text(rng, 0.05))
            argv = [kind, "--config", config, "--cycle", str(self.cycle_path),
                    "--out", str(self.out), "--every", str(every)]
            if kind == "simulate":
                argv += ["--plot", str(self.plot)]
                if rng.random() < 0.5:
                    argv += ["--regen-eff", f"{rng.uniform(0.3, 0.7):.4f}"]
                block.append(Request("simulate", {"argv": argv, "every": every}))
            else:
                until = round(self.inputs.base.battery.initial_soc - self.SOC_DROP, 6)
                argv += ["--until-soc", repr(until)]
                block.append(Request("range", {"argv": argv, "every": every, "until": until}))
        return block

    def execute(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.args["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, index, req, result, latency_s, tracer):
        code, stdout, stderr = result
        require(code == 0, f"exit code {code}: {stderr.strip()}")
        doc = json.loads(stdout)
        require(doc["ledger"]["check_passed"], "ledger_check failed")
        every = req.args["every"]
        text = self.out.read_text(encoding="utf-8")
        lines = text.splitlines()
        require(lines[0] == TRACE_HEADER, "trace CSV header differs")
        rows = [line.split(",") for line in lines[1:]]
        require(rows and all(len(r) == len(engine.TRACE_FIELDS) for r in rows), "bad CSV rows")
        dt = params.default_config().sim.dt
        counters = {"csv_bytes": len(text.encode()), "csv_rows": len(rows)}
        if req.kind == "simulate":
            summary = doc["summary"]
            require(
                summary["max_tracking_error_kmh"] <= TRACKING_LIMIT * self.inputs.udds_peak,
                f"tracking error {summary['max_tracking_error_kmh']} km/h",
            )
            steps = steps_for(summary["duration_s"], dt)
            require(len(rows) == -(-steps // every), f"{len(rows)} rows for {steps} steps")
            svg = self.plot.read_text(encoding="utf-8")
            require(svg.startswith("<svg") and svg.endswith("</svg>\n"), "malformed SVG")
            polylines = re.findall(r'points="([^"]*)"', svg)
            require(len(polylines) == 2, "tracking plot needs target and actual")
            counters.update(
                svg_bytes=len(svg.encode()),
                svg_points=sum(len(p.split()) for p in polylines),
                svg_polylines=len(polylines),
            )
            self.plot.unlink()
            items, sim_s = (summary, doc["ledger"]), summary["duration_s"]
        else:
            report = doc["report"]
            require(report["soc_end"] <= req.args["until"], f"soc_end {report['soc_end']}")
            t = [float(r[0]) for r in rows[:2]]
            require(abs(t[0] - dt) < 1e-9, "first row is not the first step")
            if len(t) == 2:
                require(abs(t[1] - t[0] - every * dt) < 1e-6, "row stride differs from --every")
            soc = float(rows[-1][engine.TRACE_FIELDS.index("soc")])
            require(soc >= report["soc_end"] - 1e-6, "last row SoC below soc_end")
            items = (report, doc["ledger"])
            sim_s = self.inputs.cycle_equivalent_s(report["distance_km"])
        self.out.unlink()
        return Checked(canon(items), sim_s, counters)


class Stepwise(Workload):
    """A co-simulation client advancing engine.step() one tick at a time;
    the only path that calls driver, dynamics and powertrain separately."""

    name = "stepwise"
    block = 10
    digest_requests = 20
    trace_requests = 40

    def make_block(self, rng):
        inp = self.inputs
        block = []
        for kind in rng.sample(["trapezoid"] * 5 + ["udds_prefix"] * 5, 10):
            if kind == "trapezoid":
                cyc = cycle.repeat(inp.trapezoid(rng), rng.randint(1, 2))
            else:
                n = rng.randint(60, 240)
                cyc = cycle.DriveCycle(
                    "udds-prefix", inp.udds.times_s[:n], inp.udds.speeds_kmh[:n]
                )
            block.append(Request("stepwise", {
                "config": inp.config_text(rng, 0.1),
                "cycle": cycle.serialize_cycle(cyc),
                "name": cyc.name,
            }))
        return block

    def execute(self, req):
        config = params.parse_config(req.args["config"])
        cyc = cycle.parse_cycle(req.args["cycle"], name=req.args["name"])
        n = steps_for(cyc.duration_s, config.sim.dt)
        step = engine.step
        state = engine.initial_state(config)
        record = None
        for _ in range(n):
            state, record = step(state, cyc, config)
        return record, n

    def check(self, index, req, result, latency_s, tracer):
        record, n = result
        config = params.parse_config(req.args["config"])
        cyc = cycle.parse_cycle(req.args["cycle"], name=req.args["name"])
        trace, summary, ledger = engine.run(config, cyc, trace_every=1)
        require(len(trace) == n, f"run() took {len(trace)} steps, step() {n}")
        want = trace.record(n - 1)
        require(
            [x.hex() for x in record] == [x.hex() for x in want],
            "final step() record is not bit-identical to run()",
        )
        require(engine.ledger_check(ledger).passed, "ledger_check failed")
        return Checked(canon((record, summary, ledger)), record.t_s)


@contextlib.contextmanager
def _recording(tracer, request_id: int):
    """Record spans of this block under the request id (traced runs only)."""
    if tracer is None:
        yield
        return
    tracer.request_id = request_id
    try:
        yield
    finally:
        tracer.request_id = NOT_RECORDING


WORKLOADS = {w.name: w for w in (Sweep, Range, Export, Stepwise)}
