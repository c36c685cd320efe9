"""Command-line front end.

Loads configs and cycles, dispatches scenarios, writes CSV traces and SVG
plots, and prints a versioned JSON summary to stdout. Exit codes: 0 on
success, 1 on configuration/cycle parse or validation problems (including
bad flags), 2 on runtime simulation or I/O errors. Diagnostics go to
stderr. Identical invocations produce byte-identical outputs.
"""

import argparse
import json
import math
import os
import sys

from . import experiments
from .cycle import DriveCycle, cycle_stats, load_udds, parse_cycle
from .engine import (
    TRACE_FIELDS,
    EnergyLedger,
    LedgerCheck,
    SimSummary,
    SimTrace,
    ledger_check,
    run,
)
from .errors import BevSimError, ConfigError, CycleError
from .params import (
    VehicleConfig,
    default_config,
    parse_config,
    serialize_config,
    validate,
    with_overrides,
)
from .plots import emit_plot

SCHEMA_VERSION = 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; remap its usage errors to exit 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, CycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BevSimError, OSError, ValueError, ArithmeticError) as exc:
        # A result that overflows or is not finite is a runtime error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevsim",
        description="Battery-electric vehicle longitudinal dynamics simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="vehicle config JSON (defaults to the built-in configuration)",
    )
    common.add_argument(
        "--cycle", metavar="PATH",
        help="drive-cycle CSV with header t_s,v_kmh (defaults to bundled UDDS)",
    )
    common.add_argument(
        "--dt", type=float, metavar="S", help="override the integration step [s]",
    )
    common.add_argument(
        "--no-regen", action="store_true",
        help="disable battery charging from regenerative braking (--regen-eff 0)",
    )
    common.add_argument(
        "--regen-eff", type=float, metavar="F",
        help="override the regenerative recovery efficiency (conflicts with --no-regen)",
    )

    p = sub.add_parser(
        "simulate", parents=[common], help="run a drive cycle once (or repeated)",
    )
    p.add_argument("--out", metavar="PATH", help="write the per-step trace CSV here")
    p.add_argument("--plot", metavar="PATH", help="write a tracking SVG here")
    p.add_argument(
        "--every", type=int, default=1, metavar="N",
        help="keep every Nth trace record (default 1)",
    )
    p.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="drive the cycle N times, N > 1 stopping at the SoC floor (default 1)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "range", parents=[common],
        help="repeat the cycle until the SoC floor and report range",
    )
    p.add_argument(
        "--until-soc", type=float, metavar="F",
        help="override the SoC floor ending the run (battery.soc_floor)",
    )
    p.add_argument(
        "--compare-regen", action="store_true",
        help="run regen on and off and report the range gain",
    )
    p.add_argument("--out", metavar="PATH", help="write the trace CSV here")
    p.add_argument("--plot", metavar="PATH", help="write a distance/SoC SVG here")
    p.add_argument(
        "--every", type=int, default=10, metavar="N",
        help="keep every Nth trace record (default 10)",
    )
    p.set_defaults(func=cmd_range)

    p = sub.add_parser(
        "accel", parents=[common], help="full-throttle time to a target speed",
    )
    p.add_argument(
        "--target", type=float, default=100.0, metavar="KMH",
        help="target speed [km/h] (default 100)",
    )
    p.add_argument("--plot", metavar="PATH", help="write an acceleration SVG here")
    p.set_defaults(func=cmd_accel)

    p = sub.add_parser(
        "topspeed", parents=[common],
        help="full-throttle settled top speed vs the force-balance oracle",
    )
    p.add_argument(
        "--duration", type=float, default=120.0, metavar="S",
        help="settling time to simulate [s] (default 120)",
    )
    p.add_argument("--plot", metavar="PATH", help="write a top-speed SVG here")
    p.set_defaults(func=cmd_topspeed)

    p = sub.add_parser(
        "size-motor", parents=[common],
        help="steady-state cruising power for a design speed (and the inverse)",
    )
    p.add_argument(
        "--speed", type=float, metavar="KMH",
        help="design speed [km/h] to size for (default 120 if --power absent)",
    )
    p.add_argument(
        "--power", type=float, metavar="KW",
        help="solve for the speed this power rating sustains [kW]",
    )
    p.set_defaults(func=cmd_size_motor)

    p = sub.add_parser("defaults", help="print the full default config JSON")
    p.set_defaults(func=cmd_defaults)

    p = sub.add_parser(
        "validate", parents=[common], help="validate a config file",
    )
    p.set_defaults(func=cmd_validate)
    return parser


def _load_config(args) -> VehicleConfig:
    """The subcommand's config: the file or the defaults, with the flag
    overrides applied and validated, and every numeric flag checked."""
    regen_eff = getattr(args, "regen_eff", None)
    if getattr(args, "no_regen", False):
        if regen_eff is not None:
            raise ConfigError("--no-regen conflicts with --regen-eff")
        regen_eff = 0.0  # --no-regen spells --regen-eff 0
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file '{args.config}': {exc}") from None
        config = parse_config(text)
    else:
        config = default_config()
    overrides = {}
    if getattr(args, "dt", None) is not None:
        overrides["sim"] = {"dt": args.dt}
    if regen_eff is not None:
        overrides["drivetrain"] = {"regen_efficiency": regen_eff}
    if getattr(args, "until_soc", None) is not None:
        overrides["battery"] = {"soc_floor": args.until_soc}
    if overrides:
        config = with_overrides(config, **overrides)
        violations = validate(config)
        if violations:
            raise ConfigError(
                "invalid configuration after overrides: " + "; ".join(violations)
            )
    _check_numeric_flags(args)
    return config


# Domain rules of the float flags that are not config fields.
_POSITIVE_FLAGS = ("duration", "speed", "power")
_NON_NEGATIVE_FLAGS = ("target",)


def _check_numeric_flags(args) -> None:
    """The one rule for numeric flags: every float flag is finite; a
    duration, speed or power is > 0, a target >= 0. The overrides of config
    fields (--dt, --regen-eff, --until-soc) have already been held to the
    config's own rules."""
    for dest, value in vars(args).items():
        if not isinstance(value, float):
            continue
        flag = "--" + dest.replace("_", "-")
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite (got {value})")
        if dest in _POSITIVE_FLAGS and not value > 0.0:
            raise ConfigError(f"{flag} must be > 0 (got {value})")
        if dest in _NON_NEGATIVE_FLAGS and not value >= 0.0:
            raise ConfigError(f"{flag} must be >= 0 (got {value})")


def _load_cycle(args) -> DriveCycle:
    path = getattr(args, "cycle", None)
    if not path:
        return load_udds()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CycleError(f"cannot read cycle file '{path}': {exc}") from None
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_cycle(text, name=name)


def _print_json(payload: dict) -> None:
    # Refuses NaN and infinities (ValueError): the output stays valid JSON.
    print(json.dumps(payload, indent=2, allow_nan=False))


def _summary_dict(summary: SimSummary) -> dict:
    d = summary._asdict()
    d["stop_reason"] = summary.stop_reason.value
    return d


def _print_run(payload: dict, ledger: EnergyLedger) -> int:
    """Print a run's JSON with its ledger last, then fail (exit 2) if the
    ledger did not close."""
    check = ledger_check(ledger)
    payload["ledger"] = d = ledger._asdict()
    d["residual"] = check.residual_kwh
    d["check_passed"] = check.passed
    d["residual_fraction"] = check.residual_fraction
    _print_json(payload)
    _require_closed(check, "energy ledger")
    return 0


def _require_closed(check: LedgerCheck, ledger_name: str) -> None:
    if not check.passed:
        raise BevSimError(
            f"{ledger_name} does not close: residual {check.residual_kwh:.6g} kWh, "
            f"{100 * check.residual_fraction:.6g}% of battery output (limit 0.5%)"
        )


_TRACE_ROW = ",".join(["%.6g"] * len(TRACE_FIELDS)) + "\n"


def emit_trace(trace: SimTrace, path: str) -> None:
    """Write the trace CSV (exact 15-column header, 6 significant digits)."""
    cols = [getattr(trace, f) for f in TRACE_FIELDS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_FIELDS) + "\n")
        fh.writelines(_TRACE_ROW % row for row in zip(*cols))


def cmd_simulate(args) -> int:
    config = _load_config(args)
    cycle = _load_cycle(args)
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be >= 1 (got {args.repeat})")
    if args.every < 1:
        raise ConfigError(f"--every must be >= 1 (got {args.every})")
    every = args.every if (args.out or args.plot) else 0
    trace, summary, ledger = run(config, cycle, passes=args.repeat, trace_every=every)
    if args.out:
        emit_trace(trace, args.out)
    if args.plot:
        emit_plot(trace, "tracking", args.plot)
    stats = cycle_stats(cycle)
    return _print_run(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "cycle": {
                "name": cycle.name,
                "duration_s": stats.duration_s,
                "distance_km": stats.distance_km,
                "max_speed_kmh": stats.max_speed_kmh,
            },
            "summary": _summary_dict(summary),
        },
        ledger,
    )


def cmd_range(args) -> int:
    config = _load_config(args)
    cycle = _load_cycle(args)
    if args.every < 1:
        raise ConfigError(f"--every must be >= 1 (got {args.every})")
    if args.compare_regen:
        for flag, value in (("--out", args.out), ("--plot", args.plot)):
            if value:
                raise ConfigError(f"--compare-regen conflicts with {flag}")
        comparison, ledgers = experiments._compare_legs(config, cycle)
        _print_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "range",
                "cycle": cycle.name,
                "reports": {
                    "regen_on": comparison.regen_on._asdict(),
                    "regen_off": comparison.regen_off._asdict(),
                },
                "gain_percent": comparison.gain_percent,
                "reference_gain_percents": list(comparison.reference_gain_percents),
            }
        )
        for leg, ledger in zip(("regen-on", "regen-off"), ledgers):
            _require_closed(ledger_check(ledger), f"the {leg} leg's energy ledger")
        return 0
    trace_every = args.every if (args.out or args.plot) else 0
    report, trace, _, ledger = experiments.range_test_detailed(
        config, cycle, trace_every=trace_every
    )
    if args.out:
        emit_trace(trace, args.out)
    if args.plot:
        emit_plot(trace, "range_soc", args.plot)
    return _print_run(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "range",
            "cycle": cycle.name,
            "report": report._asdict(),
        },
        ledger,
    )


def cmd_accel(args) -> int:
    config = _load_config(args)
    report = experiments.accel_test(config, target_kmh=args.target)
    oracle_s = experiments.accel_time_oracle(config, args.target)
    if args.plot:
        emit_plot(report, "accel", args.plot)
    _print_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "accel",
            "report": {
                "time_to_target_s": report.time_to_target_s,
                "target_kmh": report.target_kmh,
                "trajectory": [list(p) for p in report.speed_trajectory],
            },
            "oracle_time_s": oracle_s,
            "reference_time_to_100_s": experiments.REFERENCE_ACCEL_TIME_S,
        }
    )
    return 0


def cmd_topspeed(args) -> int:
    config = _load_config(args)
    report = experiments.top_speed_test(config, duration=args.duration)
    if args.plot:
        emit_plot(report, "topspeed", args.plot)
    _print_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "topspeed",
            "report": {
                "vmax_kmh": report.vmax_kmh,
                "time_to_vmax_s": report.time_to_vmax_s,
                "oracle_vmax_kmh": report.oracle_vmax_kmh,
                "discrepancy_kmh": report.discrepancy_kmh,
            },
            "reference_top_speed_kmh": experiments.REFERENCE_TOP_SPEED_KMH,
        }
    )
    return 0


def cmd_size_motor(args) -> int:
    config = _load_config(args)
    payload: dict = {"schema_version": SCHEMA_VERSION, "command": "size-motor"}
    speed = args.speed
    if speed is None and args.power is None:
        speed = 120.0
    if speed is not None:
        payload["design_speed_kmh"] = speed
        payload["power_kw"] = experiments.size_motor(config, speed)
    if args.power is not None:
        payload["power_rating_kw"] = args.power
        payload["sustained_speed_kmh"] = experiments.design_speed_for_power(
            config, args.power
        )
    _print_json(payload)
    return 0


def cmd_defaults(args) -> int:
    sys.stdout.write(serialize_config(default_config()))
    return 0


def cmd_validate(args) -> int:
    if not getattr(args, "config", None):
        raise ConfigError("validate requires --config PATH")
    config = _load_config(args)  # raises ConfigError listing all violations
    _print_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "validate",
            "valid": True,
            "violations": validate(config),
        }
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
