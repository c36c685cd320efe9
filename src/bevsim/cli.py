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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help: the parser raises its usage errors instead
        return 0
    except (ConfigError, CycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BevSimError, OSError, ValueError, ArithmeticError) as exc:
        # A result that overflows or is not finite is a runtime error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``ConfigError``: one ``error:``
    line and exit 1, not argparse's usage block. Subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


def _flag_value(convert, rule: str, holds):
    """An argparse type that converts a flag's text with ``convert`` and
    refuses a value that fails ``holds``, naming the ``rule``."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule} (got {text})")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid float value: 'x'"
    return parse


_POSITIVE = _flag_value(float, "finite and > 0", lambda x: 0.0 < x < math.inf)
_NON_NEGATIVE = _flag_value(float, "finite and >= 0", lambda x: 0.0 <= x < math.inf)
_COUNT = _flag_value(int, ">= 1", lambda n: n >= 1)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads; a flag's type is its
    one rule, except the config overrides (--dt, --regen-eff, --until-soc),
    which the config's own rules judge under their field names."""
    parser = _Parser(
        prog="bevsim",
        description="Battery-electric vehicle longitudinal dynamics simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument(
        "--config", metavar="PATH",
        help="vehicle config JSON (defaults to the built-in configuration)",
    )
    stepped = argparse.ArgumentParser(add_help=False, parents=[configured])
    stepped.add_argument(
        "--dt", type=float, metavar="S", help="override the integration step [s]",
    )
    driven = argparse.ArgumentParser(add_help=False, parents=[stepped])
    driven.add_argument(
        "--cycle", metavar="PATH",
        help="drive-cycle CSV with header t_s,v_kmh (defaults to bundled UDDS)",
    )
    driven.add_argument(
        "--regen-eff", type=float, metavar="F",
        help="override the regenerative recovery efficiency (0: regen off)",
    )

    p = sub.add_parser(
        "simulate", parents=[driven], help="run a drive cycle once (or repeated)",
    )
    p.add_argument("--out", metavar="PATH", help="write the per-step trace CSV here")
    p.add_argument("--plot", metavar="PATH", help="write a tracking SVG here")
    p.add_argument(
        "--every", type=_COUNT, default=1, metavar="N",
        help="keep every Nth trace record (default 1)",
    )
    p.add_argument(
        "--repeat", type=_COUNT, default=1, metavar="N",
        help="drive the cycle N times, N > 1 stopping at the SoC floor (default 1)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "range", parents=[driven],
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
        "--every", type=_COUNT, default=10, metavar="N",
        help="keep every Nth trace record (default 10)",
    )
    p.set_defaults(func=cmd_range)

    p = sub.add_parser(
        "accel", parents=[stepped], help="full-throttle time to a target speed",
    )
    p.add_argument(
        "--target", type=_NON_NEGATIVE, default=100.0, metavar="KMH",
        help="target speed [km/h] (default 100)",
    )
    p.add_argument("--plot", metavar="PATH", help="write an acceleration SVG here")
    p.set_defaults(func=cmd_accel)

    p = sub.add_parser(
        "topspeed", parents=[stepped],
        help="full-throttle settled top speed vs the force-balance oracle",
    )
    p.add_argument(
        "--duration", type=_POSITIVE, default=120.0, metavar="S",
        help="settling time to simulate [s] (default 120)",
    )
    p.add_argument("--plot", metavar="PATH", help="write a top-speed SVG here")
    p.set_defaults(func=cmd_topspeed)

    p = sub.add_parser(
        "size-motor", parents=[configured],
        help="steady-state cruising power for a design speed (and the inverse)",
    )
    p.add_argument(
        "--speed", type=_POSITIVE, metavar="KMH",
        help="design speed [km/h] to size for (default 120 if --power absent)",
    )
    p.add_argument(
        "--power", type=_POSITIVE, metavar="KW",
        help="solve for the speed this power rating sustains [kW]",
    )
    p.set_defaults(func=cmd_size_motor)

    p = sub.add_parser("defaults", help="print the full default config JSON")
    p.set_defaults(func=cmd_defaults)

    p = sub.add_parser(
        "validate", parents=[configured], help="validate a config file",
    )
    p.set_defaults(func=cmd_validate)
    return parser


def _load_config(args) -> VehicleConfig:
    """The subcommand's config: the file or the defaults, with the flag
    overrides applied and validated."""
    if args.config:
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
    if getattr(args, "regen_eff", None) is not None:
        overrides["drivetrain"] = {"regen_efficiency": args.regen_eff}
    if getattr(args, "until_soc", None) is not None:
        overrides["battery"] = {"soc_floor": args.until_soc}
    if overrides:
        config = with_overrides(config, **overrides)
        violations = validate(config)
        if violations:
            raise ConfigError(
                "invalid configuration after overrides: " + "; ".join(violations)
            )
    return config


def _load_cycle(args) -> DriveCycle:
    path = args.cycle
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
    if not args.config:
        raise ConfigError("validate requires --config PATH")
    _load_config(args)  # raises ConfigError listing all violations
    _print_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "validate",
            "valid": True,
            "violations": [],
        }
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
