"""The package's public surface: what ``bevsim`` exports, and what it must
no longer define now that the component physics lives only in the test
oracle (``step_reference``)."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import bevsim

# Component operations, state types and oracles with no package caller that
# moved to step_reference, and derived-quantity helpers that were deleted.
# None may come back into the package.
REMOVED = {
    "ActuationRequest",
    "BatteryState",
    "BodyState",
    "DerivedParams",
    "DriverState",
    "ForceBreakdown",
    "SocDynamicsReport",
    "SocIncreaseEvent",
    "VOLTAGE_FLOOR",
    "acceleration",
    "available_torque",
    "battery_step",
    "derived_quantities",
    "initial_battery_state",
    "integrate",
    "motor_current",
    "motor_electrical_power",
    "pi_step",
    "range_test",
    "soc_dynamics_report",
    "split_command",
    "target_speed",
    "wheel_torque",
}

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_is_sorted_unique_and_resolves():
    names = bevsim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(bevsim, name), name
    assert REMOVED.isdisjoint(names)
    # run(passes=N) repeats a cycle; cycle.repeat stays only for perfbench.
    assert not hasattr(bevsim, "repeat")


def test_removed_names_are_not_defined_in_the_package():
    defined = {}
    for path in Path(bevsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined[node.id] = path.name
    assert {n: defined[n] for n in REMOVED if n in defined} == {}


def test_tracer_layers_still_import():
    # The benchmark's traced run imports every layer module by name and
    # swaps the experiments' process pool; a missing one breaks --trace 1.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.LAYERS) == 9
    for layer in tracer.LAYERS:
        importlib.import_module(f"bevsim.{layer}")
    pool = bevsim.experiments.ProcessPoolExecutor
    t = tracer.Tracer()
    t.install()
    try:
        assert bevsim.experiments.ProcessPoolExecutor is not pool
    finally:
        t.uninstall()
    assert bevsim.experiments.ProcessPoolExecutor is pool


# Importing the package, its CLI or its plots loads no process-pool
# machinery, nor dataclasses and the inspect module it pulls in; the
# experiments module still resolves the pool name on first access.
_IMPORT_BUDGET = """
import sys
unwanted = {"multiprocessing", "concurrent.futures", "dataclasses", "inspect"}
import bevsim
assert unwanted.isdisjoint(sys.modules), ("bevsim", unwanted & set(sys.modules))
import bevsim.cli
assert unwanted.isdisjoint(sys.modules), ("bevsim.cli", unwanted & set(sys.modules))
import bevsim.plots
assert unwanted.isdisjoint(sys.modules), ("bevsim.plots", unwanted & set(sys.modules))
import concurrent.futures
assert bevsim.experiments.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
try:
    bevsim.experiments.NoSuchName
except AttributeError as exc:
    assert "NoSuchName" in str(exc), exc
else:
    raise AssertionError("unknown attribute resolved")
"""


def test_import_loads_no_process_pool(package_env):
    # Without site (-S), nothing but the package can have loaded a module.
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _IMPORT_BUDGET],
            env=package_env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
