"""Golden bytes: what the program prints and writes for the default vehicle
on the bundled UDDS, byte for byte.

The files in ``golden/`` were recorded with the commands below (the config
with ``serialize_config(default_config())``); the trace CSV and the
tracking SVG of ``simulate --out --plot`` are checked by SHA-256, since
the CSV alone is 1.4 MB. A change to any of these bytes must be deliberate,
and is re-recorded here with its reason.

One number is held to its value rather than its bytes: accel's
``oracle_time_s`` is a Simpson sum taken with the built-in ``sum()``, which
adds floats with compensated summation from Python 3.12 on, so its last
digit may differ from the 3.11 recording. The rest of accel's output is
still compared byte for byte.
"""

import hashlib
import re
from pathlib import Path

import pytest

from bevsim import default_config, serialize_config
from bevsim.cli import main

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = {
    "simulate.json": ["simulate"],
    "range.json": ["range", "--until-soc", "0.85"],
    "range_compare.json": ["range", "--compare-regen", "--until-soc", "0.85"],
    "accel.json": ["accel"],
    "topspeed.json": ["topspeed"],
}

# Golden file -> the key whose number may differ in its last digits.
VERSION_DEPENDENT = {"accel.json": "oracle_time_s"}

# simulate --out trace.csv --plot plot.svg: (SHA-256, size in bytes).
WRITTEN = {
    "trace.csv": (
        "7c767b28b3db2ab90d496e2ed73eb950d107419b6834d099138dafd7e6e52edd", 1436427
    ),
    "plot.svg": (
        "6be83b75349496b5c68bae120868471611a5ed0406d0a2cbb858f05ed8c78a81", 97054
    ),
}


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _cut_number(text: str, key: str) -> tuple[str, float]:
    """The text with the number after ``"key": `` cut out, and that number."""
    match = re.search(rf'"{key}": ([^,\n]+)', text)
    assert match is not None, key
    return text[: match.start(1)] + text[match.end(1) :], float(match.group(1))


def test_default_config_serializes_to_golden_bytes():
    assert serialize_config(default_config()) == _golden("config.json")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_bytes(name, capsys):
    assert main(COMMANDS[name]) == 0
    out, golden = capsys.readouterr().out, _golden(name)
    if name in VERSION_DEPENDENT:
        out, value = _cut_number(out, VERSION_DEPENDENT[name])
        golden, recorded = _cut_number(golden, VERSION_DEPENDENT[name])
        assert value == pytest.approx(recorded, rel=1e-12, abs=0.0)
    assert out == golden


def test_written_trace_and_plot_match_golden_bytes(tmp_path, capsys):
    paths = {name: tmp_path / name for name in WRITTEN}
    code = main([
        "simulate", "--out", str(paths["trace.csv"]), "--plot", str(paths["plot.svg"])
    ])
    assert code == 0
    assert capsys.readouterr().out == _golden("simulate.json")
    for name, (digest, size) in WRITTEN.items():
        data = paths[name].read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size), name
