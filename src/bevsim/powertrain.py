"""Motor, transmission and battery: a module with no code of its own.

The motor envelope, the electrical conversion and the amp-hour battery
update run inside the engine kernel (``engine._advance``), and the battery
state rides in ``engine.SimState``. Sign conventions: positive current
means discharge and negative means charging; the cumulative energies are
magnitudes at the terminals. The module is kept because the benchmark's
traced run imports every layer of the package by name, ``powertrain``
among them.
"""
