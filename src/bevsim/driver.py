"""Closed-loop speed controller: a module with no code of its own.

The PI controller and the regen-first braking split run inside the engine
kernel (``engine._advance``), and the controller's integral rides in
``engine.SimState``. The module is kept because the benchmark's traced run
imports every layer of the package by name, ``driver`` among them.
"""
