"""Benchmark of the isingbath package; run it with ``python3 bench/run.py``."""
