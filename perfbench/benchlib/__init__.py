"""Library behind ``perfbench/run.py``."""
