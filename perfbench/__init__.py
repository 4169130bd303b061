"""Benchmark for eprkit; run ``python3 perfbench/run.py --help``."""
