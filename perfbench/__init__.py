"""The polysym benchmark: four workloads, end-to-end metrics and per-layer
timings taken from outside the package. Run it with `python3 perfbench/run.py`.
"""
