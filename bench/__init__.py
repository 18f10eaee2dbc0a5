"""The gating benchmark: four closed-loop workloads over the advisor stack.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).  Nothing
under ``src/`` imports this package; the benchmark reaches the program
only through its public entry points.
"""
