"""The repo's benchmark: named workloads, end-to-end metrics, a per-layer ledger.

Everything here times and counts the program from outside, through its
public functions.  ``bench/README.md`` is the manual; ``BENCHMARK.json`` at
the repo root is the contract this package implements.
"""
