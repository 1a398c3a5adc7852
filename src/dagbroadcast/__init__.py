"""Noisy one-bit broadcast on bounded-degree DAGs and 2D grids.

Exact sufficient-statistic analysis, grid dynamic programs, coupling
and percolation diagnostics, GF(2) erasure certificates, and
closed-form impossibility bounds, plus a reproducible experiment CLI.
Import the submodules directly, e.g. ``from dagbroadcast.sigma import
exact_chain``.
"""

__version__ = "0.1.0"
