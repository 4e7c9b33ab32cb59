"""The class relcheck's reference exploration runs through.

Exploration is one loop, :meth:`SymbolicExecutor.run
<repro.symex.executor.SymbolicExecutor.run>`.  This module keeps one name
for the benchmark's traced run (``perfbench/tracing.py``), which imports
:class:`ParallelExecutor` and reports the time spent in its ``run`` as
``relcheck.explore_s``.
"""

from __future__ import annotations

from .executor import SymbolicExecutor


class ParallelExecutor(SymbolicExecutor):
    """A :class:`SymbolicExecutor` whose class body defines its own ``run``.

    The traced benchmark wraps ``ParallelExecutor.__dict__["run"]`` and
    reports its time as relcheck's reference exploration
    (``relcheck.explore_s``).  Relcheck's phase 1 builds this class, so
    the wrapper times that exploration alone, never the backend's or the
    per-path replays' runs of the inherited method."""

    run = SymbolicExecutor.run
