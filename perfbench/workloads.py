"""The four workloads: how each one solves the same seeded grid.

=============  ==========================================================
``tab1-cold``  The default library path (``engine=None``, no
               ``REPRO_*`` environment), in-process, no cache: what
               ``repro methodology`` runs.  Solver and preprocessor
               changes show here.
``tab1-warm``  ``ProofEngine(jobs=1, cache_dir=D)`` with D filled during
               set-up, so every obligation is a cache hit and search is
               zero: export, slicing and cache reads show here, and a
               search change must not.
``tab1-jobs2`` ``ProofEngine(jobs=2)`` on a fresh empty cache per pass,
               with a fresh process pool per cell: the only workload on
               the ``engine.pool`` process pool and the only one that
               writes the cache on the clock.
``tab1-fleet`` ``RemoteEngine`` against a fresh ``repro serve`` broker
               and two ``repro worker`` processes per pass: the only
               workload on ``repro.dist`` (wire, dispatch, memo,
               early-cancel).
=============  ==========================================================

``BENCHMARK.json`` lists ``tab1-cold`` and ``tab1-jobs2`` only; the
other two still run by name.  ``tab1-warm`` spends a whole
``ProofEngine(jobs=1)`` grid pass on its cache fill in every run's
set-up, which the benchmark's time budget cannot carry.  ``tab1-fleet``
needs more passes per run than that budget allows before its
``alert_s`` is steady: one alert cell took anywhere from 3.6 s to 8.6 s
from one pass to the next.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from cells import K, signature
from fleet import Fleet


@dataclass
class CellOutcome:
    variant: str
    seconds: float
    sig: Optional[Dict[str, Any]]
    stats: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class PassOutcome:
    wall: float
    cells: List[CellOutcome]
    #: Broker counters after the pass (fleet only).
    broker: Optional[Dict[str, Any]] = None


def run_pass(order: List[str], socs: Dict[str, Any], engine,
             tracer=None, between: Optional[Callable[[], None]] = None
             ) -> PassOutcome:
    """One grid pass, from the first call to the last verdict.

    ``between`` runs before each cell and after the last one; its time
    counts towards neither the cells nor the pass."""
    from repro.core.methodology import UpecMethodology
    from repro.core.model import UpecScenario

    cells = []
    aside = 0.0
    start = time.perf_counter()
    for variant in order:
        if between is not None:
            began = time.perf_counter()
            between()
            aside += time.perf_counter() - began
        if tracer is not None:
            tracer.trace = variant
        began = time.perf_counter()
        try:
            result = UpecMethodology(
                socs[variant], UpecScenario(secret_in_cache=True),
                engine=engine,
            ).run(k=K)
        except Exception as exc:  # a failed cell is reported, not fatal
            cells.append(CellOutcome(variant, time.perf_counter() - began,
                                     None, error=f"{type(exc).__name__}: "
                                                 f"{exc}"))
            continue
        cells.append(CellOutcome(variant, time.perf_counter() - began,
                                 signature(result), dict(result.stats)))
    wall = time.perf_counter() - start - aside
    if between is not None:
        between()
    return PassOutcome(wall, cells)


class Workload:
    """Set-up once, then per pass: open an engine, run, close it."""

    name = ""
    #: Whether cells must match the engine-path signatures bit for bit.
    engine_signatures = True

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        #: Cells run during set-up (checked like measured ones).
        self.setup_cells: List[CellOutcome] = []

    def prepare(self, order: List[str], socs: Dict[str, Any]) -> None:
        """One-time preparation, timed as part of set-up."""

    def open_pass(self):
        """The engine for the next pass (None: the default path)."""
        return None

    def end_cell(self, engine) -> None:
        """Off the clock, after each cell and before the first one."""

    def close_pass(self, engine) -> Optional[Dict[str, Any]]:
        """Release the pass's engine; returns the broker's counters
        (fleet only)."""
        return None

    def close(self) -> None:
        """Release everything; safe to call after a failure."""


class Cold(Workload):
    name = "tab1-cold"
    engine_signatures = False


class Warm(Workload):
    name = "tab1-warm"

    def __init__(self, root: str, workdir: str) -> None:
        super().__init__(root, workdir)
        self.cache_dir = os.path.join(workdir, "cache")

    def prepare(self, order, socs) -> None:
        from repro.engine.pool import ProofEngine

        with ProofEngine(jobs=1, cache_dir=self.cache_dir) as engine:
            self.setup_cells = run_pass(order, socs, engine).cells

    def open_pass(self):
        from repro.engine.pool import ProofEngine

        return ProofEngine(jobs=1, cache_dir=self.cache_dir)

    def close_pass(self, engine):
        engine.close()


def _end_pool_processes() -> None:
    """End the process pool's workers, and with them the solves that
    the early-cancel abandoned (closing the pool does not wait for
    those)."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


class Jobs2(Workload):
    """Each cell gets a pool of its own on the pass's cache directory,
    as if each were one ``repro methodology --jobs 2 --cache-dir D``
    run.  Sibling solves a cell abandoned end with its pool instead of
    running on into the next cell's time, which made a cell's time hang
    on which cell ran before it (the seed's order)."""

    name = "tab1-jobs2"

    def open_pass(self):
        from repro.engine.pool import ProofEngine

        return ProofEngine(jobs=2, cache_dir=tempfile.mkdtemp(
            prefix="cache-", dir=self.workdir))

    def end_cell(self, engine) -> None:
        # The next batch opens a fresh pool; the cache handle stays.
        engine.pool.close()
        _end_pool_processes()

    def close_pass(self, engine):
        engine.close()
        _end_pool_processes()
        shutil.rmtree(engine.cache.root, ignore_errors=True)
        return None


class FleetWorkload(Workload):
    name = "tab1-fleet"

    def __init__(self, root: str, workdir: str) -> None:
        super().__init__(root, workdir)
        self._fleet: Optional[Fleet] = None

    def open_pass(self):
        from repro.dist.remote import RemoteEngine

        logdir = tempfile.mkdtemp(prefix="fleet-", dir=self.workdir)
        self._fleet = Fleet(self.root, logdir)
        engine = RemoteEngine(self._fleet.start())
        self._fleet.wait_for_workers(engine.pool)
        return engine

    def close_pass(self, engine):
        broker = engine.pool.status()
        engine.close()
        self.close()
        return broker

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None


WORKLOADS = {w.name: w for w in (Cold, Warm, Jobs2, FleetWorkload)}
