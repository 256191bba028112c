"""Obligation-based verification engine.

Decouples *what must be proved* from *where it is solved*, in three
layers:

* **obligation** (:mod:`repro.engine.obligation`) — serializable
  :class:`ProofObligation` values (self-contained CNF slice +
  assumptions + metadata) with :class:`Verdict` results; exported by
  :meth:`repro.formal.bmc.SatContext.export_obligation` and
  :meth:`repro.core.model.UpecModel.frame_obligation` instead of being
  solved inline.  Exports are cut to the query's cone of influence
  (:mod:`repro.engine.slice`), canonically renumbered so the same
  logical query is bit-identical — and cache-key identical — no matter
  how the shared context grew.  :mod:`repro.engine.split`
  additionally splits a UPEC frame's commitment check into independent
  per-register(-group) obligations (``split=`` /
  ``REPRO_ENGINE_SPLIT=1``) so one deep frame can saturate the fleet.
* **scheduler** (:mod:`repro.engine.pool`) — :class:`SolverPool` runs
  obligation batches on a ``multiprocessing`` worker pool (in-process at
  ``jobs=1``), consuming results in submission order with early-cancel
  of sibling obligations; :class:`ScenarioSweep`
  (:mod:`repro.engine.sweep`) is the coarse-grained variant that grids
  whole Tab.-I/II methodology runs over workers.
* **cache** (:mod:`repro.engine.cache`) — :class:`ResultCache`, a
  persistent on-disk verdict store keyed by the obligation's content
  fingerprint, so methodology re-runs skip already-proved obligations.

:class:`ProofEngine` ties the three together and is what the formal
stack (``UpecChecker``, ``UpecMethodology``, ``InductiveDiffProof``,
``BmcEngine``, ``prove_by_induction``) accepts as its ``engine``
parameter.  ``REPRO_ENGINE_JOBS`` / ``REPRO_ENGINE_CACHE`` configure a
process-wide default engine for call sites that were not handed one.

The scheduler seam is pluggable: :mod:`repro.dist` provides
:class:`~repro.dist.remote.RemotePool`, a SolverPool-compatible
scheduler that ships obligations to a network broker
(``ProofEngine(pool=...)`` / :class:`~repro.dist.remote.RemoteEngine`),
sharding the same workloads across machines with bit-identical
verdicts.
"""

from repro.engine.cache import CACHE_MAX_ENV, ResultCache
from repro.engine.obligation import (
    SAT,
    UNKNOWN,
    UNSAT,
    ProofObligation,
    Verdict,
    pack_model,
    solve_obligation,
    unpack_model,
)
from repro.engine.pool import (
    CACHE_ENV,
    INLINE,
    JOBS_ENV,
    ProofEngine,
    SolverPool,
    default_engine,
    resolve_engine,
)
from repro.engine.slice import SliceResult, slice_cnf
from repro.engine.split import SPLIT_ENV, FrameSplit, env_split
from repro.engine.sweep import (
    CELL_ALERT_WINDOW,
    CELL_METHODOLOGY,
    ScenarioSweep,
    SweepCell,
    SweepOutcome,
    SweepResult,
)

__all__ = [
    "CACHE_ENV",
    "CACHE_MAX_ENV",
    "CELL_ALERT_WINDOW",
    "CELL_METHODOLOGY",
    "FrameSplit",
    "INLINE",
    "JOBS_ENV",
    "SPLIT_ENV",
    "ProofEngine",
    "ProofObligation",
    "ResultCache",
    "SAT",
    "ScenarioSweep",
    "SliceResult",
    "SolverPool",
    "SweepCell",
    "SweepOutcome",
    "SweepResult",
    "UNKNOWN",
    "UNSAT",
    "Verdict",
    "default_engine",
    "env_split",
    "pack_model",
    "resolve_engine",
    "slice_cnf",
    "solve_obligation",
    "unpack_model",
]
