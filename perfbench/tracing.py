"""Outside-in layer tracing: spans recorded around calls into the program.

The program has no spans of its own yet, so the benchmark wraps the
public functions and methods at each layer boundary (:data:`SEAMS`) and
records one :class:`Span` per call: name, layer, start, end, parent span
and a trace id (the grid cell being run).  Spans stay in memory and are
written out when the run ends.

A layer's *self time* is the time its spans spent outside any child
span, so the per-layer times of one cell plus the cell's uncovered time
add up to the cell's wall time.

Wrappers only record in the process and thread that installed them.
Worker processes forked from the driving process (the ``jobs=2`` pool)
while the wrappers are installed call straight through them; their
solver work is read from the verdicts they send back instead.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from cells import VARIANTS

#: The root span of each cell: one Fig.-5 methodology run.
CELL = "cell"

#: (module, class or None for a module-level function, attribute, layer).
#: The layer names are the per-layer time metrics their self time feeds.
SEAMS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.soc.soc", None, "build_soc", "soc.build_s"),
    ("repro.core.methodology", "UpecMethodology", "run", CELL),
    ("repro.core.model", "UpecModel", "__init__", "model.unroll_s"),
    ("repro.formal.unroll", "Unroller", "extend_to", "model.unroll_s"),
    ("repro.core.model", "UpecModel", "assume_window", "model.unroll_s"),
    ("repro.core.model", "UpecModel", "commitment_diff_lit",
     "model.unroll_s"),
    ("repro.core.upec", "UpecChecker", "check", "upec.s"),
    ("repro.formal.bmc", "SatContext", "export_obligation", "bmc.export_s"),
    ("repro.formal.bmc", "SatContext", "adopt_verdict", "bmc.adopt_s"),
    ("repro.core.model", "UpecModel", "differing_regs", "bmc.witness_s"),
    ("repro.core.model", "UpecModel", "witness_frames", "bmc.witness_s"),
    ("repro.formal.bmc", "SatContext", "solve", "bmc.ctx_solve_s"),
    # bmc.py imports slice_cnf inside the exporting function, so the
    # module attribute is the one it calls.
    ("repro.engine.slice", None, "slice_cnf", "slice.s"),
    ("repro.engine.obligation", "ProofObligation", "fingerprint",
     "obligation.fingerprint_s"),
    # pool.py imports solve_obligation by name: patch its copy.
    ("repro.engine.pool", None, "solve_obligation", "obligation.load_s"),
    ("repro.engine.cache", "ResultCache", "lookup", "cache.lookup_s"),
    ("repro.engine.cache", "ResultCache", "lookup_simplified",
     "cache.lookup_s"),
    ("repro.engine.cache", "ResultCache", "store", "cache.store_s"),
    ("repro.engine.cache", "ResultCache", "store_simplified",
     "cache.store_s"),
    ("repro.engine.pool", "ProofEngine", "solve_ordered", "pool.batch_s"),
    ("repro.engine.pool", "ProofEngine", "solve", "pool.batch_s"),
    ("repro.formal.preprocess", "Simplifier", "run", "preprocess.s"),
    ("repro.formal.solver", "CdclSolver", "solve", "search.s"),
    ("repro.dist.remote", "RemotePool", "solve_ordered", "remote.batch_s"),
    ("repro.dist.remote", None, "obligation_to_wire", "protocol.encode_s"),
)

#: Every layer time metric, in report order.
LAYER_TIMES: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, _, _, layer in SEAMS if layer != CELL))


@dataclass
class Span:
    name: str          # the wrapped function, e.g. "SatContext.solve"
    layer: str         # the layer metric its self time feeds
    start: float       # perf_counter seconds
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    trace: str         # the cell (variant) being run, or "setup"

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from nested calls on one thread, so children never
    overlap each other and lie inside their parent."""
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per layer (the root ``cell`` layer included)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def uncovered_by_trace(spans: List[Span]) -> Dict[str, float]:
    """Per trace id, root-span time not covered by any child span."""
    uncovered: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.parent < 0:
            uncovered[span.trace] = uncovered.get(span.trace, 0.0) + own
    return uncovered


def layer_metrics(spans: List[Span], counters: Dict[str, float],
                  outcomes, broker: Optional[Dict[str, Any]]
                  ) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``outcomes`` are the pass's cell outcomes (their ``stats`` are the
    program's own counters, summed over the cells); ``broker`` is the
    fleet's status after the pass, if any.  Layer times are self times.
    Solver times (``search.s``, ``preprocess.s``) cover only solving in
    the driving process; ``obligation.solve_s`` adds up the runtime of
    every verdict the engine accounted for, wherever it was solved.
    """
    times = layer_self_times(spans)
    m: Dict[str, float] = {layer: times.get(layer, 0.0)
                           for layer in LAYER_TIMES}
    stats: Dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.stats.items():
            stats[key] = stats.get(key, 0) + value
    sigs = [outcome.sig for outcome in outcomes if outcome.sig is not None]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    solve_s = counters.get("obligation.solve_s", 0.0)
    hits = stats.get("engine_cache_hits", 0)
    misses = stats.get("engine_cache_misses", 0)
    solved = stats.get("engine_obligations_solved", 0)
    workers = [w["solved"] for w in (broker or {}).get("workers", [])]
    m.update({
        "model.aig_nodes": stats.get("aig_nodes", 0),
        "model.cnf_vars": stats.get("cnf_vars", 0),
        "model.cnf_clauses": stats.get("cnf_clauses_emitted", 0),
        "upec.checks": sum(1 for s in spans if s.name == "UpecChecker.check"),
        "upec.frames": counters.get("upec.frames", 0),
        "methodology.iterations": sum(s["iterations"] for s in sigs),
        "methodology.removed_regs": sum(len(s["removed_regs"])
                                        for s in sigs),
        "slice.clause_ratio": ratio(stats.get("slice_clauses_out", 0),
                                    stats.get("slice_clauses_in", 0)),
        "obligation.exported": stats.get("obligations_exported", 0),
        "obligation.solve_s": solve_s,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.warm_starts": stats.get("simplify_warm_starts", 0),
        "pool.parallelism": ratio(solve_s, total("ProofEngine.solve_ordered",
                                                 "ProofEngine.solve")),
        "pool.useful_ratio": ratio(counters.get("pool.consumed", 0), solved),
        "preprocess.vars_eliminated": stats.get("simplify_vars_eliminated",
                                                0),
        "preprocess.clause_ratio": ratio(stats.get("simplify_clauses_out", 0),
                                         stats.get("simplify_clauses_in", 0)),
        "search.conflicts": stats.get("conflicts", 0),
        "search.propagations": stats.get("propagations", 0),
        "search.decisions": stats.get("decisions", 0),
        "search.restarts": stats.get("restarts", 0),
        "search.props_per_s": ratio(
            counters.get("search.inproc_propagations", 0), m["search.s"]),
        "remote.parallelism": ratio(solve_s,
                                    total("RemotePool.solve_ordered")),
        "protocol.wire_bytes": counters.get("protocol.wire_bytes", 0),
        "broker.memo": (broker or {}).get("memo", 0),
        "broker.max_worker_share": ratio(max(workers, default=0),
                                         sum(workers)),
        "trace.spans": len(spans),
    })
    uncovered = uncovered_by_trace(spans)
    for variant in VARIANTS:
        m[f"cell.{variant}.uncovered_s"] = uncovered.get(variant, 0.0)
    return m


class Tracer:
    """Installs the seam wrappers and records spans while ``active``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.trace = "setup"
        #: Counters measured at the seams, where the work happens.
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _recording(self) -> bool:
        return (self.active and os.getpid() == self._pid
                and threading.get_ident() == self._thread)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, owner: Any, attr: str, name: str, layer: str,
              skip: Optional[Callable[..., bool]] = None,
              before: Optional[Callable[..., Any]] = None,
              after: Optional[Callable[..., None]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording() or (skip is not None
                                           and skip(*args, **kwargs)):
                return original(*args, **kwargs)
            token = before(*args, **kwargs) if before is not None else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, layer, time.perf_counter(), 0.0, parent,
                        tracer.trace)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every seam; :meth:`uninstall` restores them."""
        hooks = self._hooks()
        for module_name, class_name, attr, layer in SEAMS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            name = f"{class_name}.{attr}" if class_name else attr
            self._wrap(owner, attr, name, layer, **hooks.get(name, {}))
        # Not a span: every verdict the engine accounts for, including
        # those solved in pool or fleet worker processes and siblings
        # harvested after an early stop.  No public call sees them all.
        from repro.engine.pool import ProofEngine

        original = ProofEngine._account
        tracer = self

        def account(engine, verdict):
            if tracer._recording():
                tracer.count("obligation.solve_s", verdict.runtime_s)
            return original(engine, verdict)

        ProofEngine._account = account
        self._patches.append((ProofEngine, "_account", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hooks(self) -> Dict[str, Dict[str, Callable]]:
        """Per-seam extras: counters and calls not worth a span."""
        from repro.dist.protocol import frame_message
        from repro.engine.obligation import Verdict

        count = self.count

        def no_new_frame(unroller, frame):
            # reg_bits() calls extend_to on every access; only the calls
            # that build a frame are unrolling work.
            return unroller.depth > frame

        def props_before(solver, *args, **kwargs):
            return solver.stats.propagations

        def props_after(before, result, solver, *args, **kwargs):
            count("search.inproc_propagations",
                  solver.stats.propagations - before)

        def frames_after(_, result, *args, **kwargs):
            count("upec.frames", result.checked_frames)

        def wire_after(_, payload, *args, **kwargs):
            count("protocol.wire_bytes", len(frame_message(payload)))

        def consumed_after(_, results, *args, **kwargs):
            # Solved (not cache-hit) verdicts the caller actually used.
            if isinstance(results, Verdict):
                results = [results]
            count("pool.consumed", sum(
                1 for v in results if v is not None and not v.cached))

        return {
            "Unroller.extend_to": {"skip": no_new_frame},
            "CdclSolver.solve": {"before": props_before,
                                 "after": props_after},
            "UpecChecker.check": {"after": frames_after},
            "obligation_to_wire": {"after": wire_after},
            "ProofEngine.solve_ordered": {"after": consumed_after},
            "ProofEngine.solve": {"after": consumed_after},
        }

    # ------------------------------------------------------------------
    def to_json(self, origin: float) -> List[Dict[str, Any]]:
        """Spans with times relative to ``origin`` (seconds)."""
        return [
            {"name": s.name, "layer": s.layer,
             "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, "trace": s.trace}
            for s in self.spans
        ]
