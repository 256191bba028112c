"""The UPEC interval property checker (Fig. 4, Eq. 1 on a bounded model).

For a window of length ``k`` the checker proves, cycle by cycle::

    assume at t:        secret_data_protected, micro-state equality
                        (variable sharing), no_ongoing_protected_access
    assume t..t+k:      cache_monitor_valid_IO, secure_system_software
    prove  at t+j:      soc_state_1 = soc_state_2      (j = 1..k)

A SAT result is a counterexample, classified as a P- or L-alert.  The
commitment set (which registers make up *soc_state*) is a parameter: the
methodology of Fig. 5 shrinks it as P-alerts are inspected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import UpecError
from repro.core.alerts import Alert, classify
from repro.core.model import UpecModel
from repro.hdl.expr import Reg

PROVED = "proved"
ALERT = "alert"
INCONCLUSIVE = "inconclusive"


@dataclass
class UpecCheckResult:
    """Outcome of one bounded UPEC property check."""

    status: str                     # proved | alert | inconclusive
    k: int
    alert: Optional[Alert] = None
    runtime_s: float = 0.0
    checked_frames: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    #: Why an INCONCLUSIVE check stopped: "conflict limit", "wall budget
    #: exhausted (timeout)" or "obligation poisoned (...)" — callers can
    #: tell a budget expiry (raise the budget, retry) from a poisoned
    #: obligation (inspect the failure reports) without re-solving.
    reason: str = ""

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def describe(self) -> str:
        if self.status == PROVED:
            return f"proved up to k={self.k} ({self.runtime_s:.2f}s)"
        if self.status == INCONCLUSIVE:
            return (f"inconclusive at k={self.k} "
                    f"({self.reason or 'conflict limit'})")
        return f"{self.alert.describe()} ({self.runtime_s:.2f}s)"

    def to_dict(self) -> Dict:
        return {
            "status": self.status,
            "k": self.k,
            "alert": self.alert.to_dict() if self.alert is not None else None,
            "runtime_s": self.runtime_s,
            "checked_frames": self.checked_frames,
            "stats": dict(self.stats),
            "reason": self.reason,
        }


def _inconclusive_reason(verdict) -> str:
    """Human-readable cause of a non-definite engine verdict."""
    from repro.engine.obligation import POISONED, TIMEOUT

    if verdict.status == TIMEOUT:
        return "wall budget exhausted (timeout)"
    if verdict.status == POISONED:
        return "obligation poisoned (repeated worker failures)"
    return "conflict limit"


class UpecChecker:
    """Checks the UPEC property over one miter model.

    Without an ``engine`` the frames are solved incrementally on the
    model's in-process solver.  With an ``engine``
    (:class:`repro.engine.ProofEngine`) each frame becomes a
    self-contained, cone-of-influence sliced proof obligation: at
    ``jobs == 1`` frames are exported and solved one at a time, so
    nothing past an alert is unrolled; with more workers the whole
    window is in flight at once and siblings are cancelled as soon as
    an earlier frame alerts.  Verdicts may come from the engine's
    persistent cache.  Both modes report the lowest alerting frame, so
    verdicts are identical; an unset engine falls back to the
    environment default (``REPRO_ENGINE_JOBS`` / ``REPRO_ENGINE_CACHE``).

    With ``split=True`` (or ``REPRO_ENGINE_SPLIT=1``) each frame's
    commitment check is further split into independent per-register(-
    group) obligations so the deepest frame alone can saturate a worker
    pool or the distributed fleet (see :mod:`repro.engine.split`).  The
    frame is UNSAT iff every group is; any SAT group reports the alert
    through the frame's canonical *unsplit* obligation, so status, k,
    alert register set and witness trace are bit-identical to an unsplit
    run at any ``jobs`` setting (splitting requires an engine: the
    engine-less incremental path ignores the knob, which is sound — it
    solves the same unsplit query).
    """

    def __init__(self, model: UpecModel, engine=None,
                 split: Optional[bool] = None) -> None:
        self.model = model
        self.split = split
        from repro.engine.pool import resolve_engine

        self.engine = resolve_engine(engine)

    def _split_enabled(self) -> bool:
        from repro.engine.split import env_split

        return env_split() if self.split is None else bool(self.split)

    def _frame_split(self, regs: Sequence[Reg], t: int,
                     conflict_limit: Optional[int], split: bool,
                     wall_budget: Optional[float] = None):
        """One frame's check as a FrameSplit (or None when structurally
        proved) — a single-obligation degenerate split in unsplit mode,
        so the engine loop walks one uniform shape."""
        from repro.engine.split import FrameSplit

        model = self.model
        if split:
            return model.frame_split_obligations(
                regs, t, conflict_limit, wall_budget=wall_budget,
            )
        obligation = model.frame_obligation(regs, t, conflict_limit,
                                            wall_budget=wall_budget)
        if obligation is None:
            return None
        return FrameSplit(
            obligations=[obligation],
            groups=[[reg.name for reg in regs]],
            full_obligation=obligation,
            full=True,
        )

    def check(
        self,
        k: int,
        commitment: Optional[Sequence[Reg]] = None,
        start_frame: int = 1,
        conflict_limit: Optional[int] = None,
        witness_signals: bool = True,
        wall_budget: Optional[float] = None,
    ) -> UpecCheckResult:
        """Check frames ``start_frame``..``k`` against the commitment.

        ``wall_budget`` bounds each frame's solve in wall-clock seconds
        (per obligation, the same unit the distributed broker enforces);
        an exhausted budget yields a distinguishable INCONCLUSIVE result
        (``reason`` says "timeout") instead of an open-ended solve.
        """
        if k < start_frame:
            raise UpecError("window must include at least one frame")
        model = self.model
        regs = list(commitment) if commitment is not None \
            else model.default_commitment()
        start = time.perf_counter()
        if self.engine is not None:
            return self._check_engine(
                k, regs, start_frame, conflict_limit, witness_signals,
                start, wall_budget,
            )
        checked = 0
        for t in range(start_frame, k + 1):
            model.assume_window(t)
            target = model.commitment_diff_lit(regs, t)
            if target == 0:
                # Structural hashing folded every pair to equality: the
                # commitment cannot differ at this frame (no SAT needed).
                checked += 1
                continue
            deadline = None
            if wall_budget is not None and wall_budget > 0:
                deadline = time.monotonic() + wall_budget
            outcome = model.context.solve(
                assumptions=[target], conflict_limit=conflict_limit,
                deadline=deadline,
            )
            checked += 1
            if outcome is None:
                timed_out = getattr(model.context.solver, "stop_reason",
                                    None) == "deadline"
                return UpecCheckResult(
                    status=INCONCLUSIVE, k=t,
                    runtime_s=time.perf_counter() - start,
                    checked_frames=checked, stats=model.stats(),
                    reason="wall budget exhausted (timeout)" if timed_out
                    else "conflict limit",
                )
            if outcome:
                diffs = model.differing_regs(t, regs)
                witness = model.witness_frames(t) if witness_signals else []
                alert = classify(t, diffs, witness)
                return UpecCheckResult(
                    status=ALERT, k=t, alert=alert,
                    runtime_s=time.perf_counter() - start,
                    checked_frames=checked, stats=model.stats(),
                )
        return UpecCheckResult(
            status=PROVED, k=k, runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=model.stats(),
        )

    def _engine_stats(self, since: Dict[str, int]) -> Dict[str, int]:
        stats = dict(self.model.stats())
        stats.update(self.engine.stats(since=since))
        return stats

    def _check_engine(
        self,
        k: int,
        regs: Sequence[Reg],
        start_frame: int,
        conflict_limit: Optional[int],
        witness_signals: bool,
        start: float,
        wall_budget: Optional[float] = None,
    ) -> UpecCheckResult:
        """Obligation-based frame checks via the scheduler/cache engine.

        Frames are exported and solved in batches whose width follows
        the engine's ``jobs``: one frame at a time at ``jobs == 1``, so
        an alert at frame ``t`` means frames ``t+1..k`` are never
        unrolled or exported; the whole window at ``jobs > 1``, so all
        siblings can be in flight at once.  A sliced obligation is
        canonical — it depends only on the commitment and the frame, not
        on how far the shared CNF mapper happened to grow — so both
        schedules produce bit-identical obligation streams, hence
        bit-identical verdicts, cache keys and counterexample models.

        With splitting, each frame contributes its register-group
        obligations to the flattened batch (frame-major, group-minor);
        the ordered scheduler's early-stop then cancels both later
        frames *and* a SAT group's in-frame siblings network-wide, and
        first-non-UNSAT selection stays canonical at any jobs setting.
        """
        since = self.engine.stats()
        split = self._split_enabled()
        width = 1 if self.engine.jobs == 1 else k - start_frame + 1
        checked = 0
        for first in range(start_frame, k + 1, width):
            frames = range(first, min(first + width, k + 1))
            batches = [
                self._frame_split(regs, t, conflict_limit, split,
                                  wall_budget=wall_budget)
                for t in frames
            ]
            pending = [ob for fs in batches if fs is not None
                       for ob in fs.obligations]
            verdicts = iter(self.engine.solve_ordered(
                pending, early_stop=lambda v: not v.unsat
            ))
            for t, fs in zip(frames, batches):
                checked += 1
                if fs is None:
                    # Structural hashing folded every pair to equality:
                    # the commitment cannot differ at this frame (no SAT
                    # needed).
                    continue
                for obligation in fs.obligations:
                    verdict = next(verdicts)
                    if verdict is None or verdict.unsat:
                        continue
                    if not verdict.sat:
                        return UpecCheckResult(
                            status=INCONCLUSIVE, k=t,
                            runtime_s=time.perf_counter() - start,
                            checked_frames=checked,
                            stats=self._engine_stats(since),
                            reason=_inconclusive_reason(verdict),
                        )
                    if fs.full:
                        return self._alert_result(
                            obligation, verdict, t, regs, witness_signals,
                            checked, start, since,
                        )
                    return self._alert_via_full(
                        fs, t, regs, witness_signals, checked, start,
                        since,
                    )
        return UpecCheckResult(
            status=PROVED, k=k, runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=self._engine_stats(since),
        )

    def _alert_via_full(
        self,
        fs,
        t: int,
        regs: Sequence[Reg],
        witness_signals: bool,
        checked: int,
        start: float,
        since: Dict[str, int],
    ) -> UpecCheckResult:
        """A split register group is SAT at frame ``t``: re-solve the
        frame's canonical *unsplit* obligation (pre-exported alongside
        the groups, so its bytes match an unsplit run's) and report the
        alert from its model — the alert register set and witness trace
        are then bit-identical to unsplit mode, regardless of which
        group fired or what partial model its solver found."""
        verdict = self.engine.solve(fs.full_obligation)
        if verdict.unsat:
            raise UpecError(
                f"split consistency violation at frame {t}: a register "
                "group is SAT but the frame's full obligation is UNSAT"
            )
        if not verdict.sat:
            return UpecCheckResult(
                status=INCONCLUSIVE, k=t,
                runtime_s=time.perf_counter() - start,
                checked_frames=checked, stats=self._engine_stats(since),
                reason=_inconclusive_reason(verdict),
            )
        return self._alert_result(
            fs.full_obligation, verdict, t, regs, witness_signals,
            checked, start, since,
        )

    def _alert_result(
        self,
        obligation,
        verdict,
        t: int,
        regs: Sequence[Reg],
        witness_signals: bool,
        checked: int,
        start: float,
        since: Dict[str, int],
    ) -> UpecCheckResult:
        model = self.model
        model.context.adopt_verdict(obligation, verdict)
        diffs = model.differing_regs(t, regs)
        witness = model.witness_frames(t) if witness_signals else []
        alert = classify(t, diffs, witness)
        return UpecCheckResult(
            status=ALERT, k=t, alert=alert,
            runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=self._engine_stats(since),
        )

    def find_first_alert_window(
        self,
        max_k: int,
        commitment: Optional[Sequence[Reg]] = None,
        conflict_limit: Optional[int] = None,
    ) -> UpecCheckResult:
        """Increase the window until the first counterexample appears —
        the 'window length for alert' measurements of Tab. II."""
        return self.check(
            max_k, commitment=commitment, conflict_limit=conflict_limit
        )

    def feasible_k(
        self,
        time_budget_s: float,
        max_k: int = 64,
        commitment: Optional[Sequence[Reg]] = None,
    ) -> UpecCheckResult:
        """Extend the window frame by frame until the time budget runs out
        or an alert appears — the 'feasible k' measurement of Tab. I.

        Returns the result of the deepest completed check (its ``k`` is
        the feasible window length).
        """
        start = time.perf_counter()
        last: Optional[UpecCheckResult] = None
        frame = 1
        while frame <= max_k:
            result = self.check(frame, commitment=commitment,
                                start_frame=frame)
            if result.status != PROVED:
                return result
            elapsed = time.perf_counter() - start
            last = UpecCheckResult(
                status=PROVED, k=frame, runtime_s=elapsed,
                checked_frames=frame, stats=self.model.stats(),
            )
            if elapsed > time_budget_s:
                break
            frame += 1
        if last is None:
            raise UpecError("time budget too small for a single frame")
        return last
