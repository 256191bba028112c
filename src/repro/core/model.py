"""The UPEC computational model (Fig. 3): a two-instance miter.

Two identical instances of the SoC's logic are unrolled into **one** AIG.
Registers whose initial values are constrained equal *share AIG variables*
between the instances; only the secret-carrying locations (and, in closure
proofs, the allowed-difference set) receive independent variables.
Structural hashing then automatically collapses all logic outside the
secret's cone of influence — this realizes the complexity mitigation of
Sec. V-B at the bit level, and the black-boxing of cache data fields
corresponds to excluding them from the proof's commitment.

Assumptions (Fig. 4):

* ``secret_data_protected()`` at t,
* equality of the microarchitectural state at t (variable sharing),
* ``no_ongoing_protected_access()`` at t (Constraint 1),
* ``cache_monitor_valid_IO()`` during t..t+k (Constraint 2),
* ``secure_system_software()`` during t..t+k (Constraint 3),
* equality of non-protected memory, including the conditional equality of
  the cache's copy of the secret (Constraint 4), via variable sharing and
  the scenario's cache-state assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import UpecError
from repro.formal.aig import Aig
from repro.formal.bmc import SatContext
from repro.formal.unroll import Unroller
from repro.hdl.expr import Expr, Reg
from repro.soc.soc import Soc


@dataclass
class UpecScenario:
    """One verification setting of the experiments (Tab. I columns)."""

    secret_in_cache: bool = True
    #: Exclude the cache data fields from the commitment (Sec. V-B
    #: black-boxing).  The ablation bench turns this off.
    blackbox_cache_data: bool = True
    #: Concrete instruction memory; ``None`` leaves the program symbolic —
    #: the solver searches over all attacker programs.
    fixed_program: Optional[Sequence[int]] = None
    #: Restrict the initial privilege mode to user code (optional
    #: strengthening used in some benches to shrink the search).
    user_mode_at_t0: bool = False
    #: Reachability constraint for *branch-free* fixed programs: no branch
    #: or jump may sit in the decode/execute stages at t.  Without it, the
    #: symbolic initial state contains in-flight instructions that the
    #: fixed program can never produce (spurious counterexamples, Sec. V-A).
    no_inflight_branches: bool = False
    #: Stronger reachability constraint: the pipeline is drained at t (all
    #: stage valid bits clear).  Alert windows then count from instruction
    #: fetch, mirroring the paper's Tab. II measurements.
    pipeline_drained: bool = False
    #: Pin the program counter at t (useful with ``pipeline_drained`` and a
    #: fixed program: execution is then deterministic, and the unrolled
    #: model constant-folds massively).
    pin_pc: Optional[int] = None

    def describe(self) -> str:
        parts = [
            "D in cache" if self.secret_in_cache else "D not in cache",
            "symbolic program" if self.fixed_program is None else "fixed program",
        ]
        if self.blackbox_cache_data:
            parts.append("cache data black-boxed")
        return ", ".join(parts)


class UpecModel:
    """Two unrolled SoC instances over a shared SAT context."""

    def __init__(
        self,
        soc: Soc,
        scenario: UpecScenario,
        extra_diff_regs: Iterable[Reg] = (),
        cond_eq: Optional[Dict[Reg, Optional[Expr]]] = None,
        simplify: bool = True,
    ) -> None:
        self.soc = soc
        self.scenario = scenario
        self.context = SatContext(simplify=simplify)
        self.cond_eq = dict(cond_eq or {})

        diff_seed = {soc.secret_mem_reg}
        if scenario.secret_in_cache:
            diff_seed.add(soc.secret_cache_data_reg)
        diff_seed.update(extra_diff_regs)
        diff_seed.update(self.cond_eq)
        for reg in diff_seed:
            if reg.name not in soc.circuit.regs:
                raise UpecError(f"diff reg {reg.name!r} not in the SoC")
        self.diff_seed = diff_seed

        aig = self.context.aig
        # Scenario constraints with concrete values are applied as constant
        # initial bits rather than CNF assumptions: the unrolled model then
        # constant-folds structurally (deterministic fetch and decode for
        # fixed programs), which shrinks every SAT query.
        const_init = self._constant_initial_bits(aig)
        self.u1 = Unroller(soc.circuit, aig, init="symbolic",
                           init_bits=const_init)
        shared_bits = {
            reg: self.u1.reg_bits(reg, 0)
            for reg in soc.circuit.regs.values()
            if reg not in diff_seed
        }
        self.u2 = Unroller(soc.circuit, aig, init="symbolic",
                           init_bits=shared_bits)
        self._frames_assumed = -1
        self._apply_initial_assumptions()

    # ------------------------------------------------------------------
    # Assumptions
    # ------------------------------------------------------------------
    def _constant_initial_bits(self, aig) -> Dict[Reg, list]:
        """Frame-0 constants implied by the scenario (shared by both
        instances; none of these registers may be in the diff seed)."""
        from repro.formal.bitblast import const_bits

        soc = self.soc
        scenario = self.scenario
        const_init: Dict[Reg, list] = {}
        if scenario.fixed_program is not None:
            words = list(scenario.fixed_program)
            if len(words) > soc.config.imem_words:
                raise UpecError("fixed program exceeds instruction memory")
            words += [0] * (soc.config.imem_words - len(words))
            for reg, word in zip(soc.imem.words, words):
                const_init[reg] = const_bits(aig, word, reg.width)
        if scenario.pipeline_drained:
            for reg in (soc.ifid_valid, soc.idex["valid"],
                        soc.exmem["valid"], soc.memwb["valid"]):
                const_init[reg] = const_bits(aig, 0, reg.width)
        if scenario.pin_pc is not None:
            const_init[soc.pc] = const_bits(aig, scenario.pin_pc,
                                            soc.pc.width)
        overlap = set(const_init) & self.diff_seed
        if overlap:
            raise UpecError(
                "scenario constants overlap the difference seed: "
                + ", ".join(r.name for r in overlap)
            )
        return const_init

    def _assert_both(self, expr: Expr, frame: int) -> None:
        """Assert a 1-bit circuit expression in both instances.

        The units are frame-tagged so that a sliced frame-``t``
        obligation carries only the assumptions of frames ``0..t``."""
        self.context.assert_lit(self.u1.expr_lit(expr, frame), frame=frame)
        self.context.assert_lit(self.u2.expr_lit(expr, frame), frame=frame)

    def _apply_initial_assumptions(self) -> None:
        soc = self.soc
        self._assert_both(soc.secret_data_protected(), 0)
        self._assert_both(soc.no_ongoing_protected_access(), 0)
        cached = soc.secret_cached_expr()
        if self.scenario.secret_in_cache:
            self._assert_both(cached, 0)
        else:
            self._assert_both(~cached, 0)
        if self.scenario.user_mode_at_t0:
            from repro.soc.isa import MODE_USER

            self._assert_both(soc.mode.eq(MODE_USER), 0)
        if self.scenario.no_inflight_branches:
            from repro.soc.isa import OP_BEQ, OP_BNE, OP_JAL

            for op_expr in (soc.idex["op"], soc.ifid_instr[12:16]):
                for opcode in (OP_BEQ, OP_BNE, OP_JAL):
                    self._assert_both(op_expr.ne(opcode), 0)
        # fixed_program / pipeline_drained / pin_pc are applied as constant
        # initial bits in _constant_initial_bits (structural folding).
        # Conditional-equality seeds (inductive closure proofs): a register
        # pair may differ at t only under its blocking condition.
        for reg, cond in self.cond_eq.items():
            if cond is None:
                continue
            eq = self.pair_equal_lit(reg, 0)
            cond1 = self.u1.expr_lit(cond, 0)
            cond2 = self.u2.expr_lit(cond, 0)
            aig = self.context.aig
            self.context.assert_lit(aig.or_(eq, aig.and_(cond1, cond2)),
                                    frame=0)

    def assume_window(self, up_to_frame: int) -> None:
        """Apply the 'during t..t+k' assumptions (Constraints 2 and 3)."""
        soc = self.soc
        monitor = soc.cache_monitor_ok()
        syssw = soc.secure_system_software()
        for t in range(self._frames_assumed + 1, up_to_frame + 1):
            self._assert_both(monitor, t)
            self._assert_both(syssw, t)
        self._frames_assumed = max(self._frames_assumed, up_to_frame)

    # ------------------------------------------------------------------
    # Miter queries
    # ------------------------------------------------------------------
    def pair_diff_lit(self, reg: Reg, frame: int) -> int:
        """AIG literal: the register pair differs at ``frame``."""
        aig = self.context.aig
        bits1 = self.u1.reg_bits(reg, frame)
        bits2 = self.u2.reg_bits(reg, frame)
        diff = aig.or_all(aig.xor_(a, b) for a, b in zip(bits1, bits2))
        if diff not in (0, 1):
            # The register pair is witness state: keep its bits out of
            # variable elimination so alert diffs reflect search values.
            mapper = self.context.mapper
            for bit in bits1 + bits2:
                if bit not in (0, 1):
                    mapper.freeze_lit(bit)
        return diff

    def pair_equal_lit(self, reg: Reg, frame: int) -> int:
        return self.pair_diff_lit(reg, frame) ^ 1

    def commitment_diff_lit(self, regs: Sequence[Reg], frame: int) -> int:
        """soc_state_1 != soc_state_2 restricted to a commitment set."""
        aig = self.context.aig
        return aig.or_all(self.pair_diff_lit(reg, frame) for reg in regs)

    def frame_obligation(
        self,
        regs: Sequence[Reg],
        frame: int,
        conflict_limit: Optional[int] = None,
        wall_budget: Optional[float] = None,
    ):
        """Export the frame's commitment check as a self-contained
        :class:`repro.engine.obligation.ProofObligation`.

        Returns None when structural hashing already folded every pair to
        equality (the frame is proved without a SAT call).

        The obligation is the frame's cone of influence only —
        frame-tagged window assumptions of later frames, other
        commitments and any other unrelated growth of the shared context
        are excluded, so the same ``(commitment, frame)`` query always
        fingerprints identically (cross-window and cross-run cache
        hits).
        """
        self.assume_window(frame)
        target = self.commitment_diff_lit(regs, frame)
        if target == 0:
            return None
        return self.context.export_obligation(
            name=f"upec[{self.soc.config.name}]@t{frame}",
            assumptions=[target],
            conflict_limit=conflict_limit,
            wall_budget=wall_budget,
            meta={
                "kind": "upec-frame",
                "design": self.soc.config.name,
                "scenario": self.scenario.describe(),
                "frame": frame,
                "commitment": [reg.name for reg in regs],
            },
            frame=frame,
        )

    def frame_split_obligations(
        self,
        regs: Sequence[Reg],
        frame: int,
        conflict_limit: Optional[int] = None,
        wall_budget: Optional[float] = None,
    ):
        """Export the frame's commitment check as independent
        per-register(-group) obligations (see :mod:`repro.engine.split`).

        Returns a :class:`~repro.engine.split.FrameSplit` — the frame is
        UNSAT iff every obligation in it is UNSAT — or None when
        structural hashing already folded every pair to equality.

        The canonical *unsplit* obligation is exported first, which (a)
        emits the full commitment-OR cone into the shared CNF exactly as
        an unsplit run would, so the ``split=`` setting never perturbs
        any other obligation's canonical slice or cache fingerprint, and
        (b) rides along on the result so an alerting frame's model and
        witness come from the very obligation an unsplit run solves.
        The split obligations themselves add no gates: each register
        group's already-mapped diff literals become one appended
        disjunctive root clause.  Registers whose definition cones
        overlap near-identically share a group.
        """
        from repro.engine.split import FrameSplit, cone_vars, group_cones

        full = self.frame_obligation(regs, frame, conflict_limit,
                                     wall_budget=wall_budget)
        if full is None:
            return None
        context = self.context
        target = self.commitment_diff_lit(regs, frame)
        #: (diff literal, register names) in commitment order; distinct
        #: registers that hash to the same diff literal share an entry so
        #: no disjunct is duplicated.
        members: List[Tuple[int, List[str]]] = []
        by_lit: Dict[int, int] = {}
        if target != 1:
            for reg in regs:
                lit = self.pair_diff_lit(reg, frame)
                if lit == 0:
                    continue
                if lit in by_lit:
                    members[by_lit[lit]][1].append(reg.name)
                else:
                    by_lit[lit] = len(members)
                    members.append((lit, [reg.name]))
        if target == 1 or len(members) < 2:
            # Constant-true target, or a single distinct diff literal:
            # splitting buys nothing — solve the unsplit obligation.
            return FrameSplit(
                obligations=[full],
                groups=[[reg.name for reg in regs]],
                full_obligation=full,
                full=True,
            )
        log = context.solver
        cones = [
            cone_vars(abs(context.mapper.assumption(lit)),
                      log.definitions, log.clauses)
            for lit, _ in members
        ]
        groups = group_cones(cones)
        obligations = []
        group_names: List[List[str]] = []
        for index, group in enumerate(groups):
            names = [name for i in group for name in members[i][1]]
            obligations.append(context.export_obligation(
                name=f"upec[{self.soc.config.name}]@t{frame}#g{index}",
                assumptions=[members[i][0] for i in group],
                disjunction=True,
                conflict_limit=conflict_limit,
                wall_budget=wall_budget,
                meta={
                    "kind": "upec-frame-split",
                    "design": self.soc.config.name,
                    "scenario": self.scenario.describe(),
                    "frame": frame,
                    "commitment": [reg.name for reg in regs],
                    "group": names,
                    "group_index": index,
                    "groups": len(groups),
                },
                frame=frame,
            ))
            group_names.append(names)
        context.bump_stat("split_frames")
        context.bump_stat("split_registers", len(members))
        context.bump_stat("split_obligations", len(obligations))
        context.bump_stat("split_groups_fused",
                          len(members) - len(obligations))
        return FrameSplit(obligations=obligations, groups=group_names,
                          full_obligation=full)

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------
    def pair_values(self, reg: Reg, frame: int) -> Tuple[int, int]:
        """Model values of a register pair (after a SAT result)."""
        v1 = self.context.word_value(self.u1.reg_bits(reg, frame))
        v2 = self.context.word_value(self.u2.reg_bits(reg, frame))
        return v1, v2

    def differing_regs(
        self, frame: int, regs: Optional[Sequence[Reg]] = None
    ) -> List[Tuple[Reg, int, int]]:
        """Registers whose two instances differ in the current model."""
        result = []
        for reg in regs if regs is not None else self.soc.circuit.regs.values():
            v1, v2 = self.pair_values(reg, frame)
            if v1 != v2:
                result.append((reg, v1, v2))
        return result

    def witness_frames(self, up_to: int) -> List[Dict[str, Tuple[int, int]]]:
        """Both instances' register values for frames 0..up_to."""
        frames = []
        for t in range(up_to + 1):
            frames.append({
                reg.name: self.pair_values(reg, t)
                for reg in self.soc.circuit.regs.values()
            })
        return frames

    # ------------------------------------------------------------------
    def default_commitment(self) -> List[Reg]:
        """The initial proof obligation: all microarchitectural state
        variables (memory excluded; cache data excluded when black-boxed)."""
        commitment = list(self.soc.micro_regs())
        if self.scenario.blackbox_cache_data:
            cache_data = set(self.soc.cache_data_regs())
            commitment = [r for r in commitment if r not in cache_data]
        return commitment

    def stats(self) -> Dict[str, int]:
        return self.context.stats()
