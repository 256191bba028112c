"""Differential fuzzing of cone-of-influence obligation slicing.

Sliced and unsliced exports of the same query must be equisatisfiable,
and a sliced model must expand (via the remap table) to a model of the
*full* recorded formula — exercised on seeded random miter contexts,
and end to end by comparing the sliced engine with the incremental
in-context path.  A second family of tests
pins down the history-independence guarantee: the fingerprint of a
sliced frame obligation must not move when unrelated frames, registers
or commitments grow the shared context, which is what makes the proof
cache hit across window lengths, worker counts and runs.

``REPRO_FUZZ_SCALE`` multiplies the iteration counts (CI can turn the
screws); the ``slow`` marker gates an extra high-volume pass.
"""

import os
import random

import pytest

from repro.core import UpecChecker, UpecMethodology, UpecModel, UpecScenario
from repro.engine import INLINE, ProofEngine, ResultCache, solve_obligation
from repro.formal.bmc import SatContext
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SCENARIO = UpecScenario(secret_in_cache=True)


def _soc(name):
    return build_soc(getattr(SocConfig, name)(**FORMAL_CONFIG_KWARGS))


# ----------------------------------------------------------------------
# Random miter contexts
# ----------------------------------------------------------------------
def random_expr(rng, aig, leaves, depth):
    """A random AIG literal over ``leaves`` (inputs and subexpressions)."""
    if depth <= 0 or rng.random() < 0.25:
        lit = rng.choice(leaves)
        return lit ^ 1 if rng.random() < 0.5 else lit
    op = rng.randrange(5)
    a = random_expr(rng, aig, leaves, depth - 1)
    b = random_expr(rng, aig, leaves, depth - 1)
    if op == 0:
        return aig.and_(a, b)
    if op == 1:
        return aig.or_(a, b)
    if op == 2:
        return aig.xor_(a, b)
    if op == 3:
        return aig.not_(aig.and_(a, b))
    return aig.mux_(random_expr(rng, aig, leaves, depth - 1), a, b)


def random_miter_context(rng, simplify):
    """A context with asserted units (some frame-tagged), *unrelated
    mapped-but-unasserted cones* (the history a slice must drop) and a
    miter-style query target: two random cones over shared inputs,
    assumed to differ."""
    ctx = SatContext(simplify=simplify)
    aig = ctx.aig
    inputs = aig.new_inputs(rng.randint(3, 8))
    for _ in range(rng.randint(0, 3)):
        frame = rng.choice([None, 0, 1, 2, 3])
        ctx.assert_lit(random_expr(rng, aig, inputs, 2), frame=frame)
    for _ in range(rng.randint(0, 3)):
        # Other queries' cones: emitted into the shared CNF but never
        # asserted — exactly what makes unsliced obligations bloat.
        ctx.mapper.assumption(random_expr(rng, aig, inputs, 3))
    left = random_expr(rng, aig, inputs, rng.randint(2, 4))
    right = random_expr(rng, aig, inputs, rng.randint(2, 4))
    target = aig.xor_(left, right)
    if rng.random() < 0.5:
        ctx.mapper.assumption(random_expr(rng, aig, inputs, 3))
    return ctx, target


def assert_model_covers_log(obligation, verdict, ctx, unit_cutoff=None):
    """The completed worker model must satisfy every recorded clause of
    the *full* context formula — except units the frame cutoff
    deliberately dropped — and every assumption of the query."""
    model = ctx.complete_model(obligation, verdict.model_list())
    log = ctx.solver
    dropped = set()
    if unit_cutoff is not None:
        dropped = {ci for ci in log.roots
                   if log.tags[ci] is not None
                   and log.tags[ci] > unit_cutoff}

    def holds(lit):
        var = abs(lit)
        value = model[var] if var < len(model) else False
        return value if lit > 0 else not value

    for ci, clause in enumerate(log.clauses):
        if ci in dropped:
            continue
        assert any(holds(lit) for lit in clause), \
            f"completed model violates recorded clause {clause}"
    for lit in obligation.meta.get("dimacs_assumptions", ()):
        assert holds(lit)


def run_random_miters(seed, count, simplify):
    rng = random.Random(seed)
    proper_slices = 0
    for _ in range(count):
        ctx, target = random_miter_context(rng, simplify)
        if target in (0, 1):
            continue  # structurally constant miter: nothing to solve
        full = ctx.export_obligation("full", assumptions=[target],
                                     slice=False)
        sliced = ctx.export_obligation("sliced", assumptions=[target],
                                       slice=True)
        sliced.meta["dimacs_assumptions"] = list(full.assumptions)
        size_f, size_s = full.size(), sliced.size()
        assert size_s["clauses"] <= size_f["clauses"]
        assert size_s["nvars"] <= size_f["nvars"]
        if sliced.remap is not None:
            proper_slices += 1
        vf = solve_obligation(full)
        vs = solve_obligation(sliced)
        assert vf.status == vs.status, \
            "slicing changed the verdict of a random miter"
        if vs.sat:
            assert_model_covers_log(sliced, vs, ctx)
        # Determinism: re-exporting the same query is bit-identical.
        again = ctx.export_obligation("sliced", assumptions=[target],
                                      slice=True)
        assert again.fingerprint() == sliced.fingerprint()
    # The harness must actually exercise the remap/completion machinery,
    # not just identity slices.
    assert proper_slices > count // 4


@pytest.mark.parametrize("simplify", [False, True])
def test_random_miters_sliced_matches_unsliced(simplify):
    run_random_miters(seed=1701, count=60 * FUZZ_SCALE, simplify=simplify)


def test_random_frame_cutoff_matches_rebuilt_reference():
    """A frame-``t`` slice keeps exactly the units of frames ``<= t``
    (plus untagged ones): its verdict must match an unsliced export from
    a reference context that only ever asserted those units."""
    rng = random.Random(2702)
    for _ in range(40 * FUZZ_SCALE):
        nin = rng.randint(3, 7)
        n_units = rng.randint(1, 4)
        plan = []
        for _ in range(n_units):
            plan.append((rng.choice([None, 0, 1, 2, 3]),
                         rng.randint(0, 10**9)))
        cutoff = rng.randint(0, 3)
        target_seed = rng.randint(0, 10**9)

        def build(frames_kept):
            ctx = SatContext(simplify=True)
            inputs = ctx.aig.new_inputs(nin)
            for frame, seed in plan:
                if frames_kept is not None and frame is not None \
                        and frame > frames_kept:
                    continue
                ctx.assert_lit(
                    random_expr(random.Random(seed), ctx.aig, inputs, 2),
                    frame=frame,
                )
            target = random_expr(random.Random(target_seed), ctx.aig,
                                 inputs, 3)
            return ctx, target

        ctx_all, target = build(None)
        if target in (0, 1):
            continue
        sliced = ctx_all.export_obligation(
            "cut", assumptions=[target], slice=True, frame=cutoff)
        ctx_ref, target_ref = build(cutoff)
        reference = ctx_ref.export_obligation(
            "ref", assumptions=[target_ref], slice=False)
        verdict = solve_obligation(sliced)
        assert verdict.status == solve_obligation(reference).status, \
            "frame cutoff changed the verdict vs. a rebuilt reference"
        if verdict.sat:
            # The completed model is a real execution: it satisfies every
            # recorded clause except the deliberately dropped later-frame
            # units.
            assert_model_covers_log(sliced, verdict, ctx_all,
                                    unit_cutoff=cutoff)


# ----------------------------------------------------------------------
# End-to-end: sliced engine vs. the incremental in-context path
# ----------------------------------------------------------------------
def _alert_sig(alert):
    return None if alert is None else \
        (alert.frame, alert.kind, alert.diff_reg_names())


def _methodology_sig(result):
    return (
        result.verdict,
        result.k,
        result.iterations,
        list(result.removed_regs),
        [_alert_sig(alert) for alert in result.p_alerts],
        _alert_sig(result.l_alert),
    )


def test_closure_slice_differential():
    """Per-register closure obligations: the holds/fails pattern is
    formula-determined, so the sliced engine must reproduce the
    incremental in-context solve."""
    from repro.core import InductiveDiffProof
    from repro.core.closure import CondEq

    soc = _soc("secure")
    invariant = [
        CondEq(soc.resp_buf, cond=None),
        CondEq(soc.secret_cache_data_reg, cond=None),
    ]
    engine = ProofEngine(jobs=1)
    try:
        sliced = InductiveDiffProof(
            soc, SCENARIO, invariant, engine=engine,
        ).check_step(conflict_limit=200_000)
    finally:
        engine.close()
    inline = InductiveDiffProof(
        soc, SCENARIO, invariant, engine=INLINE,
    ).check_step(conflict_limit=200_000)
    assert [(ob.name, ob.holds) for ob in sliced.obligations] == \
        [(ob.name, ob.holds) for ob in inline.obligations]
    assert sliced.holds == inline.holds


def test_bmc_slice_differential():
    from repro.formal import BmcEngine
    from repro.hdl import Circuit

    c = Circuit("counter")
    cnt = c.reg("cnt", 8, init=0)
    c.next(cnt, cnt + 1)
    c.finalize()
    engine = ProofEngine(jobs=1)
    try:
        result = BmcEngine(c, init="reset",
                           engine=engine).check_always(cnt.ne(5), k=8)
    finally:
        engine.close()
    assert not result.holds and result.depth == 5
    assert result.witness.value("cnt", 5) == 5


# ----------------------------------------------------------------------
# Cache stability: history-independent fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_invariant_under_context_growth():
    """The same frame-k commitment query fingerprints identically before
    and after unrelated growth of the shared SatContext (longer windows,
    other frames' obligations, other commitments)."""
    soc = _soc("secure")
    model = UpecModel(soc, SCENARIO)
    regs = model.default_commitment()
    first = model.frame_obligation(regs, 1)
    assert first is not None
    baseline = first.fingerprint()

    # Unrelated growth: deeper frames are unrolled, their window
    # assumptions asserted, their commitment diff cones emitted and
    # frozen, and a different commitment is exported.
    model.frame_obligation(regs, 2)
    model.frame_obligation(regs[: len(regs) // 2], 2)

    again = model.frame_obligation(regs, 1)
    assert again.fingerprint() == baseline
    assert again.nvars == first.nvars
    assert again.clauses == first.clauses


def test_frame_exports_slice_on_every_variant():
    """Every design variant's frame obligations go through the slicer,
    and a slice never holds more clauses than the context it was cut
    from."""
    for name in VARIANTS:
        model = UpecModel(_soc(name), SCENARIO)
        regs = model.default_commitment()
        for frame in (1, 2):
            assert model.frame_obligation(regs, frame) is not None, name
        stats = model.stats()
        assert stats.get("obligations_sliced", 0) == 2, name
        assert stats["slice_clauses_out"] <= stats["slice_clauses_in"], name


def test_fingerprint_identical_across_fresh_contexts():
    """Two independent models of the same design/scenario produce
    bit-identical obligations for the same (commitment, frame) query —
    the property that makes the proof cache hit across runs."""
    soc = _soc("secure")
    sigs = []
    for _ in range(2):
        model = UpecModel(soc, SCENARIO)
        regs = model.default_commitment()
        sigs.append([model.frame_obligation(regs, t).fingerprint()
                     for t in (1, 2)])
    assert sigs[0] == sigs[1]


def test_warm_cache_hits_at_longer_window(tmp_path):
    """A warm cache from a k=2 run serves the shared prefix frames of a
    k=3 run: iteration-1 obligations do not depend on the window
    length."""
    soc = _soc("secure")
    first = UpecMethodology(soc, SCENARIO, jobs=1,
                            cache_dir=str(tmp_path)).run(k=2)
    longer = UpecMethodology(soc, SCENARIO, jobs=1,
                             cache_dir=str(tmp_path)).run(k=3)
    assert first.stats["engine_cache_hits"] == 0
    # The methodology's exports were sliced, and slicing never grew one.
    for result in (first, longer):
        assert result.stats.get("obligations_sliced", 0) > 0
        assert result.stats["slice_clauses_out"] <= \
            result.stats["slice_clauses_in"]
    assert longer.stats["engine_cache_hits"] > 0
    assert longer.stats["engine_cache_hits"] >= \
        first.stats["engine_cache_misses"] - 1  # frame 3 & beyond are new
    assert longer.verdict == first.verdict


def test_warm_cache_shared_between_jobs_settings(tmp_path):
    """jobs=1 (lazy export) and jobs=2 (eager export) produce the same
    obligation stream: a cache warmed by one is fully hit by the other,
    including the refinement iterations after a P-alert."""
    soc = _soc("orc")
    seq = UpecMethodology(soc, SCENARIO, jobs=1,
                          cache_dir=str(tmp_path)).run(k=2)
    engine = ProofEngine(jobs=2, cache_dir=str(tmp_path))
    try:
        par = UpecMethodology(soc, SCENARIO, engine=engine).run(k=2)
    finally:
        engine.close()
    assert par.stats["engine_cache_hits"] > 0
    assert par.stats["engine_cache_misses"] == 0
    assert _methodology_sig(par) == _methodology_sig(seq)
    # Bit-identical obligations mean bit-identical adopted models, so
    # even the witness values agree between the two schedules.
    assert [a.to_dict() for a in par.p_alerts] == \
        [a.to_dict() for a in seq.p_alerts]


def test_checker_stops_unrolling_after_alert_at_jobs1(tmp_path):
    """The lazy jobs=1 path must not unroll or export frames past the
    first alert (the cost the eager pre-slicing path always paid)."""
    soc = _soc("orc")
    model = UpecModel(soc, SCENARIO)
    engine = ProofEngine(jobs=1)
    try:
        result = UpecChecker(model, engine=engine).check(k=6)
    finally:
        engine.close()
    assert result.status == "alert"
    alert_frame = result.alert.frame
    assert alert_frame < 6
    exported = model.stats().get("obligations_exported", 0)
    assert exported <= alert_frame  # frames past the alert never exported


@pytest.mark.slow
def test_slice_fuzz_slow_high_volume():
    """Deep pass for CI's full runs (scaled further by REPRO_FUZZ_SCALE)."""
    run_random_miters(seed=9101, count=300 * FUZZ_SCALE, simplify=True)
    run_random_miters(seed=9102, count=150 * FUZZ_SCALE, simplify=False)
