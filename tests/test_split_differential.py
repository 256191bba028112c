"""Split-vs-unsplit differentials: intra-frame obligation splitting
(``split=`` / ``--split`` / ``REPRO_ENGINE_SPLIT``) must be a pure
scheduling change — status, k, alert register set, witness trace and
cache keys bit-identical to unsplit runs on every design variant, at
jobs=1 and jobs=4.  (The distributed leg, including a mid-run worker
kill, lives in ``test_dist.py``.)
"""

import pytest

from repro.core import (
    UpecChecker,
    UpecMethodology,
    UpecModel,
    UpecScenario,
)
from repro.engine import ProofEngine
from repro.engine.split import FrameSplit, cone_vars, group_cones
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SCENARIO = UpecScenario(secret_in_cache=True)
SOCS = {
    variant: build_soc(getattr(SocConfig, variant)(**FORMAL_CONFIG_KWARGS))
    for variant in VARIANTS
}


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------
def _check_signature(result):
    """Everything a checker result reports except timing and counters."""
    alert = None
    if result.alert is not None:
        alert = result.alert.to_dict()
    return (result.status, result.k, result.checked_frames, alert)


def _methodology_signature(result):
    return (
        result.verdict,
        result.k,
        result.iterations,
        list(result.removed_regs),
        [alert.to_dict() for alert in result.p_alerts],
        result.l_alert.to_dict() if result.l_alert is not None else None,
    )


def _run_check(variant, split, engine, k=2):
    model = UpecModel(SOCS[variant], SCENARIO)
    return UpecChecker(model, engine=engine, split=split).check(k=k)


def _run_methodology(variant, split, engine, k=2):
    return UpecMethodology(SOCS[variant], SCENARIO, engine=engine,
                           split=split).run(k=k)


# ----------------------------------------------------------------------
# Unit: grouping and cone helpers
# ----------------------------------------------------------------------
def test_group_cones_is_deterministic_and_order_preserving():
    cones = [
        set(range(20)),                     # rep of group 0
        set(range(19)) | {99},              # 19/21 = 0.905: joins group 0
        {100, 101, 102},                    # disjoint: its own group
        set(range(20)),                     # identical to rep 0
        {100, 101, 103},                    # 2/4 = 0.5: own group
    ]
    groups = group_cones(cones, overlap=0.9)
    assert groups == [[0, 1, 3], [2], [4]]
    # Identical input, identical output — no hashing/order dependence.
    assert group_cones(cones, overlap=0.9) == groups


def test_group_cones_joins_everything_at_zero_threshold():
    assert group_cones([{1}, {2}, {3}], overlap=0.0) == [[0, 1, 2]]


def test_cone_vars_walks_definitions_transitively():
    # v5 := v3 & v4, v3 := v1 & v2 (Tseitin triples); v4 is an input.
    clauses = [
        [-3, 1], [-3, 2], [3, -1, -2],
        [-5, 3], [-5, 4], [5, -3, -4],
    ]
    definitions = {3: [0, 1, 2], 5: [3, 4, 5]}
    assert cone_vars(5, definitions, clauses) == {1, 2, 3, 4, 5}
    assert cone_vars(3, definitions, clauses) == {1, 2, 3}
    assert cone_vars(4, definitions, clauses) == {4}


def test_frame_split_obligations_shape():
    model = UpecModel(SOCS["orc"], SCENARIO)
    regs = model.default_commitment()
    fs = model.frame_split_obligations(regs, 1)
    assert isinstance(fs, FrameSplit)
    assert not fs.full
    assert len(fs.obligations) >= 2
    assert len(fs.obligations) == len(fs.groups)
    # Every commitment register lands in exactly one group.
    names = [name for group in fs.groups for name in group]
    assert sorted(names) == sorted(set(names))
    assert set(names) <= {reg.name for reg in regs}
    # The canonical unsplit export rides along and matches a fresh
    # unsplit run's bytes (same fingerprint => same cache key).
    other = UpecModel(SOCS["orc"], SCENARIO)
    unsplit = other.frame_obligation(other.default_commitment(), 1)
    assert fs.full_obligation.fingerprint() == unsplit.fingerprint()
    # Group obligations carry no assumptions (the disjunction is an
    # appended root clause) and distinct metadata.
    for index, ob in enumerate(fs.obligations):
        assert ob.assumptions == []
        assert ob.meta["kind"] == "upec-frame-split"
        assert ob.meta["group_index"] == index
    counters = model.stats()
    assert counters["split_frames"] == 1
    assert counters["split_obligations"] == len(fs.obligations)
    assert counters["split_registers"] >= len(fs.obligations)


def test_split_export_does_not_perturb_unsplit_obligations():
    """Interleaving split exports must not change any later frame's
    unsplit obligation bytes (cache keys unaffected for unsplit mode)."""
    plain = UpecModel(SOCS["orc"], SCENARIO)
    regs_plain = plain.default_commitment()
    expected = [plain.frame_obligation(regs_plain, t).fingerprint()
                for t in (1, 2)]
    mixed = UpecModel(SOCS["orc"], SCENARIO)
    regs_mixed = mixed.default_commitment()
    seen = []
    for t in (1, 2):
        fs = mixed.frame_split_obligations(regs_mixed, t)
        seen.append(fs.full_obligation.fingerprint())
    assert seen == expected


# ----------------------------------------------------------------------
# Checker-level differentials
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS)
def test_checker_split_matches_unsplit(variant):
    baseline_engine = ProofEngine(jobs=1)
    parallel_engine = ProofEngine(jobs=4)
    try:
        baseline = _check_signature(
            _run_check(variant, split=False, engine=baseline_engine))
        for engine in (baseline_engine, parallel_engine):
            assert _check_signature(
                _run_check(variant, split=True, engine=engine)
            ) == baseline, (variant, engine.jobs)
    finally:
        baseline_engine.close()
        parallel_engine.close()


# ----------------------------------------------------------------------
# Methodology-level differentials (signature includes witness traces)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS)
def test_methodology_split_matches_unsplit(variant):
    baseline_engine = ProofEngine(jobs=1)
    parallel_engine = ProofEngine(jobs=4)
    try:
        baseline = _methodology_signature(
            _run_methodology(variant, split=False, engine=baseline_engine))
        for engine in (baseline_engine, parallel_engine):
            assert _methodology_signature(
                _run_methodology(variant, split=True, engine=engine)
            ) == baseline, (variant, engine.jobs)
    finally:
        baseline_engine.close()
        parallel_engine.close()


# ----------------------------------------------------------------------
# Cache interplay
# ----------------------------------------------------------------------
def test_split_run_seeds_cache_for_unsplit_run(tmp_path):
    """The pre-exported full-frame obligations share cache keys with
    unsplit runs, so a split run warms the cache across modes, and a
    second split run resolves entirely from cache."""
    cache = str(tmp_path / "cache")
    split_engine = ProofEngine(jobs=1, cache_dir=cache)
    try:
        split_sig = _check_signature(
            _run_check("orc", split=True, engine=split_engine))
        since = split_engine.stats()
        second = _check_signature(
            _run_check("orc", split=True, engine=split_engine))
        delta = split_engine.stats(since=since)
        assert second == split_sig
        assert delta.get("engine_cache_misses", 0) == 0
    finally:
        split_engine.close()
    unsplit_engine = ProofEngine(jobs=1, cache_dir=cache)
    try:
        since = unsplit_engine.stats()
        unsplit_sig = _check_signature(
            _run_check("orc", split=False, engine=unsplit_engine))
        delta = unsplit_engine.stats(since=since)
        assert unsplit_sig == split_sig
        # The alerting frame's unsplit obligation was already solved
        # (and stored) by the split run's alert re-solve.
        assert delta.get("engine_cache_hits", 0) >= 1
    finally:
        unsplit_engine.close()


# ----------------------------------------------------------------------
# Knob plumbing
# ----------------------------------------------------------------------
def test_env_split_knob(monkeypatch):
    from repro.engine.split import env_split

    monkeypatch.delenv("REPRO_ENGINE_SPLIT", raising=False)
    assert env_split() is False
    for value in ("1", "true", "YES", "on"):
        monkeypatch.setenv("REPRO_ENGINE_SPLIT", value)
        assert env_split() is True
    monkeypatch.setenv("REPRO_ENGINE_SPLIT", "0")
    assert env_split() is False


def test_env_split_engages_obligation_path(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_SPLIT", "1")
    model = UpecModel(SOCS["orc"], SCENARIO)
    result = UpecChecker(model).check(k=1)
    assert result.stats.get("split_frames", 0) >= 1


def test_cli_split_flag():
    from repro.cli import main

    assert main(["check", "orc", "--k", "1", "--split", "--json"]) == 1


def test_closure_and_induction_accept_split_knob():
    from repro.core.closure import InductiveDiffProof
    from repro.formal.bmc import BmcEngine
    from repro.formal.induction import prove_by_induction
    from repro.hdl.circuit import Circuit

    proof = InductiveDiffProof(SOCS["secure"], SCENARIO, invariant=[],
                               split=True)
    assert proof.split is True
    circuit = Circuit("split_knob")
    flag = circuit.reg("flag", 1, init=1)
    circuit.next(flag, flag)
    circuit.finalize()
    engine = ProofEngine(jobs=1)
    try:
        result = prove_by_induction(circuit, flag.eq(1), k=1,
                                    engine=engine, split=True)
    finally:
        engine.close()
    assert result.proved
    assert BmcEngine(circuit, split=True).split is True


def test_sweep_threads_split_through_payload():
    from repro.engine.sweep import ScenarioSweep

    sweep = ScenarioSweep.table1_grid(
        variants=["orc"], k=1, uncached=False, split=True,
    )
    payload = sweep._payload(sweep.cells[0])
    assert payload["split"] is True
    result = sweep.run(jobs=1)
    assert result.outcomes[0].result["stats"].get("split_frames", 0) >= 1


def test_sweep_worker_memoizes_soc_per_variant():
    from repro.engine import sweep as sweep_mod

    sweep_mod._SOC_CACHE.clear()
    first = sweep_mod._soc_for("orc")
    assert sweep_mod._soc_for("orc") is first
    assert sweep_mod._soc_for("secure") is not first
