"""Engine microbenchmarks: SAT solver, bit-blaster, simulator throughput.

Not a paper table — these quantify the substrate the UPEC runtimes rest
on (our pure-Python CDCL vs. the paper's commercial checker), so the
absolute runtime differences in Tab. I/II are interpretable.

The ``preprocess`` and ``upec-sat`` groups pair each instance family with
a raw-CNF and a simplified run, so the payoff of the SatELite-style
pre-/inprocessor (``repro.formal.preprocess``) is measured directly on
the clause shapes the engine actually emits.  The ``split`` group pairs
split and unsplit deep-frame checks at 1/2/4 workers — the wall-clock
case for intra-frame obligation splitting (``--split``).

Run with ``--bench-json`` to also write the per-group numbers to
``BENCH_engine.json`` (see ``conftest.py``).
"""

import random

import pytest

from repro.formal import Aig, BmcEngine, CdclSolver, SimplifyingSolver
from repro.hdl import Circuit, mux
from repro.sim import Simulator
from repro.soc import SocConfig, build_soc
from repro.soc import isa
from repro.soc.simulator import SocSim


def pigeonhole_cnf(pigeons, holes):
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def random_3sat(nvars, nclauses, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(nclauses):
        clause_vars = rng.sample(range(1, nvars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in clause_vars])
    return clauses


@pytest.mark.benchmark(group="solver")
def test_solver_pigeonhole_unsat(benchmark):
    """PHP(6,5): a canonical hard-ish UNSAT instance."""
    def run():
        nvars, clauses = pigeonhole_cnf(6, 5)
        solver = CdclSolver()
        for _ in range(nvars):
            solver.new_var()
        solver.add_clauses(clauses)
        assert solver.solve() is False

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="solver")
def test_solver_random_3sat(benchmark):
    """Random 3-SAT near the phase transition (ratio 4.2)."""
    def run():
        nvars = 120
        solver = CdclSolver()
        for _ in range(nvars):
            solver.new_var()
        solver.add_clauses(random_3sat(nvars, int(nvars * 4.2), seed=7))
        assert solver.solve() in (True, False)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="formal")
def test_bmc_counter_proof(benchmark):
    """BMC of a counter property — bit-blast + solve round trip."""
    def run():
        c = Circuit("counter")
        cnt = c.reg("cnt", 16, init=0)
        c.next(cnt, cnt + 1)
        c.finalize()
        engine = BmcEngine(c, init="reset")
        assert engine.check_always(cnt.ne(50), k=20).holds

    benchmark.pedantic(run, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Preprocessing instance families (raw CDCL vs. simplified)
# ----------------------------------------------------------------------
class _CnfBuilder:
    """Tiny Tseitin emitter for hand-built benchmark circuits."""

    def __init__(self):
        self.nvars = 0
        self.clauses = []

    def var(self):
        self.nvars += 1
        return self.nvars

    def xor(self, a, b):
        v = self.var()
        self.clauses.extend(
            [[-v, a, b], [-v, -a, -b], [v, -a, b], [v, a, -b]])
        return v


def parity_miter_cnf(n):
    """Left-fold vs. balanced-tree parity of the same bits, forced to
    differ: UNSAT, and every gate variable is functionally defined —
    the shape bounded variable elimination collapses."""
    cnf = _CnfBuilder()
    bits = [cnf.var() for _ in range(n)]
    left = bits[0]
    for x in bits[1:]:
        left = cnf.xor(left, x)
    layer = list(bits)
    while len(layer) > 1:
        nxt = [cnf.xor(layer[i], layer[i + 1])
               for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    cnf.clauses.append([cnf.xor(left, layer[0])])
    return cnf.nvars, cnf.clauses


def padded_pigeonhole_cnf(pigeons, holes, chain, seed):
    """PHP core where every literal is routed through an equivalence
    chain (buffer gates), as Tseitin encodings of deep netlists do; the
    simplifier strips the padding back to the core."""
    rng = random.Random(seed)
    nvars = pigeons * holes
    clauses = []
    alias = {}
    for v in range(1, nvars + 1):
        chain_vars = [v]
        prev = v
        for _ in range(chain):
            nvars += 1
            clauses.extend([[-nvars, prev], [nvars, -prev]])
            prev = nvars
            chain_vars.append(nvars)
        alias[v] = chain_vars

    def a(lit):
        v = rng.choice(alias[abs(lit)])
        return v if lit > 0 else -v

    def var(i, j):
        return i * holes + j + 1

    base = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                base.append([-var(i1, j), -var(i2, j)])
    clauses.extend([a(l) for l in c] for c in base)
    return nvars, clauses


def _solve_family(solver_cls, nvars, clauses):
    solver = solver_cls()
    for _ in range(nvars):
        solver.new_var()
    solver.add_clauses(clauses)
    assert solver.solve() is False


@pytest.mark.benchmark(group="preprocess")
@pytest.mark.parametrize("solver_cls", [CdclSolver, SimplifyingSolver],
                         ids=["raw", "preprocessed"])
def test_solver_parity_miter(benchmark, solver_cls):
    nvars, clauses = parity_miter_cnf(36)
    benchmark.pedantic(
        lambda: _solve_family(solver_cls, nvars, clauses),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="preprocess")
@pytest.mark.parametrize("solver_cls", [CdclSolver, SimplifyingSolver],
                         ids=["raw", "preprocessed"])
def test_solver_padded_pigeonhole(benchmark, solver_cls):
    nvars, clauses = padded_pigeonhole_cnf(6, 5, chain=6, seed=3)
    benchmark.pedantic(
        lambda: _solve_family(solver_cls, nvars, clauses),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="upec-sat")
@pytest.mark.parametrize("simplify", [False, True],
                         ids=["raw", "preprocessed"])
def test_upec_methodology_sat_cost(benchmark, simplify):
    """The flagship workload: the full Fig.-5 methodology on the secure
    design (Tab. I, D in cache) with and without CNF simplification."""
    from repro.core import UpecMethodology, UpecScenario
    from repro.engine import INLINE
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))

    def run():
        result = UpecMethodology(
            soc, UpecScenario(secret_in_cache=True), simplify=simplify,
            engine=INLINE,
        ).run(k=2)
        assert result.verdict == "secure_bounded"

    benchmark.pedantic(run, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Obligation slicing: export cost and shipped bytes
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="slice")
def test_obligation_export_cost(benchmark):
    """Export the Tab.-I methodology workload's proof obligations (all
    window frames at the full commitment, then a refinement-style subset
    commitment — the shape the Fig.-5 loop produces) and report the
    wall-clock export cost plus the pickled obligation bytes a worker
    pool or cache would actually ship."""
    import pickle

    from repro.core import UpecModel, UpecScenario
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
    model = UpecModel(soc, UpecScenario(secret_in_cache=True))
    regs = model.default_commitment()
    # Emit every cone once so rounds measure pure snapshot/slice cost,
    # not first-time Tseitin emission.
    for t in (1, 2):
        model.frame_obligation(regs, t)
    model.frame_obligation(regs[: len(regs) // 2], 2)

    def run():
        obs = [model.frame_obligation(regs, t) for t in (1, 2)]
        obs.append(model.frame_obligation(regs[: len(regs) // 2], 2))
        return sum(len(pickle.dumps(ob)) for ob in obs if ob is not None)

    exported_bytes = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["exported_bytes"] = exported_bytes


# ----------------------------------------------------------------------
# Obligation engine: sweep throughput vs. worker count
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="sweep")
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_table1_sweep_throughput(benchmark, jobs):
    """Tab.-I grid (all four variants, D in cache) through the scenario
    sweep scheduler at 1/2/4 workers.  On multi-core hosts the higher
    worker counts show the wall-clock speedup of obligation-level
    parallelism; the jobs=1 row is the sequential baseline.  Worker
    counts beyond the machine (see ``UPEC_BENCH_JOBS``) are skipped
    rather than reported as misleading oversubscription numbers."""
    from conftest import bench_jobs_ceiling

    from repro.engine import ScenarioSweep

    if jobs > 1 and jobs > bench_jobs_ceiling():
        pytest.skip(f"host has fewer than {jobs} usable cores")
    sweep = ScenarioSweep.table1_grid(k=2, uncached=False)

    def run():
        result = sweep.run(jobs=jobs)
        verdicts = result.verdicts()
        assert verdicts["secure/cached/k=2"] == "secure_bounded"
        assert verdicts["orc/cached/k=2"] == "insecure"
        assert verdicts["meltdown/cached/k=2"] == "insecure"

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.benchmark(group="sweep")
def test_frame_obligations_through_engine(benchmark, proof_engine):
    """Per-frame obligation dispatch on one miter (engine jobs=1): the
    scheduling overhead added on top of raw solving."""
    from repro.core import UpecChecker, UpecModel, UpecScenario
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    soc = build_soc(SocConfig.orc(**FORMAL_CONFIG_KWARGS))

    def run():
        model = UpecModel(soc, UpecScenario(secret_in_cache=True))
        result = UpecChecker(model, engine=proof_engine).check(k=2)
        assert result.status == "alert"

    benchmark.pedantic(run, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Intra-frame obligation splitting: deep-frame wall-clock
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="split")
@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_deep_frame_split_wall_clock(benchmark, jobs, split):
    """The workload intra-frame splitting targets: the deepest frame of
    a refined (post-Fig.-5) commitment on the secure design, which is
    UNSAT — every register group must be *proved*, so an unsplit run is
    one monolithic solve while a split run keeps ``jobs`` workers busy
    on the per-register-group obligations of that single frame.  The
    jobs=1 rows measure the splitting overhead itself; the jobs=2/4
    split-vs-unsplit pairs are the wall-clock win (multi-core hosts
    only — undersized machines skip them, see ``UPEC_BENCH_JOBS``)."""
    from conftest import bench_jobs_ceiling, full_runs

    from repro.core import (
        UpecChecker,
        UpecMethodology,
        UpecModel,
        UpecScenario,
    )
    from repro.engine import INLINE, ProofEngine
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    if jobs > 1 and jobs > bench_jobs_ceiling():
        pytest.skip(f"host has fewer than {jobs} usable cores")
    k = 3 if full_runs() else 2
    soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
    scenario = UpecScenario(secret_in_cache=True)
    refined = UpecMethodology(soc, scenario, engine=INLINE).run(k=k)
    assert refined.verdict == "secure_bounded"
    removed = set(refined.removed_regs)
    model = UpecModel(soc, scenario)
    commitment = [reg for reg in model.default_commitment()
                  if reg.name not in removed]
    engine = ProofEngine(jobs=jobs)

    def run():
        result = UpecChecker(model, engine=engine, split=split).check(
            k=k, commitment=commitment, start_frame=k,
        )
        assert result.proved
        return result

    try:
        result = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        engine.close()
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["split"] = split
    benchmark.extra_info["obligations"] = \
        result.stats.get("split_obligations", 0) or 1


# ----------------------------------------------------------------------
# Distributed proof service: obligations/sec vs. worker count
# ----------------------------------------------------------------------
def _dist_workload(count=12, nvars=110, seed=11):
    """Random 3-SAT instances near the phase transition: enough solver
    work per obligation that scheduling overhead does not dominate, and
    every obligation's content (hence fingerprint) is distinct."""
    from repro.engine import ProofObligation

    obligations = []
    for i in range(count):
        obligations.append(ProofObligation(
            name=f"dist{i}", nvars=nvars,
            clauses=random_3sat(nvars, int(nvars * 4.2), seed=seed + i),
            assumptions=[], simplify=True,
        ))
    return obligations


@pytest.mark.benchmark(group="dist")
@pytest.mark.parametrize("workers", [0, 1, 2, 4],
                         ids=["local", "w1", "w2", "w4"])
def test_dist_obligation_throughput(benchmark, workers):
    """Obligation throughput through the network broker at 1/2/4
    workers against the in-process pool baseline (``local``): the
    dispatch + wire overhead per obligation, and the wall-clock scaling
    the distributed scheduler buys once obligations are shipped to more
    than one solver process."""
    import multiprocessing

    from conftest import bench_jobs_ceiling

    from repro.dist import Broker, RemotePool
    from repro.dist.worker import run_worker
    from repro.engine import ProofEngine

    if workers > 1 and workers > bench_jobs_ceiling():
        pytest.skip(f"host has fewer than {workers} usable cores")
    obligations = _dist_workload()

    if workers == 0:
        engine = ProofEngine(jobs=1)

        def run():
            results = engine.solve_ordered(obligations)
            assert all(v is not None for v in results)

        try:
            benchmark.pedantic(run, rounds=1, iterations=1)
        finally:
            engine.close()
    else:
        context = multiprocessing.get_context("fork")
        broker = Broker(port=0).start()
        procs = [
            context.Process(target=run_worker, args=(broker.address,),
                            kwargs={"poll_interval": 0.005}, daemon=True)
            for _ in range(workers)
        ]
        for process in procs:
            process.start()
        try:
            pool = RemotePool(broker.address)

            def run():
                results = pool.solve_ordered(obligations)
                assert all(v is not None for v in results)

            # A fresh broker per benchmark: the verdict memo must not
            # turn later rounds into cache-hit measurements, so one
            # round only.
            benchmark.pedantic(run, rounds=1, iterations=1)
            pool.close()
        finally:
            for process in procs:
                process.terminate()
            for process in procs:
                process.join(timeout=5)
            broker.stop()
    benchmark.extra_info["obligations"] = len(obligations)


@pytest.mark.benchmark(group="sim")
def test_soc_simulation_throughput(benchmark):
    """Cycles/second of the full SoC RTL under simulation."""
    soc = build_soc(SocConfig.secure())
    program = [i.encode() for i in [
        isa.li(1, 1), isa.li(2, 0),
        isa.add(2, 2, 1),
        isa.bne(2, 0, -1),
        isa.jal(0, 0),
    ]]

    def run():
        sim = SocSim(soc, program)
        sim.step(300)

    result = benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="sim")
def test_plain_simulator_throughput(benchmark):
    """Baseline: simulator stepping cost on a small circuit."""
    c = Circuit("t")
    a = c.reg("a", 32, init=1)
    b = c.reg("b", 32, init=2)
    c.next(a, a + b)
    c.next(b, mux(a[0], a ^ b, b))
    c.finalize()

    def run():
        sim = Simulator(c)
        for _ in range(2000):
            sim.step()

    benchmark.pedantic(run, rounds=3, iterations=1)
