"""Seeded Tab.-I grid benchmark.

Runs one workload (see ``workloads.py``) over the seed's grid for about
``--seconds`` seconds of grid passes, checks every verdict, and prints
a report whose last line is one JSON object::

    python3 perfbench/run.py --workload tab1-cold --seed 1 --seconds 50 \
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
pass untraced and then traced, reports the per-layer metrics instead,
and writes the spans to ``.perfbench/traces/``.  Run it from a checkout of
the repository: the program is imported from ``src/`` next to this
directory, and the run fails (without a result) if it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: SoC builds per probe.  Untraced runs probe before every cell and
#: after every pass, so ``setup_s`` samples the host across the run
#: rather than at one instant.
PROBE_BUILDS = 4
#: Pass preparations (open and close an engine) rehearsed in set-up, so
#: the preparation part of ``setup_s`` has several samples in every run.
PREP_REHEARSALS = 2
#: Untraced runs measure at least the seed's order and its reverse, so
#: each cell runs both before and after the other cell of its class
#: (which one pays for their shared obligations) in every run.
MIN_PASSES = 2
#: No pass starts once it would end past this many measured seconds.
MEASURE_CAP_S = 100.0


def _import_program():
    """Import the checkout's own program, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {src}/repro")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {src}")
    # The default solving path is defined by the absence of these.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _middle_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values``.  The host switches between
    a fast and a slow speed every few seconds; a median of short samples
    lands on whichever speed the run saw more of, and a plain mean is
    swayed by the odd garbage collection.  This weighs both speeds, as a
    pass does, and drops the outliers."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def build_socs(order: List[str]) -> Dict[str, Any]:
    from repro.soc import soc as soc_module
    from repro.soc.config import FORMAL_CONFIG_KWARGS, SocConfig

    return {v: soc_module.build_soc(
        getattr(SocConfig, v)(**FORMAL_CONFIG_KWARGS)) for v in order}


def measure(workload, order, socs, seconds, tracer=None, traced=None,
            probe=None):
    """Grid passes until the next would end after ``seconds`` of
    measuring, and at least :data:`MIN_PASSES` (one pair when traced)
    unless the next would end after :data:`MEASURE_CAP_S`.  Passes
    alternate the seed's order and its reverse.  With ``traced`` each
    step is a pair: an untraced pass, then a traced one in the same
    order.  Off the clock, before each cell and after the last, the
    workload's ``end_cell`` runs and the garbage is collected.  Returns the untraced passes, the traced
    ones as (outcome, spans, counters), and the per-pass preparation
    times."""
    from workloads import run_pass

    plain, traced_passes, preps, laps = [], [], [], []
    measure_start = time.perf_counter()
    while True:
        lap_start = time.perf_counter()
        pass_order = order if len(laps) % 2 == 0 else order[::-1]
        for tracing in ([False, True] if traced else [False]):
            began = time.perf_counter()
            engine = workload.open_pass()
            preps.append(time.perf_counter() - began)

            def between(engine=engine):
                workload.end_cell(engine)
                if probe is not None:
                    probe()
                # Collect the last cell's garbage off the clock: a cell
                # run as its own process never pays for another's, and
                # the cells after a proof cell ran up to 40% slower.
                gc.collect()

            if tracing:
                outcome, spans, counters = traced(
                    "pass", run_pass, pass_order, socs, engine, tracer,
                    between)
                traced_passes.append((outcome, spans, counters))
            else:
                outcome = run_pass(pass_order, socs, engine,
                                   between=between)
                plain.append(outcome)
            outcome.broker = workload.close_pass(engine)
        laps.append(time.perf_counter() - lap_start)
        ahead = time.perf_counter() - measure_start + _median(laps)
        enough = len(laps) >= (1 if traced else MIN_PASSES)
        if (enough and ahead > seconds) or ahead > MEASURE_CAP_S:
            return plain, traced_passes, preps


def end_to_end(passes, builds, prepare_s, preps):
    """The end-to-end metrics and their report lines."""
    from cells import ALERT_CELLS, PROOF_CELLS

    setup_s = _middle_mean(builds) + prepare_s + _middle_mean(preps)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    lines = [f"  {'setup_s':12s} {setup_s:.4f} s  (SoC builds middle-half "
             f"mean of {len(builds)}, prepare {prepare_s:.4f} s, pass "
             f"preparation middle-half mean of {len(preps)})"]
    samples = {
        "wall_s": [p.wall for p in passes],
        "proof_s": [sum(c.seconds for c in p.cells
                        if c.variant in PROOF_CELLS) for p in passes],
        "alert_s": [sum(c.seconds for c in p.cells
                        if c.variant in ALERT_CELLS) for p in passes],
    }
    for name, values in samples.items():
        metrics[name] = {"value": _median(values), "unit": "s"}
        lines.append(f"  {name:12s} {_median(values):.4f} s  (median of "
                     f"{len(values)} passes)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    lines.append(f"  {'peak_rss_mb':12s} {rss_mb:.1f} MB")
    return metrics, lines


def per_layer(plain, traced_passes, segments):
    """The per-layer metrics (medians over traced passes) and lines."""
    from tracing import layer_metrics

    per_pass = [layer_metrics(spans, counters, outcome.cells,
                              outcome.broker)
                for outcome, spans, counters in traced_passes]
    values = {name: _median([m[name] for m in per_pass])
              for name in per_pass[0]}
    setups = [seg["spans"] for seg in segments if seg["kind"] == "setup"]
    values["soc.build_s"] = _median([
        sum(s["end"] - s["start"] for s in spans if s["name"] == "build_soc")
        for spans in setups])
    # Each traced pass follows an untraced one in the same order.
    values["trace.overhead_s"] = (
        _median([outcome.wall for outcome, _, _ in traced_passes])
        - _median([outcome.wall for outcome in plain]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_units("per_layer").items()}
    lines = [f"  {name:28s} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    return metrics, lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    # Import every layer now, so no pass or set-up pays for it.
    import repro.core.methodology  # noqa: F401
    import repro.dist.remote  # noqa: F401
    import repro.engine.pool  # noqa: F401

    sys.path.insert(0, HERE)
    from cells import cell_order, check_cell, load_expected
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(WORKLOADS)})")
    order = cell_order(args.seed)
    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=outdir)
    workload = WORKLOADS[args.workload](ROOT, workdir)
    tracer = Tracer() if args.trace else None
    segments: List[Dict[str, Any]] = []
    origin = time.perf_counter()

    def traced(kind: str, fn, *fn_args):
        """Run ``fn`` with the seam wrappers installed and recording;
        keep its spans."""
        tracer.spans, tracer.counters = [], {}
        tracer.trace = kind
        tracer.install()
        tracer.active = True
        try:
            result = fn(*fn_args)
        finally:
            tracer.active = False
            tracer.uninstall()
        segments.append({"kind": kind, "spans": tracer.to_json(origin)})
        return result, tracer.spans, tracer.counters

    builds: List[float] = []

    def probe() -> None:
        for _ in range(PROBE_BUILDS):
            began = time.perf_counter()
            build_socs(order)
            builds.append(time.perf_counter() - began)

    preps: List[float] = []
    try:
        # Set-up: the seed's SoCs, then the workload's own preparation.
        began = time.perf_counter()
        socs = build_socs(order)
        builds.append(time.perf_counter() - began)
        began = time.perf_counter()
        workload.prepare(order, socs)
        prepare_s = time.perf_counter() - began
        if tracer is None:
            probe()
            for _ in range(PREP_REHEARSALS):
                began = time.perf_counter()
                engine = workload.open_pass()
                preps.append(time.perf_counter() - began)
                workload.close_pass(engine)
            passes, traced_passes, pass_preps = measure(
                workload, order, socs, args.seconds, probe=probe)
        else:
            for _ in range(PROBE_BUILDS):
                traced("setup", build_socs, order)
            passes, traced_passes, pass_preps = measure(
                workload, order, socs, args.seconds, tracer, traced)
        preps.extend(pass_preps)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    problems: List[str] = []
    all_passes = passes + [outcome for outcome, _, _ in traced_passes]
    all_cells = workload.setup_cells + [c for p in all_passes
                                        for c in p.cells]
    expected = load_expected()
    failed = 0
    for cell in all_cells:
        issues = check_cell(cell.variant, cell.sig, expected[cell.variant],
                            workload.engine_signatures, cell.error)
        failed += bool(issues)
        problems.extend(issues)

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"order {' '.join(order)}  passes {len(all_passes)}"]
    labelled = [("pass", p) for p in passes] + [
        ("traced pass", outcome) for outcome, _, _ in traced_passes]
    for kind, outcome in labelled:
        lines.append(f"  {kind}  wall {outcome.wall:.3f} s  " + "  ".join(
            f"{c.variant} {c.seconds:.3f}" for c in outcome.cells))
    if tracer is None:
        metrics, report = end_to_end(passes, builds, prepare_s, preps)
    else:
        metrics, report = per_layer(passes, traced_passes, segments)
        trace_dir = os.path.join(outdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir,
                            f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "order": order, "segments": segments}, handle)
        report.append(f"  spans written to {os.path.relpath(path, ROOT)}")
    lines.extend(report)
    attempted = len(all_cells)
    lines.append(f"  fail_rate    {failed}/{attempted} cells = "
                 f"{failed / attempted:.4f} ratio")
    lines.extend(f"  FAIL {problem}" for problem in problems)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
