"""Tests of the benchmark's own arithmetic and oracle (synthetic inputs;
the program is never run or broken here).

    python3 -m pytest perfbench -q
"""

import copy
import json
import os

import pytest

from cells import VARIANTS, check_cell, load_expected
from run import _middle_mean
from summary import describe_timing, spread, tail_percentile
from tracing import (SEAMS, Span, Tracer, layer_metrics, layer_self_times,
                     self_times, uncovered_by_trace)
from workloads import CellOutcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree():
    """cell [0,10] > upec [1,8] > (search [2,5], export [6,7] > slice
    [6.5,7]); a second cell [10,12] with no children."""
    return [
        Span("UpecMethodology.run", "cell", 0.0, 10.0, -1, "secure"),
        Span("UpecChecker.check", "upec.s", 1.0, 8.0, 0, "secure"),
        Span("CdclSolver.solve", "search.s", 2.0, 5.0, 1, "secure"),
        Span("SatContext.export_obligation", "bmc.export_s", 6.0, 7.0, 1,
             "secure"),
        Span("slice_cnf", "slice.s", 6.5, 7.0, 3, "secure"),
        Span("UpecMethodology.run", "cell", 10.0, 12.0, -1, "orc"),
    ]


def test_self_times_subtract_direct_children_only():
    assert self_times(_tree()) == [3.0, 3.0, 3.0, 0.5, 0.5, 2.0]


def test_layer_self_times_add_up_to_wall_time():
    spans = _tree()
    layers = layer_self_times(spans)
    assert layers == {"cell": 5.0, "upec.s": 3.0, "search.s": 3.0,
                      "bmc.export_s": 0.5, "slice.s": 0.5}
    roots = sum(s.duration for s in spans if s.parent < 0)
    assert sum(layers.values()) == pytest.approx(roots)


def test_uncovered_time_is_per_cell_root_self_time():
    assert uncovered_by_trace(_tree()) == {"secure": 3.0, "orc": 2.0}


def test_percentile_rule_allows_nothing_above_p50_at_22_runs():
    assert tail_percentile(22) == 50.0
    assert tail_percentile(19) is None       # p50 has 9.5 beyond it
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    desc = describe_timing([float(v) for v in range(1, 23)])
    assert desc == {"median": 11.5, "tail_p": 50.0, "tail": 11.0, "n": 22}
    assert describe_timing([3.0, 1.0])["tail"] is None


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def test_setup_samples_average_their_middle_half():
    # Fast and slow host speeds both count; a garbage-collection spike
    # and the fastest sample fall in the dropped quarters.
    assert _middle_mean([8.0, 8.0, 13.0, 13.0]) == 10.5
    assert _middle_mean([7.0, 8.0, 8.0, 13.0, 13.0, 13.0, 14.0, 45.0]) \
        == pytest.approx(11.75)
    assert _middle_mean([0.5]) == 0.5


def test_oracle_accepts_the_expected_signatures():
    expected = load_expected()
    assert set(expected) == set(VARIANTS)
    for variant in VARIANTS:
        assert check_cell(variant, expected[variant],
                          expected[variant]) == []
        assert check_cell(variant, expected[variant], expected[variant],
                          exact=False) == []


def test_oracle_flags_a_flipped_verdict():
    expected = load_expected()
    flipped = dict(expected["secure"], verdict="insecure")
    problems = check_cell("secure", flipped, expected["secure"],
                          exact=False)
    assert problems == ["secure: verdict 'insecure', "
                        "expected 'secure_bounded'"]
    for verdict in ("undecided", "timeout", "poisoned"):
        assert check_cell("orc", dict(expected["orc"], verdict=verdict),
                          expected["orc"], exact=False)


def test_oracle_flags_a_one_register_signature_mismatch():
    expected = load_expected()
    sig = copy.deepcopy(expected["orc"])
    sig["l_alert"]["regs"] = sig["l_alert"]["regs"][:-1]
    assert check_cell("orc", sig, expected["orc"], exact=False) == []
    problems = check_cell("orc", sig, expected["orc"])
    assert problems == ["orc: signature differs in l_alert"]


def test_oracle_flags_missing_l_alert_and_exceptions():
    expected = load_expected()
    assert check_cell("meltdown", dict(expected["meltdown"], l_alert=None),
                      expected["meltdown"], exact=False)
    assert check_cell("secure", None, expected["secure"],
                      error="DistError: gone") == [
        "secure: raised DistError: gone"]


def test_tracer_records_nested_spans_with_parents():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer._wrap(Layer, "outer", "Layer.outer", "a_s")
    tracer._wrap(Layer, "inner", "Layer.inner", "b_s")
    try:
        assert Layer().outer() == 2              # inactive: no spans
        assert tracer.spans == []
        tracer.active, tracer.trace = True, "orc"
        assert Layer().outer() == 2
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent, s.trace) for s in tracer.spans] == [
        ("Layer.outer", -1, "orc"), ("Layer.inner", 0, "orc")]
    assert Layer.outer.__name__ == "outer"       # restored


def test_every_metric_is_declared_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    cells = [CellOutcome(v, 1.0, None) for v in VARIANTS]
    produced = set(layer_metrics([], {}, cells, None))
    produced |= {"soc.build_s", "trace.overhead_s"}
    assert produced == declared
    assert {layer for _, _, _, layer in SEAMS} - {"cell"} <= declared
