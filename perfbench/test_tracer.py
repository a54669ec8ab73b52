"""Sanity checks of the benchmark's tracer and workloads.

    python3 -m pytest perfbench -q      # about 70 s on 2 cores
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

import pytest

import run
from speed import Reference
from tracer import Tracer, layer_metrics

run.import_cli()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

_COMMON = ["harness.self_s", "harness.records", "cli.emit_s", "cli.report_bytes"]

# Per-layer metrics that must be non-zero on the workload that exercises
# the layer.  The lane fallback counters are absent: at these scales no lane
# entry falls inside its error margin (far less than one expected over 15.5M
# elements), so test_lane_fallbacks_are_counted covers them directly.
MOVED_ON = {
    "exact-verdicts": [
        "exactnum.decisions", "exactnum.enclosures",
        "exactnum.enclosures_per_decision", "exactnum.max_prec_bits",
        "exactnum.self_s", "exactnum.us_per_decision",
        "genpoly.seq_calls", "genpoly.seq_misses", "genpoly.seq_hit_ratio",
        "genpoly.us_per_miss", "genpoly.classify_calls", "genpoly.self_s",
        "focheck.formula_evals", "focheck.formula_evals_per_s",
        "focheck.delta_calls", "focheck.window_calls", "focheck.self_s",
        "diosearch.classify_per_triple", "diosearch.self_s",
    ] + _COMMON,
    "lane-scans": [
        "fastlane.elements", "fastlane.self_s", "fastlane.ns_per_element",
        "diosearch.self_s",
        "bohr.self_s", "bohr.table_s", "bohr.kappa_calls", "bohr.nu_calls",
    ] + _COMMON,
    "quadruples": [
        "focheck.formula_evals", "focheck.formula_evals_per_s", "focheck.self_s",
        "weakmult.quadruples", "weakmult.closure_size", "weakmult.build_s",
        "weakmult.close_s", "weakmult.csv_bytes", "weakmult.csv_write_s",
        "weakmult.csv_read_s", "weakmult.contains_calls",
        "weakmult.ns_per_contains", "weakmult.check_s", "weakmult.self_s",
    ] + _COMMON,
}


def test_tracer_rebinds_names_imported_by_other_modules():
    import gparith.cli as cli
    import gparith.diosearch as diosearch
    import gparith.harness as harness
    bound = [(harness, "build_Q"), (harness, "calibrate_C"),
             (harness, "delta_bounded"), (diosearch, "lemma31_classify"),
             (cli, "build_Q"), (cli, "import_csv")]
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in bound:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        # no gparith module keeps an unwrapped public function of a layer
        originals = {id(getattr(owner, attr).__wrapped__)
                     for owner, attr in tracer.wrapped_names()
                     if hasattr(getattr(owner, attr), "__wrapped__")}
        import sys
        for name, mod in sys.modules.items():
            if name.startswith("gparith"):
                for attr, obj in vars(mod).items():
                    assert id(obj) not in originals, f"{name}.{attr} not rebound"
    finally:
        tracer.uninstall()
    for mod, attr in bound:
        assert not hasattr(getattr(mod, attr), "__wrapped__")


def test_spans_nest_and_self_times_add_up():
    cli = run.import_cli()
    req = run.Request("verify-core", ("verify", "core", "--samples", "20"), "out")
    tracer = Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            with tracer.span("request", "request.verify-core"):
                outcome = run.run_request(cli, req, 1, tmp, run.Checker())
    finally:
        tracer.uninstall()
    assert outcome.error is None
    spans = tracer.spans
    assert spans[0][0] == "request.verify-core" and spans[0][3] == -1
    layers = {name.split(":")[0] for name, *_ in spans[1:]}
    assert {"cli", "harness", "exactnum"} <= layers
    for name, start, end, parent in spans[1:]:
        assert 0 <= parent < len(spans), name
        assert spans[parent][1] <= start <= end <= spans[parent][2], name
    root = spans[0][2] - spans[0][1]
    assert sum(tracer.self_s.values()) == pytest.approx(root, rel=1e-9)


def test_decisions_are_counted_however_reached():
    from gparith.config import load_config

    alpha = load_config(None).constant("alpha")
    tracer = Tracer()
    tracer.install()
    try:
        # a caller in another layer; `<` reaches sign() through _cmp
        with tracer.span("focheck", "caller"):
            assert alpha < alpha + 1
        assert layer_metrics(tracer, [])["exactnum.decisions"][0] == 1
        tracer.reset()
        with tracer.span("focheck", "caller"):
            abs(alpha - 2)                # sign() through __abs__
            (alpha * 3).nint()            # floor() inside nint()
            (alpha * 5).circle_norm()     # frac_signed(), nint(), sign() inside
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, [])
    assert m["exactnum.decisions"][0] == 3
    assert m["exactnum.us_per_decision"][0] > 0


def test_lane_fallbacks_are_counted():
    import numpy as np
    from gparith._fastlane import QuadSeqFast
    from gparith.exactnum import field_create

    half = field_create([-1, 2], (Fraction(0), Fraction(1))).theta  # theta = 1/2
    tracer = Tracer()
    tracer.install()
    try:
        # half * k sits exactly on a rounding boundary for every odd k
        g = QuadSeqFast(half, 1).g_vec(np.arange(1, 11, dtype=np.int64))
    finally:
        tracer.uninstall()
    assert [int(v) for v in g] == [k * ((k + 1) // 2) for k in range(1, 11)]
    m = layer_metrics(tracer, [])
    assert m["fastlane.elements"][0] == 10
    assert m["fastlane.exact_fallbacks"][0] == 5
    assert m["fastlane.fallback_ratio"][0] == 0.5


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = run.measure(workload, seed=1, seconds=0, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    names = [r.name for r in run.WORKLOADS[workload]]
    for name in MOVED_ON[workload] + [f"request.{n}.s" for n in names]:
        assert metrics[name]["value"] > 0, name


def test_second_seed_gives_same_request_and_instance_counts():
    cli = run.import_cli()
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp, Reference() as ref:
        for workload, reqs in sorted(run.WORKLOADS.items()):
            counts = []
            for seed in (1, 2):
                outcomes = run.run_pass(cli, reqs, seed, tmp, run.Checker(), ref, None)
                assert all(o.error is None for o in outcomes), workload
                counts.append([o.records for o in outcomes])
            assert counts[0] == counts[1], workload
