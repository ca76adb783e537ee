"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

All but the catalog cases of `test_probes_enter_their_workloads` run in a
few seconds; those build one deleted B3 and one exfin3 catalog (about 35 s).
"""

from __future__ import annotations

import json

import pytest

import harness
import layers
from run import ROOT

SMALL = ("triangle.json", "ex2.json", "ceva2.json")


def benchmark_metric_names(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def traced(workload: str, seed: int, fixture: str | None = None):
    tracer = layers.Tracer()
    outcome = harness.Outcome()
    _, counts = harness.one_pass(
        harness.import_program(), workload, seed, outcome, tracer, fixture
    )
    return tracer, counts, outcome


@pytest.mark.parametrize("fixture", SMALL)
def test_traced_pass_on_small_catalogs(fixture):
    tracer, counts, overhead, outcome = harness.traced_pass("catalog-lines", 0, fixture)
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert counts == harness.expected_catalogs()[fixture]["records"]
    assert tracer.missing == []
    metrics = layers.layer_metrics(tracer, counts)
    metrics["trace.overhead_s"] = (overhead, "s")
    assert set(metrics) == benchmark_metric_names("per_layer")
    assert metrics["catalog.records_local"][0] == counts["local"]


def test_measure_reports_every_end_to_end_metric():
    metrics, outcome = harness.measure("pencil-reports", 1, seconds=0.1)
    assert outcome.failed == 0
    assert outcome.attempted == len(harness.REPORT_CASES)
    assert set(metrics) == benchmark_metric_names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_wrappers_are_removed_after_tracing():
    catalog_mod, _, cli = harness.import_program()
    originals = (catalog_mod.classify, catalog_mod.build_catalog, cli.main)
    tracer = layers.Tracer()
    with tracer.installed():
        assert catalog_mod.classify is not originals[0]
    assert (catalog_mod.classify, catalog_mod.build_catalog, cli.main) == originals


def test_calls_are_charged_in_the_calling_module():
    # catalog binds classify by ``from .pencil import classify``; the sweep's
    # calls must reach the classify span and be charged to the catalog layer
    tracer, _, outcome = traced("catalog-curves", 0, "ex2.json")
    assert outcome.failed == 0
    pairs = tracer.spans["pencil.block_pairs"].by_caller
    assert pairs["pencil"][2] > 0 and pairs["catalog"][2] > 0


def test_missing_name_is_reported_not_fatal(monkeypatch, capsys):
    probe = layers.Probe("pencil.gone", "pencil", "no_such_function", layers.ALL)
    monkeypatch.setattr(layers, "PROBES", layers.PROBES + (probe,))
    tracer, counts, outcome = traced("catalog-lines", 0, "triangle.json")
    assert outcome.failed == 0
    assert tracer.missing == ["pencil.gone"]
    assert "no_such_function not found" in capsys.readouterr().err


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_probes_enter_their_workloads(workload):
    tracer, _, outcome = traced(workload, 0)
    assert outcome.failed == 0
    assert layers.silent_spans(tracer, workload) == []


@pytest.mark.parametrize("workload,fixture", [("pencil-reports", None), ("catalog-lines", "ceva2.json")])
def test_traced_counts_repeat(workload, fixture):
    def counts():
        tracer, records, _ = traced(workload, 7, fixture)
        metrics = layers.layer_metrics(tracer, records)
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_ceva2_fingerprint_is_coordinate_free():
    catalog_mod, arrangement_mod, _ = harness.import_program()
    expected = harness.expected_catalogs()
    for m in harness.coordinate_changes(5, 4)[1:]:
        arr = arrangement_mod.Arrangement.from_json(harness.arrangement_doc("ceva2.json", m))
        catalog = catalog_mod.build_catalog(arr)
        assert harness.check_catalog("ceva2.json", False, catalog, expected) == []


def test_committed_catalog_hash_is_checked():
    catalog_mod, arrangement_mod, _ = harness.import_program()
    expected = harness.expected_catalogs()
    m = harness.coordinate_changes(5, 2)[1]
    arr = arrangement_mod.Arrangement.from_json(harness.arrangement_doc("ceva2.json", m))
    catalog = catalog_mod.build_catalog(arr)
    # points move under the coordinate change, so the committed hash no longer holds
    problems = harness.check_catalog("ceva2.json", True, catalog, expected)
    assert len(problems) == 1 and "sha256" in problems[0]


def test_seeded_inputs_repeat_and_vary():
    assert harness.coordinate_changes(0, 2) == [None, None]
    assert harness.coordinate_changes(3, 4) == harness.coordinate_changes(3, 4)
    changes = harness.coordinate_changes(3, 6)
    assert changes[0] is None
    assert len(set(changes)) == 6
    for m in changes[1:]:
        assert sorted(abs(v) for row in m for v in row) == [0] * 6 + [1] * 3


def test_poly_round_trip():
    text = "2*x^2*y^2 - x^2*z^2 - y^2*z^2"
    poly = harness.parse_poly(text)
    assert poly == {(2, 2, 0): 2, (2, 0, 2): -1, (0, 2, 2): -1}
    assert harness.parse_poly(harness.format_poly(poly)) == poly
    swap_xy = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert harness.substitute(harness.parse_poly("x - y + z"), swap_xy) == {
        (0, 1, 0): 1, (1, 0, 0): -1, (0, 0, 1): -1
    }
