"""Fast checks of the benchmark's own logic: percentiles, self time, rechecks."""
import copy
import json

import pytest

import cpproj.cli
from recheck import recheck_cli
from run import Row, median_hd, per_instance_medians, tail_percentile
from tracing import Span, Tracer, self_times
from workloads import REFERENCE_FILE, Instance

REFERENCE = {e["name"]: e for e in json.loads(REFERENCE_FILE.read_text())}


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([float(i) for i in range(49)], 0.8) is None
    samples = [float(i) for i in range(50)]
    assert tail_percentile(samples[::-1], 0.8) == 39.0  # 10 samples, 40..49, lie beyond
    assert tail_percentile([], 0.5) is None


def test_percentile_counts_each_instance_once():
    insts = [Instance(f"rand{i}") for i in range(21)]
    rows = [Row(inst, float(i), None, p) for p in range(3) for i, inst in enumerate(insts)]
    assert len(per_instance_medians(rows)) == 21
    assert tail_percentile(per_instance_medians(rows), 0.8) is None


def test_median_estimate_moves_less_than_the_median():
    assert median_hd([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert median_hd([4.0] * 5) == pytest.approx(4.0)
    before = [0.1, 0.2, 0.7, 1.0, 1.1, 2.0, 3.0]
    after = [0.1, 0.2, 0.7, 0.75, 1.1, 2.0, 3.0]  # the middle value drops by 0.25
    assert 0.0 < median_hd(before) - median_hd(after) < 0.125


def test_self_time_subtracts_nested_children():
    spans = [
        Span("driver.approximate", 0.0, 10.0, None, "a"),
        Span("conic.solve", 1.0, 3.0, 0, "a"),
        Span("extraction.sparsify", 4.0, 8.0, 0, "a"),
        Span("extraction.polish", 5.0, 6.0, 2, "a"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_tracer_links_parents_and_records_absent_names():
    tracer = Tracer()
    tracer.install([("cpproj.driver", "no_such_layer", "x", {})])
    assert tracer.absent == ["cpproj.driver.no_such_layer"]
    tracer.instance = "i0"
    tracer.span("outer", lambda: tracer.span("inner", lambda: 1))
    with pytest.raises(ValueError):
        tracer.span("failing", lambda: int("x"))
    outer, inner, failing = tracer.spans
    assert (outer.parent, inner.parent, failing.parent) == (None, 0, None)
    assert inner.instance == "i0" and failing.attrs["error"] == "ValueError"
    assert outer.start <= inner.start <= inner.end <= outer.end


def _cli_output(tmp_path, name):
    entry = REFERENCE[name]
    src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    src.write_text(json.dumps(entry["problem"]))
    code = cpproj.cli.run([str(src), "--norm", entry["norm"], "--output", str(out)])
    return entry, code, json.loads(out.read_text())


def test_recheck_rejects_tampered_factor_and_constraint(tmp_path):
    entry, code, doc = _cli_output(tmp_path, "one-c4")
    assert recheck_cli(entry, code, doc) == []

    bad = copy.deepcopy(doc)
    bad["decomposition"]["factors"][0][0] += 1e-2
    assert any("factor residual" in f for f in recheck_cli(entry, code, bad))

    moved = copy.deepcopy(entry)
    moved["problem"]["constraints"][0]["b"] += 1e-3
    assert any("constraint 0" in f for f in recheck_cli(moved, code, doc))


def test_recheck_rejects_tampered_farkas_vector(tmp_path):
    entry, code, doc = _cli_output(tmp_path, "one-c3")
    assert recheck_cli(entry, code, doc) == []
    bad = copy.deepcopy(doc)
    bad["certificate"]["dual_cone"][0] += 0.5
    assert recheck_cli(entry, code, bad) == ["Farkas pair fails verification"]
