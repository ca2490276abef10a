"""Self-time arithmetic and per-layer metrics on hand-made spans."""

import pytest

from spans import Tracer, layer_metrics, read_spans, self_time_by_name, self_times


def span(sid, name, start, end, parent=None, run="traced"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": run}


def test_nested_children_are_subtracted_from_their_parent():
    spans = [span(0, "outer", 0.0, 10.0),
             span(1, "inner", 1.0, 4.0, parent=0),
             span(2, "inner", 5.0, 6.0, parent=0),
             span(3, "leaf", 1.5, 2.0, parent=1)]
    st = self_times(spans)
    assert st == pytest.approx({0: 6.0, 1: 2.5, 2: 1.0, 3: 0.5})
    assert self_time_by_name(spans, "traced") == pytest.approx(
        {"outer": 6.0, "inner": 3.5, "leaf": 0.5})


def test_replayed_child_outside_the_parent_interval_is_subtracted():
    # a wrapper timed whole, then its part called again after it closed
    spans = [span(0, "foldy.solve", 0.0, 3.0),
             span(1, "foldy.invertibility_report", 3.0, 4.0, parent=0)]
    assert self_times(spans) == pytest.approx({0: 2.0, 1: 1.0})


def test_self_time_by_name_keeps_runs_apart():
    spans = [span(0, "cli.import", 0.0, 1.0, run="import-0"),
             span(1, "cli.import", 1.0, 3.0, run="import-1")]
    assert self_time_by_name(spans, "import-1") == pytest.approx({"cli.import": 2.0})


def test_tracer_records_parents_and_round_trips(tmp_path):
    tr = Tracer()
    with tr.span("a") as a:
        with tr.span("b"):
            pass
    with tr.span("c", parent=a):
        pass
    tr.write(tmp_path / "spans.jsonl")
    spans = read_spans(tmp_path / "spans.jsonl")
    assert [(s["name"], s["parent"]) for s in spans] == [("a", None), ("b", 0), ("c", 0)]
    assert all(s["end"] >= s["start"] for s in spans)


def test_layer_metrics_from_spans():
    spans = [span(0, "cli.import", 0.0, 0.2, run="import-0"),
             span(1, "cli.import", 0.0, 0.4, run="import-1"),
             span(2, "cli.import", 0.0, 0.3, run="import-2"),
             span(3, "analysis.oracle_farfield", 10.0, 14.0),
             span(4, "oracle.assemble_bie", 14.0, 17.0, parent=3),
             span(5, "foldy.assemble", 17.0, 18.0)]
    m = layer_metrics(spans, {"oracle.coupling_blocks": 12}, {"foldy.assemble": 5.0},
                      run_s=4.0)
    assert m["cli.import_s"] == (pytest.approx(0.3), "s")
    assert m["analysis.oracle_farfield_s"][0] == pytest.approx(1.0)
    assert m["oracle.assemble_bie_s"][0] == pytest.approx(3.0)
    assert m["oracle.blocks_per_s"] == (pytest.approx(4.0), "1/s")
    assert m["foldy.assemble.alloc_mb"] == (5.0, "MB")
    assert m["foldy.solve_s"] == (0.0, "s")
    # traced time: import 0.3 + top-level spans 4 + 1; replays excluded
    assert m["trace.coverage"][0] == pytest.approx(5.3 / 4.0)
    assert m["trace.overhead_s"][0] == pytest.approx(1.3)
