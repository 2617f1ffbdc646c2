import pytest

from layers import PER_LAYER, LayerProfile, metric_for
from trace_fold import fold


def span(id, name, parent, start, end):
    return {"kind": "span", "name": name, "id": id, "parent": parent,
            "t_start": start, "t_end": end, "dur": end - start}


def test_self_time_subtracts_children_over_parent_links():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3).
    # Exit order: children before parents, as the tracer writes them.
    records = [
        {"kind": "meta", "schema": "hyve-trace-v1"},
        span(3, "c", 2, 2.0, 3.0),
        span(2, "a", 1, 1.0, 4.0),
        {"kind": "event", "name": "e", "id": 5, "parent": 4, "t": 6.0},
        span(4, "b", 1, 5.0, 9.0),
        span(1, "root", None, 0.0, 10.0),
    ]
    by_name, wall = fold(records)
    assert by_name["root"] == [pytest.approx(3.0), 10.0, 1]
    assert by_name["a"] == [pytest.approx(2.0), 3.0, 1]
    assert by_name["b"] == [pytest.approx(4.0), 4.0, 1]
    assert by_name["c"] == [pytest.approx(1.0), 1.0, 1]
    assert wall == 10.0
    total_self = sum(entry[0] for entry in by_name.values())
    assert total_self == pytest.approx(wall)


def test_same_name_spans_sum_and_count():
    records = [span(2, "x", 1, 0.0, 1.0), span(3, "x", 1, 2.0, 4.0),
               span(1, "root", None, 0.0, 5.0)]
    by_name, _ = fold(records)
    assert by_name["x"] == [pytest.approx(3.0), 3.0, 2]
    assert by_name["root"][0] == pytest.approx(2.0)


def test_out_of_order_exit_is_clipped_to_the_parent():
    # parent [0, 4) exits before its child [2, 6): the parent is charged
    # only for the part of its interval the child does not cover, and
    # the parent record precedes the child's in the stream.
    records = [span(1, "parent", None, 0.0, 4.0),
               span(2, "child", 1, 2.0, 6.0)]
    by_name, wall = fold(records)
    assert by_name["parent"][0] == pytest.approx(2.0)
    assert by_name["child"][0] == pytest.approx(4.0)
    assert wall == 4.0


def test_overlapping_children_are_not_subtracted_twice():
    records = [span(2, "a", 1, 1.0, 5.0), span(3, "b", 1, 3.0, 7.0),
               span(1, "root", None, 0.0, 8.0)]
    by_name, _ = fold(records)
    assert by_name["root"][0] == pytest.approx(2.0)


def test_orphans_are_roots_and_wall_is_the_union_of_roots():
    records = [span(5, "orphan", 99, 1.0, 3.0),
               span(1, "root", None, 2.0, 6.0)]
    _, wall = fold(records)
    assert wall == pytest.approx(5.0)


def test_span_names_map_to_layers_and_unknown_names_to_other():
    assert metric_for("fold_many") == "machine.fold_s"
    assert metric_for("shard.converge") == "graph.shards_s"
    assert metric_for("experiments.fig09") == "experiments.self_s"
    assert metric_for("bench.op") == "other.self_s"
    assert metric_for("no.such.span") == "other.self_s"


def test_profile_metrics_charge_self_time_and_inclusive_driver_time():
    profile = LayerProfile()
    profile.merge({
        "spans": {"experiments.fig20": [0.5, 2.0, 1],
                  "experiments.fig09": [0.25, 1.0, 1],
                  "converge": [1.5, 1.5, 3],
                  "mystery": [0.75, 0.75, 1]},
        "wall_s": 3.0,
        "counters": dict.fromkeys(profile.counters, 0.0),
        "lookups": 4, "memory_hits": 3, "refreshes": 2, "rebuilds": 2,
    })
    values = profile.metrics(0.125)
    assert set(values) == set(PER_LAYER)
    assert values["experiments.self_s"] == pytest.approx(0.75)
    assert values["experiments.fig20_s"] == 2.0
    assert values["experiments.other_s"] == 1.0
    assert values["algorithms.converge_s"] == 1.5
    assert values["algorithms.runs"] == 3
    assert values["other.self_s"] == 0.75
    assert values["cache.memory_hit_ratio"] == 0.75
    assert values["dynamic.incremental_ratio"] == 0.5
    assert values["obs.trace_overhead_frac"] == 0.125


def test_traced_stretch_records_entry_points_and_restores_them():
    import numpy as np

    from repro.graph.graph import Graph
    from repro.graph.partition import IntervalBlockPartition

    original = IntervalBlockPartition.__dict__["build"]
    graph = Graph(8, np.arange(8) % 8, (np.arange(8) * 3) % 8, name="tiny")
    profile = LayerProfile()
    with profile.traced("bench.op"):
        IntervalBlockPartition.build(graph, 2)
    assert IntervalBlockPartition.__dict__["build"] is original
    assert profile.spans["graph.partition"][2] == 1
    assert profile.spans["bench.op"][2] == 1
    values = profile.metrics(0.0)
    assert values["graph.partition_s"] > 0
    assert profile.wall_s >= values["graph.partition_s"]
