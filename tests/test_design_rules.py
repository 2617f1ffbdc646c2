"""Section 6.6's four design rules must hold under the calibrated models."""

from repro.model import (
    design_rules,
    rule_crossbar_parallelism,
    rule_edge_storage,
    rule_partition_count,
    rule_vertex_storage,
)


def test_rule_1_edge_storage():
    assert rule_edge_storage()


def test_rule_2_vertex_storage():
    assert rule_vertex_storage()


def test_rule_3_crossbar_parallelism():
    assert rule_crossbar_parallelism()


def test_rule_4_partition_count():
    assert rule_partition_count()


def test_all_rules_bundle():
    rules = design_rules()
    assert set(rules) == {
        "edge_storage",
        "vertex_storage",
        "crossbar_parallelism",
        "partition_count",
    }
    assert all(rules.values()), rules
