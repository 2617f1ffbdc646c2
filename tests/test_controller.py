"""Tests for the hybrid memory controller and the memory map."""

import pytest

from repro.errors import ConfigError
from repro.graph import IntervalBlockPartition
from repro.memory import (
    BLOCK_HEADER_WORDS,
    Extent,
    HybridMemoryController,
    INTERVAL_HEADER_WORDS,
    MemoryMap,
)


@pytest.fixture
def partition(tiny_graph):
    return IntervalBlockPartition.build(tiny_graph, 4)


@pytest.fixture
def memory_map(partition):
    return MemoryMap.build(partition)


class TestExtent:
    def test_free(self):
        assert Extent(0, 10, 4).free == 6

    def test_rejects_overfull(self):
        with pytest.raises(ConfigError):
            Extent(0, 4, 5)

    def test_rejects_negative_offset(self):
        with pytest.raises(ConfigError):
            Extent(-1, 4, 2)


class TestMemoryMap:
    def test_block_extent_sizes(self, partition, memory_map):
        for i in range(4):
            for j in range(4):
                extent = memory_map.block_extent(i, j)
                edges = partition.block_edge_count(i, j)
                assert extent.used == BLOCK_HEADER_WORDS + 2 * edges
                assert extent.free >= 0

    def test_blocks_do_not_overlap(self, memory_map):
        extents = sorted(memory_map.block_extents, key=lambda e: e.offset)
        for a, b in zip(extents, extents[1:]):
            assert a.offset + a.capacity <= b.offset

    def test_interval_extents(self, partition, memory_map):
        for i in range(4):
            extent = memory_map.interval_extent(i)
            assert extent.used == (
                INTERVAL_HEADER_WORDS + partition.interval_size(i)
            )

    def test_total_words(self, memory_map):
        assert memory_map.edge_words == sum(
            e.capacity for e in memory_map.block_extents
        )
        assert memory_map.vertex_words == sum(
            e.capacity for e in memory_map.interval_extents
        )

    def test_slack_ratio_positive(self, memory_map):
        assert 0.0 < memory_map.slack_ratio() < 1.0

    def test_zero_slack(self, partition):
        m = MemoryMap.build(partition, block_slack=0.0, interval_slack=0.0)
        # Empty blocks still get a minimal landing pad.
        assert m.slack_ratio() >= 0.0

    def test_rejects_negative_slack(self, partition):
        with pytest.raises(ConfigError):
            MemoryMap.build(partition, block_slack=-0.1)

    def test_bits_properties(self, memory_map):
        assert memory_map.edge_bits == memory_map.edge_words * 32
        assert memory_map.vertex_bits == memory_map.vertex_words * 32

    def test_out_of_range(self, memory_map):
        with pytest.raises(ConfigError):
            memory_map.block_extent(4, 0)
        with pytest.raises(ConfigError):
            memory_map.interval_extent(-1)


class TestController:
    def test_initially_nothing_resident(self, memory_map):
        controller = HybridMemoryController(memory_map)
        assert controller.needs_scheduling((0, 0))

    def test_loading_marks_resident(self, memory_map):
        controller = HybridMemoryController(memory_map)
        controller.load_source_intervals([0, 1])
        controller.load_destination_intervals([2])
        assert not controller.needs_scheduling((0, 2))
        assert not controller.needs_scheduling((1, 2))
        assert controller.needs_scheduling((2, 2))
        assert controller.needs_scheduling((0, 0))

    def test_load_returns_only_new_fetches(self, memory_map):
        controller = HybridMemoryController(memory_map)
        assert controller.load_source_intervals([0, 1]) == [0, 1]
        assert controller.load_source_intervals([1, 2]) == [2]

    def test_replacement_evicts(self, memory_map):
        controller = HybridMemoryController(memory_map)
        controller.load_source_intervals([0])
        controller.load_source_intervals([3])
        assert 0 not in controller.resident_source_intervals

    def test_address_translation(self, memory_map):
        controller = HybridMemoryController(memory_map)
        assert controller.edge_stream_extent(1, 2) is memory_map.block_extent(1, 2)
        assert controller.vertex_extent(3) is memory_map.interval_extent(3)

    def test_load_validates_interval_ids(self, memory_map):
        controller = HybridMemoryController(memory_map)
        with pytest.raises(ConfigError):
            controller.load_source_intervals([99])
