"""Property-based tests: the dynamic store tracks a reference multiset."""

from collections import Counter

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.dynamic import DynamicGraphStore
from repro.graph import Graph


class DynamicStoreMachine(RuleBasedStateMachine):
    """Random op sequences must keep the store consistent with a plain
    Counter-based reference model."""

    @initialize(
        n=st.integers(min_value=4, max_value=24),
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)),
            max_size=40,
        ),
    )
    def setup(self, n, edges):
        edges = [(s % n, d % n) for s, d in edges]
        graph = Graph.from_edges(n, edges)
        self.store = DynamicGraphStore(graph, num_intervals=min(4, n))
        self.reference = Counter(edges)
        self.live = set(range(n))
        self.n = n

    @rule(data=st.data())
    def add_edge(self, data):
        if not self.live:
            return
        live = sorted(self.live)
        s = data.draw(st.sampled_from(live))
        d = data.draw(st.sampled_from(live))
        self.store.add_edge(s, d)
        self.reference[(s, d)] += 1

    @rule(data=st.data())
    def delete_edge(self, data):
        existing = [e for e, c in self.reference.items() if c > 0]
        if not existing:
            return
        edge = data.draw(st.sampled_from(sorted(existing)))
        self.store.delete_edge(*edge)
        self.reference[edge] -= 1

    @rule()
    def add_vertex(self):
        v = self.store.add_vertex()
        self.live.add(v)
        self.n = max(self.n, v + 1)

    @rule(data=st.data())
    def delete_vertex(self, data):
        if not self.live:
            return
        v = data.draw(st.sampled_from(sorted(self.live)))
        self.store.delete_vertex(v)
        self.live.discard(v)

    @invariant()
    def edge_multiset_matches(self):
        expected = +self.reference  # drop zero-count entries
        exported = self.store.to_graph()
        actual = Counter(zip(exported.src.tolist(), exported.dst.tolist()))
        assert actual == expected

    @invariant()
    def edge_count_matches(self):
        assert self.store.num_edges == sum(self.reference.values())


DynamicStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestDynamicStoreStateful = DynamicStoreMachine.TestCase


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
    )
)
@settings(max_examples=40, deadline=None)
def test_add_then_delete_everything_empties_store(pairs):
    graph = Graph.empty(16)
    store = DynamicGraphStore(graph, num_intervals=4)
    for s, d in pairs:
        store.add_edge(s, d)
    for s, d in pairs:
        store.delete_edge(s, d)
    assert store.num_edges == 0
    assert store.to_graph().num_edges == 0
