"""Tests for graph I/O: edge-list text and binary files."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph, VERTEX_ID_BITS, io


class TestEdgeListValidation:
    """Malformed edge-list inputs fail with GraphError + line number."""

    def _load(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        return io.load_edge_list(path)

    def test_non_integer_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*integers"):
            self._load(tmp_path, "0 1\n2 banana\n")

    def test_float_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1"):
            self._load(tmp_path, "0.5 1\n")

    def test_negative_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*negative"):
            self._load(tmp_path, "0 1\n-3 2\n")

    def test_nan_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*finite"):
            self._load(tmp_path, "0 1 nan\n")

    def test_inf_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*finite"):
            self._load(tmp_path, "0 1 2.5\n1 0 inf\n")

    def test_malformed_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*weight"):
            self._load(tmp_path, "0 1 heavy\n")

    def test_inconsistent_columns(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*column"):
            self._load(tmp_path, "0 1\n1 2 3.5\n")

    def test_too_many_columns(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1"):
            self._load(tmp_path, "0 1 2 3\n")

    def test_malformed_vertex_header(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*vertex-count"):
            self._load(tmp_path, "# vertices: many\n0 1\n")

    def test_negative_vertex_header(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*negative"):
            self._load(tmp_path, "# vertices: -4\n")

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n1 \xff\xfe\n")
        with pytest.raises(GraphError, match=r"bad\.txt:2.*UTF-8"):
            io.load_edge_list(path)

    def test_vertex_id_above_limit(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*32-bit"):
            self._load(tmp_path, "0 1\n99999999999 0\n")

    def test_vertex_id_at_limit(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*32-bit"):
            self._load(tmp_path, f"0 {2 ** VERTEX_ID_BITS}\n")

    def test_vertex_header_at_limit(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*32-bit"):
            self._load(tmp_path, f"# vertices: {2 ** VERTEX_ID_BITS}\n0 1\n")

    def test_num_vertices_argument_at_limit(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphError, match=r"bad\.txt.*32-bit"):
            io.load_edge_list(path, num_vertices=2 ** VERTEX_ID_BITS)

    def test_blank_lines_and_comments_ok(self, tmp_path):
        g = self._load(tmp_path, "# a comment\n\n0 1\n\n1 2\n")
        assert g.num_edges == 2
        assert g.num_vertices == 3


class TestEdgeListText:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.txt"
        io.save_edge_list(tiny_graph, path)
        loaded = io.load_edge_list(path)
        assert loaded.num_vertices == tiny_graph.num_vertices
        np.testing.assert_array_equal(loaded.src, tiny_graph.src)
        np.testing.assert_array_equal(loaded.dst, tiny_graph.dst)

    def test_round_trip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "w.txt"
        io.save_edge_list(weighted_graph, path)
        loaded = io.load_edge_list(path)
        assert loaded.is_weighted
        np.testing.assert_allclose(loaded.weights, weighted_graph.weights)

    def test_vertex_count_from_header(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# vertices: 100\n0\t1\n")
        assert io.load_edge_list(path).num_vertices == 100

    def test_vertex_count_inferred(self, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text("0 7\n3 2\n")
        assert io.load_edge_list(path).num_vertices == 8

    def test_explicit_vertex_count_wins(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# vertices: 5\n0 1\n")
        assert io.load_edge_list(path, num_vertices=50).num_vertices == 50

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\n0 1\n# more\n1 0\n")
        assert io.load_edge_list(path).num_edges == 2

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            io.load_edge_list(path)

    def test_rejects_partial_weights(self, tmp_path):
        path = tmp_path / "pw.txt"
        path.write_text("0 1 2.5\n1 0\n")
        with pytest.raises(GraphError):
            io.load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = io.load_edge_list(path)
        assert g.num_edges == 0


class TestBinary:
    def test_round_trip(self, medium_rmat, tmp_path):
        path = tmp_path / "g.npz"
        io.save_binary(medium_rmat, path)
        loaded = io.load_binary(path)
        assert loaded.name == medium_rmat.name
        np.testing.assert_array_equal(loaded.src, medium_rmat.src)
        np.testing.assert_array_equal(loaded.dst, medium_rmat.dst)

    def test_round_trip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "w.npz"
        io.save_binary(weighted_graph, path)
        loaded = io.load_binary(path)
        np.testing.assert_allclose(loaded.weights, weighted_graph.weights)

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "e.npz"
        io.save_binary(Graph.empty(7), path)
        loaded = io.load_binary(path)
        assert loaded.num_vertices == 7
        assert loaded.num_edges == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.load_binary(tmp_path / "absent.npz")

    def test_rejects_non_npz(self, tmp_path):
        path = tmp_path / "text.npz"
        path.write_text("0 1\n1 2\n")
        with pytest.raises(GraphError, match=r"text\.npz"):
            io.load_binary(path)

    def test_rejects_truncated(self, medium_rmat, tmp_path):
        path = tmp_path / "cut.npz"
        io.save_binary(medium_rmat, path)
        image = path.read_bytes()
        path.write_bytes(image[: len(image) // 2])
        with pytest.raises(GraphError, match=r"cut\.npz"):
            io.load_binary(path)

    def test_rejects_missing_arrays(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(GraphError, match=r"other\.npz.*num_vertices"):
            io.load_binary(path)

    def test_rejects_vertex_count_at_limit(self, tmp_path):
        path = tmp_path / "huge.npz"
        np.savez(path, num_vertices=np.int64(2 ** VERTEX_ID_BITS),
                 src=np.zeros(1, np.int32), dst=np.zeros(1, np.int32),
                 name=np.bytes_(b"huge"))
        with pytest.raises(GraphError, match=r"huge\.npz.*32-bit"):
            io.load_binary(path)

