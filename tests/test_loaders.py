"""Tests for SNAP text loading/saving."""

import gzip

import numpy as np
import pytest

from repro.graph import loaders
from repro.graph.generators import make_dataset
from repro.graph.loaders import load_snap_text, save_snap_text
from repro.graph.temporal_graph import TemporalGraph


class TestRoundTrip:
    def test_save_load_roundtrip(self, tmp_path, burst_graph):
        path = tmp_path / "g.txt"
        save_snap_text(burst_graph, path)
        loaded = load_snap_text(path)
        assert [e.as_tuple() for e in loaded.edges()] == [
            e.as_tuple() for e in burst_graph.edges()
        ]

    def test_gzip_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "g.txt.gz"
        save_snap_text(tiny_graph, path)
        loaded = load_snap_text(path)
        assert loaded.num_edges == tiny_graph.num_edges

    def test_gzip_large_timestamp_roundtrip(self, tmp_path):
        # Timestamps above 2**53 are not representable in a float64;
        # parsing must go through int() to survive the round trip.
        big = 2**60 + 3
        g = TemporalGraph([(0, 1, big), (1, 2, big + 7)])
        path = tmp_path / "g.txt.gz"
        save_snap_text(g, path)
        loaded = load_snap_text(path)
        assert [e.as_tuple() for e in loaded.edges()] == [
            (0, 1, big),
            (1, 2, big + 7),
        ]

    @pytest.mark.parametrize("name", ["wiki-talk", "email-eu"])
    def test_generated_graph_roundtrips_array_for_array(self, tmp_path, name):
        g = make_dataset(name, scale=1.0, seed=0)
        path = tmp_path / "g.txt"
        save_snap_text(g, path)
        loaded = load_snap_text(path, num_nodes=g.num_nodes)
        for key, a in g.as_arrays().items():
            assert np.array_equal(getattr(loaded, key), a), key
        assert loaded.fingerprint() == g.fingerprint()

    def test_chunked_writer_bytes_equal_one_line_per_edge(
        self, tmp_path, monkeypatch
    ):
        # 11,993 edges: eleven chunks of 1,000 and a ragged one, so
        # every seam between chunks is inside the file.
        monkeypatch.setattr(loaders, "WRITE_CHUNK", 1_000)
        g = make_dataset("wiki-talk", scale=1.0, seed=0)
        g = TemporalGraph.from_arrays(g.src[:-7], g.dst[:-7], g.ts[:-7])
        path = tmp_path / "g.txt"
        save_snap_text(g, path)
        want = "".join(f"{e.src} {e.dst} {e.t}\n" for e in g.edges())
        assert path.read_text() == want


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% another\n0 1 10\n1 2 20\n")
        g = load_snap_text(path)
        assert g.num_edges == 2

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 10 weight=3\n")
        assert load_snap_text(path).num_edges == 1

    def test_float_timestamps_truncated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 10.7\n")
        assert load_snap_text(path).edge(0).t == 10

    def test_large_integer_timestamps_exact(self, tmp_path):
        # int(float("9007199254740993")) would give ...992; the integer
        # fast path must keep the exact value.
        t = 2**53 + 1
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 {t}\n")
        assert load_snap_text(path).edge(0).t == t

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="expected"):
            load_snap_text(path)

    @pytest.mark.parametrize("line,why", [
        ("0 x 10", "invalid literal"),                 # non-integer dst
        ("0.5 1 10", "invalid literal"),               # non-integer src
        ("0 1 nan", "NaN"),                            # nan timestamp
        ("0 1 1e400", "infinity"),                     # float overflow
        ("0 1 9223372036854775808", "int64"),          # above int64
        ("-9223372036854775809 1 5", "int64"),         # below int64
    ])
    def test_bad_value_names_its_line(self, tmp_path, line, why):
        path = tmp_path / "g.txt"
        path.write_text(f"# header\n0 1 5\n{line}\n1 2 20\n")
        with pytest.raises(ValueError, match=why) as err:
            load_snap_text(path)
        assert str(err.value).startswith(f"{path}:3: ")

    def test_num_nodes_override(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 10\n")
        g = load_snap_text(path, num_nodes=5)
        assert g.num_nodes == 5

    def test_unsorted_input_gets_sorted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 30\n1 2 10\n")
        g = load_snap_text(path)
        assert g.edge(0).t == 10
