"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import main
from repro.graph.generators import make_dataset
from repro.graph.loaders import save_snap_text
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1

#: SHA-256 of ``mine --approx --json`` stdout for the ``graph_file``
#: graph at δ = span // 30 and the default sampling contract: 1,024
#: samples, estimate 70 ± 9.  Pinned so any change to the sampler, its
#: chunking or the payload shows up as a byte diff.
APPROX_JSON_SHA256 = (
    "46ab9a35a6bf02aced24909c2b6b1016f73cfdf6ddbccefedad61c75f952573d"
)

#: SHA-256 of ``census --json`` stdout for wiki-talk ×0.3 (seed 5) at
#: δ = 30 mean inter-edge gaps: counts, family and per-motif counters
#: and sharing of the 36-motif grid, serial and pooled.  Pinned so a
#: walker change that moves any of them shows up as a byte diff.
CENSUS_JSON_SHA256 = (
    "3d55090a6220eee18ca770b48ba66adca964a6da2e9861029138b041788e67fb"
)

#: SHA-256 of the file ``generate wiki-talk --scale 0.3 --seed 5``
#: writes, taken from the generator that called ``rng.choice`` per pick
#: and the writer that formatted one ``TemporalEdge`` per line, before
#: both became array-native.  The chunked writer must not move a byte.
GENERATE_WIKI_SHA256 = (
    "5bbc93ff4533a701ef8f77fa28ff40e373c2497dcdc8309d972f42039feaf9da"
)


@pytest.fixture
def graph_file(tmp_path):
    g = make_dataset("email-eu", scale=0.04, seed=3)
    path = tmp_path / "g.txt"
    save_snap_text(g, path)
    return str(path), g


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert main(["generate", "email-eu", str(out), "--scale", "0.05"]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "email-eu", str(a), "--scale", "0.05", "--seed", "9"])
        main(["generate", "email-eu", str(b), "--scale", "0.05", "--seed", "9"])
        assert a.read_text() == b.read_text()

    def test_generate_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "wiki.txt"
        assert main(["generate", "wiki-talk", str(out), "--scale", "0.3",
                     "--seed", "5"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            GENERATE_WIKI_SHA256
        )


class TestMine:
    def test_mine_counts(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--motif", "M1", "--delta", str(delta)]) == 0
        out = capsys.readouterr().out
        assert "M1 count" in out
        from repro.mining.mackey import count_motifs
        from repro.motifs.catalog import M1

        expected = count_motifs(g, M1, delta)
        assert f": {expected}" in out

    def test_mine_show_matches(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 20
        main(["mine", path, "--motif", "M1", "--delta", str(delta),
              "--show-matches", "2"])
        out = capsys.readouterr().out
        assert "candidates examined" in out
        # Recording is capped at N: exactly N match lines are printed.
        assert out.count("  match:") == 2

    def test_mine_workers_matches_serial(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 30
        from repro.mining.mackey import count_motifs
        from repro.motifs.catalog import M1

        expected = count_motifs(g, M1, delta)
        assert main(["mine", path, "--motif", "M1", "--delta", str(delta),
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert f": {expected}" in out
        assert "2 workers" in out

    def test_mine_workers_rejects_show_matches(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--delta", str(delta), "--workers", "2",
                     "--show-matches", "1"]) == 2
        assert "error" in capsys.readouterr().out

    def test_mine_workers_rejects_memoize(self, graph_file, capsys):
        """Worker chunks have no memoize option: silently reporting the
        un-memoized counters would misstate the cost model."""
        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--delta", str(delta), "--workers", "2",
                     "--memoize"]) == 2
        assert "error: --memoize" in capsys.readouterr().out


class TestOtherCommands:
    def test_info(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "temporal edges" in out

    def test_census(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 60
        assert main(["census", path, "--delta", str(delta)]) == 0
        out = capsys.readouterr().out
        assert "r6" in out and "total:" in out

    def test_census_workers_matches_serial(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 60
        assert main(["census", path, "--delta", str(delta)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["census", path, "--delta", str(delta),
                     "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_simulate(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 30
        assert main(
            ["simulate", path, "--delta", str(delta), "--pes", "16",
             "--cache-kb", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "matches" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "512x" in capsys.readouterr().out

    def test_experiment_fig14(self, capsys):
        assert main(["experiment", "fig14"]) == 0
        assert "28.3" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--lanes", "0"], ["--queue-size", "0"], ["--cache-mb", "-1"],
        ["--cache-mb", "nan"], ["--port", "70000"], ["--port", "-1"],
        ["--workers", "-1"], ["--cluster", "-1"],
    ])
    def test_serve_rejects_bad_flags_before_loading(self, capsys, flag):
        # The graph file does not exist: reading it would raise, so a
        # clean exit 2 shows the flags were checked first.
        assert main(["serve", "g=/no/such/graph.txt", *flag]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and flag[0] in out


class TestJsonOutput:
    def test_mine_json_payload_shape(self, graph_file, capsys):
        import json

        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--motif", "M1", "--delta", str(delta),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "graph", "motif", "delta", "count", "counters", "accuracy",
        }
        assert payload["accuracy"] == "exact"
        assert payload["motif"] == "M1"
        assert payload["graph"] == g.fingerprint()
        from repro.mining.mackey import count_motifs
        from repro.motifs.catalog import M1

        assert payload["count"] == count_motifs(g, M1, delta)

    def test_mine_json_matches_service_payload_bytes(self, graph_file, capsys):
        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--motif", "M2", "--delta", str(delta),
                     "--json"]) == 0
        cli_line = capsys.readouterr().out.strip()
        from repro.service import MotifService, payload_bytes

        with MotifService() as svc:
            served = svc.query(g, "M2", delta)
        assert cli_line.encode() == payload_bytes(served.payload)

    def test_mine_json_workers_same_count(self, graph_file, capsys):
        import json

        path, g = graph_file
        delta = g.time_span // 30
        assert main(["mine", path, "--motif", "M1", "--delta", str(delta),
                     "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["mine", path, "--motif", "M1", "--delta", str(delta),
                     "--workers", "2", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel == serial

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_mine_approx_json_bytes_are_pinned(self, graph_file, capsys, workers):
        """Serial and pooled sampling print the same bytes: the pinned
        ones."""
        path, g = graph_file
        assert main(["mine", path, "--delta", str(g.time_span // 30),
                     "--approx", "--json", "--workers", workers]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == APPROX_JSON_SHA256

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_census_json_bytes_are_pinned(self, tmp_path, capsys, workers):
        g = make_dataset("wiki-talk", scale=0.3, seed=5)
        path = tmp_path / "wiki.txt"
        save_snap_text(g, path)
        delta = 30 * g.time_span // g.num_edges
        assert main(["census", str(path), "--delta", str(delta), "--json",
                     "--workers", workers]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == CENSUS_JSON_SHA256

    def test_mine_json_rejects_show_matches(self, graph_file, capsys):
        path, g = graph_file
        assert main(["mine", path, "--delta", "10", "--json",
                     "--show-matches", "1"]) == 2
        assert "error" in capsys.readouterr().out

    def test_census_json_matches_text_totals(self, graph_file, capsys):
        import json

        path, g = graph_file
        delta = g.time_span // 60
        assert main(["census", path, "--delta", str(delta)]) == 0
        text_out = capsys.readouterr().out
        total_line = text_out.rsplit("total:", 1)[1].splitlines()[0]
        total = int(total_line.strip().replace(",", ""))
        # The default is the family engine, so the sharing summary follows.
        assert "prefix-hit ratio" in text_out
        assert main(["census", path, "--delta", str(delta), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "graph", "delta", "engine", "grid", "total", "counters",
            "per_motif", "sharing",
        }
        assert payload["total"] == total
        assert payload["engine"] == "batched"
        assert len(payload["grid"]) == 36
        assert len(payload["per_motif"]) == 36
        assert payload["graph"] == g.fingerprint()

    def test_census_matches_mackey(self, graph_file, capsys):
        import json

        from repro.motifs.grid import paranjape_grid

        path, g = graph_file
        delta = g.time_span // 60
        assert main(["census", path, "--delta", str(delta), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for (r, c), motif in paranjape_grid().items():
            serial = MackeyMiner(g, motif, delta).mine()
            assert payload["grid"][f"r{r}c{c}"] == serial.count
            assert payload["per_motif"][motif.name] == serial.counters.as_dict()
        assert (payload["sharing"]["trie_nodes"]
                < payload["sharing"]["unshared_nodes"])

    def test_mine_json_matches_mackey(self, graph_file, capsys):
        import json

        path, g = graph_file
        assert main(["mine", path, "--delta", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        serial = MackeyMiner(g, M1, 10).mine()
        assert payload["count"] == serial.count
        assert payload["counters"] == serial.counters.as_dict()

    def test_mine_engine_default_follows_the_options(self, graph_file, capsys):
        """The family walker unless an option asks for what only the
        scalar miner does; the text summary differs in the tag alone."""
        path, g = graph_file
        assert main(["mine", path, "--delta", "10"]) == 0
        default = capsys.readouterr().out
        assert "[batched, 0 workers, 1 chunks]" in default
        # --memoize / --show-matches run the dedicated scalar miner (no tag).
        assert main(["mine", path, "--delta", "10", "--memoize"]) == 0
        memoized = capsys.readouterr().out
        assert "[" not in memoized
        assert memoized.splitlines()[0] == default.splitlines()[0]
        assert main(["mine", path, "--delta", "10", "--show-matches", "1"]) == 0
        assert "[" not in capsys.readouterr().out
        assert main(["mine", path, "--delta", "10", "--approx"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["mine", "census"])
    @pytest.mark.parametrize("engine", ["mackey", "batched", "comine"])
    def test_engine_flag_is_gone(self, graph_file, capsys, command, engine):
        path, g = graph_file
        with pytest.raises(SystemExit) as exit_:
            main([command, path, "--delta", "10", "--engine", engine])
        assert exit_.value.code == 2
        assert "--engine" in capsys.readouterr().err
