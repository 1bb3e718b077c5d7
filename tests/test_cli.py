"""Tests for the command-line interface."""

from __future__ import annotations

import warnings

import pytest

from repro.cli import load_rules, main, save_rules
from repro.core import discover, gfd_identity
from repro.gfd import parse_gfd
from repro.graph import save_json, save_tsv


@pytest.fixture
def graph_file(tmp_path, film_graph):
    path = tmp_path / "graph.json"
    save_json(film_graph, path)
    return str(path)


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.gfd"
    path.write_text(
        "# comment line\n"
        'Q[x, y] { (x:person)-[create]->(y:product) } '
        '(y.type="film" -> x.type="producer")\n'
        "\n"
        'Q[x, y] { (x:person)-[create]->(y:product) } '
        '(y.type="film" & y.title="f0" -> x.type="producer")\n'
    )
    return str(path)


class TestCLI:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes: 240" in out
        assert "person" in out

    def test_discover(self, graph_file, capsys, tmp_path):
        out_file = tmp_path / "found.gfd"
        code = main(
            [
                "discover",
                graph_file,
                "--k", "2",
                "--sigma", "30",
                "--max-lhs", "1",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "producer" in out
        saved = load_rules(str(out_file))
        assert saved

    def test_discover_workers(self, graph_file, capsys):
        assert main(
            ["discover", graph_file, "--k", "2", "--sigma", "30", "--workers", "3"]
        ) == 0
        assert "producer" in capsys.readouterr().out

    def test_validate_clean(self, graph_file, rules_file):
        assert main(["validate", graph_file, rules_file]) == 0

    def test_validate_dirty(self, tmp_path, film_graph, rules_file, capsys):
        film_graph.set_attr(0, "type", "gardener")  # break the rule
        dirty_path = tmp_path / "dirty.json"
        save_json(film_graph, dirty_path)
        assert main(["validate", str(dirty_path), rules_file]) == 1
        assert "violation" in capsys.readouterr().out

    def test_cover(self, rules_file, capsys, tmp_path):
        out_file = tmp_path / "cover.gfd"
        assert main(["cover", rules_file, "--output", str(out_file)]) == 0
        assert len(load_rules(str(out_file))) == 1  # redundant rule removed

    def test_cover_workers_matches_sequential(
        self, tmp_path, film_graph, film_config
    ):
        """``cover --workers 2`` (ParCover on a CLI-owned backend) keeps the
        same rules as the sequential cover, and warns about nothing."""
        rules = tmp_path / "rules.gfd"
        save_rules(discover(film_graph, film_config).gfds, str(rules))
        covers = {}
        for name, flags in (("sequential", []), ("parallel", ["--workers", "2"])):
            out_file = tmp_path / f"{name}.gfd"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["cover", str(rules), "--output", str(out_file)] + flags)
            assert code == 0
            assert caught == []
            covers[name] = {
                gfd_identity(g) for g in load_rules(str(out_file))
            }
        assert covers["parallel"] == covers["sequential"]
        assert 0 < len(covers["sequential"]) < len(load_rules(str(rules)))

    def test_tsv_graph(self, tmp_path, film_graph, capsys):
        path = tmp_path / "graph.tsv"
        save_tsv(film_graph, path)
        assert main(["stats", str(path)]) == 0

    def test_bad_extension(self, tmp_path):
        path = tmp_path / "graph.xml"
        path.write_text("<x/>")
        with pytest.raises(SystemExit):
            main(["stats", str(path)])

    def test_bad_rule_file(self, tmp_path, graph_file):
        rules = tmp_path / "bad.gfd"
        rules.write_text("this is not a GFD\n")
        with pytest.raises(SystemExit):
            main(["validate", graph_file, str(rules)])

    def test_round_trip_rules(self, tmp_path):
        rules = [
            parse_gfd('Q[x] { (x:a) } ( -> x.v="1")'),
            parse_gfd("Q[x, y] { (x:a)-[e]->(y:b) } ( -> false)"),
        ]
        path = tmp_path / "r.gfd"
        save_rules(rules, str(path))
        loaded = load_rules(str(path))
        assert [str(r) for r in loaded] == [str(r) for r in rules]

    def test_round_trip_rules_json(self, tmp_path):
        rules = [
            parse_gfd('Q[x] { (x:a) } ( -> x.v="1")'),
            parse_gfd("Q[x, y] { (x:a)-[e]->(y:b) } ( -> false)"),
        ]
        path = tmp_path / "r.json"
        save_rules(rules, str(path), supports={rules[0]: 5})
        loaded = load_rules(str(path))
        assert [str(r) for r in loaded] == [str(r) for r in rules]

    def test_discover_to_enforce_json_pipeline(
        self, graph_file, tmp_path, capsys
    ):
        sigma_file = tmp_path / "sigma.json"
        assert main(
            [
                "discover", graph_file,
                "--k", "2", "--sigma", "30", "--max-lhs", "1",
                "--output", str(sigma_file),
            ]
        ) == 0
        capsys.readouterr()
        # the clean graph satisfies its own discovered rules
        assert main(["enforce", graph_file, str(sigma_file)]) == 0

    def test_pipeline_trace_artifacts(self, graph_file, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        events_file = tmp_path / "events.jsonl"
        args = [
            "pipeline", graph_file,
            "--k", "2", "--sigma", "30", "--max-lhs", "1",
        ]
        assert main(args + ["--trace", str(trace_file)]) == 0
        capsys.readouterr()
        document = json.loads(trace_file.read_text())
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert {"session", "phase", "superstep"} <= cats
        instants = [
            e for e in document["traceEvents"] if e["ph"] == "i"
        ]
        assert any(e["name"] == "enforce_pass" for e in instants)
        # a .jsonl path selects the typed-event log instead
        assert main(args + ["--trace", str(events_file)]) == 0
        capsys.readouterr()
        header = json.loads(events_file.read_text().splitlines()[0])
        assert header["record"] == "header"

    def test_enforce_dirty(self, tmp_path, film_graph, rules_file, capsys):
        film_graph.set_attr(0, "type", "gardener")  # break the rule
        dirty_path = tmp_path / "dirty.json"
        save_json(film_graph, dirty_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "enforce", str(dirty_path), rules_file,
                "--samples", "3", "--json", str(report_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr()
        assert "violation" in out.out
        assert "distinct patterns" in out.err
        import json

        report = json.loads(report_path.read_text())
        assert report["total_violations"] >= 1
        assert 0 in report["flagged_nodes"]
        assert len(report["rules"]) == 2

    def test_enforce_workers(self, tmp_path, film_graph, rules_file, capsys):
        film_graph.set_attr(0, "type", "gardener")
        dirty_path = tmp_path / "dirty.json"
        save_json(film_graph, dirty_path)
        assert main(
            [
                "enforce", str(dirty_path), rules_file,
                "--backend", "serial", "--workers", "3",
            ]
        ) == 1
