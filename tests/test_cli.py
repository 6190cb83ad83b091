from __future__ import annotations

import json

import pytest
from conftest import fixture_path

from elia.cli import main
from elia.exporter import import_graph_json
from elia.store import load_store


def run(*argv):
    return main([str(a) for a in argv])


def test_ingest_bol_missing_file_exits_2_without_store(tmp_path, capsys):
    store = tmp_path / "store"
    code = run("--store", store, "ingest-bol", tmp_path / "missing.csv")
    assert code == 2
    assert not store.exists()


def test_ingest_bol_and_idempotent_rerun(tmp_path, capsys):
    store = tmp_path / "store"
    code = run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    assert code == 0
    out = capsys.readouterr().out
    assert "accepted=3" in out and "added=3" in out
    code = run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    assert code == 0
    out = capsys.readouterr().out
    assert "added=0" in out and "skipped_existing=3" in out
    assert len(load_store(str(store)).records) == 3


def test_eval_subcommand_prints_scores(tmp_path, capsys):
    out_json = tmp_path / "metrics.json"
    code = run(
        "eval",
        "--pred", fixture_path("eval", "pred.ndjson"),
        "--gold", fixture_path("eval", "gold.ndjson"),
        "--out", out_json,
    )
    assert code == 0
    out = capsys.readouterr().out
    buyer_line = next(line for line in out.splitlines() if line.startswith("Buyer"))
    assert buyer_line.split() == ["Buyer", "1.000", "1.000", "1.000", "1.000"]
    supplier_line = next(line for line in out.splitlines() if line.startswith("Supplier"))
    assert supplier_line.split() == ["Supplier", "1.000", "0.958", "0.979", "0.958"]
    data = json.loads(out_json.read_text())
    assert data["buyer"]["f1"] == 1.0


def test_eval_bad_gold_file_exits_1(tmp_path):
    bad = tmp_path / "gold.ndjson"
    bad.write_text('{"source_id": "s1", "buyer": "A", "supplier": "B", "item": "c"}\n' * 2)
    code = run("eval", "--pred", bad, "--gold", bad)
    assert code == 1


@pytest.mark.parametrize("bad_row, reason", [
    ('{"item_pattern": "WINE*"}', "missing field 'per_kg_co2e'"),
    ('{"item_pattern": "WINE*", "per_kg', "malformed factor row"),
])
def test_build_malformed_factor_row_exits_1(tmp_path, caplog, bad_row, reason):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    factors = tmp_path / "factors.ndjson"
    factors.write_text('{"item_pattern": "*", "per_kg_co2e": 1.0}\n' + bad_row + "\n")
    assert run("--store", store, "build", "--factors", factors) == 1
    assert f"{factors}:2: {reason}" in caplog.text


@pytest.mark.parametrize("bad_row, reason", [
    ('{"sentence_id": "s1"}', "missing field 'response_text'"),
    ('{"sentence_id": "s1", "resp', "malformed fixture row"),
])
def test_extract_malformed_fixture_row_exits_1(tmp_path, caplog, bad_row, reason):
    store = tmp_path / "store"
    transcripts = sorted((fixture_path() / "transcripts").glob("*.txt"))
    assert run("--store", store, "ingest-transcripts", *transcripts) == 0
    fixture = tmp_path / "responses.ndjson"
    fixture.write_text('{"sentence_id": "s0", "response_text": "x"}\n' + bad_row + "\n")
    assert run("--store", store, "extract", "--backend", "recorded", "--fixture", fixture) == 1
    assert f"{fixture}:2: {reason}" in caplog.text


def test_full_pipeline_via_subcommands(tmp_path, capsys):
    store = tmp_path / "store"
    fx = fixture_path()
    assert run("--store", store, "ingest-bol", fx / "bol_demo.csv", "--normalize-products") == 0
    transcripts = sorted((fx / "transcripts").glob("*.txt"))
    assert run(
        "--store", store, "ingest-transcripts", *transcripts,
        "--gazetteer", fx / "gazetteer.txt",
    ) == 0
    capsys.readouterr()
    # idempotent re-ingest: same files, nothing added
    assert run(
        "--store", store, "ingest-transcripts", *transcripts,
        "--gazetteer", fx / "gazetteer.txt",
    ) == 0
    assert "added=0" in capsys.readouterr().out
    assert run(
        "--store", store, "extract",
        "--backend", "recorded", "--fixture", fx / "mock_responses.ndjson",
    ) == 0
    out = capsys.readouterr().out
    assert "triples=4 errors=0" in out

    # extract again: nothing pending, no duplicate triples
    assert run(
        "--store", store, "extract",
        "--backend", "recorded", "--fixture", fx / "mock_responses.ndjson",
    ) == 0
    assert "pending=0" in capsys.readouterr().out

    assert run("--store", store, "resolve") == 0
    loaded = load_store(str(store))
    assert loaded.alias_map["Apex Steelworks"] == loaded.alias_map["APEX STEELWORKS LLC"]

    assert run("--store", store, "build", "--factors", fx / "factors_demo.ndjson") == 0
    graph_path = store / "graph.json"
    assert graph_path.exists()
    graph = import_graph_json(str(graph_path))
    assert len(graph.edges) == 12 + 3  # shipments + resolvable triples

    assert run("--store", store, "propagate") == 0
    assert (store / "report.json").exists()

    assert run("--store", store, "query", "top", "--by", "retained", "-k", "3") == 0
    out = capsys.readouterr().out
    assert "HOMESTEAD RETAIL GROUP LLC" in out

    assert run("--store", store, "query", "supplier-count",
               "--node", "HOMESTEAD RETAIL GROUP LLC") == 0
    out = capsys.readouterr().out
    # two distinct suppliers: the transcript-derived structure edge shares
    # its canonical source with the shipment edge from the same firm
    assert out.splitlines()[-1].endswith("2")

    gexf = tmp_path / "graph.gexf"
    assert run("--store", store, "export", "--format", "gexf", "--out", gexf,
               "--with-report") == 0
    assert gexf.exists()
    dot = tmp_path / "graph.dot"
    assert run("--store", store, "export", "--format", "dot", "--out", dot) == 0
    assert dot.read_text().startswith("digraph")


def test_query_against_missing_store_exits_2(tmp_path):
    assert run("--store", tmp_path / "none", "query", "top") == 2


def test_query_unknown_node_exits_1(tmp_path):
    store = tmp_path / "store"
    run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    run("--store", store, "resolve")
    run("--store", store, "build", "--constant-factor", "1.0")
    assert run("--store", store, "query", "breakdown", "--node", "NOT A COMPANY") == 1


def test_demo_runs_offline(tmp_path, capsys):
    code = run("demo", "--out", tmp_path / "demo")
    assert code == 0
    out = capsys.readouterr().out
    assert "Top companies by retained liability" in out
    assert (tmp_path / "demo" / "graph.gexf").exists()
    assert (tmp_path / "demo" / "graph.json").exists()
    assert (tmp_path / "demo" / "report.json").exists()
    assert (tmp_path / "demo" / "store" / "manifest.json").exists()


def test_live_backend_requires_api_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ELIA_API_KEY", raising=False)
    store = tmp_path / "store"
    run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    config = tmp_path / "elia.conf"
    config.write_text("api_endpoint = https://example.test/v1/completions\n")
    code = run("--store", store, "--config", config, "extract", "--backend", "live")
    assert code == 1


def test_recorded_backend_requires_fixture(tmp_path):
    store = tmp_path / "store"
    run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    assert run("--store", store, "extract", "--backend", "recorded") == 1


def test_bad_usage_exits_1():
    assert run("no-such-command") == 1


def test_config_file_values_and_errors(tmp_path, capsys):
    config = tmp_path / "elia.conf"
    config.write_text("temperature = 0.7\nresolution_threshold = 0.9\n# comment\n")
    store = tmp_path / "store"
    run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"))
    assert run("--store", store, "--config", config, "resolve") == 0

    config.write_text("unknown_key = 1\n")
    assert run("--store", store, "--config", config, "resolve") == 1

    config.write_text("temperature = 9.5\n")
    assert run("--store", store, "--config", config, "resolve") == 1
