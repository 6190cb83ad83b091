from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil

import pytest
from conftest import fixture_path, replace_file_failing_partway

from elia import cli, errors, transcripts
from elia.cli import main
from elia.core import EmissionFactor, read_ndjson
from elia.exporter import ExportOptions, export, import_graph_json
from elia.graph import SupplyGraph
from elia.store import load_store


def run(*argv):
    return main([str(a) for a in argv])


def test_ingest_bol_missing_file_exits_2_without_store(tmp_path, capsys):
    store = tmp_path / "store"
    code = run("--store", store, "ingest-bol", tmp_path / "missing.csv")
    assert code == 2
    assert not store.exists()


def test_ingest_bol_warns_once_per_rejected_row(tmp_path, capsys, caplog):
    bol = tmp_path / "bol.csv"
    bol.write_text("Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
                   "A,B,WINE,1,10\nA,B,WINE,1,heavy\nA,,WINE,1,5\n")
    assert run("--store", tmp_path / "store", "ingest-bol", bol) == 0
    out = capsys.readouterr().out
    assert out == "ingest-bol: accepted=1 rejected=2 added=1 skipped_existing=0\n"
    assert "line 3 rejected: unparseable weight: 'heavy'" in caplog.text
    assert "line 4 rejected: empty consignee name" in caplog.text


def test_ingest_bol_tab_reads_tab_separated_rows(tmp_path, capsys):
    tsv, store = tmp_path / "bol.tsv", tmp_path / "store"
    tsv.write_text("Shipper Name\tConsignee Name\tProduct Desc\tQuantity\tWeight\n"
                   "A, Inc\tB\tWINE, RED\t1\t10\n")
    assert run("--store", store, "ingest-bol", tsv, "--tab") == 0
    out = capsys.readouterr().out
    assert out == "ingest-bol: accepted=1 rejected=0 added=1 skipped_existing=0\n"
    [record] = load_store(str(store)).records.values()
    assert (record.shipper.raw_name, record.product_desc) == ("A, Inc", "WINE, RED")


def test_resolve_applies_a_valid_overrides_file(tmp_path, capsys):
    store, overrides = tmp_path / "store", tmp_path / "overrides.ndjson"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    overrides.write_text('{"raw": "PELTER WINERY LTD", "canonical": "ISRAELI WINE DIRECT LLC"}\n')
    capsys.readouterr()
    assert run("--store", store, "resolve", "--overrides", overrides) == 0
    assert capsys.readouterr().out == "resolve: names=6 entities=5\n"
    aliases = load_store(str(store)).alias_map
    assert aliases["PELTER WINERY LTD"] == aliases["ISRAELI WINE DIRECT LLC"]


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


def test_failed_eval_out_write_keeps_old_file(tmp_path, monkeypatch):
    out_json = tmp_path / "metrics.json"
    out_json.write_text("old metrics\n")
    monkeypatch.setattr(cli, "replace_file", replace_file_failing_partway)
    with pytest.raises(RuntimeError, match="disk on fire"):
        run("eval", "--pred", fixture_path("eval", "pred.ndjson"),
            "--gold", fixture_path("eval", "gold.ndjson"), "--out", out_json)
    assert out_json.read_text() == "old metrics\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_bad_gold_file_exits_1(tmp_path):
    bad = tmp_path / "gold.ndjson"
    bad.write_text('{"source_id": "s1", "buyer": "A", "supplier": "B", "item": "c"}\n' * 2)
    code = run("eval", "--pred", bad, "--gold", bad)
    assert code == 1


@pytest.mark.parametrize("bad_row, reason", [
    ('{"item_pattern": "WINE*"}', "missing field 'per_kg_co2e'"),
    ('{"item_pattern": "WINE*", "per_kg', "malformed factor row"),
    pytest.param('{"item_pattern": "WINE*", "per_kg_co2e": NaN}',
                 "malformed factor row: per_kg_co2e must be >= 0 and finite, got nan",
                 id="nan-literal"),
    pytest.param('{"item_pattern": "WINE*", "per_kg_co2e": "nan"}',
                 "malformed factor row: per_kg_co2e must be >= 0 and finite, got nan",
                 id="nan-string"),
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


@pytest.mark.parametrize("selector, missing", [
    ("breakdown", "node"), ("supplier-count", "node"), ("item-total", "prefix"),
])
def test_query_without_its_node_or_prefix_exits_1(tmp_path, caplog, selector, missing):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a", "b"], [("a", "b", 10.0, 1.0)])
    assert run("query", selector, "--graph", graph, "--report", tmp_path / "none.json") == 1
    assert f"{selector} requires a {missing}" in caplog.text


def test_query_breakdown_by_canonical_id(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a", "b", "c"],
                [("a", "c", 10.0, 1.0), ("b", "c", 2.0, 3.0), ("a", "c", 1.0, 1.0)])
    assert run("query", "breakdown", "--node", "c", "--graph", graph,
               "--report", tmp_path / "none.json") == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split() for row in rows] == [["a", "A", "11.000"], ["b", "B", "6.000"]]


def test_query_top_with_a_node_naming_no_node_exits_1(tmp_path, caplog):
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    write_graph(graph, ["a", "b"], [("a", "b", 10.0, 1.0)])
    assert run("propagate", "--graph", graph, "--out", report) == 0
    assert run("query", "top", "--node", "nope", "--graph", graph, "--report", report) == 1
    assert "no node with id or display name 'nope'" in caplog.text


def write_graph(path, nodes, edges):
    g = SupplyGraph()
    for nid in nodes:
        g.add_node(nid, nid.upper())
    for source, target, mass, factor in edges:
        g.add_edge(source, target, "x", mass, EmissionFactor(factor, "manual"))
    export(g, None, ExportOptions(format="graph_json"), str(path))


def test_propagate_long_ring_strict_exits_1(tmp_path, caplog):
    graph = tmp_path / "graph.json"
    ids = [f"r{i:04d}" for i in range(5000)]
    write_graph(graph, ids, [(s, t, 1.0, 1.0) for s, t in zip(ids, ids[1:] + ids[:1])])
    report = tmp_path / "report.json"
    assert run("propagate", "--graph", graph, "--out", report) == 1
    assert "graph contains a cycle: r0000 -> r0001 -> " in caplog.text
    assert not report.exists()


def test_propagate_unconverged_iterate_exits_1_without_report(tmp_path, caplog):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a", "b"], [("a", "b", 10.0, 1.0), ("b", "a", 10.0, 0.0)])
    report = tmp_path / "report.json"
    assert run("propagate", "--graph", graph, "--on-cycle", "iterate", "--out", report) == 1
    assert "did not converge: residual 1.000e+01 is not below tolerance 1e-09" in caplog.text
    assert not report.exists()


def graph_doc(nodes, edges):
    return {
        "format": "supply-graph", "version": 1, "directed": True,
        "nodes": [{"id": nid, "display_name": nid, "direct_emissions_kg": kg} for nid, kg in nodes],
        "edges": [
            {"edge_id": eid, "source": s, "target": t, "item": "x", "mass_kg": kg,
             "factor": {"per_kg_co2e": 1.0, "provenance": "manual"}}
            for eid, s, t, kg in edges
        ],
    }


def with_factor(factor):
    """Two edges a->b: a valid factor first, then ``factor``."""
    doc = graph_doc([("a", 0.0), ("b", 0.0)], [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0)])
    doc["edges"][1]["factor"] = factor
    return doc


def graph_doc_v2(nodes, edges, **fields):
    """A version-2 document: ``nodes`` as (id, direct kg); ``edges`` index one item and one factor."""
    return {
        "format": "supply-graph", "version": 2, "directed": True,
        "nodes": {"id": [nid for nid, _ in nodes], "display_name": [nid for nid, _ in nodes],
                  "direct_emissions_kg": [kg for _, kg in nodes]},
        "items": ["x"], "factors": [[1.0, "manual"]], "edges": edges, **fields,
    }


AB = [("a", 0.0), ("b", 0.0)]


def with_integer_too_long(doc, amount):
    """The JSON text of ``doc`` with its one ``amount`` written as an integer of 5,000 digits."""
    text = json.dumps(doc)
    assert text.count(repr(amount)) == 1
    return text.replace(repr(amount), "1" + "0" * 4999)


def overflowing_edge():
    """One edge a->b whose mass and factor are finite but whose product is not."""
    doc = graph_doc([("a", 0.0), ("b", 0.0)], [("e1", "a", "b", 1e200)])
    doc["edges"][0]["factor"]["per_kg_co2e"] = 1e200
    return doc


@pytest.mark.parametrize("doc, reason", [
    pytest.param(graph_doc([("a", 0.0), ("b", 0.0), ("c", 0.0)],
                           [("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0), ("e2", "a", "c", 3.0)]),
                 ": edges[2]: duplicate edge_id 'e2'", id="repeated-edge-id"),
    pytest.param(graph_doc([("a", 0.0), ("b", 0.0), ("a", 50.0)], []),
                 ": nodes[2]: duplicate node id 'a'", id="repeated-node-id"),
    pytest.param(dict(graph_doc([], []), nodes=5), ": nodes: expected a list, got int",
                 id="nodes-not-a-list"),
    pytest.param(dict(graph_doc([], []), edges={"e1": {}}), ": edges: expected a list, got dict",
                 id="edges-not-a-list"),
    pytest.param(graph_doc([("a", 0.0)], [("e1", "a", "zz", 1.0)]),
                 ": edges[0]: unknown edge target: zz", id="unknown-edge-target"),
    pytest.param(with_factor({"per_kg_co2e": -1.0, "provenance": "manual"}),
                 ": edges[1]: per_kg_co2e must be >= 0", id="negative-factor"),
    pytest.param(with_factor({"per_kg_co2e": 1.0, "provenance": "guess"}),
                 ": edges[1]: unknown factor provenance: 'guess'", id="unknown-provenance"),
    pytest.param(with_factor({"per_kg_co2e": 1.0, "provenance": ["manual"]}),
                 ": edges[1]: unhashable type: 'list'", id="unhashable-provenance"),
    pytest.param(with_factor([1.0, "manual"]),
                 ": edges[1]: list indices must be integers", id="factor-not-an-object"),
    pytest.param(graph_doc([("a", 0.0), ("b", math.nan)], []),
                 ": nodes[1]: direct_emissions_kg must be >= 0 and finite, got nan",
                 id="nan-direct-emissions"),
    pytest.param(graph_doc([("a", 0.0), ("b", 0.0)], [("e1", "a", "b", math.inf)]),
                 ": edges[0]: mass_kg must be >= 0 and finite, got inf", id="infinite-mass"),
    pytest.param(with_factor({"per_kg_co2e": "nan", "provenance": "manual"}),
                 ": edges[1]: per_kg_co2e must be >= 0 and finite, got nan", id="nan-string-factor"),
    pytest.param(overflowing_edge(),
                 ": edges[0]: edge_liability_kg must be >= 0 and finite, got inf",
                 id="overflowing-liability"),
    pytest.param(graph_doc([("a", 0.0), ("b", 0.0)], [("e1", "a", "b", 10**400)]),
                 ": edges[0]: int too large to convert to float", id="integer-too-large-mass"),
    pytest.param(with_integer_too_long(graph_doc([("a", 0.0), ("b", 2.5)], []), 2.5),
                 ": malformed JSON: Exceeds the limit (4300 digits) for integer string conversion",
                 id="direct-emissions-integer-too-long"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, None], [0, 2, 0, 1.0, 0, None]]),
                 ": edges[1]: target index 2 out of range [0, 2)", id="v2-index-out-of-range"),
    pytest.param(graph_doc_v2(AB, [[-1, 1, 0, 1.0, 0, None]]),
                 ": edges[0]: source index -1 out of range [0, 2)", id="v2-negative-index"),
    pytest.param(graph_doc_v2(AB, [[0, True, 0, 1.0, 0, None]]),
                 ": edges[0]: target index must be an integer, got bool", id="v2-bool-index"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, None], [0, 1, 0, 1.0, 0]]),
                 ": edges[1]: expected an array [source, target, item, mass_kg, factor, "
                 "source_ref], got 5 values", id="v2-edge-array-wrong-length"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 1, None]]),
                 ": edges[0]: factor index 1 out of range [0, 1)", id="v2-unknown-factor-index"),
    pytest.param(dict(graph_doc_v2(AB, []), nodes={"id": ["a", "b"], "display_name": ["a"],
                                                   "direct_emissions_kg": [0.0, 0.0]}),
                 ": nodes[1]: node columns differ in length (id 2, display_name 1, "
                 "direct_emissions_kg 2)", id="v2-node-columns-unequal"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, 7]]),
                 ": edges[0]: source_ref must be a string or null, got int",
                 id="v2-source-ref-not-string"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, None], [1, 0, 0, 1.0, 0, None]],
                              edge_ids=["e1"]),
                 ": edges[1]: 1 edge_ids for 2 edges", id="v2-edge-ids-wrong-length"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, None], [1, 0, 0, 1.0, 0, None]],
                              edge_ids=["e1", "e1"]),
                 ": edges[1]: duplicate edge_id 'e1'", id="v2-edge-ids-repeated"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 1.0, 0, None]], edge_ids=[5]),
                 ": edges[0]: 'edge_id' must be a string, got int", id="v2-edge-id-not-string"),
    pytest.param(graph_doc_v2([("a", 0.0), ("a", 1.0)], []),
                 ": nodes[1]: duplicate node id 'a'", id="v2-repeated-node-id"),
    pytest.param(graph_doc_v2([("a", 0.0), ("b", "5")], []),
                 ": nodes[1]: direct_emissions_kg must be a number, got str",
                 id="v2-direct-emissions-not-a-number"),
    pytest.param(graph_doc_v2([("a", 0.0), ("b", math.nan)], []),
                 ": nodes[1]: direct_emissions_kg must be >= 0 and finite, got nan",
                 id="v2-nan-direct-emissions"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, "1", 0, None]]),
                 ": edges[0]: mass_kg must be a number, got str", id="v2-mass-not-a-number"),
    pytest.param(graph_doc_v2(AB, [[0, 1, 0, 10**400, 0, None]]),
                 ": edges[0]: int too large to convert to float", id="v2-integer-too-large-mass"),
    pytest.param(dict(graph_doc_v2(AB, [[0, 1, 0, 1e200, 0, None]]), factors=[[1e200, "manual"]]),
                 ": edges[0]: edge_liability_kg must be >= 0 and finite, got inf",
                 id="v2-overflowing-liability"),
    pytest.param(dict(graph_doc_v2(AB, []), items=["x", 5]),
                 ": items[1]: item must be a string, got int", id="v2-item-not-string"),
    pytest.param(dict(graph_doc_v2(AB, []), factors=[[1.0, "manual"], [1.0, "guess"]]),
                 ": factors[1]: unknown factor provenance: 'guess'", id="v2-unknown-provenance"),
    pytest.param(dict(graph_doc_v2(AB, []), factors=[[-1.0, "manual"]]),
                 ": factors[0]: per_kg_co2e must be >= 0 and finite, got -1.0",
                 id="v2-negative-factor"),
    pytest.param(dict(graph_doc_v2(AB, []), factors=[{"per_kg_co2e": 1.0}]),
                 ": factors[0]: expected an array [per_kg_co2e, provenance], got dict",
                 id="v2-factor-not-an-array"),
    pytest.param(dict(graph_doc_v2(AB, []), nodes=[]), ": nodes: expected an object, got list",
                 id="v2-nodes-not-an-object"),
    pytest.param(dict(graph_doc_v2(AB, []), edges={}), ": edges: expected a list, got dict",
                 id="v2-edges-not-a-list"),
])
def test_malformed_graph_json_names_path_and_index_exits_2(tmp_path, caplog, doc, reason):
    graph = tmp_path / "graph.json"
    graph.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    report = tmp_path / "report.json"
    assert run("propagate", "--graph", graph, "--out", report) == 2
    assert f"{graph}{reason}" in caplog.text
    assert not report.exists()


@pytest.mark.parametrize("mode, mass", [("full_propagation", 1.0), ("one_hop", 1e308)])
def test_propagate_overflowing_pool_names_the_node_exits_1(tmp_path, caplog, mode, mass):
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    doc = graph_doc([("a", 1e308), ("b", 1e308), ("c", 0.0)],
                    [("e1", "a", "c", mass), ("e2", "b", "c", mass)])
    graph.write_text(json.dumps(doc))
    assert run("propagate", "--mode", mode, "--graph", graph, "--out", report) == 1
    assert "node 'c': direct + inherited must be finite, got inf" in caplog.text
    assert not report.exists()


@pytest.mark.parametrize("flags, back_edges", [
    pytest.param([], [], id="acyclic"),
    pytest.param(["--on-cycle", "iterate"], [("e3", "b", "a", 1.0)], id="cyclic"),
])
def test_propagate_overflowing_outgoing_mass_names_the_node_exits_1(tmp_path, caplog, flags,
                                                                   back_edges):
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    doc = graph_doc([("a", 5.0), ("b", 0.0), ("c", 0.0)],
                    [("e1", "a", "b", 1e308), ("e2", "a", "c", 1e308), *back_edges])
    for edge in doc["edges"]:
        edge["factor"]["per_kg_co2e"] = 0.0
    graph.write_text(json.dumps(doc))
    assert run("propagate", *flags, "--graph", graph, "--out", report) == 1
    assert "node 'a': outgoing mass must be finite, got inf" in caplog.text
    assert not report.exists()


def test_propagate_overflowing_total_retained_exits_1_without_report(tmp_path, caplog, capsys):
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    doc = graph_doc([("a", 1e308), ("b", 1e308), ("c", 0.0)],
                    [("e1", "a", "c", 1.0), ("e2", "b", "c", 1.0)])
    graph.write_text(json.dumps(doc))
    assert run("propagate", "--mode", "one_hop", "--graph", graph, "--out", report) == 1
    assert "total_retained_kg must be finite, got inf" in caplog.text
    assert capsys.readouterr().out == ""
    assert not report.exists()


@pytest.mark.parametrize("fmt", ["gexf", "dot"])
@pytest.mark.parametrize("section, index, key, value", [
    pytest.param("nodes", 1, "display_name", 7, id="display-name"),
    pytest.param("edges", 0, "item", 5, id="item"),
])
def test_non_string_graph_json_field_exits_2_on_export(tmp_path, caplog, fmt, section, index,
                                                       key, value):
    doc = graph_doc([("a", 0.0), ("b", 0.0)], [("e1", "a", "b", 1.0)])
    doc[section][index][key] = value
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    out = tmp_path / f"graph.{fmt}"
    assert run("export", "--format", fmt, "--graph", graph, "--out", out) == 2
    assert f"{graph}: {section}[{index}]: '{key}' must be a string, got int" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("nodes", [[], {"a": [1.0]}], ids=["nodes-list", "row-not-object"])
def test_malformed_report_json_exits_2(tmp_path, caplog, nodes):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a"], [])
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"mode": "one_hop", "residual": 0.0, "nodes": nodes}))
    assert run("query", "top", "--graph", graph, "--report", report) == 2
    assert f"{report}: malformed report: 'nodes' must map node ids to objects" in caplog.text


@pytest.mark.parametrize("doc, field", [
    ({"nodes": {}}, "mode"),
    ({"mode": "one_hop", "nodes": {}}, "residual"),
    ({"mode": "one_hop", "residual": 0.0,
      "nodes": {"a": {"direct_kg": 0.0, "transferred_kg": 0.0, "retained_kg": 0.0}}},
     "inherited_kg"),
], ids=["mode", "residual", "row-inherited_kg"])
def test_report_json_missing_field_is_named_exits_2(tmp_path, caplog, doc, field):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a"], [])
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    assert run("query", "top", "--graph", graph, "--report", report) == 2
    assert f"{report}: missing field {field!r}" in caplog.text


def test_report_json_unknown_mode_exits_2(tmp_path, caplog):
    graph, report, out = tmp_path / "graph.json", tmp_path / "report.json", tmp_path / "out.json"
    write_graph(graph, ["a"], [])
    report.write_text(json.dumps({"mode": 5, "residual": 0.0, "nodes": {}}))
    assert run("export", "--format", "graph-json", "--with-report", "--graph", graph,
               "--report", report, "--out", out) == 2
    assert (f"{report}: malformed report: mode must be one of ('one_hop', 'full_propagation'), "
            "got 5") in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["query", "top"], id="query"),
    pytest.param(["export", "--format", "dot", "--with-report", "--out", "OUT"], id="export"),
])
@pytest.mark.parametrize("row, residual, reason", [
    pytest.param({"retained_kg": "nan"}, 0.0, "node 'a': retained_kg must be finite, got nan",
                 id="nan-string-row"),
    pytest.param({"inherited_kg": -math.inf}, 0.0,
                 "node 'a': inherited_kg must be finite, got -inf", id="infinite-row"),
    pytest.param({}, math.inf, "residual must be finite, got inf", id="infinite-residual"),
])
def test_report_json_non_finite_number_exits_2(tmp_path, caplog, argv, row, residual, reason):
    graph = tmp_path / "graph.json"
    write_graph(graph, ["a", "b"], [("a", "b", 10.0, 1.0)])
    report = tmp_path / "report.json"
    numbers = {"direct_kg": 0.0, "inherited_kg": 0.0, "transferred_kg": 0.0, "retained_kg": -4.7e-10}
    report.write_text(json.dumps({"mode": "one_hop", "residual": residual,
                                  "nodes": {"a": {**numbers, **row}, "b": numbers}}))
    out = tmp_path / "graph.dot"
    argv = [out if arg == "OUT" else arg for arg in argv]
    assert run(*argv, "--graph", graph, "--report", report) == 2
    assert f"{report}: malformed report: {reason}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flags, reason", [
    (["--constant-factor", "nan"], "per_kg_co2e must be >= 0 and finite, got nan"),
    (["--constant-factor", "inf"], "per_kg_co2e must be >= 0 and finite, got inf"),
    (["--mean", "nan"], "mean must be finite, got nan"),
    (["--mean", "inf"], "mean must be finite, got inf"),
    (["--mean=-inf"], "mean must be finite, got -inf"),
    (["--std", "nan"], "std must be >= 0 and finite, got nan"),
    (["--std", "inf"], "std must be >= 0 and finite, got inf"),
    (["--std", "-1"], "std must be >= 0 and finite, got -1.0"),
    (["--mean=-100"], ": 1000 draws from mean=-100.0 std=0.25 were all negative"),
], ids=["constant-nan", "constant-inf", "mean-nan", "mean-inf", "mean-minus-inf", "std-nan",
        "std-inf", "std-negative", "mean-negative"])
def test_build_non_finite_or_negative_factor_flag_exits_1(tmp_path, caplog, flags, reason):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    assert run("--store", store, "resolve") == 0
    assert run("--store", store, "build", *flags) == 1
    assert reason in caplog.text
    assert not (store / "graph.json").exists()


def test_build_overflowing_edge_names_record_and_item_exits_1(tmp_path, caplog):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    assert run("--store", store, "resolve") == 0
    record = next(iter(load_store(str(store)).records.values()))
    assert run("--store", store, "build", "--constant-factor", "1e306") == 1
    assert (f"record {record.record_id} item {record.product_desc!r}: "
            "edge_liability_kg must be >= 0 and finite, got inf") in caplog.text
    assert not (store / "graph.json").exists()


def test_duplicate_store_row_names_file_and_line_exits_2(tmp_path, caplog):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    records = store / "records.ndjson"
    lines = records.read_text().splitlines(keepends=True)
    records.write_text("".join(lines) + lines[0])
    assert run("--store", store, "resolve") == 2
    assert f"{records}:{len(lines) + 1}: duplicate row: record id already present" in caplog.text


def test_stages_that_add_no_records_leave_records_file_alone(tmp_path):
    store = tmp_path / "store"
    fx = fixture_path()
    assert run("--store", store, "ingest-bol", fx / "bol_demo.csv", "--normalize-products") == 0
    assert run("--store", store, "ingest-transcripts",
               *sorted((fx / "transcripts").glob("*.txt")), "--gazetteer", fx / "gazetteer.txt") == 0
    records = store / "records.ndjson"
    before = (records.stat().st_ino, records.read_bytes())
    triples_ino = (store / "triples.ndjson").stat().st_ino
    assert run("--store", store, "extract",
               "--backend", "recorded", "--fixture", fx / "mock_responses.ndjson") == 0
    assert run("--store", store, "resolve") == 0
    assert (records.stat().st_ino, records.read_bytes()) == before
    assert (store / "triples.ndjson").stat().st_ino != triples_ino
    assert not list(store.glob("*.tmp"))


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


@pytest.mark.parametrize("delimiter", ["ab", ""])
def test_ingest_bol_delimiter_of_other_than_one_character_exits_1(tmp_path, caplog, delimiter):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv"),
               "--delimiter", delimiter) == 1
    assert f"argument --delimiter: expected one character, got {delimiter!r}" in caplog.text
    assert not store.exists()


def test_manifest_that_is_not_an_object_exits_2(tmp_path, caplog):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    (store / "manifest.json").write_text("[]")
    assert run("--store", store, "resolve") == 2
    assert f"{store / 'manifest.json'}: malformed manifest: not a JSON object" in caplog.text


# (argv that reads the document, its file in the store, the name its errors use)
@pytest.mark.parametrize("argv, name, what", [
    pytest.param(["resolve"], "manifest.json", "manifest", id="manifest"),
    pytest.param(["propagate"], "graph.json", "JSON", id="graph-json"),
    pytest.param(["query", "top"], "report.json", "report", id="report-json"),
])
@pytest.mark.parametrize("content, reason", [
    pytest.param('{\n  "format": ', ":2: malformed {what}: Expecting value", id="truncated"),
    pytest.param("[]\n", ": malformed {what}: not a JSON object", id="not-an-object"),
    pytest.param('{"mode": "one_hop", "nodes": {}, "residual": 1' + "0" * 4999 + "}\n",
                 ": malformed {what}: Exceeds the limit (4300 digits) for integer string "
                 "conversion", id="integer-too-long"),
])
def test_malformed_json_document_names_path_exits_2(tmp_path, caplog, argv, name, what,
                                                    content, reason):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    assert run("--store", store, "resolve") == 0
    assert run("--store", store, "build", "--constant-factor", "1.0") == 0
    assert run("--store", store, "propagate") == 0
    (store / name).write_text(content)
    assert run("--store", store, *argv) == 2
    assert f"{store / name}{reason.format(what=what)}" in caplog.text


def test_bol_header_missing_columns_names_the_file(tmp_path, caplog):
    store, bol = tmp_path / "store", fixture_path("bol_sample.csv")
    assert run("--store", store, "ingest-bol", bol, "--delimiter", ";") == 1
    assert (f"{bol}: header is missing mandatory column(s): "
            "shipper, consignee, product, quantity, weight") in caplog.text
    assert not store.exists()


_TRANSCRIPT = fixture_path("transcripts", "homestead_retail_q4_2021.txt")


# (argv, file that gets a byte that is not UTF-8 at the start of its line 2,
# its content or the fixture it copies, or None for a store file, exit code)
@pytest.mark.parametrize("argv, target, source, code", [
    pytest.param(["resolve"], "store/records.ndjson", None, 2, id="store-table"),
    pytest.param(["resolve"], "store/manifest.json", None, 2, id="store-manifest"),
    pytest.param(["propagate"], "store/graph.json", None, 2, id="graph-json"),
    pytest.param(["query", "top"], "store/report.json", None, 2, id="report-json"),
    pytest.param(["ingest-bol", "BAD"], "bol.csv", fixture_path("bol_sample.csv"), 1, id="bol"),
    pytest.param(["ingest-transcripts", "BAD"], "call.txt", _TRANSCRIPT, 1, id="transcript"),
    pytest.param(["ingest-transcripts", _TRANSCRIPT, "--gazetteer", "BAD"], "gazetteer.txt",
                 fixture_path("gazetteer.txt"), 1, id="gazetteer"),
    pytest.param(["--config", "BAD", "resolve"], "elia.conf",
                 b"temperature = 0.1\nmodel_name = m\n", 1, id="config"),
    pytest.param(["build", "--factors", "BAD"], "factors.ndjson",
                 fixture_path("factors_demo.ndjson"), 1, id="ndjson-input"),
])
def test_non_utf8_file_names_file_and_line(tmp_path, caplog, argv, target, source, code):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    assert run("--store", store, "resolve") == 0
    assert run("--store", store, "build", "--constant-factor", "1.0") == 0
    assert run("--store", store, "propagate") == 0
    bad = tmp_path / target
    if source is not None:
        bad.write_bytes(source if isinstance(source, bytes) else source.read_bytes())
    first, rest = bad.read_bytes().split(b"\n", 1)
    bad.write_bytes(first + b"\n\xff" + rest)
    argv = [bad if arg == "BAD" else arg for arg in argv]
    assert run("--store", store, *argv) == code
    assert f"{bad}:2: not UTF-8: 'utf-8' codec can't decode byte 0xff" in caplog.text


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


@pytest.mark.parametrize("line, message", [
    pytest.param("propagation_mode = sideways", "unknown propagation_mode: 'sideways'",
                 id="propagation_mode"),
    pytest.param("temperature = 9.5", "temperature must be in [0, 2], got 9.5", id="temperature"),
    pytest.param("resolution_threshold = -0.1",
                 "resolution_threshold must be in [0, 1], got -0.1", id="resolution_threshold"),
    pytest.param("concurrency_limit = 0", "concurrency_limit must be a positive integer",
                 id="concurrency_limit"),
])
def test_config_value_error_names_path_and_line(tmp_path, caplog, line, message):
    config = tmp_path / "elia.conf"
    config.write_text(f"# comment\nmodel_name = m\n{line}\n")
    assert run("--store", tmp_path / "store", "--config", config, "resolve") == 1
    assert f"{config}:3: {message}" in caplog.text


# sha256 of the demo's outputs; manifest.json is left out because it carries a timestamp.
DEMO_GOLDEN = {
    "stdout": "c47538e11c6d5db9b569e0ff1c876c367a0d8942c22ba132f6add3049de01c8f",
    "graph.json": "4b463202760cf9f721d2fe22fdf5a30306cf823103ef5d73c499db817a2fe048",
    "graph.gexf": "6c753a0b3c5497c4d1921329548e583baa580259c4eac71080526a7969e9e947",
    "report.json": "e309469902eb5f5ab50c2606ec2daf88387be97aa0a98f03955d0d7abcb7e771",
    "store/records.ndjson": "b22764ff6e8014c9ca5e44371a21c037a2beb5fe08f37b408f6b21aa5802c94b",
    "store/sentences.ndjson": "458adc592cfddd27c3c1cb09fb5a29b78aaef7f3bb83945035e672e88d47a944",
    "store/triples.ndjson": "defb76c74c66d7405328b50c8858ed5ecff1f55bb74441ec18477beeaa48db8d",
    "store/aliases.ndjson": "083d6cec5d210ac0ebd2b2baaf42429621494f607a488761729c4611f34f1c10",
}


def test_demo_outputs_match_golden(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert run("demo", "--out", out_dir) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    for name in DEMO_GOLDEN:
        if name != "stdout":
            digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert digests == DEMO_GOLDEN


def test_demo_edges_name_the_store_rows_they_came_from(tmp_path):
    out_dir = tmp_path / "demo"
    assert run("demo", "--out", out_dir) == 0
    store = out_dir / "store"
    records, triples = (
        {row[key] for _, row in read_ndjson(str(store / name), ValueError)}
        for key, name in (("record_id", "records.ndjson"), ("triple_id", "triples.ndjson")))
    graph = import_graph_json(str(out_dir / "graph.json"))
    refs = [edge.source_ref for edge in graph.edges]
    from_records = [ref for ref in refs if ref in records]
    assert len(from_records) == len(set(from_records)) == len(records) == 12
    assert len([ref for ref in refs if ref in triples]) == len(refs) - 12 == 3


# The demo's two party tables in the row shape written before a party's
# role_hint equal to its slot and each null address or date were left out:
# per table, its keys in their old order and the sha256 of the old file.
OLD_SHAPE_DEMO = {
    "records.ndjson": (("record_id", "shipper", "shipper_address", "consignee",
                        "consignee_address", "arrival_date", "product_desc", "quantity",
                        "weight_kg"),
                       "b68d23a3c2a7bf610959b83cc63194ee9023cd971e1914eaabe54c6e42d126e7"),
    "triples.ndjson": (("triple_id", "source_id", "buyer", "supplier", "item", "confidence"),
                       "4d4e5c1056c8ac907fc3a7c068d661cb0ee5f0b42067299ccdfdaf1e336621eb"),
}


def _old_shape(row: dict, keys: tuple) -> dict:
    """``row`` with every omitted key put back: each party's role_hint, each null."""
    old = {key: row.get(key) for key in keys}
    for slot in ("shipper", "consignee", "buyer", "supplier"):
        if old.get(slot) is not None:
            old[slot] = {**old[slot], "role_hint": old[slot].get("role_hint", slot)}
    return old


def test_store_in_the_old_row_shape_loads_builds_and_resolves_unchanged(tmp_path, capsys):
    assert run("demo", "--out", tmp_path / "demo") == 0
    new, old = tmp_path / "demo" / "store", tmp_path / "old"
    shutil.copytree(new, old)
    for name, (keys, digest) in OLD_SHAPE_DEMO.items():
        rows = [json.loads(line) for line in (new / name).read_text("utf-8").splitlines()]
        text = "".join(json.dumps(_old_shape(row, keys), ensure_ascii=False) + "\n"
                       for row in rows)
        (old / name).write_text(text, "utf-8")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert load_store(str(old)) == load_store(str(new))

    factors = fixture_path("factors_demo.ndjson")
    for store in (new, old):
        assert run("--store", store, "build", "--factors", factors,
                   "--out", tmp_path / f"{store.name}.json") == 0
    assert (tmp_path / "old.json").read_bytes() == (tmp_path / "store.json").read_bytes()

    written = {name: (old / name).read_bytes() for name in OLD_SHAPE_DEMO}
    assert run("--store", old, "resolve") == 0
    assert {name: (old / name).read_bytes() for name in OLD_SHAPE_DEMO} == written


@pytest.mark.parametrize("argv, target, content, code, reason", [
    pytest.param(["extract", "--examples", "BAD"], "examples.ndjson",
                 '{"input": "a", "output": "Buyer: A, Supplier: B, Item: c"}\n{"input": "a"}\n',
                 1, ":2: missing field 'output'", id="examples-missing-field"),
    pytest.param(["extract", "--examples", "BAD"], "examples.ndjson",
                 '{"input": "a", "output": "b"}\n',
                 1, ":1: malformed example row", id="examples-bad-output"),
    pytest.param(["resolve", "--overrides", "BAD"], "overrides.ndjson",
                 '{"raw": "A", "canonical": "B"}\n{"raw": \n',
                 1, ":2: malformed override row", id="overrides-bad-json"),
    pytest.param(["resolve", "--overrides", "BAD"], "overrides.ndjson",
                 '{"raw": ["A"], "canonical": "B"}\n',
                 1, ":1: malformed override row: 'raw' is not str", id="overrides-field-type"),
    pytest.param(["resolve", "--overrides", "BAD"], "overrides.ndjson",
                 '{"raw": "A", "canonical": "B"}\n{"raw": "A", "canonical": "   "}\n',
                 1, ":2: malformed override row: 'canonical' is blank",
                 id="overrides-blank-canonical"),
    pytest.param(["resolve", "--overrides", "BAD"], "overrides.ndjson",
                 '{"raw": "", "canonical": "B"}\n',
                 1, ":1: malformed override row: 'raw' is blank", id="overrides-blank-raw"),
    pytest.param(["eval", "--pred", "BAD", "--gold", "BAD"], "triples.ndjson",
                 '{"source_id": "s1", "item": "x"}\n"s2"\n',
                 1, ":2: malformed triple row", id="eval-row-not-object"),
    pytest.param(["resolve"], "store/aliases.ndjson",
                 '{"raw": "A", "canonical_id": "c1"}\n{"raw": "B"}\n',
                 2, ":2: missing field 'canonical_id'", id="store-aliases-missing-field"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": "WINE", "quantity": 1, "weight_kg": NaN}\n',
                 2, ":1: bad row ", id="store-records-nan-weight"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": "WINE", "quantity": Infinity, "weight_kg": 1.0}\n',
                 2, ":1: bad row ", id="store-records-infinite-quantity"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": "WINE", "quantity": 2.7, "weight_kg": 1.0}\n',
                 2, ":1: bad row {'shipper': {'raw_name': 'A'}, 'consignee': {'raw_name': 'B'}, "
                 "'product_desc': 'WINE', 'quantity': 2.7, 'weight_kg': 1.0}: "
                 "quantity must be an integer, got float", id="store-records-fractional-quantity"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": "WINE", "quantity": true, "weight_kg": 1.0}\n',
                 2, ":1: bad row {'shipper': {'raw_name': 'A'}, 'consignee': {'raw_name': 'B'}, "
                 "'product_desc': 'WINE', 'quantity': True, 'weight_kg': 1.0}: "
                 "quantity must be an integer, got bool", id="store-records-boolean-quantity"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": "WINE", "quantity": 1' + "0" * 4999 + ', "weight_kg": 1.0}\n',
                 2, ":1: malformed row: Exceeds the limit (4300 digits) for integer string "
                 "conversion", id="store-records-integer-too-long"),
    pytest.param(["resolve"], "store/sentences.ndjson",
                 '{"transcript_id": "t", "index": 1e400, "text": "x"}\n',
                 2, ":1: bad row ", id="store-sentences-infinite-index"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": "A"}, "consignee": {"raw_name": "B"}, '
                 '"product_desc": 5, "quantity": 1, "weight_kg": 1.0}\n',
                 2, ":1: bad row ", id="store-records-product-not-string"),
    pytest.param(["build"], "store/triples.ndjson",
                 '{"source_id": "s1", "buyer": {"raw_name": "A"}, '
                 '"supplier": {"raw_name": "B"}, "item": 5}\n',
                 2, ":1: bad row ", id="store-triples-item-not-string"),
    pytest.param(["eval", "--pred", "BAD", "--gold", "BAD"], "triples.ndjson",
                 '{"source_id": "s1", "item": 5}\n',
                 1, ":1: malformed triple row: item must be a string or null, got int",
                 id="eval-item-not-string"),
    pytest.param(["eval", "--pred", "BAD", "--gold", "BAD"], "triples.ndjson",
                 '{"source_id": "s1", "buyer": 5, "item": "x"}\n',
                 1, ":1: malformed triple row: CompanyRef.raw_name must be a string, got int",
                 id="eval-buyer-not-string"),
    pytest.param(["resolve"], "store/records.ndjson",
                 '{"shipper": {"raw_name": 5}}\n',
                 2, ":1: bad row {'shipper': {'raw_name': 5}}: "
                 "CompanyRef.raw_name must be a string, got int",
                 id="store-records-raw-name-not-string"),
    pytest.param(["resolve"], "store/sentences.ndjson",
                 '{"transcript_id": "t", "index": 0, "text": 5}\n',
                 2, ":1: bad row {'transcript_id': 't', 'index': 0, 'text': 5}: "
                 "Sentence.text must be a string, got int",
                 id="store-sentences-text-not-string"),
    pytest.param(["resolve"], "store/sentences.ndjson",
                 '{"id": 5, "transcript_id": "t", "index": 0, "text": "x"}\n',
                 2, ":1: bad row {'id': 5, 'transcript_id': 't', 'index': 0, 'text': 'x'}: "
                 "Sentence.id must be a string, got int",
                 id="store-sentences-id-not-string"),
])
def test_malformed_ndjson_input_names_path_and_line(tmp_path, caplog, argv, target, content,
                                                     code, reason):
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", fixture_path("bol_sample.csv")) == 0
    bad = tmp_path / target
    bad.write_text(content)
    argv = [bad if arg == "BAD" else arg for arg in argv]
    assert run("--store", store, *argv) == code
    assert f"{bad}{reason}" in caplog.text


def test_ingest_transcripts_compiles_one_gazetteer(tmp_path, monkeypatch):
    compiled = []
    compile_matchers = transcripts._compile_matchers
    monkeypatch.setattr(transcripts, "_compile_matchers",
                        lambda entries: compiled.append(entries) or compile_matchers(entries))
    fx = fixture_path()
    code = run("--store", tmp_path / "store", "ingest-transcripts",
               *sorted((fx / "transcripts").glob("*.txt")), "--gazetteer", fx / "gazetteer.txt")
    assert code == 0
    assert len(compiled) == 1


@pytest.fixture
def gc_seen(monkeypatch):
    """Wrap names elia.cli calls so each records whether the collector is on."""
    enabled = gc.isenabled()
    gc.enable()
    seen = {}

    def record(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            seen.setdefault(name, []).append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    yield record, seen
    (gc.enable if enabled else gc.disable)()


def test_graph_commands_run_with_the_collector_paused(tmp_path, gc_seen, capsys):
    record, seen = gc_seen
    for name in ("propagate", "query", "export"):
        record(name)
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    write_graph(graph, ["a", "b"], [("a", "b", 10.0, 1.0)])
    assert run("propagate", "--graph", graph, "--out", report) == 0
    assert gc.isenabled()
    assert run("query", "top", "--graph", graph, "--report", report) == 0
    assert gc.isenabled()
    assert run("export", "--format", "dot", "--with-report", "--graph", graph,
               "--report", report, "--out", tmp_path / "graph.dot") == 0
    assert gc.isenabled()
    assert seen == {"propagate": [False], "query": [False], "export": [False]}


def test_collector_is_back_on_after_a_failed_command(tmp_path, gc_seen, caplog):
    record, seen = gc_seen
    record("propagate")
    record("import_graph_json")
    ring = tmp_path / "ring.json"
    write_graph(ring, ["a", "b"], [("a", "b", 1.0, 1.0), ("b", "a", 1.0, 1.0)])
    assert run("propagate", "--graph", ring, "--out", tmp_path / "report.json") == 1
    assert "graph contains a cycle" in caplog.text
    assert gc.isenabled()
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"format": "supply-graph",')
    assert run("propagate", "--graph", malformed, "--out", tmp_path / "report.json") == 2
    assert "malformed JSON" in caplog.text
    assert gc.isenabled()
    assert seen == {"import_graph_json": [False, False], "propagate": [False]}


def test_extract_runs_with_the_collector_on(tmp_path, gc_seen, capsys):
    record, seen = gc_seen
    record("extract_batch")
    store, fx = tmp_path / "store", fixture_path()
    assert run("--store", store, "ingest-transcripts", *sorted((fx / "transcripts").glob("*.txt")),
               "--gazetteer", fx / "gazetteer.txt") == 0
    assert run("--store", store, "extract", "--backend", "recorded",
               "--fixture", fx / "mock_responses.ndjson") == 0
    assert seen == {"extract_batch": [True]}
    assert gc.isenabled()


def elia_errors(cls=errors.EliaError):
    """``cls`` and every class derived from it, depth first."""
    return [cls] + [sub for child in cls.__subclasses__() for sub in elia_errors(child)]


@pytest.mark.parametrize("error", elia_errors(), ids=lambda cls: cls.__name__)
def test_main_returns_the_exit_code_the_error_class_carries(tmp_path, monkeypatch, caplog, error):
    def failing_stage(*args, **kwargs):
        raise error("stage failed")

    monkeypatch.setattr(cli, "parse_bol_file", failing_stage)
    store = tmp_path / "store"
    assert run("--store", store, "ingest-bol", tmp_path / "bol.csv") == error.exit_code
    assert "stage failed" in caplog.text
    assert not store.exists()


def test_exit_code_2_is_for_store_backend_and_completion_format_errors():
    assert {cls.__name__ for cls in elia_errors() if cls.exit_code == 2} == {
        "StoreFormatError", "StoreVersionError", "BackendError", "RateLimitError",
        "ExtractionFormatError"}
    assert {cls.exit_code for cls in elia_errors()} == {1, 2}
