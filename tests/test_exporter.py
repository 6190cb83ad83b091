from __future__ import annotations

import collections.abc
import gc
import json
import math
import random
import re
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import replace_file_failing_partway
from oracles import oracle_graph_json, oracle_graph_json_v2, oracle_write_gexf, random_multigraph

from elia import exporter

from elia.core import FACTOR_PROVENANCES, EmissionFactor, replace_file
from elia.errors import StoreFormatError, UsageError
from elia.exporter import FORMATS, ExportOptions, export, import_graph_json, load_report_json, save_report_json
from elia.graph import ELiabilityReport, NodeLiability, SupplyGraph, propagate


def chain_graph():
    g = SupplyGraph()
    g.add_node("a", "A")
    g.add_node("b", "B")
    g.add_node("c", "C")
    g.add_edge("a", "b", "steel", 100.0, EmissionFactor(2.0, "manual"))
    g.add_edge("b", "c", "doors", 50.0, EmissionFactor(1.0, "manual"))
    return g


GEXF_NS = "{http://gexf.net/1.3}"


def test_gexf_chain_structure(tmp_path):
    g = chain_graph()
    report = propagate(g)
    path = tmp_path / "chain.gexf"
    export(g, report, ExportOptions(format="gexf"), str(path))
    tree = ET.parse(path)  # well-formed XML or this raises
    nodes = tree.findall(f".//{GEXF_NS}node")
    edges = tree.findall(f".//{GEXF_NS}edge")
    assert len(nodes) == 3
    assert len(edges) == 2
    assert sorted(e.get("weight") for e in edges) == ["200.000000", "50.000000"]
    assert {n.get("label") for n in nodes} == {"A", "B", "C"}
    retained_values = {
        node.get("id"): att.get("value")
        for node in nodes
        for att in node.findall(f".//{GEXF_NS}attvalue")
        if att.get("for") == "1"
    }
    assert retained_values["c"] == "250.000000"


def test_gexf_weight_attr_mass(tmp_path):
    path = tmp_path / "mass.gexf"
    export(chain_graph(), None, ExportOptions(format="gexf", weight_attr="mass"), str(path))
    edges = ET.parse(path).findall(f".//{GEXF_NS}edge")
    assert sorted(e.get("weight") for e in edges) == ["100.000000", "50.000000"]


def test_empty_graph_exports_everywhere(tmp_path):
    g = SupplyGraph()
    for fmt in ("gexf", "dot", "graph_json"):
        path = tmp_path / f"empty.{fmt}"
        export(g, None, ExportOptions(format=fmt), str(path))
        assert path.exists()
    tree = ET.parse(tmp_path / "empty.gexf")
    assert tree.findall(f".//{GEXF_NS}node") == []
    assert import_graph_json(str(tmp_path / "empty.graph_json")) == g


def test_graph_json_round_trip_chain(tmp_path):
    g = chain_graph()
    path = tmp_path / "g.json"
    export(g, None, ExportOptions(format="graph_json"), str(path))
    assert import_graph_json(str(path)) == g


def test_graph_json_round_trip_parallel_edges(tmp_path):
    g = SupplyGraph()
    g.add_node("a", "A")
    g.add_node("b", "B")
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(1.0, "manual"))
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(1.0, "manual"))
    path = tmp_path / "parallel.json"
    export(g, None, ExportOptions(format="graph_json"), str(path))
    back = import_graph_json(str(path))
    assert len(back.edges) == 2
    assert back == g


def test_graph_json_round_trip_random_multigraphs(tmp_path):
    rng = random.Random(808)
    for i in range(50):
        g = random_multigraph(rng)
        path = tmp_path / f"g{i}.json"
        export(g, None, ExportOptions(format="graph_json"), str(path))
        assert import_graph_json(str(path)) == g


def test_graph_json_round_trip_shares_repeated_factors(tmp_path):
    g = SupplyGraph()
    for nid in "abcd":
        g.add_node(nid, nid.upper(), 1.0)
    factors = [EmissionFactor(2.5, "table"), EmissionFactor(2.5, "manual"),
               EmissionFactor(0.0, "table"), EmissionFactor(-0.0, "table")]
    for i, (source, target) in enumerate(["ab", "ac", "bd", "cd", "ab", "bd", "cd", "ac"]):
        g.add_edge(source, target, f"item{i}", 10.0 + i, factors[i % 4])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    export(g, None, ExportOptions(format="graph_json"), str(first))
    back = import_graph_json(str(first))
    export(back, None, ExportOptions(format="graph_json"), str(second))
    assert back == g
    assert second.read_bytes() == first.read_bytes()
    assert [math.copysign(1.0, e.factor.per_kg_co2e) for e in back.edges[2:4]] == [1.0, -1.0]
    assert back.edges[0].factor is back.edges[4].factor
    assert back.edges[0].factor is not back.edges[1].factor


def test_graph_json_truncated_file(tmp_path):
    g = chain_graph()
    path = tmp_path / "g.json"
    export(g, None, ExportOptions(format="graph_json"), str(path))
    content = path.read_text()
    path.write_text(content[: len(content) // 2])
    with pytest.raises(StoreFormatError):
        import_graph_json(str(path))


def test_graph_json_wrong_version(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"format": "supply-graph", "version": 99, "nodes": [], "edges": []}')
    with pytest.raises(StoreFormatError) as err:
        import_graph_json(str(path))
    assert "version" in str(err.value)


def test_graph_json_schema_error_names_location(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        '{"format": "supply-graph", "version": 1, "nodes": [{"id": "a", "display_name": "A", '
        '"direct_emissions_kg": 0.0}], "edges": [{"source": "a", "target": "a"}]}'
    )
    with pytest.raises(StoreFormatError) as err:
        import_graph_json(str(path))
    assert "edges[0]" in str(err.value)


_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_NODE_STMT = re.compile(rf"^  {_QUOTED} \[label={_QUOTED}\];$")
_EDGE_STMT = re.compile(rf"^  {_QUOTED} -> {_QUOTED} \[weight={_QUOTED}, label={_QUOTED}\];$")


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def parse_dot(text: str):
    """Round-parse the emitted DOT subset: header, node and edge statements."""
    lines = text.rstrip("\n").splitlines()
    assert lines[0] == "digraph supply_chain {"
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        node = _NODE_STMT.match(line)
        if node:
            nodes[_unescape(node.group(1))] = _unescape(node.group(2))
            continue
        edge = _EDGE_STMT.match(line)
        assert edge, f"statement does not parse: {line!r}"
        edges.append(tuple(_unescape(g) for g in edge.groups()))
    return nodes, edges


def test_dot_round_parses_random_graphs(tmp_path):
    rng = random.Random(4242)
    for i in range(25):
        g = random_multigraph(rng)
        path = tmp_path / f"g{i}.dot"
        export(g, None, ExportOptions(format="dot"), str(path))
        nodes, edges = parse_dot(path.read_text())
        assert set(nodes) == set(g.nodes)
        assert sorted((e[0], e[1], e[3]) for e in edges) == sorted(
            (e.source, e.target, e.item) for e in g.edges
        )


def test_dot_output_structure(tmp_path):
    g = chain_graph()
    path = tmp_path / "g.dot"
    export(g, propagate(g), ExportOptions(format="dot"), str(path))
    text = path.read_text()
    assert text.startswith("digraph supply_chain {")
    assert text.rstrip().endswith("}")
    assert text.count("->") == 2
    assert '"a" -> "b" [weight="200.000000", label="steel"];' in text


def test_dot_escapes_quotes(tmp_path):
    g = SupplyGraph()
    g.add_node("a", 'ACME "THE BEST" CO')
    g.add_node("b", "B")
    g.add_edge("a", "b", 'PARTS "A"', 1.0, EmissionFactor(1.0, "manual"))
    path = tmp_path / "q.dot"
    export(g, None, ExportOptions(format="dot"), str(path))
    text = path.read_text()
    assert '\\"THE BEST\\"' in text
    assert 'label="PARTS \\"A\\""' in text


def test_include_isolates_false_drops_degree_zero(tmp_path):
    g = chain_graph()
    g.add_node("lonely", "LONELY")
    opts = ExportOptions(format="graph_json", include_isolates=False)
    path = tmp_path / "no-iso.json"
    export(g, None, opts, str(path))
    back = import_graph_json(str(path))
    assert "lonely" not in back.nodes
    assert len(back.edges) == 2

    export(g, None, ExportOptions(format="gexf", include_isolates=False), str(tmp_path / "i.gexf"))
    assert len(ET.parse(tmp_path / "i.gexf").findall(f".//{GEXF_NS}node")) == 3


# Characters ElementTree escapes in attributes, the apostrophe it leaves
# alone, non-ASCII text (one astral) and a lone surrogate, which both
# writers turn into &#55296;.
_AWKWARD = st.text(st.sampled_from(list("&<>\"'\r\n\t aZ0é中\U0001d11e") + ["\ud800"]), max_size=6)
_NODES = st.lists(st.tuples(_AWKWARD, _AWKWARD, st.floats(0, 1e9)), max_size=5,
                  unique_by=lambda row: row[0])
# The writer escapes provenance although today's vocabulary needs none, so
# a provenance may be any text, set past EmissionFactor's validation.
_EDGES = st.lists(
    st.tuples(_AWKWARD, st.integers(0, 4), st.integers(0, 4), _AWKWARD, st.floats(0, 1e6),
              st.floats(0, 10), st.sampled_from(FACTOR_PROVENANCES) | _AWKWARD),
    max_size=6, unique_by=lambda row: row[0],
)


@st.composite
def gexf_cases(draw):
    g = SupplyGraph()
    for nid, label, direct in draw(_NODES):
        g.add_node(nid, label, direct)
    ids = list(g.nodes)
    for edge_id, source, target, item, mass, value, provenance in draw(_EDGES) if ids else []:
        factor = EmissionFactor(value, "table")
        object.__setattr__(factor, "provenance", provenance)
        g.add_edge(ids[source % len(ids)], ids[target % len(ids)], item, mass, factor,
                   edge_id=edge_id)
    report = None
    if draw(st.booleans()):
        # a report that lacks some nodes, as one read from an older graph
        rows = draw(st.lists(st.tuples(st.booleans(), st.floats(0, 1e9)),
                             min_size=len(ids), max_size=len(ids)))
        report = ELiabilityReport("full_propagation", 0.0, {
            nid: NodeLiability(retained_kg=kg) for nid, (kept, kg) in zip(ids, rows) if kept
        })
    opts = ExportOptions(format="gexf", weight_attr=draw(st.sampled_from(["edge_liability", "mass"])),
                         include_isolates=draw(st.booleans()))
    return g, report, opts


@settings(max_examples=300, deadline=None)
@given(gexf_cases())
@example((SupplyGraph(), None, ExportOptions(format="gexf")))
@example((SupplyGraph(), ELiabilityReport("one_hop", 0.0, {}),
          ExportOptions(format="gexf", weight_attr="mass", include_isolates=False)))
def test_gexf_writer_matches_elementtree_oracle(case):
    graph, report, opts = case
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp, "ours.gexf"), Path(tmp, "oracle.gexf")
        export(graph, report, opts, str(ours))
        oracle_write_gexf(graph, report, opts, str(oracle))
        assert ours.read_bytes() == oracle.read_bytes()


def _exported_text(graph, report, opts) -> str:
    """The text ``export`` hands to ``replace_file``, without writing a file."""
    texts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exporter, "replace_file",
                   lambda path, chunks, **options: texts.append("".join(chunks)))
        export(graph, report, opts, "unused")
    return texts[0]


def _odd_numbers_graph():
    g = SupplyGraph()
    g.add_node("a", "A", 5e-324)
    g.add_node("b", "B", 5)  # an int stays an int, as json writes it
    g.add_edge("a", "b", "x", 0.0, EmissionFactor(-0.0, "manual"))
    g.add_edge("b", "a", "y", 1e-7, EmissionFactor(1e16, "table"))
    return g, ELiabilityReport("one_hop", 0, {"b": NodeLiability(direct_kg=5, inherited_kg=math.nan,
                                                                 retained_kg=math.inf)})


def _rebuilt(graph, rows):
    """A graph with ``graph``'s nodes and the edge ``rows``, added in order."""
    g = SupplyGraph()
    for node in graph.nodes.values():
        g.add_node(node.canonical_id, node.display_name, node.direct_emissions_kg)
    for e in rows:
        g.add_edge(e.source, e.target, e.item, e.mass_kg, e.factor, e.edge_id, e.source_ref)
    return g


_REPORT_NUMBERS = st.floats() | st.integers(0, 10)


@st.composite
def graph_json_cases(draw):
    """GEXF cases, with every report field drawn (NaN, infinities and ints too).

    Each edge gets a drawn ``source_ref`` or none, and the edge ids are
    sometimes renumbered to ``add_edge``'s sequence, which the writer leaves out.
    """
    graph, report, opts = draw(gexf_cases())
    sequence = draw(st.booleans())
    graph = _rebuilt(graph, [
        edge._replace(source_ref=draw(st.none() | _AWKWARD),
                      edge_id=f"e{i:06d}" if sequence else edge.edge_id)
        for i, edge in enumerate(graph.edges, 1)])
    if report is not None:
        report = ELiabilityReport(draw(_AWKWARD), draw(_REPORT_NUMBERS), {
            nid: NodeLiability(*draw(st.tuples(*[_REPORT_NUMBERS] * 4))) for nid in report.nodes
        })
    return graph, report, ExportOptions(format="graph_json", include_isolates=opts.include_isolates)


@settings(max_examples=300, deadline=None)
@given(graph_json_cases())
@example((SupplyGraph(), None, ExportOptions()))
@example((SupplyGraph(), ELiabilityReport("one_hop", 0.0, {}), ExportOptions(include_isolates=False)))
@example((*_odd_numbers_graph(), ExportOptions()))
def test_graph_json_writer_matches_json_encoder(case):
    graph, report, opts = case
    assert _exported_text(graph, report, opts) == oracle_graph_json_v2(graph, report, opts)


def test_graph_json_v2_writes_edge_ids_only_once_they_leave_the_sequence():
    graph = chain_graph()
    graph.add_edge("a", "c", "x", 1.0, EmissionFactor(1.0, "manual"), edge_id="e000003")
    assert '"edge_ids"' not in _exported_text(graph, None, ExportOptions())
    graph.add_edge("a", "c", "x", 1.0, EmissionFactor(1.0, "manual"), edge_id="x")
    assert '"edge_ids":["e000001","e000002","e000003","x"]' in _exported_text(
        graph, None, ExportOptions())


# Text a UTF-8 file can hold: no lone surrogates.
_REF_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.data())
def test_graph_json_v2_round_trip_is_exact(rng, renumber, data):
    graph = random_multigraph(rng)
    graph = _rebuilt(graph, [
        # ids that are not add_edge's sequence are written out
        edge._replace(source_ref=data.draw(st.none() | _REF_TEXT),
                      edge_id=data.draw(_REF_TEXT) + f"#{i}" if renumber else edge.edge_id)
        for i, edge in enumerate(graph.edges)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.json")
        export(graph, None, ExportOptions(format="graph_json"), str(path))
        written = path.read_text(encoding="utf-8")
        assert ('"edge_ids"' in written) == (renumber and bool(graph.edges))
        back = import_graph_json(str(path))
    assert back == graph  # source_ref included


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_graph_json_v1_text_imports_to_the_same_graph(rng):
    graph = random_multigraph(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "v1.json")
        path.write_text(oracle_graph_json(graph, None, ExportOptions()), encoding="utf-8")
        back = import_graph_json(str(path))
    assert back == graph  # every source_ref None, as random_multigraph leaves it


@pytest.mark.parametrize("write", [
    pytest.param(lambda g, path: path.write_text(oracle_graph_json(g, None, ExportOptions())),
                 id="v1"),
    pytest.param(lambda g, path: export(g, None, ExportOptions(format="graph_json"), str(path)),
                 id="v2"),
])
def test_imported_edges_share_node_id_and_item_strings(tmp_path, write):
    graph = random_multigraph(random.Random(11), max_nodes=6, max_edges=40)
    assert len(graph.edges) > 20
    path = tmp_path / "g.json"
    write(graph, path)
    back = import_graph_json(str(path))
    for edge in back.edges:
        assert edge.source is back.nodes[edge.source].canonical_id
        assert edge.target is back.nodes[edge.target].canonical_id
    assert len({id(e.item) for e in back.edges}) == len({e.item for e in back.edges})


def _v1_doc(graph):
    return json.loads(oracle_graph_json(graph, None, ExportOptions()))


def _reordered(doc, *keys):
    return json.dumps({key: doc[key] for key in keys})


@pytest.mark.parametrize("indent", [None, 2])
def test_graph_json_v2_imports_the_same_graph_whole_or_through_the_window(tmp_path, indent):
    # The writer's own layout is decoded whole; any other goes through the window.
    graph = random_multigraph(random.Random(11), max_nodes=6, max_edges=40)
    path = tmp_path / "g.json"
    export(graph, None, ExportOptions(format="graph_json"), str(path))
    assert path.read_bytes().startswith(exporter._V2_START)
    if indent:
        path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    assert import_graph_json(str(path)) == graph


def _edges_given_twice(doc):
    """The document with a first ``edges`` (the edges reversed) that a second one replaces."""
    first = dict(doc, edges=doc["edges"][::-1])
    return json.dumps(first)[:-1] + ', "edges": ' + json.dumps(doc["edges"]) + "}"


@pytest.mark.parametrize("layout", [
    pytest.param(lambda doc: json.dumps(doc, indent=2), id="indent-2"),
    pytest.param(lambda doc: json.dumps(doc, separators=(",", ":")), id="compact"),
    pytest.param(lambda doc: " \n" + json.dumps(doc, separators=(" ,\r\n\t", "\n: ")) + "\n\n",
                 id="spaced"),
    pytest.param(lambda doc: _reordered(doc, "format", "version", "directed", "edges", "nodes"),
                 id="edges-before-nodes"),
    pytest.param(lambda doc: _reordered(doc, "directed", "nodes", "edges", "format", "version"),
                 id="format-and-version-last"),
    pytest.param(_edges_given_twice, id="edges-key-repeated"),
])
def test_graph_json_v1_layouts_import_to_the_same_graph(tmp_path, layout):
    graph = random_multigraph(random.Random(11), max_nodes=6, max_edges=40)
    path = tmp_path / "g.json"
    path.write_text(layout(_v1_doc(graph)), encoding="utf-8")
    back = import_graph_json(str(path))
    assert back == graph
    for edge in back.edges:
        assert edge.source is back.nodes[edge.source].canonical_id
        assert edge.target is back.nodes[edge.target].canonical_id


@pytest.mark.parametrize("key, value, reason", [
    ("version", 99, "unsupported graph_json version 99"),
    ("format", "other", "not a supply-graph document"),
])
def test_graph_json_v1_key_repeated_after_edges_is_read_as_json_reads_it(tmp_path, key, value,
                                                                         reason):
    graph = random_multigraph(random.Random(11), max_nodes=6, max_edges=40)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_v1_doc(graph))[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}")
    with pytest.raises(StoreFormatError, match=f"^{re.escape(str(path))}: {reason}$"):
        import_graph_json(str(path))


def test_graph_json_v1_bad_edge_in_a_truncated_file_is_malformed_json(tmp_path):
    graph = random_multigraph(random.Random(11), max_nodes=6, max_edges=40)
    doc = _v1_doc(graph)
    doc["edges"][0]["target"] = "no such node"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc)[:-40])
    with pytest.raises(StoreFormatError) as err:
        import_graph_json(str(path))
    assert f"{path}:1: malformed JSON: " in str(err.value)
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError, match=r"edges\[0\]: unknown edge target: no such node"):
        import_graph_json(str(path))


def test_graph_json_v1_import_peak_memory_is_bounded_by_file_size(tmp_path):
    # The benchmark's layout. Decoding the whole document peaks above 4x the
    # file's size; building the edges one at a time stays below 2.5x.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_v1_doc(_large_graph())))
    tracemalloc.start()
    try:
        graph = import_graph_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.edges) == 20000
    assert peak < 3 * path.stat().st_size


def test_graph_json_v1_import_holds_no_more_than_its_graph_and_a_window(tmp_path):
    # The file (5.1 MiB) is read through a window of 64 KiB, so what the import
    # holds beyond the graph it returns does not grow with the file: 0.13 MiB
    # here, 5.6 MiB while the file's text was read whole.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_v1_doc(_large_graph())))
    tracemalloc.start()
    try:
        graph = import_graph_json(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.edges) == 20000
    assert path.stat().st_size > 4 * 2**20
    assert peak - held < 1.5 * 2**20


def test_save_report_json_peak_memory_is_a_fraction_of_the_file(tmp_path):
    rng = random.Random(3)
    report = ELiabilityReport("full_propagation", 0.0, {
        f"company-{i:05d}": NodeLiability(*(rng.uniform(0, 1e3) for _ in range(4)))
        for i in range(20000)
    })
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        save_report_json(report, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def _v1_file_of_a_large_graph(tmp_path):
    """A 20,000-edge, 5,000-node acyclic graph written as a version-1 graph.json."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_v1_doc(_large_graph(n_nodes=5000))))
    return path


def test_imported_graph_holds_under_150_bytes_per_edge(tmp_path):
    # Edges are columns: two node positions, mass and liability unboxed, and
    # references to shared items and factors. One Edge object, id string and
    # boxed floats per edge held about 380 B per edge here.
    path = _v1_file_of_a_large_graph(tmp_path)
    tracemalloc.start()
    try:
        graph = import_graph_json(str(path))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(graph.edges) == 20000
    assert held / len(graph.edges) < 150


def test_propagate_peaks_under_2_5_mib_above_its_graph(tmp_path):
    # 1.5 MiB, the report included: the adjacency is two offset and two index
    # arrays over the graph's own columns, and the components are flat arrays.
    # Per-node lists of edge positions and of components took 3.7 MiB.
    graph = import_graph_json(str(_v1_file_of_a_large_graph(tmp_path)))
    tracemalloc.start()  # traces what propagate allocates, not the graph
    try:
        propagate(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_load_report_json_peaks_under_half_of_a_whole_decode(tmp_path):
    # The report of a graph_dag-sized graph (6,000 nodes, 1.1 MiB of text).
    # Each row is built as it is decoded, through a 64 KiB window: 1.5 MiB
    # at the peak, the 1.5 MiB report included. Decoding the text whole into
    # row dicts first peaked at 3.4 MiB.
    rng = random.Random(3)
    report = ELiabilityReport("full_propagation", 0.0, {
        f"company-{i:05d}": NodeLiability(*(rng.uniform(0, 1e3) for _ in range(4)))
        for i in range(6000)
    })
    path = tmp_path / "report.json"
    save_report_json(report, str(path))
    tracemalloc.start()
    try:
        loaded = load_report_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == report
    assert peak < 3.24 * 2**20 / 2


@pytest.mark.parametrize("text, message", [
    pytest.param('{"mode": "one_hop", "nodes": {"a": {"direct_kg": 1, "inherited_kg": 0, '
                 '"retained_kg": 1, "transferred_kg": 0}, "a": {"direct_kg": 2, '
                 '"inherited_kg": 0, "retained_kg": 2, "transferred_kg": 0}}, "residual": 0}',
                 None, id="node-id-repeated"),
    pytest.param('{"mode": "one_hop", "nodes": {"a": {"direct_kg": 1}}, "residual": 0}',
                 "missing field 'inherited_kg'", id="row-missing-a-field"),
    pytest.param('{"mode": "one_hop", "nodes": {"a": {"direct_kg": 1, "inherited_kg": 0, '
                 '"retained_kg": 1, "transferred_kg": 0}, "b": 5}, "residual": 0}',
                 "malformed report: 'nodes' must map node ids to objects", id="row-not-an-object"),
    pytest.param('{"nodes": {"a": {"direct_kg": 1, "inherited_kg": 0, '
                 '"retained_kg": 1, "transferred_kg": 0}}, "residual": 0}',
                 "missing field 'mode'", id="mode-missing-after-good-rows"),
])
def test_load_report_json_reads_streamed_rows_as_a_whole_decode_reads_them(tmp_path, text,
                                                                          message):
    path = tmp_path / "report.json"
    path.write_text(text)
    if message is None:  # json keeps the last row given for a repeated id
        report = load_report_json(str(path))
        assert report == ELiabilityReport.from_dict(json.loads(text))
        assert report.nodes["a"].direct_kg == 2.0
    else:
        with pytest.raises(StoreFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            load_report_json(str(path))


@settings(max_examples=200, deadline=None)
@given(gexf_cases(), st.integers(1, 3))
def test_save_report_json_writes_to_json_and_a_newline(case, chunk_lines):
    graph, report, _ = case
    report = report or propagate(graph, mode="one_hop")
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(exporter, "_CHUNK_LINES", chunk_lines)  # rows cut into several chunks
        path = Path(tmp, "report.json")
        save_report_json(report, str(path))
        assert path.read_bytes() == (report.to_json() + "\n").encode("utf-8")
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _large_graph(n_nodes=2000, n_edges=20000):
    rng = random.Random(9)
    g = SupplyGraph()
    for i in range(n_nodes):
        g.add_node(f"company-{i:05d}", f"COMPANY {i:05d} INDUSTRIAL HOLDINGS", rng.uniform(0, 1e3))
    ids = list(g.nodes)
    factors = [EmissionFactor(rng.uniform(0.5, 5), "table") for _ in range(20)]
    for i in range(n_edges):
        source, target = sorted(rng.sample(range(n_nodes), 2))  # acyclic
        g.add_edge(ids[source], ids[target], f"PRODUCT LINE {i % 300:03d} ON PALLETS",
                   rng.uniform(1, 1e4), rng.choice(factors))
    return g


@pytest.mark.parametrize("fmt", FORMATS)
def test_exports_stream_in_bounded_chunks(tmp_path, monkeypatch, fmt):
    # graph_json is the most compact format, so it needs more edges to be as large.
    graph = _large_graph(n_edges=50000 if fmt == "graph_json" else 20000)
    seen, kinds = [], []

    def recording_replace_file(path, chunks, **options):
        kinds.append(isinstance(chunks, collections.abc.Iterator))

        def record():
            for chunk in chunks:
                seen.append(chunk)
                yield chunk

        replace_file(path, record(), **options)

    monkeypatch.setattr(exporter, "replace_file", recording_replace_file)
    path = tmp_path / f"big.{fmt}"
    export(graph, propagate(graph), ExportOptions(format=fmt), str(path))
    written = path.read_bytes()
    assert len(written) > 2 * 2**20
    assert kinds == [True]
    assert max(len(chunk.encode("utf-8")) for chunk in seen) <= 256 * 2**10
    assert "".join(seen).encode("utf-8") == written


def test_gexf_replaces_xml_illegal_characters(tmp_path):
    g = SupplyGraph()
    g.add_node("a\x1fb", "ACME\x0bCO")
    g.add_node("c", "C\ufffe")
    factor = EmissionFactor(1.0, "table")
    object.__setattr__(factor, "provenance", "p\x00\uffff")
    g.add_edge("a\x1fb", "c", "x\x00y", 2.0, factor, edge_id="e\x08")
    path = tmp_path / "g.gexf"
    export(g, None, ExportOptions(format="gexf"), str(path))
    root = ET.parse(path).getroot()
    nodes = root.findall(f".//{GEXF_NS}node")
    assert [(n.get("id"), n.get("label")) for n in nodes] == [
        ("a\ufffdb", "ACME\ufffdCO"), ("c", "C\ufffd")]
    edge = root.find(f".//{GEXF_NS}edge")
    assert (edge.get("id"), edge.get("source")) == ("e\ufffd", "a\ufffdb")
    values = {v.get("for"): v.get("value") for v in edge.iter(f"{GEXF_NS}attvalue")}
    assert values["10"] == "x\ufffdy"
    assert values["14"] == "p\ufffd\ufffd"


def test_export_options_validation():
    with pytest.raises(UsageError):
        ExportOptions(format="png")
    with pytest.raises(UsageError):
        ExportOptions(weight_attr="color")


def test_export_unwritable_path():
    with pytest.raises(OSError):
        export(chain_graph(), None, ExportOptions(format="graph_json"), "/nonexistent-dir/g.json")


def _export_as(fmt):
    return lambda graph, path: export(graph, propagate(graph), ExportOptions(format=fmt), path)


@pytest.mark.parametrize("write", [
    pytest.param(_export_as("graph_json"), id="graph_json"),
    pytest.param(_export_as("gexf"), id="gexf"),
    pytest.param(_export_as("dot"), id="dot"),
    pytest.param(lambda graph, path: save_report_json(propagate(graph), path), id="report_json"),
])
def test_failed_write_keeps_old_file_and_no_temp_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(chain_graph(), str(path))
    old_bytes = path.read_bytes()
    monkeypatch.setattr(exporter, "replace_file", replace_file_failing_partway)
    grown = chain_graph()
    grown.add_node("d", "D", 5.0)
    with pytest.raises(RuntimeError, match="disk on fire"):
        write(grown, str(path))
    assert path.read_bytes() == old_bytes
    assert not list(tmp_path.glob("*.tmp"))


def test_graph_json_export_failing_mid_stream_keeps_old_file(tmp_path):
    path = tmp_path / "g.json"
    export(chain_graph(), None, ExportOptions(format="graph_json"), str(path))
    old_bytes = path.read_bytes()
    g = chain_graph()
    g.nodes["c"].display_name = object()  # json cannot encode it, after nodes a and b
    with pytest.raises(TypeError, match="not JSON serializable"):
        export(g, None, ExportOptions(format="graph_json"), str(path))
    assert path.read_bytes() == old_bytes
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("name", ["display_name", "item", "edge_id", "source_ref", "provenance",
                                  "mode"])
def test_graph_json_non_string_field_raises_before_replacing_file(tmp_path, name):
    path = tmp_path / "g.json"
    export(chain_graph(), None, ExportOptions(format="graph_json"), str(path))
    old_bytes = path.read_bytes()
    graph = chain_graph()
    report = propagate(graph)
    if name == "mode":
        report.mode = 5
    elif name == "display_name":
        graph.nodes["c"].display_name = 5
    elif name == "provenance":
        object.__setattr__(graph.edges[1].factor, "provenance", 5)
    else:
        rows = list(graph.edges)
        rows[1] = rows[1]._replace(**{name: 5})
        graph = _rebuilt(graph, rows)
    with pytest.raises(TypeError, match="Object of type int is not JSON serializable"):
        export(graph, report, ExportOptions(format="graph_json"), str(path))
    assert path.read_bytes() == old_bytes
    assert not list(tmp_path.glob("*.tmp"))


def test_loaders_build_with_gc_off_and_restore_it(tmp_path, monkeypatch):
    graph_path, report_path = tmp_path / "g.json", tmp_path / "report.json"
    export(chain_graph(), None, ExportOptions(format="graph_json"), str(graph_path))
    save_report_json(propagate(chain_graph()), str(report_path))
    seen = []
    add_node, from_dict = SupplyGraph.add_node, ELiabilityReport.from_dict.__func__

    def spy_add_node(self, *args):
        seen.append(gc.isenabled())
        return add_node(self, *args)

    def spy_from_dict(cls, doc):
        seen.append(gc.isenabled())
        return from_dict(cls, doc)

    monkeypatch.setattr(SupplyGraph, "add_node", spy_add_node)
    monkeypatch.setattr(ELiabilityReport, "from_dict", classmethod(spy_from_dict))
    assert gc.isenabled()
    import_graph_json(str(graph_path))
    load_report_json(str(report_path))
    assert seen == [False] * 4
    assert gc.isenabled()


def test_report_json_round_trip(tmp_path):
    report = propagate(chain_graph())
    path = tmp_path / "report.json"
    save_report_json(report, str(path))
    loaded = load_report_json(str(path))
    assert loaded == report
