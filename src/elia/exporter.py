"""Serialize supply graphs for Gephi (GEXF), Graphviz (DOT) and analysis (JSON).

graph_json is the lossless interchange format: ``import_graph_json`` is an
exact inverse of ``export`` with format="graph_json". GEXF and DOT are
one-way visualization exports. Numeric attributes are written with six
decimal places so golden files stay byte-stable.

Every format is written from text templates, one element at a time, and
streamed to the file in chunks of a few hundred lines, so the whole
document never exists in memory at once. GEXF bytes are pinned against
the original ElementTree writer (``tests/oracles.py::oracle_write_gexf``):
same attribute escaping, two-space indent, ``" />"`` empty tags and no
final newline; characters XML does not allow become U+FFFD. graph_json
bytes are those of ``json.JSONEncoder(ensure_ascii=False, indent=2)``
plus a final newline.

Every file written here (graph_json, GEXF, DOT and ``report.json``) goes
through ``core.replace_file``: a temporary file moved over the target, so an
interrupted write leaves the previous file whole. ``import_graph_json`` and
``load_report_json`` build their objects with the cyclic garbage collector
off (``core.no_gc``); the decoded documents and the graph hold no cycles.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring

from .core import EmissionFactor, json_number, no_gc, read_json, replace_file
from .errors import DuplicateIdError, NodeNotFoundError, StoreFormatError, UsageError
from .graph import MODES, ELiabilityReport, SupplyGraph

GRAPH_JSON_VERSION = 1

FORMATS = ("gexf", "dot", "graph_json")
WEIGHT_ATTRS = ("edge_liability", "mass")

GEXF_NS = "http://gexf.net/1.3"


@dataclass
class ExportOptions:
    format: str = "graph_json"
    weight_attr: str = "edge_liability"
    include_isolates: bool = True

    def __post_init__(self):
        if self.format not in FORMATS:
            raise UsageError(f"unknown export format: {self.format!r} (expected {FORMATS})")
        if self.weight_attr not in WEIGHT_ATTRS:
            raise UsageError(f"unknown weight attribute: {self.weight_attr!r}")


def _visible_nodes(graph: SupplyGraph, include_isolates: bool):
    if include_isolates:
        return list(graph.nodes.values())
    connected = set()
    for edge in graph.edges:
        connected.add(edge.source)
        connected.add(edge.target)
    return [n for n in graph.nodes.values() if n.canonical_id in connected]


def export(
    graph: SupplyGraph,
    report: ELiabilityReport | None,
    opts: ExportOptions,
    path: str,
) -> None:
    """Write the graph (plus optional per-node report values) to ``path``."""
    if opts.format == "graph_json":
        replace_file(path, _chunks(_graph_json_lines(graph, report, opts), "\n"))
    elif opts.format == "gexf":
        # ElementTree's own file settings, so characters UTF-8 cannot encode
        # (a lone surrogate) still become numeric character references.
        replace_file(path, _chunks(_gexf_lines(graph, report, opts), ""),
                     errors="xmlcharrefreplace", newline="\n")
    else:
        replace_file(path, _chunks(_dot_lines(graph, report, opts), "\n"))


_CHUNK_LINES = 256


def _chunks(lines, end: str):
    r"""Yield ``"\n".join(lines) + end`` as pieces of at most _CHUNK_LINES lines.

    Only one piece exists at a time, so an export's extra memory does not
    grow with the graph.
    """
    lines = iter(lines)
    sep = ""
    while batch := list(itertools.islice(lines, _CHUNK_LINES)):
        yield sep + "\n".join(batch)
        sep = "\n"
    yield end


def _json_str(text: str) -> str:
    """``text`` as ``json`` writes it with ``ensure_ascii=False``; json's error otherwise."""
    try:
        return encode_basestring(text)
    except TypeError:
        raise TypeError(f"Object of type {type(text).__name__} is not JSON serializable") from None


def _json_items(head: str, items, tail: str, brackets: str = "[]", indent: str = "  "):
    """Lines of ``head`` + a json container of the pre-rendered ``items`` + ``tail``.

    Items are comma-separated and the closing bracket sits at ``indent``,
    as ``json.JSONEncoder(indent=2)`` lays them out; an empty container is
    ``[]`` or ``{}`` on the head line.
    """
    items = iter(items)
    prev = next(items, None)
    if prev is None:
        yield f"{head}{brackets}{tail}"
        return
    yield head + brackets[0]
    for item in items:
        yield prev + ","
        prev = item
    yield prev
    yield f"{indent}{brackets[1]}{tail}"


def _graph_json_lines(graph, report, opts):
    """graph_json, byte for byte ``json.JSONEncoder(ensure_ascii=False, indent=2)``.

    Strings go through json's own encoder and numbers are written as json
    writes them (``json_number``). A string field holding anything but a
    string raises json's ``TypeError`` before the file is replaced.
    """
    # Ids, items and provenances repeat across edges: escape each once.
    string = functools.cache(_json_str)
    yield f'{{\n  "format": "supply-graph",\n  "version": {GRAPH_JSON_VERSION},\n  "directed": true,'
    yield from _json_items('  "nodes": ', (
        f'    {{\n      "id": {string(n.canonical_id)},\n'
        f'      "display_name": {_json_str(n.display_name)},\n'
        f'      "direct_emissions_kg": {json_number(n.direct_emissions_kg)}\n    }}'
        for n in _visible_nodes(graph, opts.include_isolates)
    ), ",")
    yield from _json_items('  "edges": ', (
        f'    {{\n      "edge_id": {_json_str(e.edge_id)},\n'
        f'      "source": {string(e.source)},\n'
        f'      "target": {string(e.target)},\n'
        f'      "item": {string(e.item)},\n'
        f'      "mass_kg": {json_number(e.mass_kg)},\n'
        f'      "factor": {{\n'
        f'        "per_kg_co2e": {json_number(e.factor.per_kg_co2e)},\n'
        f'        "provenance": {string(e.factor.provenance)}\n'
        f'      }},\n'
        f'      "edge_liability_kg": {json_number(e.edge_liability_kg)}\n    }}'
        for e in graph.edges
    ), "" if report is None else ",")
    if report is not None:
        # report.to_dict(): keys in insertion order, node rows sorted by id
        yield '  "report": {'
        yield f'    "mode": {_json_str(report.mode)},'
        yield f'    "residual": {json_number(report.residual)},'
        yield from _json_items('    "nodes": ', (
            f'      {string(nid)}: {{\n'
            f'        "direct_kg": {json_number(row.direct_kg)},\n'
            f'        "inherited_kg": {json_number(row.inherited_kg)},\n'
            f'        "transferred_kg": {json_number(row.transferred_kg)},\n'
            f'        "retained_kg": {json_number(row.retained_kg)}\n      }}'
            for nid, row in sorted(report.nodes.items())
        ), "", "{}", "    ")
        yield "  }"
    yield "}"


def _require_strings(row: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not isinstance(row[key], str):
            raise TypeError(f"{key!r} must be a string, got {type(row[key]).__name__}")


@no_gc()
def import_graph_json(path: str) -> SupplyGraph:
    """Rebuild a graph from a graph_json file; exact inverse of export."""
    doc = read_json(path, StoreFormatError, "JSON")
    if doc.get("format") != "supply-graph":
        raise StoreFormatError(f"{path}: not a supply-graph document")
    if doc.get("version") != GRAPH_JSON_VERSION:
        raise StoreFormatError(
            f"{path}: unsupported graph_json version {doc.get('version')!r}"
        )
    nodes, edges = doc.get("nodes", []), doc.get("edges", [])
    for key, value in (("nodes", nodes), ("edges", edges)):
        if not isinstance(value, list):
            raise StoreFormatError(f"{path}: {key}: expected a list, got {type(value).__name__}")
    graph = SupplyGraph()
    # A row whose string fields are all exact str passes the cheap tests
    # below. Any other row goes through _require_strings only to raise its
    # error: the first key, in order, that is missing or not a string.
    # Each decoded row is dropped from its list once its node or edge is
    # built, so the document and the graph are not both held in full.
    for i in range(len(nodes)):
        n, nodes[i] = nodes[i], None
        try:
            if (type(n) is not dict or type(n.get("id")) is not str
                    or type(n.get("display_name")) is not str):
                _require_strings(n, ("id", "display_name"))
            if n["id"] in graph.nodes:
                raise StoreFormatError(f"{path}: nodes[{i}]: duplicate node id {n['id']!r}")
            graph.add_node(n["id"], n["display_name"], float(n["direct_emissions_kg"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{path}: nodes[{i}]: {exc}") from exc
    # EmissionFactor is frozen, so edges with the same factor share one
    # instance, built (and validated) the first time its pair appears. The
    # value is keyed by repr because 0.0 == -0.0, and both must round-trip.
    factors: dict[tuple, EmissionFactor] = {}
    for i in range(len(edges)):
        e, edges[i] = edges[i], None
        try:
            if (type(e) is not dict or type(e.get("edge_id")) is not str
                    or type(e.get("source")) is not str or type(e.get("target")) is not str
                    or type(e.get("item")) is not str):
                _require_strings(e, ("edge_id", "source", "target", "item"))
            raw = e["factor"]
            key = (repr(raw["per_kg_co2e"]), raw.get("provenance", "manual"))
            factor = factors.get(key)
            if factor is None:
                factor = factors[key] = EmissionFactor.from_dict(raw)
            graph.add_edge(
                e["source"],
                e["target"],
                e["item"],
                float(e["mass_kg"]),
                factor,
                edge_id=e["edge_id"],
            )
        except (KeyError, TypeError, ValueError, NodeNotFoundError, DuplicateIdError) as exc:
            raise StoreFormatError(f"{path}: edges[{i}]: {exc}") from exc
    return graph


@no_gc()
def load_report_json(path: str) -> ELiabilityReport:
    doc = read_json(path, StoreFormatError, "report")
    nodes = doc.get("nodes")
    if not isinstance(nodes, dict) or not all(isinstance(row, dict) for row in nodes.values()):
        raise StoreFormatError(f"{path}: malformed report: 'nodes' must map node ids to objects")
    try:
        report = ELiabilityReport.from_dict(doc)
        if report.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {report.mode!r}")
        # Finite only, not core.check_amount: rounding leaves negatives such as -4.7e-10.
        if not math.isfinite(report.residual):
            raise ValueError(f"residual must be finite, got {report.residual!r}")
        for nid, row in report.nodes.items():
            for name in ("direct_kg", "inherited_kg", "transferred_kg", "retained_kg"):
                if not math.isfinite(value := getattr(row, name)):
                    raise ValueError(f"node {nid!r}: {name} must be finite, got {value!r}")
    except KeyError as exc:
        raise StoreFormatError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise StoreFormatError(f"{path}: malformed report: {exc}") from exc
    return report


def save_report_json(report: ELiabilityReport, path: str) -> None:
    replace_file(path, [report.to_json(), "\n"])


_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
    # characters XML 1.0 does not allow at all become U+FFFD
    **{chr(c): "\ufffd" for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)},
})
_NEEDS_ESCAPE = re.compile('[&<>"\r\n\t\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]').search


def _attr(text: str) -> str:
    """Escape an XML attribute value the way ElementTree does."""
    # translate() with multi-character replacements is several times slower
    # than a regex search even when nothing matches, so plain text skips it.
    return text.translate(_ATTR_ESCAPES) if _NEEDS_ESCAPE(text) else text


_GEXF_EDGE_ATTRIBUTES = (
    "    </attributes>",
    '    <attributes class="edge">',
    '      <attribute id="10" title="item" type="string" />',
    '      <attribute id="11" title="mass_kg" type="double" />',
    '      <attribute id="12" title="edge_liability_kg" type="double" />',
    '      <attribute id="13" title="factor_per_kg_co2e" type="double" />',
    '      <attribute id="14" title="factor_provenance" type="string" />',
    "    </attributes>",
)


def _gexf_lines(graph, report, opts):
    yield "<?xml version='1.0' encoding='UTF-8'?>"
    yield f'<gexf xmlns="{GEXF_NS}" version="1.3">'
    yield '  <graph defaultedgetype="directed">'
    yield '    <attributes class="node">'
    yield '      <attribute id="0" title="direct_emissions_kg" type="double" />'
    if report is not None:
        yield '      <attribute id="1" title="retained_kg" type="double" />'
    yield from _GEXF_EDGE_ATTRIBUTES
    attr = functools.cache(_attr)
    rows = {} if report is None else report.nodes
    nodes = _visible_nodes(graph, opts.include_isolates)
    yield "    <nodes>" if nodes else "    <nodes />"
    for node in nodes:
        row = rows.get(node.canonical_id)
        retained = "" if row is None else (
            f'\n          <attvalue for="1" value="{row.retained_kg:.6f}" />')
        yield (
            f'      <node id="{attr(node.canonical_id)}" label="{_attr(node.display_name)}">\n'
            f"        <attvalues>\n"
            f'          <attvalue for="0" value="{node.direct_emissions_kg:.6f}" />{retained}\n'
            f"        </attvalues>\n"
            f"      </node>"
        )
    if nodes:
        yield "    </nodes>"
    by_liability = opts.weight_attr == "edge_liability"
    yield "    <edges>" if graph.edges else "    <edges />"
    for edge in graph.edges:
        # the weight attribute repeats one of the two, formatted once
        mass = f"{edge.mass_kg:.6f}"
        liability = f"{edge.edge_liability_kg:.6f}"
        yield (
            f'      <edge id="{_attr(edge.edge_id)}" source="{attr(edge.source)}" '
            f'target="{attr(edge.target)}" weight="{liability if by_liability else mass}">\n'
            f"        <attvalues>\n"
            f'          <attvalue for="10" value="{attr(edge.item)}" />\n'
            f'          <attvalue for="11" value="{mass}" />\n'
            f'          <attvalue for="12" value="{liability}" />\n'
            f'          <attvalue for="13" value="{edge.factor.per_kg_co2e:.6f}" />\n'
            f'          <attvalue for="14" value="{attr(edge.factor.provenance)}" />\n'
            f"        </attvalues>\n"
            f"      </edge>"
        )
    if graph.edges:
        yield "    </edges>"
    yield "  </graph>"
    yield "</gexf>"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_lines(graph, report, opts):
    yield "digraph supply_chain {"
    quoted = functools.cache(_dot_escape)
    rows = {} if report is None else report.nodes
    for node in _visible_nodes(graph, opts.include_isolates):
        label = _dot_escape(node.display_name)
        row = rows.get(node.canonical_id)
        if row is not None:
            # \n is the DOT line-break escape, added after quoting the name
            label += f"\\nretained={row.retained_kg:.6f}"
        yield f'  "{quoted(node.canonical_id)}" [label="{label}"];'
    by_liability = opts.weight_attr == "edge_liability"
    for edge in graph.edges:
        weight = edge.edge_liability_kg if by_liability else edge.mass_kg
        yield (
            f'  "{quoted(edge.source)}" -> "{quoted(edge.target)}" '
            f'[weight="{weight:.6f}", label="{quoted(edge.item)}"];'
        )
    yield "}"
