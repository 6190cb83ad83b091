"""Serialize supply graphs for Gephi (GEXF), Graphviz (DOT) and analysis (JSON).

graph_json is the lossless interchange format: ``import_graph_json`` is an
exact inverse of ``export`` with format="graph_json". GEXF and DOT are
one-way visualization exports. Numeric attributes are written with six
decimal places so golden files stay byte-stable.

GEXF is written directly as text, one line per element, in a single write.
Its bytes are pinned against the original ElementTree writer
(``tests/oracles.py::oracle_write_gexf``): same attribute escaping,
two-space indent, ``" />"`` empty tags and no final newline.

Every file written here (graph_json, GEXF, DOT and ``report.json``) goes
through ``core.replace_file``: a temporary file moved over the target, so an
interrupted write leaves the previous file whole. ``import_graph_json`` and
``load_report_json`` build their objects with the cyclic garbage collector
off (``core.no_gc``); the decoded documents and the graph hold no cycles.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .core import EmissionFactor, no_gc, replace_file
from .errors import DuplicateIdError, NodeNotFoundError, StoreFormatError, UsageError
from .graph import ELiabilityReport, SupplyGraph

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


def _fixed(value: float) -> str:
    return f"{value:.6f}"


def _edge_weight(edge, weight_attr: str) -> float:
    return edge.edge_liability_kg if weight_attr == "edge_liability" else edge.mass_kg


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
        _write_graph_json(graph, report, opts, path)
    elif opts.format == "gexf":
        _write_gexf(graph, report, opts, path)
    else:
        _write_dot(graph, report, opts, path)


def _write_graph_json(graph, report, opts, path):
    doc = {
        "format": "supply-graph",
        "version": GRAPH_JSON_VERSION,
        "directed": True,
        "nodes": [
            {
                "id": n.canonical_id,
                "display_name": n.display_name,
                "direct_emissions_kg": n.direct_emissions_kg,
            }
            for n in _visible_nodes(graph, opts.include_isolates)
        ],
        "edges": [
            {
                "edge_id": e.edge_id,
                "source": e.source,
                "target": e.target,
                "item": e.item,
                "mass_kg": e.mass_kg,
                "factor": e.factor.to_dict(),
                "edge_liability_kg": e.edge_liability_kg,
            }
            for e in graph.edges
        ],
    }
    if report is not None:
        doc["report"] = report.to_dict()
    chunks = json.JSONEncoder(ensure_ascii=False, indent=2).iterencode(doc)
    replace_file(path, itertools.chain(chunks, ["\n"]))


def _require_strings(row: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not isinstance(row[key], str):
            raise TypeError(f"{key!r} must be a string, got {type(row[key]).__name__}")


@no_gc()
def import_graph_json(path: str) -> SupplyGraph:
    """Rebuild a graph from a graph_json file; exact inverse of export."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "supply-graph":
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
    for i, n in enumerate(nodes):
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
    for i, e in enumerate(edges):
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
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        nodes = doc.get("nodes") if isinstance(doc, dict) else None
        if not isinstance(nodes, dict) or not all(isinstance(row, dict) for row in nodes.values()):
            raise StoreFormatError(f"{path}: malformed report: 'nodes' must map node ids to objects")
        return ELiabilityReport.from_dict(doc)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise StoreFormatError(f"{path}: malformed report: {exc}") from exc


def save_report_json(report: ELiabilityReport, path: str) -> None:
    replace_file(path, [report.to_json(), "\n"])


_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})
_NEEDS_ESCAPE = re.compile('[&<>"\r\n\t]').search


def _attr(text: str) -> str:
    """Escape an XML attribute value the way ElementTree does."""
    # translate() with multi-character replacements is several times slower
    # than a regex search even when nothing matches, so plain text skips it.
    return text.translate(_ATTR_ESCAPES) if _NEEDS_ESCAPE(text) else text


def _gexf_list(tag: str, items: list[str]) -> list[str]:
    if not items:
        return [f"    <{tag} />"]
    return [f"    <{tag}>", *items, f"    </{tag}>"]


def _gexf_node(node, report) -> str:
    retained = ""
    if report is not None and node.canonical_id in report.nodes:
        value = _fixed(report.nodes[node.canonical_id].retained_kg)
        retained = f'\n          <attvalue for="1" value="{value}" />'
    return (
        f'      <node id="{_attr(node.canonical_id)}" label="{_attr(node.display_name)}">\n'
        f"        <attvalues>\n"
        f'          <attvalue for="0" value="{_fixed(node.direct_emissions_kg)}" />{retained}\n'
        f"        </attvalues>\n"
        f"      </node>"
    )


def _gexf_edge(edge, weight_attr: str) -> str:
    return (
        f'      <edge id="{_attr(edge.edge_id)}" source="{_attr(edge.source)}" '
        f'target="{_attr(edge.target)}" weight="{_fixed(_edge_weight(edge, weight_attr))}">\n'
        f"        <attvalues>\n"
        f'          <attvalue for="10" value="{_attr(edge.item)}" />\n'
        f'          <attvalue for="11" value="{_fixed(edge.mass_kg)}" />\n'
        f'          <attvalue for="12" value="{_fixed(edge.edge_liability_kg)}" />\n'
        f'          <attvalue for="13" value="{_fixed(edge.factor.per_kg_co2e)}" />\n'
        f'          <attvalue for="14" value="{_attr(edge.factor.provenance)}" />\n'
        f"        </attvalues>\n"
        f"      </edge>"
    )


def _write_gexf(graph, report, opts, path):
    lines = [
        "<?xml version='1.0' encoding='UTF-8'?>",
        f'<gexf xmlns="{GEXF_NS}" version="1.3">',
        '  <graph defaultedgetype="directed">',
        '    <attributes class="node">',
        '      <attribute id="0" title="direct_emissions_kg" type="double" />',
    ]
    if report is not None:
        lines.append('      <attribute id="1" title="retained_kg" type="double" />')
    lines += [
        "    </attributes>",
        '    <attributes class="edge">',
        '      <attribute id="10" title="item" type="string" />',
        '      <attribute id="11" title="mass_kg" type="double" />',
        '      <attribute id="12" title="edge_liability_kg" type="double" />',
        '      <attribute id="13" title="factor_per_kg_co2e" type="double" />',
        '      <attribute id="14" title="factor_provenance" type="string" />',
        "    </attributes>",
    ]
    nodes = _visible_nodes(graph, opts.include_isolates)
    lines += _gexf_list("nodes", [_gexf_node(node, report) for node in nodes])
    lines += _gexf_list("edges", [_gexf_edge(edge, opts.weight_attr) for edge in graph.edges])
    lines += ["  </graph>", "</gexf>"]
    # ElementTree's own file settings, so characters UTF-8 cannot encode
    # (a lone surrogate) still become numeric character references.
    replace_file(path, ["\n".join(lines)], errors="xmlcharrefreplace", newline="\n")


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _write_dot(graph, report, opts, path):
    lines = ["digraph supply_chain {"]
    for node in _visible_nodes(graph, opts.include_isolates):
        label = _dot_escape(node.display_name)
        if report is not None and node.canonical_id in report.nodes:
            # \n is the DOT line-break escape, added after quoting the name
            label += f"\\nretained={_fixed(report.nodes[node.canonical_id].retained_kg)}"
        lines.append(f'  "{_dot_escape(node.canonical_id)}" [label="{label}"];')
    for edge in graph.edges:
        weight = _fixed(_edge_weight(edge, opts.weight_attr))
        lines.append(
            f'  "{_dot_escape(edge.source)}" -> "{_dot_escape(edge.target)}" '
            f'[weight="{weight}", label="{_dot_escape(edge.item)}"];'
        )
    lines.append("}")
    replace_file(path, ["\n".join(lines), "\n"])
