"""Serialize supply graphs for Gephi (GEXF), Graphviz (DOT) and analysis (JSON).

graph_json is the lossless interchange format: ``import_graph_json`` is an
exact inverse of ``export`` with format="graph_json". GEXF and DOT are
one-way visualization exports. Numeric attributes are written with six
decimal places so golden files stay byte-stable.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .core import EmissionFactor
from .errors import NodeNotFoundError, StoreFormatError, UsageError
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


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
    for i, n in enumerate(nodes):
        try:
            if n["id"] in graph.nodes:
                raise StoreFormatError(f"{path}: nodes[{i}]: duplicate node id {n['id']!r}")
            graph.add_node(n["id"], n["display_name"], float(n["direct_emissions_kg"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{path}: nodes[{i}]: {exc}") from exc
    edge_ids = set()
    for i, e in enumerate(edges):
        try:
            if e["edge_id"] in edge_ids:
                raise StoreFormatError(f"{path}: edges[{i}]: duplicate edge_id {e['edge_id']!r}")
            edge_ids.add(e["edge_id"])
            graph.add_edge(
                e["source"],
                e["target"],
                e["item"],
                float(e["mass_kg"]),
                EmissionFactor.from_dict(e["factor"]),
                edge_id=e["edge_id"],
            )
        except (KeyError, TypeError, ValueError, NodeNotFoundError) as exc:
            raise StoreFormatError(f"{path}: edges[{i}]: {exc}") from exc
    return graph


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def _write_gexf(graph, report, opts, path):
    ET.register_namespace("", GEXF_NS)
    root = ET.Element(f"{{{GEXF_NS}}}gexf", {"version": "1.3"})
    g = ET.SubElement(root, f"{{{GEXF_NS}}}graph", {"defaultedgetype": "directed"})

    node_attrs = ET.SubElement(g, f"{{{GEXF_NS}}}attributes", {"class": "node"})
    ET.SubElement(
        node_attrs,
        f"{{{GEXF_NS}}}attribute",
        {"id": "0", "title": "direct_emissions_kg", "type": "double"},
    )
    if report is not None:
        ET.SubElement(
            node_attrs,
            f"{{{GEXF_NS}}}attribute",
            {"id": "1", "title": "retained_kg", "type": "double"},
        )
    edge_attrs = ET.SubElement(g, f"{{{GEXF_NS}}}attributes", {"class": "edge"})
    for attr_id, title, kind in (
        ("10", "item", "string"),
        ("11", "mass_kg", "double"),
        ("12", "edge_liability_kg", "double"),
        ("13", "factor_per_kg_co2e", "double"),
        ("14", "factor_provenance", "string"),
    ):
        ET.SubElement(
            edge_attrs, f"{{{GEXF_NS}}}attribute", {"id": attr_id, "title": title, "type": kind}
        )

    nodes_el = ET.SubElement(g, f"{{{GEXF_NS}}}nodes")
    for node in _visible_nodes(graph, opts.include_isolates):
        node_el = ET.SubElement(
            nodes_el,
            f"{{{GEXF_NS}}}node",
            {"id": node.canonical_id, "label": node.display_name},
        )
        values = ET.SubElement(node_el, f"{{{GEXF_NS}}}attvalues")
        ET.SubElement(
            values,
            f"{{{GEXF_NS}}}attvalue",
            {"for": "0", "value": _fixed(node.direct_emissions_kg)},
        )
        if report is not None and node.canonical_id in report.nodes:
            ET.SubElement(
                values,
                f"{{{GEXF_NS}}}attvalue",
                {"for": "1", "value": _fixed(report.nodes[node.canonical_id].retained_kg)},
            )

    edges_el = ET.SubElement(g, f"{{{GEXF_NS}}}edges")
    for edge in graph.edges:
        edge_el = ET.SubElement(
            edges_el,
            f"{{{GEXF_NS}}}edge",
            {
                "id": edge.edge_id,
                "source": edge.source,
                "target": edge.target,
                "weight": _fixed(_edge_weight(edge, opts.weight_attr)),
            },
        )
        values = ET.SubElement(edge_el, f"{{{GEXF_NS}}}attvalues")
        for attr_id, value in (
            ("10", edge.item),
            ("11", _fixed(edge.mass_kg)),
            ("12", _fixed(edge.edge_liability_kg)),
            ("13", _fixed(edge.factor.per_kg_co2e)),
            ("14", edge.factor.provenance),
        ):
            ET.SubElement(values, f"{{{GEXF_NS}}}attvalue", {"for": attr_id, "value": value})

    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="UTF-8", xml_declaration=True)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
