"""Independent oracles and generators for the graph and transcript tests.

The mention oracle is the original detector: it compiles one regex per
gazetteer entry for every sentence, which is slow but plainly right.

The retained-liability oracle deliberately avoids the library's pool
equations and topological pass: it injects every direct-emission amount and
every edge liability at its node, then walks all downstream paths,
multiplying mass fractions along the way. Exponential in path count, which
is fine for the small random graphs used in tests.

The full-propagation oracle is the original whole-graph implementation:
Kahn's sort with sorted tie-breaking for an acyclic graph, otherwise a
damped Jacobi iteration that re-pools every node on every sweep.

The resolution oracle is the original ``resolve``: it compares every pair
of normalized forms and scans every raw name for each cluster, which is
quadratic but plainly right. The date oracle is the original ``strptime``
loop of the BOL parser.

The GEXF oracle is the original writer: it builds an ElementTree, indents
it and lets ElementTree serialize it, so the string writer must match its
escaping and layout byte for byte. The graph_json oracles likewise build
the document as dicts and let ``json`` encode it: ``oracle_graph_json`` is
the version-1 layout, which the reader still takes, and
``oracle_graph_json_v2`` the version-2 layout the writer produces.
"""

from __future__ import annotations

import json
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from datetime import date, datetime

from elia.core import EmissionFactor, Mention, Sentence
from elia.exporter import GEXF_NS, _visible_nodes
from elia.graph import ELiabilityReport, NodeLiability, SupplyGraph
from elia.resolution import (
    CanonicalEntity,
    ResolutionResult,
    _UnionFind,
    canonical_id_for,
    normalize_name,
    token_jaccard,
)
from elia.transcripts import Gazetteer, _suffix_run_spans


def oracle_mentions(sentence: Sentence, gaz: Gazetteer) -> Sentence:
    text = sentence.text
    candidates: set[tuple[int, int]] = set()
    for entry in gaz.entries:
        pattern = re.compile(r"(?<!\w)" + re.escape(entry) + r"(?!\w)", re.IGNORECASE)
        for m in pattern.finditer(text):
            candidates.add((m.start(), m.end()))
    candidates.update(_suffix_run_spans(text, gaz.suffixes))

    chosen: list[tuple[int, int]] = []
    for start, end in sorted(candidates, key=lambda se: (se[0] - se[1], se[0])):
        if all(end <= s or start >= e for s, e in chosen):
            chosen.append((start, end))
    chosen.sort()

    mentions = [Mention(s, e, text[s:e]) for s, e in chosen]
    return Sentence(
        transcript_id=sentence.transcript_id,
        index=sentence.index,
        text=sentence.text,
        mentions=mentions,
        id=sentence.id,
    )


def oracle_resolve(names: list[str], threshold: float = 0.8,
                   sources: list[str] | None = None) -> ResolutionResult:
    """Brute-force resolution: union every pair of forms at or above ``threshold``."""
    if not names:
        return ResolutionResult(alias_map={}, entities={})
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if sources is not None and len(sources) != len(names):
        raise ValueError("sources, when given, must align with names")

    raw_counts = Counter(names)
    norm_of: dict[str, str] = {raw: normalize_name(raw) for raw in raw_counts}
    forms = sorted(set(norm_of.values()))

    uf = _UnionFind(forms)
    for i, fa in enumerate(forms):
        for fb in forms[i + 1 :]:
            if token_jaccard(fa, fb) >= threshold:
                uf.union(fa, fb)

    clusters: dict[str, list[str]] = {}
    for form in forms:
        clusters.setdefault(uf.find(form), []).append(form)

    alias_map: dict[str, str] = {}
    entities: dict[str, CanonicalEntity] = {}
    for root, member_forms in clusters.items():
        cid = canonical_id_for(min(member_forms))
        aliases = {raw for raw in raw_counts if norm_of[raw] in set(member_forms)}
        display = min(aliases, key=lambda raw: (-raw_counts[raw], normalize_name(raw), raw))
        entity = CanonicalEntity(canonical_id=cid, display_name=display, aliases=aliases)
        for raw in sorted(aliases):
            alias_map[raw] = cid
        entities[cid] = entity

    if sources is None:
        for raw, count in raw_counts.items():
            ent = entities[alias_map[raw]]
            ent.source_count["all"] = ent.source_count.get("all", 0) + count
    else:
        for raw, source in zip(names, sources):
            ent = entities[alias_map[raw]]
            ent.source_count[source] = ent.source_count.get(source, 0) + 1

    return ResolutionResult(alias_map=alias_map, entities=entities)


def oracle_parse_date(text: str) -> date | None:
    """The BOL parser's date reader: three ``strptime`` formats in turn."""
    text = text.strip()
    if not text:
        return None
    for fmt in ("%Y-%m-%d", "%m/%d/%Y", "%d.%m.%Y"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unrecognized date: {text!r}")


def oracle_retained(graph: SupplyGraph) -> dict[str, float]:
    out_edges = defaultdict(list)
    for e in graph.edges:
        out_edges[e.source].append(e)
    out_mass = {nid: sum(e.mass_kg for e in out_edges[nid]) for nid in graph.nodes}

    def distribute(start: str) -> dict[str, float]:
        landed: dict[str, float] = defaultdict(float)

        def walk(node: str, fraction: float):
            if out_mass[node] <= 0.0:
                landed[node] += fraction
                return
            for e in out_edges[node]:
                if e.mass_kg > 0.0:
                    walk(e.target, fraction * (e.mass_kg / out_mass[node]))

        walk(start, 1.0)
        return landed

    injected: dict[str, float] = defaultdict(float)
    for nid, node in graph.nodes.items():
        injected[nid] += node.direct_emissions_kg
    for e in graph.edges:
        injected[e.target] += e.edge_liability_kg

    retained = {nid: 0.0 for nid in graph.nodes}
    for start, amount in injected.items():
        if amount == 0.0:
            continue
        for node, fraction in distribute(start).items():
            retained[node] += amount * fraction
    return retained


def oracle_propagate(graph: SupplyGraph, tolerance: float = 1e-9, max_iterations: int = 1000,
                     damping: float = 1.0) -> ELiabilityReport:
    """``propagate(graph, on_cycle="iterate", ...)`` as a whole-graph pass."""
    incoming = {nid: [] for nid in graph.nodes}
    outgoing = {nid: [] for nid in graph.nodes}
    for edge in graph.edges:
        incoming[edge.target].append(edge)
        outgoing[edge.source].append(edge)
    order = _oracle_topological_order(graph, outgoing)
    if order is not None:
        share = {e.edge_id: 0.0 for e in graph.edges}
        for nid in order:
            pool = graph.nodes[nid].direct_emissions_kg + sum(
                e.edge_liability_kg + share[e.edge_id] for e in incoming[nid]
            )
            share.update(_oracle_allocate(pool, outgoing[nid]))
        residual = 0.0
    else:
        share, residual = _oracle_fixed_point_shares(
            graph, incoming, outgoing, tolerance, max_iterations, damping
        )

    rows = {}
    for nid, node in graph.nodes.items():
        inherited = sum(e.edge_liability_kg + share[e.edge_id] for e in incoming[nid])
        transferred = sum(share[e.edge_id] for e in outgoing[nid])
        rows[nid] = NodeLiability(
            direct_kg=node.direct_emissions_kg,
            inherited_kg=inherited,
            transferred_kg=transferred,
            retained_kg=node.direct_emissions_kg + inherited - transferred,
        )
    return ELiabilityReport(mode="full_propagation", residual=residual, nodes=rows)


def _oracle_allocate(pool: float, edges) -> dict[str, float]:
    out_mass = sum(e.mass_kg for e in edges)
    if out_mass <= 0.0:
        return {e.edge_id: 0.0 for e in edges}
    return {e.edge_id: pool * (e.mass_kg / out_mass) for e in edges}


def _oracle_topological_order(graph: SupplyGraph, outgoing) -> list[str] | None:
    """Kahn's algorithm with sorted tie-breaking; None when cyclic."""
    indegree = {nid: 0 for nid in graph.nodes}
    for edge in graph.edges:
        indegree[edge.target] += 1
    ready = sorted(nid for nid, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        newly_ready = []
        for edge in outgoing[nid]:
            indegree[edge.target] -= 1
            if indegree[edge.target] == 0:
                newly_ready.append(edge.target)
        for t in sorted(set(newly_ready)):
            if t not in ready:
                ready.append(t)
        ready.sort()
    if len(order) != len(graph.nodes):
        return None
    return order


def _oracle_fixed_point_shares(graph, incoming, outgoing, tolerance, max_iterations, damping):
    pools = {nid: 0.0 for nid in graph.nodes}
    share = {e.edge_id: 0.0 for e in graph.edges}
    residual = float("inf")
    node_ids = sorted(graph.nodes)
    for _ in range(max_iterations):
        new_pools = {}
        for nid in node_ids:
            computed = graph.nodes[nid].direct_emissions_kg + sum(
                e.edge_liability_kg + share[e.edge_id] for e in incoming[nid]
            )
            new_pools[nid] = (1.0 - damping) * pools[nid] + damping * computed
        residual = max(
            (abs(new_pools[nid] - pools[nid]) for nid in node_ids), default=0.0
        )
        pools = new_pools
        share = {}
        for nid in node_ids:
            share.update(_oracle_allocate(pools[nid], outgoing[nid]))
        if residual < tolerance:
            break
    return share, residual


def random_multigraph(rng: random.Random, max_nodes: int = 8, max_edges: int = 16) -> SupplyGraph:
    """Arbitrary directed multigraph: cycles, self-loops, parallel edges."""
    graph = SupplyGraph()
    n = rng.randint(0, max_nodes)
    ids = [f"m{i:02d}" for i in range(n)]
    for nid in ids:
        graph.add_node(nid, f"Company {nid}", round(rng.uniform(0, 20), 3))
    if n:
        for _ in range(rng.randint(0, max_edges)):
            source, target = rng.choice(ids), rng.choice(ids)
            provenance = rng.choice(["sampled", "table", "manual"])
            graph.add_edge(
                source,
                target,
                rng.choice(["WINE", "HANDBAG", 'PARTS "A"', "bolts, nuts", ""]),
                round(rng.uniform(0, 500), 3),
                EmissionFactor(round(rng.uniform(0, 2), 4), provenance),
            )
    return graph


def random_dag(rng: random.Random, max_nodes: int = 10, max_edges: int = 20) -> SupplyGraph:
    """A random DAG: edges only go from lower to higher node rank."""
    graph = SupplyGraph()
    n = rng.randint(1, max_nodes)
    ids = [f"n{i:02d}" for i in range(n)]
    for nid in ids:
        direct = rng.choice([0.0, 0.0, round(rng.uniform(0, 50), 3)])
        graph.add_node(nid, nid.upper(), direct)
    if n >= 2:
        for _ in range(rng.randint(0, max_edges)):
            i, j = sorted(rng.sample(range(n), 2))
            mass = rng.choice([0.0, round(rng.uniform(0.1, 100), 3)])
            factor = EmissionFactor(round(rng.uniform(0, 3), 3), "manual")
            graph.add_edge(ids[i], ids[j], f"item-{i}-{j}", mass, factor)
    return graph


def _fixed(value: float) -> str:
    return f"{value:.6f}"


def _edge_weight(edge, weight_attr: str) -> float:
    return edge.edge_liability_kg if weight_attr == "edge_liability" else edge.mass_kg


def oracle_write_gexf(graph, report, opts, path):
    """The original GEXF writer: an ElementTree, indented, then serialized."""
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


def oracle_graph_json(graph, report, opts) -> str:
    """The original graph_json text: the document as dicts, encoded by ``json``."""
    doc = {
        "format": "supply-graph",
        "version": 1,
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
    return json.JSONEncoder(ensure_ascii=False, indent=2).encode(doc) + "\n"


def oracle_graph_json_v2(graph, report, opts) -> str:
    """graph_json version 2 text: plain lists and dicts, encoded by one ``json`` call.

    Items and factors are listed in order of first use; a factor is told
    apart by the ``repr`` of its value and its provenance, so ``-0.0`` is
    not ``0.0``. Edge ids are left out when they are ``e000001``, ``e000002``, ….
    """
    nodes = _visible_nodes(graph, opts.include_isolates)
    node_index = {n.canonical_id: i for i, n in enumerate(nodes)}
    items: dict[str, int] = {}
    factors: dict[tuple[str, str], list] = {}
    for e in graph.edges:
        items.setdefault(e.item, len(items))
        key = (repr(e.factor.per_kg_co2e), e.factor.provenance)
        factors.setdefault(key, [e.factor.per_kg_co2e, e.factor.provenance])
    factor_index = {key: i for i, key in enumerate(factors)}
    doc = {
        "format": "supply-graph",
        "version": 2,
        "directed": True,
        "nodes": {
            "id": [n.canonical_id for n in nodes],
            "display_name": [n.display_name for n in nodes],
            "direct_emissions_kg": [n.direct_emissions_kg for n in nodes],
        },
        "items": list(items),
        "factors": list(factors.values()),
        "edges": [
            [
                node_index[e.source],
                node_index[e.target],
                items[e.item],
                e.mass_kg,
                factor_index[(repr(e.factor.per_kg_co2e), e.factor.provenance)],
                e.source_ref,
            ]
            for e in graph.edges
        ],
    }
    edge_ids = [e.edge_id for e in graph.edges]
    if edge_ids != [f"e{i:06d}" for i in range(1, len(edge_ids) + 1)]:
        doc["edge_ids"] = edge_ids
    if report is not None:
        doc["report"] = report.to_dict()
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
