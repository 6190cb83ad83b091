"""Serialize supply graphs for Gephi (GEXF), Graphviz (DOT) and analysis (JSON).

graph_json is the lossless interchange format: ``import_graph_json`` is an
exact inverse of ``export`` with format="graph_json". GEXF and DOT are
one-way visualization exports. Numeric attributes are written with six
decimal places so golden files stay byte-stable.

graph_json version 2 (``GRAPH_JSON_VERSION``) is one compact JSON line,
the bytes of one ``json.dumps(ensure_ascii=False, separators=(",", ":"))``
call plus a final newline, encoded a batch of rows at a time. Nodes are three columns (``id``,
``display_name``, ``direct_emissions_kg``); ``items`` and ``factors``
(``[per_kg_co2e, provenance]``) are tables; each edge is one array
``[source, target, item, mass_kg, factor, source_ref]`` whose first three
and fifth values index the node columns and the tables, and whose
``source_ref`` names the ``record_id`` or ``triple_id`` the edge was built
from (``null`` when unknown). ``edge_ids`` is written only when the ids are
not ``add_edge``'s sequence ``e000001…``, and ``report`` only when a report
is exported. ``import_graph_json`` also reads version 1, where each edge is
an object that spells out its ids; its edges get no ``source_ref``. A
version-2 file as ``export`` writes it is decoded whole. Any other file is
read through ``core.read_json``'s sliding window, so its text is never held
whole: a version-1 ``edges`` array that follows ``format``, ``version`` and
``nodes`` is decoded one element at a time, each built into its edge and
dropped, so the decoded document (several times the file's size) is never
held whole either; any other file is decoded whole and built by the same
code.

GEXF, DOT and ``report.json`` are written from text templates, one element
(or report row) at a time, and streamed to the file in chunks of a few
hundred (``_chunks``), so the whole document never exists in memory at
once. GEXF bytes are pinned against the original ElementTree writer
(``tests/oracles.py::oracle_write_gexf``): same attribute escaping,
two-space indent, ``" />"`` empty tags and no final newline; characters
XML does not allow become U+FFFD.

Every file written here (graph_json, GEXF, DOT and ``report.json``) goes
through ``core.replace_file``: a temporary file moved over the target, so an
interrupted write leaves the previous file whole. ``import_graph_json`` and
``load_report_json`` build their objects with the cyclic garbage collector
off (``core.no_gc``); the decoded documents and the graph hold no cycles.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .core import EmissionFactor, no_gc, read_json, replace_file
from .errors import DuplicateIdError, NodeNotFoundError, StoreFormatError, UsageError
from .graph import MODES, ELiabilityReport, SupplyGraph

GRAPH_JSON_VERSION = 2

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
        replace_file(path, _graph_json_chunks(graph, report, opts))
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


def _require_json_strings(values) -> None:
    """json's ``TypeError`` for the first value that is not a string.

    ``json`` would write a number or ``null`` held in a string field without
    complaint, and the reader would reject the file.
    """
    for value in values:
        if not isinstance(value, str):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_JSON_BATCH = 1024


def _json_batches(encode, batches, brackets: str = "[]"):
    """Pieces that join to one JSON array (or object) of all the batches' entries.

    Each batch, a list (or dict) of at most _JSON_BATCH entries, is encoded
    on its own. json holds a small string per number until it joins its
    output, so encoding a large document at once would hold several times
    its size.
    """
    sep = brackets[0]
    for batch in batches:
        if batch:
            yield sep + encode(batch)[1:-1]
            sep = ","
    yield brackets if sep == brackets[0] else brackets[1]


def _slices(entries):
    return (entries[k:k + _JSON_BATCH] for k in range(0, len(entries), _JSON_BATCH))


def _json_pieces(encode, value, depth: int):
    """Pieces that join to ``encode(value)``, each of bounded size.

    Dicts down to ``depth`` levels are written key by key, any other list
    or dict a batch at a time, and an iterator as one array of the lists it
    yields.
    """
    if type(value) is dict and depth > 0:
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{encode(key)}:"
            yield from _json_pieces(encode, item, depth - 1)
            sep = ","
        yield "{}" if sep == "{" else "}"
    elif type(value) is list:
        yield from _json_batches(encode, _slices(value))
    elif type(value) is dict:
        yield from _json_batches(encode, map(dict, _slices(list(value.items()))), "{}")
    elif isinstance(value, Iterator):
        yield from _json_batches(encode, value)
    else:
        yield encode(value)


def _graph_json_chunks(graph, report, opts):
    """The graph_json version 2 document, one compact line and a newline, in pieces.

    The pieces join to ``json.dumps(doc, ensure_ascii=False,
    separators=(",", ":"))`` and a newline (see ``_json_pieces``). Items
    and factors are tables built in one pass over the edges; the edge rows
    are then made a batch at a time as they are encoded. A factor is keyed
    by ``(repr(per_kg_co2e), provenance)``, so ``0.0`` and ``-0.0`` (equal,
    and equally hashed) both round-trip. Edge ids are written only when
    they are not ``add_edge``'s own sequence ``e000001…``. A string field
    holding anything but a string raises ``TypeError`` before the file is
    replaced.
    """
    nodes = _visible_nodes(graph, opts.include_isolates)
    position = {n.canonical_id: i for i, n in enumerate(nodes)}
    items: dict[str, int] = {}
    factors: dict[tuple, int] = {}
    factor_rows = []
    # EmissionFactor is frozen and edges mostly share instances, so each
    # instance is keyed once; the graph keeps it alive, so its id is stable.
    factor_of: dict[int, int] = {}
    for e in graph.edges:
        items.setdefault(e.item, len(items))
        if id(e.factor) not in factor_of:
            value, provenance = e.factor.per_kg_co2e, e.factor.provenance
            f = factors.setdefault((repr(value), provenance), len(factor_rows))
            if f == len(factor_rows):
                factor_rows.append([value, provenance])
            factor_of[id(e.factor)] = f
    edges = graph.edges
    edge_rows = ([[position[e.source], position[e.target], items[e.item], e.mass_kg,
                   factor_of[id(e.factor)], e.source_ref] for e in batch]
                 for batch in _slices(edges))
    doc = {
        "format": "supply-graph",
        "version": GRAPH_JSON_VERSION,
        "directed": True,
        "nodes": {
            "id": list(position),
            "display_name": [n.display_name for n in nodes],
            "direct_emissions_kg": [n.direct_emissions_kg for n in nodes],
        },
        "items": list(items),
        "factors": factor_rows,
        "edges": edge_rows,
    }
    strings = [position, doc["nodes"]["display_name"], items, [p for _, p in factor_rows],
               (e.source_ref for e in edges if e.source_ref is not None)]
    if any(e.edge_id != f"e{i:06d}" for i, e in enumerate(edges, 1)):
        doc["edge_ids"] = [e.edge_id for e in edges]
        strings.append(doc["edge_ids"])
    if report is not None:
        doc["report"] = report.to_dict()
        strings += [[report.mode], report.nodes]
    for values in strings:
        _require_json_strings(values)
    yield from _json_pieces(json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode,
                            doc, depth=2)
    yield "\n"


# How every version-2 file ``export`` writes begins. ``import_graph_json``
# decodes such a file whole, as one string: nothing in it streams, and a
# window would scan each array that outgrew it again. Any other file is read
# through ``read_json``'s window; both ways give the same graph or error.
_V2_START = b'{"format":"supply-graph","version":2,'

_V1_EDGE_STRINGS = ("edge_id", "source", "target", "item")


def _require_strings(row: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not isinstance(row[key], str):
            raise TypeError(f"{key!r} must be a string, got {type(row[key]).__name__}")


@no_gc()
def import_graph_json(path: str) -> SupplyGraph:
    """Rebuild a graph from a graph_json file, version 1 or 2; exact inverse of export.

    The edges of a version-1 file are read and built one at a time when
    ``format``, ``version`` and ``nodes`` come before them (``read_json``'s
    ``stream``), so its decoded document is never held whole. Any other
    file, and any file with a fault, is decoded whole and built by the same
    code, which gives the same graph or error.
    """
    with open(path, "rb") as fh:
        written_v2 = fh.read(len(_V2_START)) == _V2_START
    stream = None if written_v2 else functools.partial(_stream_v1_edges, path)
    doc = read_json(path, StoreFormatError, "JSON", stream)
    if type(doc.get("edges")) is SupplyGraph:
        return doc["edges"]
    if doc.get("format") != "supply-graph":
        raise StoreFormatError(f"{path}: not a supply-graph document")
    if doc.get("version") == GRAPH_JSON_VERSION:
        return _import_v2(path, doc)
    if doc.get("version") != 1:
        raise StoreFormatError(
            f"{path}: unsupported graph_json version {doc.get('version')!r}"
        )
    nodes, edges = doc.get("nodes", []), doc.get("edges", [])
    for key, value in (("nodes", nodes), ("edges", edges)):
        if not isinstance(value, list):
            raise StoreFormatError(f"{path}: {key}: expected a list, got {type(value).__name__}")
    graph, add = _v1_graph(path, nodes)
    # Each decoded row is dropped from its list once its edge is built, so
    # the document and the graph are not both held in full.
    for i in range(len(edges)):
        e, edges[i] = edges[i], None
        add(i, e)
    return graph


def _stream_v1_edges(path: str, doc: dict, key: str):
    """``read_json``'s ``stream``: version-1 ``edges`` go to ``_v1_graph``'s builder.

    Only ``edges`` that follow a version-1 ``format``, ``version`` and a
    ``nodes`` list stream; ``doc["edges"]`` then becomes the graph. The
    checks that come before the edges' own have passed by then, so a file
    that streams meets every check in the same order as one decoded whole.
    """
    if (key != "edges" or doc.get("format") != "supply-graph" or doc.get("version") != 1
            or type(doc.get("nodes")) is not list):
        return None
    graph, add = _v1_graph(path, doc["nodes"])
    return add, graph


def _v1_graph(path: str, nodes: list):
    """The graph of version-1 ``nodes``, and ``add(i, e)``, which adds the edge of row ``e``.

    Each node row is dropped from ``nodes`` once its node is built. Edges
    take each node's own id string and one string per distinct item, not
    the copies json decoded for every row. A row whose string fields are
    all exact str passes the cheap tests below; any other row goes through
    ``_require_strings`` only to raise its error: the first key, in order,
    that is missing or not a string.
    """
    graph = SupplyGraph()
    ids: dict[str, str] = {}
    for i in range(len(nodes)):
        n, nodes[i] = nodes[i], None
        try:
            if (type(n) is not dict or type(n.get("id")) is not str
                    or type(n.get("display_name")) is not str):
                _require_strings(n, ("id", "display_name"))
            nid = n["id"]
            if nid in graph.nodes:
                raise StoreFormatError(f"{path}: nodes[{i}]: duplicate node id {nid!r}")
            graph.add_node(nid, n["display_name"], float(n["direct_emissions_kg"]))
            ids[nid] = nid
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StoreFormatError(f"{path}: nodes[{i}]: {exc}") from exc
    # EmissionFactor is frozen, so edges with the same factor share one
    # instance, built (and validated) the first time its pair appears. A
    # nonzero float is keyed by value; any other value by repr, because
    # 0.0 == -0.0 and both must round-trip.
    factors: dict[tuple, EmissionFactor] = {}
    items: dict[str, str] = {}
    node_id, shared_item, add_edge = ids.get, items.setdefault, graph.add_edge

    def add(i: int, e) -> None:
        try:
            if type(e) is not dict:
                _require_strings(e, _V1_EDGE_STRINGS)
            edge_id, source, target = e.get("edge_id"), e.get("source"), e.get("target")
            item = e.get("item")
            if (type(edge_id) is not str or type(source) is not str
                    or type(target) is not str or type(item) is not str):
                _require_strings(e, _V1_EDGE_STRINGS)
            raw = e["factor"]
            value = raw["per_kg_co2e"]
            key = (value if type(value) is float and value else repr(value),
                   raw.get("provenance", "manual"))
            factor = factors.get(key)
            if factor is None:
                factor = factors[key] = EmissionFactor.from_dict(raw)
            add_edge(node_id(source, source), node_id(target, target), shared_item(item, item),
                     float(e["mass_kg"]), factor, edge_id)
        except (KeyError, TypeError, ValueError, OverflowError, NodeNotFoundError,
                DuplicateIdError) as exc:
            raise StoreFormatError(f"{path}: edges[{i}]: {exc}") from exc

    return graph, add


_NODE_COLUMNS = ("id", "display_name", "direct_emissions_kg")


def _node_fault(nid, name, kg) -> str:
    """Why a version-2 node row failed the reader's type tests."""
    for key, value in (("id", nid), ("display_name", name)):
        if type(value) is not str:
            return f"{key!r} must be a string, got {type(value).__name__}"
    return f"direct_emissions_kg must be a number, got {type(kg).__name__}"


def _edge_fault(e, sizes: dict[str, int]) -> str:
    """Why a version-2 edge array failed the reader's type and range tests."""
    if type(e) is not list or len(e) != 6:
        got = f"{len(e)} values" if type(e) is list else type(e).__name__
        return f"expected an array [source, target, item, mass_kg, factor, source_ref], got {got}"
    for pos, name in ((0, "source"), (1, "target"), (2, "item"), (4, "factor")):
        if type(e[pos]) is not int:
            return f"{name} index must be an integer, got {type(e[pos]).__name__}"
        if not 0 <= e[pos] < sizes[name]:
            return f"{name} index {e[pos]} out of range [0, {sizes[name]})"
    if type(e[3]) is not float and type(e[3]) is not int:
        return f"mass_kg must be a number, got {type(e[3]).__name__}"
    return f"source_ref must be a string or null, got {type(e[5]).__name__}"


def _v2_list(path: str, doc: dict, key: str, where: str | None = None):
    value = doc.get(key, [])
    if type(value) is not list:
        raise StoreFormatError(
            f"{path}: {where or key}: expected a list, got {type(value).__name__}")
    return value


def _import_v2(path: str, doc: dict) -> SupplyGraph:
    """Build the graph of a version-2 document, with every check the v1 reader makes.

    Indices must be ints (not bools) in range, amounts ints or floats that
    pass ``check_amount``, strings strings. Each fault is a
    ``StoreFormatError`` naming ``nodes[i]``, ``items[i]``, ``factors[i]``
    or ``edges[i]``. Edges take each node's own id string and the items
    table's strings, so each distinct string is held once.
    """
    columns = doc.get("nodes", {})
    if type(columns) is not dict:
        raise StoreFormatError(f"{path}: nodes: expected an object, got {type(columns).__name__}")
    ids, names, direct = (_v2_list(path, columns, key, f"nodes.{key}") for key in _NODE_COLUMNS)
    items, factor_rows, edges = (_v2_list(path, doc, key) for key in ("items", "factors", "edges"))
    edge_ids = doc.get("edge_ids")
    if edge_ids is not None:
        edge_ids = _v2_list(path, doc, "edge_ids")
    if not len(ids) == len(names) == len(direct):
        lengths = [len(column) for column in (ids, names, direct)]
        described = ", ".join(f"{key} {n}" for key, n in zip(_NODE_COLUMNS, lengths))
        raise StoreFormatError(f"{path}: nodes[{min(lengths)}]: "
                               f"node columns differ in length ({described})")
    if edge_ids is not None and len(edge_ids) != len(edges):
        raise StoreFormatError(f"{path}: edges[{min(len(edges), len(edge_ids))}]: "
                               f"{len(edge_ids)} edge_ids for {len(edges)} edges")
    for i, item in enumerate(items):
        if type(item) is not str:
            raise StoreFormatError(
                f"{path}: items[{i}]: item must be a string, got {type(item).__name__}")
    factors = []
    for i, row in enumerate(factor_rows):
        try:
            if type(row) is not list or len(row) != 2:
                got = f"{len(row)} values" if type(row) is list else type(row).__name__
                raise ValueError(f"expected an array [per_kg_co2e, provenance], got {got}")
            value, provenance = row
            if type(value) is not float and type(value) is not int:
                raise ValueError(f"per_kg_co2e must be a number, got {type(value).__name__}")
            if type(provenance) is not str:
                raise ValueError(f"provenance must be a string, got {type(provenance).__name__}")
            factors.append(EmissionFactor(float(value), provenance))
        except (ValueError, OverflowError) as exc:
            raise StoreFormatError(f"{path}: factors[{i}]: {exc}") from exc
    graph = SupplyGraph()
    for i, (nid, name, kg) in enumerate(zip(ids, names, direct)):
        try:
            if type(nid) is not str or type(name) is not str or (
                    type(kg) is not float and type(kg) is not int):
                raise ValueError(_node_fault(nid, name, kg))
            if nid in graph.nodes:
                raise ValueError(f"duplicate node id {nid!r}")
            graph.add_node(nid, name, float(kg))
        except (ValueError, OverflowError) as exc:
            raise StoreFormatError(f"{path}: nodes[{i}]: {exc}") from exc
    n_nodes, n_items, n_factors = len(ids), len(items), len(factors)
    sizes = {"source": n_nodes, "target": n_nodes, "item": n_items, "factor": n_factors}
    add_edge, edge_id = graph.add_edge, None
    # Each decoded array is dropped once its edge is built, as in version 1.
    for i in range(len(edges)):
        e, edges[i] = edges[i], None
        try:
            if type(e) is not list or len(e) != 6:
                raise ValueError(_edge_fault(e, sizes))
            s, t, it, mass, f, ref = e
            if not (type(s) is type(t) is type(it) is type(f) is int
                    and 0 <= s < n_nodes and 0 <= t < n_nodes
                    and 0 <= it < n_items and 0 <= f < n_factors
                    and (type(mass) is float or type(mass) is int)
                    and (ref is None or type(ref) is str)):
                raise ValueError(_edge_fault(e, sizes))
            if edge_ids is not None:
                edge_id = edge_ids[i]
                if type(edge_id) is not str:
                    raise ValueError(f"'edge_id' must be a string, got {type(edge_id).__name__}")
            add_edge(ids[s], ids[t], items[it], float(mass), factors[f], edge_id, ref)
        except (ValueError, OverflowError, DuplicateIdError) as exc:
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
    """Write ``report.to_json()`` and a newline to ``path``, a batch of node rows at a time."""
    replace_file(path, _chunks(report.json_lines(), "\n"))


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
