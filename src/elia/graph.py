"""Supply-chain multigraph: construction, liability propagation, queries.

Nodes are canonical companies; every shipment and every fully-resolved
transaction relation contributes one directed edge (parallel edges are kept,
never merged, so each shipment stays auditable), and names the store row
it came from, a ``record_id`` or ``triple_id``, in ``source_ref``. Edge
liability is ``mass_kg * factor.per_kg_co2e``.

Propagation modes:

* ``one_hop``: a node inherits exactly the liabilities on its incoming
  edges. Nothing is passed further downstream, so transferred is 0 and
  retained = direct + inherited.
* ``full_propagation``: each node accumulates a pool
  T(u) = direct(u) + sum over incoming edges of (edge liability +
  allocated share), then passes the whole pool downstream, allocating it
  across outgoing edges proportionally to shipped mass. Nodes without
  outgoing mass retain their pool. The graph is condensed into strongly
  connected components (Tarjan, iterative) that are visited upstream
  first. A node on no cycle is pooled and allocated once. A cyclic
  component (several nodes, or one node with a self-loop) is an error by
  default; with ``on_cycle="iterate"`` its inflow from upstream is frozen
  and a fixed-point iteration runs over that component alone. A component
  whose iteration does not settle below the tolerance (a closed cycle with
  no outflow has no finite solution) raises ``CycleError``, so a returned
  report is always converged. Its residual is the largest final per-node
  change over the cyclic components: 0 on a DAG. Each component's report
  rows are finished as soon as it is pooled and allocated, since every
  share into and out of it is final by then; ``one_hop`` runs the same
  loop over single nodes without allocating.

A graph holds its edges as columns (``SupplyGraph``): node positions in
``array('l')``, masses and liabilities in ``array('d')``, and references to
shared item strings and factors, with no object per edge; ``graph.edges``
builds ``Edge`` rows from them only when asked. Propagation works on these
positions. Each node's incoming and outgoing edges are compressed sparse
rows (``_Groups``) over the graph's own ``targets`` and ``sources``
columns: one offset array per node and one array of edge positions, grouped
by node and in edge order within a node. The share of a pool passed along
each edge lives in an ``array('d')`` indexed by edge position. Every sum
runs in edge order, so the numbers do not depend on this layout.

``ELiabilityReport.json_lines`` yields ``report.json`` a node row at a time
from string templates; the lines join (``to_json``) to byte for byte what
``json.dumps(to_dict(), sort_keys=True, indent=2)`` gives, including the
integer ``0`` that ``sum()`` yields over no edges.

The mass-proportional allocation rule is this library's documented
convention for multi-hop accounting; only the one-hop computation is
standard.
"""

from __future__ import annotations

import fnmatch
import math
import operator
import random
import re
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Mapping, NamedTuple

from .core import EmissionFactor, check_amount, json_number, read_ndjson
from .errors import CycleError, DuplicateIdError, NodeNotFoundError, SchemaError, UsageError
from .resolution import display_name
from .store import DatasetStore

MODES = ("one_hop", "full_propagation")
ON_CYCLE = ("error", "iterate")
DEFAULT_TOLERANCE = 1e-9
MAX_ITERATIONS = 1000
_INF = math.inf


@dataclass(slots=True)
class Node:
    canonical_id: str
    display_name: str
    direct_emissions_kg: float = 0.0

    def __post_init__(self):
        check_amount("direct_emissions_kg", self.direct_emissions_kg)


def sequence_id(k: int) -> str:
    """The id ``add_edge`` gives the ``k``-th edge, counted from 1: ``e000001``, …."""
    return "e%06d" % k


class Edge(NamedTuple):
    """One edge of a ``SupplyGraph``: an immutable row built from the graph's columns.

    ``add_edge``, ``graph.edges[i]`` and iteration over ``graph.edges`` return
    these rows. An edge's ``edge_id`` and ``source_ref`` are fixed when it is
    added: pass them to ``add_edge`` (``_replace`` gives an edited copy of a
    row to add).
    """

    edge_id: str
    source: str
    target: str
    item: str
    mass_kg: float
    factor: EmissionFactor
    source_ref: str | None  # the ``record_id`` or ``triple_id`` the edge was built from
    edge_liability_kg: float


class EdgeView(Sequence):
    """``graph.edges``: a read-only sequence of ``Edge`` rows over the graph's columns.

    Indexing, slicing and iteration build the rows they return (a slice is a
    list of rows); the view equals another view or a list of rows of the same
    length whose rows are equal in order.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: SupplyGraph):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.targets)

    def __getitem__(self, i):
        positions = range(len(self))[i]
        if isinstance(positions, range):
            return list(map(self._graph._edge, positions))
        return self._graph._edge(positions)

    def __iter__(self):
        return map(self._graph._edge, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (EdgeView, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class SupplyGraph:
    """Nodes by canonical id, and edges held as columns.

    Node ``v`` is the ``v``-th node added (``node_ids[v]``; ``node_position``
    maps an id back). Edge ``i`` is the ``i``-th edge added, one entry in
    each column: ``sources`` and ``targets`` hold node positions
    (``array('l')``), ``masses`` and ``liabilities`` (``mass_kg *
    factor.per_kg_co2e``) are ``array('d')``, and ``items``, ``factors`` and
    ``source_refs`` are lists of references, so edges share one item string
    and one ``EmissionFactor`` each where their builder shares them. A mass
    is stored as a float. ``edge_ids`` is None while the ids are
    ``add_edge``'s sequence ``e000001``, ``e000002``, …; the first id off
    the sequence spells them all out, together with the set of ids that
    ``add_edge`` checks for repeats. An edge's id and ``source_ref`` are
    fixed when it is added, so ``edge_ids`` is not None exactly when some id
    has left the sequence. ``edges`` reads the columns as ``Edge`` rows. Add
    nodes and edges only through ``add_node`` and ``add_edge`` (or
    ``append_edge``).
    """

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.node_ids: list[str] = []
        self.node_position: dict[str, int] = {}
        self.sources = array("l")
        self.targets = array("l")
        self.masses = array("d")
        self.liabilities = array("d")
        self.items: list[str] = []
        self.factors: list[EmissionFactor] = []
        self.source_refs: list[str | None] = []
        self.edge_ids: list[str] | None = None
        self._id_set: set[str] | None = None

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def __eq__(self, other):
        if type(other) is not SupplyGraph:
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    __hash__ = None

    def __repr__(self) -> str:
        return f"SupplyGraph(nodes={self.nodes!r}, edges={self.edges!r})"

    def add_node(self, canonical_id: str, display_name: str, direct_emissions_kg: float = 0.0) -> Node:
        node = self.nodes.get(canonical_id)
        if node is None:
            node = Node(canonical_id, display_name, direct_emissions_kg)
            self.node_position[canonical_id] = len(self.node_ids)
            self.node_ids.append(canonical_id)
            self.nodes[canonical_id] = node
        return node

    def add_edge(self, source: str, target: str, item: str, mass_kg: float, factor: EmissionFactor,
                 edge_id: str | None = None, source_ref: str | None = None) -> Edge:
        s = self.node_position.get(source)
        if s is None:
            raise NodeNotFoundError(f"unknown edge source: {source}")
        t = self.node_position.get(target)
        if t is None:
            raise NodeNotFoundError(f"unknown edge target: {target}")
        self.append_edge(s, t, item, mass_kg, factor, edge_id, source_ref)
        return self._edge(len(self.targets) - 1)

    def _edge(self, i: int) -> Edge:
        """Edge ``i`` as a row of its columns."""
        ids = self.edge_ids
        return Edge(sequence_id(i + 1) if ids is None else ids[i],
                    self.node_ids[self.sources[i]], self.node_ids[self.targets[i]],
                    self.items[i], self.masses[i], self.factors[i], self.source_refs[i],
                    self.liabilities[i])

    def append_edge(self, source: int, target: int, item: str, mass_kg: float,
                    factor: EmissionFactor, edge_id: str | None = None,
                    source_ref: str | None = None) -> None:
        """``add_edge`` between the nodes at positions ``source`` and ``target``.

        Edge ids name edges in graph_json, which must read back to the same
        graph, and in GEXF, whose ids must be unique: a repeated one raises
        ``DuplicateIdError``, and so does an explicit id that an earlier
        edge got from the sequence, or that a later one would get. Mass and
        liability follow ``check_amount``; a failed add changes no column.
        """
        n = len(self.targets)
        ids, seen = self.edge_ids, self._id_set
        # sequence_id(n + 1) inlined: a reader adds every edge of a file here
        if ids is None and edge_id is not None and edge_id != "e%06d" % (n + 1):
            ids = list(map(sequence_id, range(1, n + 1)))  # the ids leave the sequence
            seen = set(ids)
        if ids is not None:
            if edge_id is None:
                edge_id = sequence_id(n + 1)
            if edge_id in seen:
                raise DuplicateIdError(f"duplicate edge_id {edge_id!r}")
        if not 0 <= mass_kg < _INF:
            check_amount("mass_kg", mass_kg)
        liability = mass_kg * factor.per_kg_co2e
        if liability == _INF:  # two checked amounts fail only by overflow
            check_amount("edge_liability_kg", liability)
        self.masses.append(mass_kg)
        self.liabilities.append(liability)
        self.sources.append(source)
        self.targets.append(target)
        self.items.append(item)
        self.factors.append(factor)
        self.source_refs.append(source_ref)
        if ids is not None:
            ids.append(edge_id)
            seen.add(edge_id)
            self.edge_ids, self._id_set = ids, seen


@dataclass
class FactorSampler:
    """Seeded Gaussian emission-factor sampler, truncated at zero.

    ``factor_for`` derives a per-item stream from (seed, item), so the
    factor assigned to an item does not depend on the order items are
    encountered in; the same seed always reproduces the same factors. A
    negative draw is redrawn; after 1000 negative draws ``ValueError``.
    """

    mean: float = 1.0
    std: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        check_amount("std", self.std)

    def factor_for(self, item: str) -> EmissionFactor:
        rng = random.Random(f"{self.seed}\x1f{item}")
        for _ in range(1000):
            value = rng.gauss(self.mean, self.std)
            if value >= 0.0:
                return EmissionFactor(per_kg_co2e=value, provenance="sampled")
        raise ValueError(f"item {item!r}: 1000 draws from mean={self.mean!r} std={self.std!r} "
                         "were all negative")


def _glob_matcher(pattern: str) -> Callable[[str], re.Match | None]:
    """``fnmatchcase`` against ``pattern`` upper-cased, for an upper-cased item.

    Compiles on every call: ``FactorTable.resolver`` compiles each rule once.
    """
    return re.compile(fnmatch.translate(pattern.upper())).match


@dataclass
class FactorTable:
    """Ordered (item_pattern, factor) rules; first matching pattern wins.

    Patterns are case-insensitive globs. Items matching no pattern fall
    back to the sampler (or constant factor) when one is configured.
    """

    rules: list[tuple[str, EmissionFactor]] = field(default_factory=list)
    fallback: FactorSampler | EmissionFactor | None = None

    def resolver(self) -> Callable[[str], EmissionFactor | None]:
        """The factor lookup over the rules as they are now.

        The item is upper-cased once and matched against each pattern's
        compiled glob. Rules added to the table afterwards are not seen by
        the returned function. Unmatched items go to the fallback's resolver.
        """
        rules = [(_glob_matcher(pattern), factor) for pattern, factor in self.rules]
        fallback = None if self.fallback is None else _factor_resolver(self.fallback)

        def factor_for(item: str) -> EmissionFactor | None:
            upper = item.upper()
            for match, factor in rules:
                if match(upper):
                    return factor
            return None if fallback is None else fallback(item)

        return factor_for


def load_factor_table(path: str, fallback: FactorSampler | EmissionFactor | None = None) -> FactorTable:
    """Read ndjson rows {"item_pattern", "per_kg_co2e", "provenance"}."""
    rules = []
    required = {"item_pattern": str, "per_kg_co2e": object}
    for lineno, row in read_ndjson(path, SchemaError, "factor row", required):
        try:
            factor = EmissionFactor(float(row["per_kg_co2e"]), row.get("provenance", "table"))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: malformed factor row: {exc}") from exc
        rules.append((row["item_pattern"], factor))
    return FactorTable(rules=rules, fallback=fallback)


FactorSource = EmissionFactor | FactorSampler | FactorTable


def _factor_resolver(factors: FactorSource):
    if isinstance(factors, EmissionFactor):
        return lambda item: factors
    if isinstance(factors, FactorTable):
        return factors.resolver()
    if isinstance(factors, FactorSampler):
        return factors.factor_for
    raise UsageError(f"unsupported factor source: {type(factors).__name__}")


@dataclass
class BuildReport:
    skipped: list[tuple[str, str]] = field(default_factory=list)
    edges_from_records: int = 0
    edges_from_triples: int = 0


def _display_name_by_id(store: DatasetStore, alias_map: Mapping[str, str]) -> dict[str, str]:
    """The display name of each canonical id over the store's referenced names."""
    counts = Counter(raw for raw in store.referenced_names() if raw in alias_map)
    raws: dict[str, list[str]] = defaultdict(list)
    for raw in counts:
        raws[alias_map[raw]].append(raw)
    return {cid: display_name(group, counts) for cid, group in raws.items()}


def build_graph(
    store: DatasetStore,
    alias_map: Mapping[str, str],
    factors: FactorSource,
) -> tuple[SupplyGraph, BuildReport]:
    """Build the multigraph from shipments and transaction triples.

    Shipments become shipper -> consignee edges weighted by shipment mass;
    fully-resolved triples become supplier -> buyer edges with zero mass
    (they carry structure, not tonnage). Records or triples whose parties
    are missing from the alias map are skipped and reported, never fatal.
    """
    resolver = _factor_resolver(factors)
    names = _display_name_by_id(store, alias_map)
    graph = SupplyGraph()
    report = BuildReport()

    def node_for(raw_name: str) -> int:
        cid = alias_map[raw_name]
        graph.add_node(cid, names.get(cid, raw_name))
        return graph.node_position[cid]

    for rec in store.records.values():
        if rec.shipper.raw_name not in alias_map:
            report.skipped.append((rec.record_id, f"unresolved shipper: {rec.shipper.raw_name}"))
            continue
        if rec.consignee.raw_name not in alias_map:
            report.skipped.append((rec.record_id, f"unresolved consignee: {rec.consignee.raw_name}"))
            continue
        factor = resolver(rec.product_desc)
        if factor is None:
            report.skipped.append((rec.record_id, f"no emission factor for: {rec.product_desc!r}"))
            continue
        source = node_for(rec.shipper.raw_name)
        target = node_for(rec.consignee.raw_name)
        try:
            graph.append_edge(source, target, rec.product_desc, rec.weight_kg, factor,
                              source_ref=rec.record_id)
        except ValueError as exc:
            raise ValueError(f"record {rec.record_id} item {rec.product_desc!r}: {exc}") from exc
        report.edges_from_records += 1

    for triple in store.triples.values():
        tid = triple.triple_id or triple.source_id
        if triple.buyer is None or triple.supplier is None:
            report.skipped.append((tid, "incomplete relation (missing buyer or supplier)"))
            continue
        if triple.buyer.placeholder or triple.supplier.placeholder:
            report.skipped.append((tid, "unresolved placeholder party"))
            continue
        if triple.supplier.raw_name not in alias_map:
            report.skipped.append((tid, f"unresolved supplier: {triple.supplier.raw_name}"))
            continue
        if triple.buyer.raw_name not in alias_map:
            report.skipped.append((tid, f"unresolved buyer: {triple.buyer.raw_name}"))
            continue
        item = triple.item or ""
        factor = resolver(item) or EmissionFactor(0.0, "manual")
        source = node_for(triple.supplier.raw_name)
        target = node_for(triple.buyer.raw_name)
        graph.append_edge(source, target, item, 0.0, factor, source_ref=triple.triple_id)
        report.edges_from_triples += 1

    return graph, report


def one_hop_inheritance(graph: SupplyGraph, node_id: str) -> float:
    """Sum of incoming edge liabilities for one node."""
    return propagate(graph, mode="one_hop").inherited(node_id)


@dataclass(slots=True)
class NodeLiability:
    direct_kg: float = 0.0
    inherited_kg: float = 0.0
    transferred_kg: float = 0.0
    retained_kg: float = 0.0

    @classmethod
    def from_dict(cls, row: dict) -> "NodeLiability":
        return cls(
            direct_kg=float(row["direct_kg"]),
            inherited_kg=float(row["inherited_kg"]),
            transferred_kg=float(row["transferred_kg"]),
            retained_kg=float(row["retained_kg"]),
        )


@dataclass
class ELiabilityReport:
    mode: str
    residual: float
    nodes: dict[str, NodeLiability]

    def retained(self, node_id: str) -> float:
        return self._row(node_id).retained_kg

    def inherited(self, node_id: str) -> float:
        return self._row(node_id).inherited_kg

    def _row(self, node_id: str) -> NodeLiability:
        if node_id not in self.nodes:
            raise NodeNotFoundError(f"node not in report: {node_id}")
        return self.nodes[node_id]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "residual": self.residual,
            "nodes": {
                nid: {
                    "direct_kg": row.direct_kg,
                    "inherited_kg": row.inherited_kg,
                    "transferred_kg": row.transferred_kg,
                    "retained_kg": row.retained_kg,
                }
                for nid, row in sorted(self.nodes.items())
            },
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``: ``json_lines`` joined."""
        return "\n".join(self.json_lines())

    def json_lines(self):
        """The lines of ``to_json()``, each node's row (six lines) as one, from templates.

        Keys are written in sorted order, ids through json's own ASCII string
        encoder and numbers as json writes them (``repr``, with ``NaN`` and
        ``Infinity`` for non-finite floats), so the bytes are the same.
        """
        yield "{"
        yield f'  "mode": {_json_str(self.mode)},'
        if not self.nodes:
            yield '  "nodes": {},'
        else:
            yield '  "nodes": {'
            last = len(self.nodes) - 1
            for k, nid in enumerate(sorted(self.nodes)):
                row = self.nodes[nid]
                yield (
                    f"    {_json_str(nid)}: {{\n"
                    f'      "direct_kg": {json_number(row.direct_kg)},\n'
                    f'      "inherited_kg": {json_number(row.inherited_kg)},\n'
                    f'      "retained_kg": {json_number(row.retained_kg)},\n'
                    f'      "transferred_kg": {json_number(row.transferred_kg)}\n'
                    f"    }}{',' if k < last else ''}"
                )
            yield "  },"
        yield f'  "residual": {json_number(self.residual)}'
        yield "}"

    @classmethod
    def from_dict(cls, d: dict) -> "ELiabilityReport":
        """The report of ``to_dict()``'s layout, its numbers read through ``float()``.

        A ``nodes`` dict whose rows are all ``NodeLiability`` already (as
        ``load_report_json`` reads them) is taken as it is.
        """
        mode, residual, nodes = d["mode"], float(d["residual"]), d["nodes"]
        if not all(type(row) is NodeLiability for row in nodes.values()):
            nodes = {nid: NodeLiability.from_dict(row) for nid, row in nodes.items()}
        return cls(mode=mode, residual=residual, nodes=nodes)


class _Groups:
    """Integers in groups, as compressed sparse rows.

    ``groups[k]`` is ``index[start[k]:start[k + 1]]``: two flat
    ``array('l')``, with no list or int object per member.
    """

    __slots__ = ("start", "index")

    def __init__(self, start: array, index: array):
        self.start, self.index = start, index

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, k: int) -> array:
        return self.index[self.start[k]:self.start[k + 1]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _adjacency(ends: array, n: int) -> _Groups:
    """The edges at each of ``n`` nodes, grouped by a counting sort.

    Group ``v`` holds, in edge order, each edge whose end in ``ends`` is
    ``v``; ``ends`` is an edge column of node positions (``targets`` for
    incoming edges, ``sources`` for outgoing ones).
    """
    start = array("l", [0]) * (n + 1)
    for v in ends:
        start[v + 1] += 1
    for v in range(n):
        start[v + 1] += start[v]
    index = array("l", [0]) * len(ends)
    fill = start[:n]
    for i, v in enumerate(ends):
        index[fill[v]] = i
        fill[v] += 1
    return _Groups(start, index)


def _components(outgoing: _Groups, head: array) -> _Groups:
    """Strongly connected components of node positions, upstream first (iterative Tarjan).

    Tarjan's algorithm closes a component only after every component it
    reaches, so the reversed emission order is a topological order of the
    condensation. An explicit stack keeps long chains and rings from
    hitting the interpreter's recursion limit.
    """
    n = len(outgoing)
    index = array("l", [-1]) * n
    low = array("l", [0]) * n
    on_stack = bytearray(n)
    stack: list[int] = []
    members, ends = array("l"), array("l", [0])  # the components as closed: downstream first
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(outgoing[root]))]
        while work:
            v, edges = work[-1]
            for i in edges:
                w = head[i]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(outgoing[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        members.append(member)
                        if member == v:
                            break
                    ends.append(len(members))
    closed = _Groups(ends, members)
    start, index = array("l", [0]), array("l")
    for k in reversed(range(len(closed))):
        index.extend(closed[k])
        start.append(len(index))
    return _Groups(start, index)


def _is_cyclic(component: array, outgoing: _Groups, head: array) -> bool:
    if len(component) > 1:
        return True
    v = component[0]
    return any(head[i] == v for i in outgoing[v])


def _cycle_in(component: array, ids: list[str], outgoing: _Groups, head: array) -> list[str]:
    """A shortest closed path (node ids) through the component's smallest node id."""
    members = set(component)
    start = min(component, key=ids.__getitem__)
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in outgoing[v]:
            w = head[i]
            if w == start:
                path = [v]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return [ids[u] for u in reversed(path)] + [ids[start]]
            if w in members and w not in parent:
                parent[w] = v
                queue.append(w)
    raise AssertionError(f"component through {ids[start]} has no cycle")


def propagate(
    graph: SupplyGraph,
    mode: str = "full_propagation",
    on_cycle: str = "error",
    tolerance: float = DEFAULT_TOLERANCE,
) -> ELiabilityReport:
    """Compute per-node direct / inherited / transferred / retained totals.

    One-hop passes nothing downstream. Full propagation condenses the graph
    into strongly connected components and visits them upstream first. A
    component that is one node without a self-loop is pooled and allocated
    once. A cyclic component (several nodes, or one with a self-loop) is
    handled by ``on_cycle``: "error" (the default) raises CycleError naming
    one closed path as soon as any cyclic component exists; "iterate"
    freezes the component's inflow from upstream and runs the fixed-point
    iteration of the pool equations over the component alone, for at most
    ``MAX_ITERATIONS`` sweeps, until its largest per-node change drops below
    ``tolerance``. A component that ends at or above ``tolerance`` raises
    CycleError (a closed cycle with no outflow never converges), so every
    returned report is converged: its residual is the largest final change
    over all cyclic components, and 0 on an acyclic graph. A node whose pool
    (direct + inherited) overflows to ``inf`` raises ``ValueError`` naming it.
    """
    if mode not in MODES:
        raise UsageError(f"unknown propagation mode: {mode!r} (expected one of {MODES})")
    if on_cycle not in ON_CYCLE:
        raise UsageError(f"on_cycle must be one of {ON_CYCLE}, got {on_cycle!r}")

    ids, head, tail = graph.node_ids, graph.targets, graph.sources
    incoming, outgoing = _adjacency(head, len(ids)), _adjacency(tail, len(ids))
    full = mode == "full_propagation"
    components = (_components(outgoing, head) if full
                  else _Groups(array("l", range(len(ids) + 1)), array("l", range(len(ids)))))
    cyclic = [full and _is_cyclic(component, outgoing, head) for component in components]
    if on_cycle == "error" and any(cyclic):
        cycle = _cycle_in(components[cyclic.index(True)], ids, outgoing, head)
        raise CycleError(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)

    nodes = list(graph.nodes.values())
    masses, liabilities = graph.masses, graph.liabilities
    out_mass = array("d", (sum(masses[i] for i in out) for out in outgoing) if full else ())
    if math.inf in out_mass:  # each share would be pool * (mass / inf) = 0.0
        node_id = ids[out_mass.index(math.inf)]
        raise ValueError(f"node {node_id!r}: outgoing mass must be finite, got inf")
    share = array("d", [0.0]) * len(head)
    rows: list[NodeLiability | None] = [None] * len(nodes)
    residual = 0.0
    for component, is_cyclic in zip(components, cyclic):
        if is_cyclic:
            change = _iterate_component(nodes, masses, liabilities, component, tail, incoming,
                                        outgoing, out_mass, share, tolerance)
            if not change < tolerance:
                raise CycleError(
                    f"propagation did not converge: residual {change:.3e} is not below "
                    f"tolerance {tolerance:.0e}",
                    cycle=_cycle_in(component, ids, outgoing, head),
                )
            residual = max(residual, change)
        # Every share into the component is final here, and so is every share out
        # of it once its pools are allocated.
        for v in component:
            direct = nodes[v].direct_emissions_kg
            inherited = sum(liabilities[i] + share[i] for i in incoming[v])
            pool = direct + inherited
            if not pool < math.inf:
                raise ValueError(f"node {ids[v]!r}: direct + inherited must be finite, "
                                 f"got {pool!r}")
            if full and not is_cyclic:
                _allocate(pool, outgoing[v], out_mass[v], masses, share)
            transferred = sum(share[i] for i in outgoing[v]) if full else 0.0
            retained = pool - transferred
            rows[v] = NodeLiability(direct, inherited, transferred, retained)
    return ELiabilityReport(mode=mode, residual=residual, nodes=dict(zip(ids, rows)))


def _allocate(pool: float, out: array, out_mass: float, masses: array, share: array) -> None:
    """Split ``pool`` over the edge positions ``out`` (total mass ``out_mass``) by mass.

    Without outgoing mass the shares stay 0.0, as every share starts.
    """
    if out_mass <= 0.0:
        return
    for i in out:
        share[i] = pool * (masses[i] / out_mass)


def _iterate_component(nodes, masses, liabilities, component, tail, incoming, outgoing, out_mass,
                       share, tolerance) -> float:
    """Jacobi iteration of the pool equations inside one cyclic component.

    Inflow from upstream components is final by now, so it is frozen into a
    per-node base together with every incoming edge liability; only the
    shares passed along inner edges are iterated. Once the largest per-node
    change drops below ``tolerance`` (or ``MAX_ITERATIONS`` is hit) the
    pools are allocated onto every outgoing edge of the component, and the
    final change is returned as the component's residual.
    """
    local = {v: k for k, v in enumerate(component)}
    base: list[float] = []
    inner: list[list[tuple[int, float]]] = []
    for v in component:
        pool = nodes[v].direct_emissions_kg
        terms = []
        for i in incoming[v]:
            source = tail[i]
            j = local.get(source)
            if j is None:
                pool += liabilities[i] + share[i]
                continue
            pool += liabilities[i]
            if out_mass[source] > 0.0:
                terms.append((j, masses[i] / out_mass[source]))
        base.append(pool)
        inner.append(terms)

    pools = [0.0] * len(component)
    residual = float("inf")
    for _ in range(MAX_ITERATIONS):
        new_pools = [b + sum(pools[j] * frac for j, frac in terms) for b, terms in zip(base, inner)]
        residual = max(abs(new - old) for new, old in zip(new_pools, pools))
        pools = new_pools
        if residual < tolerance:
            break
    for v, pool in zip(component, pools):
        _allocate(pool, outgoing[v], out_mass[v], masses, share)
    return residual


@dataclass
class QueryResult:
    headers: tuple[str, ...]
    rows: list[tuple]

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        formatted = [
            tuple(f"{v:.3f}" if isinstance(v, float) else str(v) for v in row)
            for row in self.rows
        ]
        for row in formatted:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in formatted:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def query(graph: SupplyGraph, report: ELiabilityReport | None, selector: str, *,
          by: str = "retained", k: int = 10, node: str | None = None,
          prefix: str | None = None) -> QueryResult:
    """Aggregate queries over a built graph (and, for ``top``, its report).

    Selectors: ``top`` (``k`` nodes by ``by`` = retained or inherited
    liability), ``breakdown`` (per-supplier contribution to ``node``),
    ``item-total`` (summed edge liability for an item ``prefix``),
    ``supplier-count`` (distinct direct suppliers of ``node``). A selector
    reads only its own arguments; one missing or out of range raises
    ``UsageError``, a ``node`` not in the graph ``NodeNotFoundError``.
    """
    if selector in ("breakdown", "supplier-count"):
        if node is None:
            raise UsageError(f"{selector} requires a node")
        if node not in graph.nodes:
            raise NodeNotFoundError(f"unknown node: {node}")

    if selector == "top":
        if by not in ("retained", "inherited"):
            raise UsageError(f"top supports by=retained|inherited, got {by!r}")
        if k < 1:
            raise UsageError(f"top needs k >= 1, got {k}")
        if report is None:
            raise UsageError("top requires a propagation report")
        ranked = sorted(
            report.nodes.items(), key=lambda kv: (-getattr(kv[1], f"{by}_kg"), kv[0])
        )[:k]
        rows = [
            (nid, graph.nodes[nid].display_name if nid in graph.nodes else nid,
             getattr(row, f"{by}_kg"))
            for nid, row in ranked
        ]
        return QueryResult(headers=("canonical_id", "display_name", f"{by}_kg"), rows=rows)

    if selector == "breakdown":
        v, ids = graph.node_position[node], graph.node_ids
        totals: dict[str, float] = defaultdict(float)
        for source, target, liability in zip(graph.sources, graph.targets, graph.liabilities):
            if target == v:
                totals[ids[source]] += liability
        rows = [
            (src, graph.nodes[src].display_name, total)
            for src, total in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return QueryResult(headers=("supplier_id", "display_name", "liability_kg"), rows=rows)

    if selector == "item-total":
        if prefix is None:
            raise UsageError("item-total requires a prefix")
        upper = prefix.upper()
        hit = {item: item.upper().startswith(upper) for item in set(graph.items)}
        matched = [kg for item, kg in zip(graph.items, graph.liabilities) if hit[item]]
        return QueryResult(
            headers=("item_prefix", "total_liability_kg", "edge_count"),
            rows=[(prefix, sum(matched), len(matched))],
        )

    if selector == "supplier-count":
        v = graph.node_position[node]
        suppliers = {s for s, t in zip(graph.sources, graph.targets) if t == v}
        return QueryResult(
            headers=("canonical_id", "unique_suppliers"), rows=[(node, len(suppliers))]
        )

    raise UsageError(f"unknown query selector: {selector!r}")
