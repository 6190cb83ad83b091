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

Propagation works on integer positions: nodes are numbered in
``graph.nodes`` order and edges by their index in ``graph.edges``, each
node keeps the positions of its incoming and outgoing edges, each edge
the positions of its two ends, and the share of a pool passed along each
edge lives in an ``array('d')`` indexed by edge position. Every sum runs
in edge order, so the numbers do not depend on this layout.

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
import random
import re
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Mapping

from .core import EmissionFactor, check_amount, json_number, read_ndjson
from .errors import CycleError, DuplicateIdError, NodeNotFoundError, SchemaError, UsageError
from .resolution import display_name
from .store import DatasetStore

MODES = ("one_hop", "full_propagation")
ON_CYCLE = ("error", "iterate")
DEFAULT_TOLERANCE = 1e-9
MAX_ITERATIONS = 1000


@dataclass(slots=True)
class Node:
    canonical_id: str
    display_name: str
    direct_emissions_kg: float = 0.0

    def __post_init__(self):
        check_amount("direct_emissions_kg", self.direct_emissions_kg)


@dataclass(slots=True)
class Edge:
    edge_id: str
    source: str
    target: str
    item: str
    mass_kg: float
    factor: EmissionFactor
    source_ref: str | None = None  # the record_id or triple_id the edge was built from
    edge_liability_kg: float = field(init=False)

    def __post_init__(self):
        check_amount("mass_kg", self.mass_kg)
        self.edge_liability_kg = self.mass_kg * self.factor.per_kg_co2e
        if self.edge_liability_kg == math.inf:  # two checked amounts fail only by overflow
            check_amount("edge_liability_kg", self.edge_liability_kg)


@dataclass
class SupplyGraph:
    nodes: dict[str, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    _edge_ids: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._edge_ids = {edge.edge_id for edge in self.edges}

    def add_node(self, canonical_id: str, display_name: str, direct_emissions_kg: float = 0.0) -> Node:
        node = self.nodes.get(canonical_id)
        if node is None:
            node = Node(canonical_id, display_name, direct_emissions_kg)
            self.nodes[canonical_id] = node
        return node

    def add_edge(self, source: str, target: str, item: str, mass_kg: float, factor: EmissionFactor,
                 edge_id: str | None = None, source_ref: str | None = None) -> Edge:
        if source not in self.nodes:
            raise NodeNotFoundError(f"unknown edge source: {source}")
        if target not in self.nodes:
            raise NodeNotFoundError(f"unknown edge target: {target}")
        if edge_id is None:
            edge_id = f"e{len(self.edges) + 1:06d}"
        # Edge ids name edges in graph_json, which must read back to the same
        # graph, and in GEXF, whose ids must be unique.
        if edge_id in self._edge_ids:
            raise DuplicateIdError(f"duplicate edge_id {edge_id!r}")
        edge = Edge(edge_id, source, target, item, mass_kg, factor, source_ref)
        self._edge_ids.add(edge_id)
        self.edges.append(edge)
        return edge


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

    def node_for(raw_name: str) -> str:
        cid = alias_map[raw_name]
        graph.add_node(cid, names.get(cid, raw_name))
        return cid

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
            graph.add_edge(source, target, rec.product_desc, rec.weight_kg, factor,
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
        graph.add_edge(source, target, item, 0.0, factor, source_ref=triple.triple_id)
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
        return cls(
            mode=d["mode"],
            residual=float(d["residual"]),
            nodes={
                nid: NodeLiability(
                    direct_kg=float(row["direct_kg"]),
                    inherited_kg=float(row["inherited_kg"]),
                    transferred_kg=float(row["transferred_kg"]),
                    retained_kg=float(row["retained_kg"]),
                )
                for nid, row in d["nodes"].items()
            },
        )


def _positions(graph: SupplyGraph):
    """Per node position its incoming and outgoing edge positions; each edge's head and tail.

    Nodes are numbered in ``graph.nodes`` order and edges by their index in
    ``graph.edges``; each per-node list keeps edge order. ``head`` and
    ``tail`` are the positions of each edge's target and source.
    """
    pos = {nid: v for v, nid in enumerate(graph.nodes)}
    incoming: list[list[int]] = [[] for _ in pos]
    outgoing: list[list[int]] = [[] for _ in pos]
    head: list[int] = []
    tail: list[int] = []
    for i, edge in enumerate(graph.edges):
        target, source = pos[edge.target], pos[edge.source]
        head.append(target)
        tail.append(source)
        incoming[target].append(i)
        outgoing[source].append(i)
    return incoming, outgoing, head, tail


def _components(outgoing: list[list[int]], head: list[int]) -> list[list[int]]:
    """Strongly connected components of node positions, upstream first (iterative Tarjan).

    Tarjan's algorithm closes a component only after every component it
    reaches, so the reversed emission order is a topological order of the
    condensation. An explicit stack keeps long chains and rings from
    hitting the interpreter's recursion limit.
    """
    n = len(outgoing)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    components: list[list[int]] = []
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
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == v:
                            break
                    components.append(component)
    components.reverse()
    return components


def _is_cyclic(component: list[int], outgoing: list[list[int]], head: list[int]) -> bool:
    if len(component) > 1:
        return True
    v = component[0]
    return any(head[i] == v for i in outgoing[v])


def _cycle_in(component: list[int], ids: list[str], outgoing: list[list[int]],
              head: list[int]) -> list[str]:
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

    incoming, outgoing, head, tail = _positions(graph)
    ids = list(graph.nodes)
    full = mode == "full_propagation"
    components = _components(outgoing, head) if full else [[v] for v in range(len(ids))]
    cyclic = [full and _is_cyclic(component, outgoing, head) for component in components]
    if on_cycle == "error" and any(cyclic):
        cycle = _cycle_in(components[cyclic.index(True)], ids, outgoing, head)
        raise CycleError(f"graph contains a cycle: {' -> '.join(cycle)}", cycle=cycle)

    nodes = list(graph.nodes.values())
    edges = graph.edges
    out_mass = [sum(edges[i].mass_kg for i in out) for out in outgoing] if full else []
    if math.inf in out_mass:  # each share would be pool * (mass / inf) = 0.0
        node_id = ids[out_mass.index(math.inf)]
        raise ValueError(f"node {node_id!r}: outgoing mass must be finite, got inf")
    share = array("d", bytes(8 * len(edges)))
    rows: list[NodeLiability | None] = [None] * len(nodes)
    residual = 0.0
    for component, is_cyclic in zip(components, cyclic):
        if is_cyclic:
            change = _iterate_component(nodes, edges, component, tail, incoming, outgoing,
                                        out_mass, share, tolerance)
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
            inherited = sum(edges[i].edge_liability_kg + share[i] for i in incoming[v])
            pool = direct + inherited
            if not pool < math.inf:
                raise ValueError(f"node {ids[v]!r}: direct + inherited must be finite, "
                                 f"got {pool!r}")
            if full and not is_cyclic:
                _allocate(pool, outgoing[v], out_mass[v], edges, share)
            transferred = sum(share[i] for i in outgoing[v]) if full else 0.0
            retained = pool - transferred
            rows[v] = NodeLiability(direct, inherited, transferred, retained)
    return ELiabilityReport(mode=mode, residual=residual, nodes=dict(zip(ids, rows)))


def _allocate(pool: float, out: list[int], out_mass: float, edges: list[Edge],
              share: array) -> None:
    """Split ``pool`` over the edge positions ``out`` (total mass ``out_mass``) by mass.

    Without outgoing mass the shares stay 0.0, as every share starts.
    """
    if out_mass <= 0.0:
        return
    for i in out:
        share[i] = pool * (edges[i].mass_kg / out_mass)


def _iterate_component(nodes, edges, component, tail, incoming, outgoing, out_mass, share,
                       tolerance) -> float:
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
            e = edges[i]
            source = tail[i]
            j = local.get(source)
            if j is None:
                pool += e.edge_liability_kg + share[i]
                continue
            pool += e.edge_liability_kg
            if out_mass[source] > 0.0:
                terms.append((j, e.mass_kg / out_mass[source]))
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
        _allocate(pool, outgoing[v], out_mass[v], edges, share)
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
        totals: dict[str, float] = defaultdict(float)
        for edge in graph.edges:
            if edge.target == node:
                totals[edge.source] += edge.edge_liability_kg
        rows = [
            (src, graph.nodes[src].display_name, total)
            for src, total in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return QueryResult(headers=("supplier_id", "display_name", "liability_kg"), rows=rows)

    if selector == "item-total":
        if prefix is None:
            raise UsageError("item-total requires a prefix")
        upper = prefix.upper()
        matched = [e for e in graph.edges if e.item.upper().startswith(upper)]
        total = sum(e.edge_liability_kg for e in matched)
        return QueryResult(
            headers=("item_prefix", "total_liability_kg", "edge_count"),
            rows=[(prefix, total, len(matched))],
        )

    if selector == "supplier-count":
        suppliers = {e.source for e in graph.edges if e.target == node}
        return QueryResult(
            headers=("canonical_id", "unique_suppliers"), rows=[(node, len(suppliers))]
        )

    raise UsageError(f"unknown query selector: {selector!r}")
