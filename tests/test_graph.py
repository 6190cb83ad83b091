from __future__ import annotations

import fnmatch
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import oracle_propagate, oracle_retained, random_dag, random_multigraph

from elia.core import CompanyRef, EmissionFactor, Sentence, TransactionTriple
from elia.errors import CycleError, DuplicateIdError, NodeNotFoundError, UsageError
from elia.graph import (
    FactorSampler,
    MODES,
    ELiabilityReport,
    FactorTable,
    NodeLiability,
    SupplyGraph,
    build_graph,
    load_factor_table,
    one_hop_inheritance,
    propagate,
    query,
    sequence_id,
)
from elia.resolution import resolve
from elia.store import new_store

UNIT = EmissionFactor(1.0, "manual")


def chain_graph() -> SupplyGraph:
    g = SupplyGraph()
    g.add_node("a", "A")
    g.add_node("b", "B")
    g.add_node("c", "C")
    g.add_edge("a", "b", "steel", 100.0, EmissionFactor(2.0, "manual"))
    g.add_edge("b", "c", "doors", 50.0, EmissionFactor(1.0, "manual"))
    return g


def store_from_sample(sample_records):
    store = new_store()
    for rec in sample_records:
        store.add_record(rec)
    return store


def test_build_graph_from_sample_rows(sample_records):
    store = store_from_sample(sample_records)
    result = resolve(store.referenced_names(), threshold=0.8)
    graph, report = build_graph(store, result.alias_map, UNIT)
    assert len(graph.edges) == 3
    assert [e.edge_liability_kg for e in graph.edges] == [990.0, 2767.0, 714.0]
    assert report.skipped == []
    assert len(graph.nodes) == 6


def test_build_graph_empty_store():
    graph, report = build_graph(new_store(), {}, UNIT)
    assert graph.nodes == {} and graph.edges == []
    assert report.skipped == []


def test_build_graph_skips_unresolved_parties(sample_records):
    store = store_from_sample(sample_records)
    alias_map = {"PELTER WINERY LTD": "c1", "ISRAELI WINE DIRECT LLC": "c2"}
    graph, report = build_graph(store, alias_map, UNIT)
    assert len(graph.edges) == 1
    assert len(report.skipped) == 2
    assert all("unresolved" in reason for _, reason in report.skipped)


def test_build_graph_triple_edges_carry_structure_without_mass():
    store = new_store()
    sentence = Sentence(transcript_id="t", index=0, text="Apple buys sensors from Sony.")
    store.add_sentence(sentence)
    store.add_triple(
        TransactionTriple(
            buyer=CompanyRef("Apple", role_hint="buyer"),
            supplier=CompanyRef("Sony", role_hint="supplier"),
            item="sensors",
            source_id=sentence.id,
        )
    )
    result = resolve(store.referenced_names(), threshold=0.8)
    graph, report = build_graph(store, result.alias_map, UNIT)
    assert report.edges_from_triples == 1
    (edge,) = graph.edges
    assert edge.mass_kg == 0.0 and edge.edge_liability_kg == 0.0
    assert graph.nodes[edge.source].display_name == "Sony"
    assert graph.nodes[edge.target].display_name == "Apple"


def test_build_graph_skips_placeholder_and_incomplete_triples():
    store = new_store()
    store.add_triple(
        TransactionTriple(
            buyer=CompanyRef("<Your company>", role_hint="buyer"),
            supplier=CompanyRef("Sony", role_hint="supplier"),
            item="sensors",
            source_id="s1",
        )
    )
    store.add_triple(
        TransactionTriple(buyer=None, supplier=CompanyRef("Sony", role_hint="supplier"),
                          item="sensors", source_id="s2")
    )
    graph, report = build_graph(store, {"Sony": "c1"}, UNIT)
    assert graph.edges == []
    assert len(report.skipped) == 2


def test_parallel_edges_preserved(sample_records):
    store = store_from_sample(sample_records)
    # same shipment content twice is deduped by the store, so craft two
    # distinct records between the same parties
    from elia.core import ShipmentRecord

    store.add_record(
        ShipmentRecord(
            shipper=CompanyRef("PELTER WINERY LTD", role_hint="shipper"),
            consignee=CompanyRef("ISRAELI WINE DIRECT LLC", role_hint="consignee"),
            product_desc="MORE WINE",
            quantity=10,
            weight_kg=100.0,
        )
    )
    result = resolve(store.referenced_names(), threshold=0.8)
    graph, _ = build_graph(store, result.alias_map, UNIT)
    pairs = [(e.source, e.target) for e in graph.edges]
    assert len(pairs) == 4
    assert len(set(pairs)) == 3  # one parallel pair


def test_add_edge_rejects_a_repeated_edge_id():
    g = SupplyGraph()
    for nid in "abc":
        g.add_node(nid, nid.upper())
    g.nodes["a"].direct_emissions_kg = 10.0
    g.add_edge("a", "b", "x", 1.0, UNIT, edge_id="e2")
    with pytest.raises(DuplicateIdError, match="duplicate edge_id 'e2'"):
        g.add_edge("a", "c", "x", 3.0, UNIT, edge_id="e2")
    # a generated id that an explicit one already took is refused too
    g.add_edge("a", "c", "x", 3.0, UNIT, edge_id="e000003")
    with pytest.raises(DuplicateIdError, match="duplicate edge_id 'e000003'"):
        g.add_edge("a", "c", "x", 3.0, UNIT)
    assert [e.edge_id for e in g.edges] == ["e2", "e000003"]
    assert propagate(g).retained("a") == 0.0


@pytest.mark.parametrize("first, second", [
    pytest.param("e000002", None, id="explicit-then-implicit"),
    pytest.param(None, "e000002", id="implicit-then-explicit"),
])
def test_explicit_id_colliding_with_the_sequence_raises_in_either_order(first, second):
    g = SupplyGraph()
    g.add_node("a", "A")
    if first is None:
        g.add_edge("a", "a", "x", 1.0, UNIT)  # e000001
    g.add_edge("a", "a", "x", 1.0, UNIT, edge_id=first)  # e000002, given or generated
    before = list(g.edges)
    with pytest.raises(DuplicateIdError, match="^duplicate edge_id 'e000002'$"):
        g.add_edge("a", "a", "x", 1.0, UNIT, edge_id=second)
    assert list(g.edges) == before  # a failed add changes no column


def test_edge_ids_are_spelled_out_only_once_they_leave_the_sequence():
    g = chain_graph()
    g.add_edge("a", "c", "x", 1.0, UNIT, edge_id="e000003")  # the sequence's own next id
    assert g.edge_ids is None and g._id_set is None
    g.add_edge("a", "c", "x", 1.0, UNIT, edge_id="other")
    assert g.edge_ids == ["e000001", "e000002", "e000003", "other"]
    g.add_edge("a", "c", "x", 1.0, UNIT)
    assert [e.edge_id for e in g.edges][-1] == "e000005"


def _rows(graph) -> list[tuple]:
    return [(e.edge_id, e.source, e.target, e.item, e.mass_kg, e.factor, e.source_ref,
             e.edge_liability_kg) for e in graph.edges]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_edge_view_reads_the_rows_add_edge_returned(rng, data):
    graph = SupplyGraph()
    for nid in ("a", "b", "c"):
        graph.add_node(nid, nid.upper())
    returned = []
    for _ in range(rng.randint(0, 12)):
        edge_id = data.draw(st.none() | st.sampled_from(["e000001", "e000003", "x", "y"]))
        try:
            returned.append(graph.add_edge(rng.choice("abc"), rng.choice("abc"), rng.choice("pq"),
                                           rng.uniform(0, 10), UNIT, edge_id=edge_id,
                                           source_ref=data.draw(st.none() | st.text(max_size=2))))
        except DuplicateIdError:
            pass
    rows = list(graph.edges)
    assert rows == returned and graph.edges == returned and returned == graph.edges
    assert len(graph.edges) == len(returned)
    n = len(rows)
    for i in range(-n, n):
        assert graph.edges[i] == rows[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            graph.edges[i]
    window = data.draw(st.slices(n + 2))
    assert graph.edges[window] == rows[window]
    assert list(reversed(graph.edges)) == rows[::-1]
    assert len({e.edge_id for e in graph.edges}) == n  # ids stay distinct
    assert (graph.edge_ids is None) == all(e.edge_id == sequence_id(k + 1)
                                           for k, e in enumerate(rows))


def test_edge_rows_cannot_be_changed():
    graph, unchanged = chain_graph(), chain_graph()
    returned = graph.add_edge("a", "c", "x", 1.0, UNIT, source_ref="r1")
    unchanged.add_edge("a", "c", "x", 1.0, UNIT, source_ref="r1")
    with pytest.raises(AttributeError):
        graph.edges[0].item = "changed"
    with pytest.raises(AttributeError):
        returned.source_ref = "changed"
    assert graph == unchanged and returned.source_ref == "r1"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(
    ["none", "item", "source_ref", "edge_id", "node", "extra-edge", "node-order"]))
def test_graphs_are_equal_exactly_when_their_nodes_and_edge_rows_are(rng, change):
    graph = random_multigraph(rng)
    other = SupplyGraph()
    nodes = list(graph.nodes.values())
    for node in nodes[::-1] if change == "node-order" else nodes:
        other.add_node(node.canonical_id, node.display_name, node.direct_emissions_kg)
    edges, changed = list(graph.edges), True
    if change in ("item", "source_ref", "edge_id") and edges:
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(**{change: "changed"})  # before the edge is added
    for e in edges:
        other.add_edge(e.source, e.target, e.item, e.mass_kg, e.factor, e.edge_id, e.source_ref)
    if change == "node" and nodes:
        other.nodes[nodes[0].canonical_id].direct_emissions_kg += 1.0
    elif change == "extra-edge" and nodes:
        other.add_edge(nodes[0].canonical_id, nodes[0].canonical_id, "x", 1.0, UNIT)
    elif change in ("item", "source_ref", "edge_id") and edges:
        pass  # one row was changed above
    else:
        changed = False  # node order alone does not make graphs differ
    assert (graph == other) == (graph.nodes == other.nodes and _rows(graph) == _rows(other))
    assert (graph == other) != changed


def test_one_hop_empty_sum():
    g = chain_graph()
    assert one_hop_inheritance(g, "a") == 0.0


def test_one_hop_addition():
    g = SupplyGraph()
    g.add_node("s1", "S1")
    g.add_node("s2", "S2")
    g.add_node("hub", "HUB")
    g.add_edge("s1", "hub", "x", 100.0, EmissionFactor(2.0, "manual"))
    g.add_edge("s2", "hub", "y", 50.0, EmissionFactor(1.0, "manual"))
    assert one_hop_inheritance(g, "hub") == 250.0


def test_one_hop_unknown_node():
    with pytest.raises(NodeNotFoundError):
        one_hop_inheritance(chain_graph(), "zzz")


def test_one_hop_matches_external_recomputation_with_seeded_sampler():
    store = new_store()
    rng = random.Random(7)
    from elia.core import ShipmentRecord

    for i in range(40):
        store.add_record(
            ShipmentRecord(
                shipper=CompanyRef(f"SUPPLIER {i:02d} LTD", role_hint="shipper"),
                consignee=CompanyRef("HUB BUYER CORP", role_hint="consignee"),
                product_desc=f"PART {i % 7}",
                quantity=1 + i,
                weight_kg=round(rng.uniform(1, 500), 3),
            )
        )
    result = resolve(store.referenced_names(), threshold=0.8)
    sampler = FactorSampler(seed=42)
    graph, _ = build_graph(store, result.alias_map, sampler)
    hub = result.alias_map["HUB BUYER CORP"]

    # recompute outside graph code, in record order
    expected = sum(
        rec.weight_kg * FactorSampler(seed=42).factor_for(rec.product_desc).per_kg_co2e
        for rec in store.records.values()
    )
    assert one_hop_inheritance(graph, hub) == expected


def test_factor_sampler_deterministic_and_non_negative():
    a = FactorSampler(seed=11)
    b = FactorSampler(seed=11)
    items = [f"item {i}" for i in range(200)]
    va = [a.factor_for(i).per_kg_co2e for i in items]
    vb = [b.factor_for(i).per_kg_co2e for i in items]
    assert va == vb
    assert all(v >= 0 for v in va)
    assert FactorSampler(seed=12).factor_for("item 0") != a.factor_for("item 0")
    assert a.factor_for("item 3").provenance == "sampled"


def test_factor_sampler_raises_when_every_draw_is_negative():
    with pytest.raises(ValueError, match=r"item 'X': 1000 draws from mean=-100 std=0.25"):
        FactorSampler(mean=-100).factor_for("X")


def test_factor_sampler_order_independent():
    s = FactorSampler(seed=5)
    first = s.factor_for("alpha")
    s.factor_for("beta")
    assert s.factor_for("alpha") == first


def test_factor_table_first_match_wins_and_fallback(tmp_path):
    table = FactorTable(
        rules=[("WINE*", EmissionFactor(1.4, "table")), ("*", EmissionFactor(0.5, "table"))],
        fallback=FactorSampler(seed=1),
    )
    assert table.resolver()("WINE CASES").per_kg_co2e == 1.4
    assert table.resolver()("HANDBAG").per_kg_co2e == 0.5
    narrowed = FactorTable(rules=[("WINE*", EmissionFactor(1.4, "table"))], fallback=FactorSampler(seed=1))
    sampled = narrowed.resolver()("HANDBAG")
    assert sampled.provenance == "sampled"
    assert narrowed.resolver()("HANDBAG") == sampled

    path = tmp_path / "factors.ndjson"
    path.write_text(
        '{"item_pattern": "WINE*", "per_kg_co2e": 1.4, "provenance": "table"}\n'
        '{"item_pattern": "*", "per_kg_co2e": 0.5}\n'
    )
    loaded = load_factor_table(str(path))
    assert loaded.resolver()("WINE ON PALLETS").per_kg_co2e == 1.4


def _fnmatch_factor_for(table: FactorTable, item: str):
    """The original lookup: fnmatchcase on upper-cased item and pattern, per rule."""
    for pattern, factor in table.rules:
        if fnmatch.fnmatchcase(item.upper(), pattern.upper()):
            return factor
    if isinstance(table.fallback, FactorSampler):
        return table.fallback.factor_for(item)
    return table.fallback


# Glob metacharacters, bracket ranges and negations, regex metacharacters
# that must stay literal, and letters whose case mapping is not one to one.
_GLOB = st.text(st.sampled_from(list("*?[]!-^\\.+()|$ aAbZ9éßİ")), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_GLOB, max_size=5), st.lists(_GLOB, max_size=8),
       st.sampled_from([None, FactorSampler(seed=3), EmissionFactor(0.25, "manual")]))
@example(["WINE*", "*"], ["wine cases", "handbag"], None)
@example(["[a-]", "[!b]*"], ["-", "b", "bx", ""], None)
def test_factor_table_resolver_matches_fnmatch_loop(patterns, items, fallback):
    table = FactorTable(rules=[(p, EmissionFactor(float(i), "table")) for i, p in enumerate(patterns)],
                        fallback=fallback)
    resolver = table.resolver()
    for item in items:
        expected = _fnmatch_factor_for(table, item)
        assert resolver(item) == expected


def test_propagate_chain_hand_computed():
    report = propagate(chain_graph(), mode="full_propagation")
    assert report.residual == 0.0
    assert report.retained("c") == pytest.approx(250.0, abs=1e-12)
    assert report.retained("a") == pytest.approx(0.0, abs=1e-12)
    assert report.retained("b") == pytest.approx(0.0, abs=1e-12)
    assert report.nodes["b"].inherited_kg == pytest.approx(200.0)
    assert report.nodes["b"].transferred_kg == pytest.approx(200.0)


def test_propagate_isolated_node_keeps_direct():
    g = SupplyGraph()
    g.add_node("solo", "SOLO", direct_emissions_kg=10.0)
    report = propagate(g, mode="full_propagation")
    assert report.retained("solo") == 10.0
    assert propagate(g, mode="one_hop").retained("solo") == 10.0


def test_one_hop_report_semantics():
    report = propagate(chain_graph(), mode="one_hop")
    assert report.nodes["b"].inherited_kg == 200.0
    assert report.nodes["b"].transferred_kg == 0.0
    assert report.retained("b") == 200.0
    assert report.retained("c") == 50.0


def test_one_hop_inheritance_equals_one_hop_report():
    rng = random.Random(123)
    for _ in range(20):
        g = random_dag(rng)
        report = propagate(g, mode="one_hop")
        for nid in g.nodes:
            assert one_hop_inheritance(g, nid) == pytest.approx(report.inherited(nid), abs=1e-12)


def test_propagation_matches_path_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_dag(rng)
        report = propagate(g, mode="full_propagation")
        expected = oracle_retained(g)
        for nid in g.nodes:
            assert math.isclose(
                report.retained(nid), expected[nid], rel_tol=1e-9, abs_tol=1e-9
            ), (nid, report.retained(nid), expected[nid])


def test_conservation_on_random_dags():
    rng = random.Random(99)
    for _ in range(50):
        g = random_dag(rng)
        report = propagate(g, mode="full_propagation")
        total_retained = sum(row.retained_kg for row in report.nodes.values())
        total_injected = sum(n.direct_emissions_kg for n in g.nodes.values()) + sum(
            e.edge_liability_kg for e in g.edges
        )
        assert math.isclose(total_retained, total_injected, rel_tol=1e-9, abs_tol=1e-9)


def test_scaling_property():
    g = chain_graph()
    report = propagate(g)
    scaled = SupplyGraph()
    for nid, node in g.nodes.items():
        scaled.add_node(nid, node.display_name, node.direct_emissions_kg)
    for e in g.edges:
        scaled.add_edge(
            e.source, e.target, e.item, e.mass_kg,
            EmissionFactor(e.factor.per_kg_co2e * 3.0, e.factor.provenance),
        )
    scaled_report = propagate(scaled)
    for nid in g.nodes:
        assert scaled_report.retained(nid) == pytest.approx(3.0 * report.retained(nid))


def test_report_bytes_deterministic():
    g = chain_graph()
    assert propagate(g).to_json() == propagate(g).to_json()


# Ids with characters json escapes (quote, backslash, control characters),
# non-ASCII text, an astral character and a lone surrogate.
_REPORT_IDS = st.text(st.sampled_from(list('"\\/\x00\x1f\x7f\n\t aZ0é中\U0001d11e') + ["\ud800"]),
                      max_size=5)
# Values json spells in every way it has: negative zero, a subnormal, an
# exponent either side of repr's fixed-point range, the non-finite floats,
# and the integer 0 that sum() gives over no edges.
_REPORT_VALUES = (
    st.sampled_from([0, -0.0, 5e-324, 1e16, 1e-7, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True)
)
_REPORT_ROWS = st.builds(NodeLiability, _REPORT_VALUES, _REPORT_VALUES, _REPORT_VALUES,
                         _REPORT_VALUES)


@settings(max_examples=300, deadline=None)
@given(st.builds(ELiabilityReport, st.sampled_from(MODES), _REPORT_VALUES,
                 st.dictionaries(_REPORT_IDS, _REPORT_ROWS, max_size=6)))
@example(ELiabilityReport("one_hop", 0.0, {}))
@example(ELiabilityReport("full_propagation", 0, {"a": NodeLiability(1.0, 0, 0, 1.0)}))
def test_report_json_matches_json_dumps(report):
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2)


def test_retained_never_meaningfully_negative():
    rng = random.Random(5150)
    for _ in range(30):
        g = random_dag(rng)
        report = propagate(g, mode="full_propagation")
        for row in report.nodes.values():
            assert row.retained_kg >= -1e-9


def test_cycle_strict_mode_errors_with_cycle():
    g = SupplyGraph()
    for nid in ("a", "b"):
        g.add_node(nid, nid.upper())
    g.add_edge("a", "b", "x", 10.0, UNIT)
    g.add_edge("b", "a", "y", 10.0, UNIT)
    with pytest.raises(CycleError) as err:
        propagate(g, mode="full_propagation")
    assert len(err.value.cycle) >= 2


def test_cycle_iterate_mode_converges():
    g = SupplyGraph()
    for nid in ("a", "b", "c"):
        g.add_node(nid, nid.upper())
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(1.0, "manual"))  # liability 10
    g.add_edge("b", "a", "y", 5.0, EmissionFactor(0.0, "manual"))
    g.add_edge("b", "c", "z", 5.0, EmissionFactor(0.0, "manual"))
    report = propagate(g, mode="full_propagation", on_cycle="iterate")
    # pools solve T_b = 10 + T_a, T_a = T_b / 2  =>  T_b = 20, T_a = 10
    assert report.retained("c") == pytest.approx(10.0, abs=1e-6)
    assert report.residual < 1e-9


def test_cycle_without_sink_reports_nonconvergence():
    g = SupplyGraph()
    g.add_node("a", "A")
    g.add_node("b", "B")
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(1.0, "manual"))
    g.add_edge("b", "a", "y", 10.0, EmissionFactor(0.0, "manual"))
    # liability keeps circulating: no fixed point exists, and propagation
    # must say so instead of returning an unconverged report
    with pytest.raises(CycleError, match="did not converge") as err:
        propagate(g, on_cycle="iterate")
    assert err.value.cycle == ["a", "b", "a"]


def parallel_zero_mass_dag() -> SupplyGraph:
    # parallel a -> b edges split a's pool (a -> d carries no mass); b's two
    # parallel edges to c carry none either, so b retains all it inherits
    g = SupplyGraph()
    for nid, direct in (("a", 5.0), ("b", 0.0), ("c", 1.5), ("d", 0.0)):
        g.add_node(nid, nid.upper(), direct)
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(2.0, "manual"))
    g.add_edge("a", "b", "x", 30.0, EmissionFactor(0.5, "table"))
    g.add_edge("b", "c", "y", 0.0, EmissionFactor(3.0, "manual"))
    g.add_edge("b", "c", "y", 0.0, EmissionFactor(3.0, "manual"))
    g.add_edge("a", "d", "z", 0.0, EmissionFactor(1.0, "manual"))
    return g


def test_full_propagation_matches_whole_graph_oracle_on_dags():
    g = parallel_zero_mass_dag()
    expected = oracle_propagate(g).to_json()
    assert propagate(g).to_json() == expected
    assert propagate(g, on_cycle="iterate").to_json() == expected
    rng = random.Random(1972)
    for _ in range(150):
        g = random_dag(rng)
        expected = oracle_propagate(g).to_json()
        assert propagate(g).to_json() == expected
        assert propagate(g, on_cycle="iterate").to_json() == expected


def test_iterate_matches_whole_graph_oracle_on_multigraphs():
    rng = random.Random(1973)
    cyclic_converged = 0
    for _ in range(300):
        g = random_multigraph(rng)
        expected = oracle_propagate(g)
        if not expected.residual < 1e-9:
            continue  # a closed component: neither side has a fixed point
        report = propagate(g, on_cycle="iterate")
        assert report.residual < 1e-9
        for nid in g.nodes:
            assert math.isclose(
                report.retained(nid), expected.retained(nid), rel_tol=1e-9, abs_tol=1e-9
            )
        try:
            propagate(g)
        except CycleError:
            cyclic_converged += 1
    assert cyclic_converged >= 30


def self_loop_graph() -> SupplyGraph:
    # T_a = 10 + T_a / 2  =>  T_a = 20, half of it reaches t
    g = SupplyGraph()
    for nid in ("s", "a", "t"):
        g.add_node(nid, nid.upper())
    g.add_edge("s", "a", "x", 10.0, EmissionFactor(1.0, "manual"))
    g.add_edge("a", "a", "loop", 5.0, EmissionFactor(0.0, "manual"))
    g.add_edge("a", "t", "y", 5.0, EmissionFactor(0.0, "manual"))
    return g


def cycles_in_series_graph() -> SupplyGraph:
    # {a, b}: T_b = 10 + T_a, T_a = T_b / 2  =>  T_b = 20, 10 leaves to c
    # {c, d}: T_c = 10 + T_d / 4, T_d = 2 + T_c  =>  T_c = 14, T_d = 16
    g = SupplyGraph()
    for nid in ("a", "b", "c", "d", "e"):
        g.add_node(nid, nid.upper())
    g.add_edge("a", "b", "x", 10.0, EmissionFactor(1.0, "manual"))
    g.add_edge("b", "a", "y", 5.0, EmissionFactor(0.0, "manual"))
    g.add_edge("b", "c", "z", 5.0, EmissionFactor(0.0, "manual"))
    g.add_edge("c", "d", "w", 4.0, EmissionFactor(0.5, "manual"))
    g.add_edge("d", "c", "v", 1.0, EmissionFactor(0.0, "manual"))
    g.add_edge("d", "e", "u", 3.0, EmissionFactor(0.0, "manual"))
    return g


@pytest.mark.parametrize("make, sink, retained, cycle", [
    (self_loop_graph, "t", 10.0, ["a", "a"]),
    (cycles_in_series_graph, "e", 12.0, ["a", "b", "a"]),
])
def test_cyclic_components_match_oracle(make, sink, retained, cycle):
    g = make()
    report = propagate(g, on_cycle="iterate", tolerance=1e-12)
    expected = oracle_propagate(g, tolerance=1e-12)
    assert report.residual < 1e-12
    assert report.retained(sink) == pytest.approx(retained, abs=1e-9)
    for nid in g.nodes:
        assert math.isclose(report.retained(nid), expected.retained(nid), rel_tol=1e-9, abs_tol=1e-9)
    with pytest.raises(CycleError) as err:
        propagate(g)
    assert err.value.cycle == cycle


def test_strict_mode_names_a_closed_path_on_a_long_ring():
    g = SupplyGraph()
    ids = [f"r{i:04d}" for i in range(5000)]
    for nid in ids:
        g.add_node(nid, nid)
    for source, target in zip(ids, ids[1:] + ids[:1]):
        g.add_edge(source, target, "x", 1.0, UNIT)
    with pytest.raises(CycleError) as err:
        propagate(g)
    assert err.value.cycle == ids + ids[:1]


def test_propagate_rejects_unknown_mode():
    with pytest.raises(UsageError):
        propagate(chain_graph(), mode="sideways")


def test_query_top_by_retained():
    g = chain_graph()
    report = propagate(g)
    result = query(g, report, "top", by="retained", k=1)
    assert result.rows == [("c", "C", pytest.approx(250.0))]


def test_query_top_by_inherited_and_bad_by():
    g = chain_graph()
    report = propagate(g)
    rows = query(g, report, "top", by="inherited", k=2).rows
    assert rows[0][0] == "c"
    with pytest.raises(UsageError):
        query(g, report, "top", by="vibes")


@pytest.mark.parametrize("k", [0, -1])
def test_query_top_rejects_k_below_one(k):
    g = chain_graph()
    with pytest.raises(UsageError, match="k >= 1"):
        query(g, propagate(g), "top", k=k)


def test_query_breakdown_single_supplier_equals_inherited():
    g = chain_graph()
    report = propagate(g, mode="one_hop")
    result = query(g, report, "breakdown", node="b")
    assert len(result.rows) == 1
    assert result.rows[0][2] == pytest.approx(report.inherited("b"))


def test_query_supplier_count_and_item_total():
    g = chain_graph()
    assert query(g, None, "supplier-count", node="c").rows == [("c", 1)]
    result = query(g, None, "item-total", prefix="ste")
    assert result.rows[0][1] == pytest.approx(200.0)
    assert result.rows[0][2] == 1


def test_query_unknown_selector():
    with pytest.raises(UsageError):
        query(chain_graph(), None, "median")


@pytest.mark.parametrize("selector", ["breakdown", "supplier-count", "item-total"])
def test_query_without_its_node_or_prefix(selector):
    with pytest.raises(UsageError, match=f"^{selector} requires a "):
        query(chain_graph(), None, selector)


def test_query_breakdown_unknown_node():
    with pytest.raises(NodeNotFoundError):
        query(chain_graph(), None, "breakdown", node="nope")
