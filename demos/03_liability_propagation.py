"""
Multi-hop liability propagation
================================

A three-tier chain: a mine ships ore to a steel mill, which ships steel to
a manufacturer. Each company accumulates a liability pool (its own process
emissions plus everything arriving on incoming edges) and passes the pool
downstream in proportion to shipped mass. Companies with no outgoing
shipments keep what arrives, so the grand total is conserved.
"""

from elia import EmissionFactor, SupplyGraph, propagate

graph = SupplyGraph()
graph.add_node("mine", "IRONPEAK MINING", direct_emissions_kg=40.0)
graph.add_node("mill", "APEX STEELWORKS", direct_emissions_kg=25.0)
graph.add_node("plant", "VANGUARD MOTORS", direct_emissions_kg=5.0)

graph.add_edge("mine", "mill", "iron ore", 100.0, EmissionFactor(2.0, "table"))   # 200 kg CO2e
graph.add_edge("mill", "plant", "steel coil", 50.0, EmissionFactor(1.0, "table"))  # 50 kg CO2e

one_hop = propagate(graph, mode="one_hop")
print("one-hop inheritance (incoming edges only):")
for node_id, node in graph.nodes.items():
    print(f"  {node.display_name}: {one_hop.inherited(node_id):.1f} kg CO2e")

report = propagate(graph, mode="full_propagation")
print("\nfull propagation:")
print(f"{'company':20s} {'direct':>8s} {'inherited':>10s} {'transferred':>12s} {'retained':>9s}")
for node_id, row in report.nodes.items():
    name = graph.nodes[node_id].display_name
    print(f"{name:20s} {row.direct_kg:8.1f} {row.inherited_kg:10.1f} "
          f"{row.transferred_kg:12.1f} {row.retained_kg:9.1f}")

total_retained = sum(r.retained_kg for r in report.nodes.values())
total_injected = sum(n.direct_emissions_kg for n in graph.nodes.values()) + sum(
    e.edge_liability_kg for e in graph.edges
)
print(f"\nconservation: retained {total_retained:.1f} == "
      f"direct + edge liabilities {total_injected:.1f}")
