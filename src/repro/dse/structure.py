"""Static structural summaries of topology design points.

The fig 5/6/7 structural figures (chips and cores per slice, per-node
link complement, layer-transition bound, bisection bandwidth) are pure
functions of the wiring — no simulation needed.  This module computes
them from any :class:`~repro.network.topology.SwallowTopology`, in any
variant; the fig567 bench reads its figures here.

Graph-derived figures (diameter, mean hop distance) come from the same
:meth:`~repro.network.topology.SwallowTopology.graph` the live fabric
is wired from, so they hold for mesh and torus as much as for the
paper's lattice; the layer-transition bound is a lattice-routing
concept and reads None for the other variants.
"""

from __future__ import annotations

import networkx as nx

from repro.analysis import vertical_bisection_bps
from repro.network.routing import Layer, layer_transitions
from repro.network.topology import SwallowTopology
from repro.sim import Simulator


def build_topology(params: dict | None = None) -> SwallowTopology:
    """A topology from sweep-style params (no cores, analysis only).

    Accepts the same keys the workloads sweep: ``slices_x``,
    ``slices_y``, ``topology``, ``link_aggregation``.
    """
    params = dict(params or {})
    return SwallowTopology(
        Simulator(),
        slices_x=int(params.get("slices_x", 1)),
        slices_y=int(params.get("slices_y", 1)),
        topology=str(params.get("topology", "lattice")),
        link_aggregation=int(params.get("link_aggregation", 1)),
    )


def structure_summary(topology: SwallowTopology) -> dict:
    """Every structural figure of one topology, as plain data."""
    graph = topology.graph()
    by_class: dict[str, int] = {}
    for _, _, data in graph.edges(data=True):
        name = data["spec"].name
        by_class[name] = by_class.get(name, 0) + 1
    package = topology.packages[(0, 0)]
    internal = graph.get_edge_data(
        package.vertical_node, package.horizontal_node
    )
    node_ids = topology.node_ids()
    vertical_nodes = sum(
        1 for n in node_ids
        if topology.coord_of(n).layer is Layer.VERTICAL
    )
    max_transitions = None
    if topology.topology_name == "lattice":
        max_transitions = max(
            layer_transitions(topology.coord_of(a), topology.coord_of(b))
            for a in node_ids for b in node_ids
        )
    simple = nx.Graph(graph)
    lengths = dict(nx.all_pairs_shortest_path_length(simple))
    distances = [
        lengths[a][b] for a in node_ids for b in node_ids if a != b
    ]
    return {
        "topology": topology.topology_name,
        "slices_x": topology.slices_x,
        "slices_y": topology.slices_y,
        "link_aggregation": topology.link_aggregation,
        "cores": topology.num_nodes,
        "packages": len(topology.packages),
        "vertical_nodes": vertical_nodes,
        "internal_links_per_package": len(internal) if internal else 0,
        "links_by_class": {name: by_class[name] for name in sorted(by_class)},
        "total_link_pairs": graph.number_of_edges(),
        "max_layer_transitions": max_transitions,
        "diameter_hops": max(distances) if distances else 0,
        "mean_hops": (
            sum(distances) / len(distances) if distances else 0.0
        ),
        "vertical_bisection_bps": vertical_bisection_bps(topology),
    }
