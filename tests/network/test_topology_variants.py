"""Topology variants: mesh, torus, link aggregation (the DSE axes)."""

import pytest

from repro.network.params import LINK_OFFBOARD_FFC
from repro.network.routing import Direction, Layer
from repro.network.topology import TOPOLOGIES, SwallowTopology
from repro.sim import Simulator


def build(topology="lattice", slices_x=1, slices_y=1, agg=1):
    return SwallowTopology(
        Simulator(), slices_x, slices_y,
        topology=topology, link_aggregation=agg,
    )


class TestVariantWiring:
    def test_known_variants(self):
        assert TOPOLOGIES == ("lattice", "mesh", "torus")
        with pytest.raises(ValueError, match="unknown topology"):
            build("hypercube")
        with pytest.raises(ValueError, match="link_aggregation"):
            build(agg=0)

    def test_same_nodes_every_variant(self):
        """Only the wiring differs: node ids and coords are invariant."""
        reference = build("lattice")
        for name in ("mesh", "torus"):
            variant = build(name)
            assert variant.node_ids() == reference.node_ids()
            assert all(
                variant.coord_of(n) == reference.coord_of(n)
                for n in reference.node_ids()
            )

    def test_mesh_adds_cross_layer_links(self):
        lattice, mesh = build("lattice"), build("mesh")
        assert len(mesh.fabric.links) > len(lattice.fabric.links)
        # Every horizontal-layer node now has vertical neighbours too.
        package = mesh.packages[(0, 0)]
        south = mesh.packages[(0, 1)]
        graph = mesh.graph()
        assert graph.has_edge(package.horizontal_node, south.horizontal_node)
        assert not lattice.graph().has_edge(
            package.horizontal_node, south.horizontal_node
        )

    def test_torus_wraps_rows_and_columns(self):
        torus = build("torus")
        graph = torus.graph()
        west = torus.packages[(0, 0)]
        east = torus.packages[(torus.packages_x - 1, 0)]
        top = torus.packages[(0, 0)]
        bottom = torus.packages[(0, torus.packages_y - 1)]
        assert graph.has_edge(east.horizontal_node, west.horizontal_node)
        assert graph.has_edge(bottom.vertical_node, top.vertical_node)
        # Wraps are costed as the off-board ribbon-cable class.
        wrap = next(
            data for _, _, data in graph.edges(
                east.horizontal_node, data=True
            )
            if data["spec"] is LINK_OFFBOARD_FFC
        )
        assert wrap["spec"].name == "off-board-ffc"

    def test_link_aggregation_multiplies_external_links(self):
        single, doubled = build("lattice"), build("lattice", agg=2)
        graph_1, graph_2 = single.graph(), doubled.graph()
        package = single.packages[(0, 0)]
        south = single.packages[(0, 1)]
        assert len(graph_2.get_edge_data(
            package.vertical_node, south.vertical_node
        )) == 2 * len(graph_1.get_edge_data(
            package.vertical_node, south.vertical_node
        ))
        # On-chip links are the package's fixed four — never aggregated.
        assert len(graph_2.get_edge_data(
            package.vertical_node, package.horizontal_node
        )) == 4

    def test_lattice_wiring_unchanged_by_refactor(self):
        """The planner must reproduce the historical lattice exactly."""
        topo = build("lattice")
        names = [link.name for link in topo.fabric.links]
        assert names == sorted(set(names), key=names.index)  # unique
        # One slice: 8 packages x 4 on-chip + 4 on-board vertical +
        # 6 on-board horizontal = 42 full-duplex pairs.
        assert len(topo.fabric.links) == 42 * 2
        assert topo.fabric.routing_tables is None

    def test_duplicate_pair_link_names_stay_unique(self):
        """A torus wrap joining grid neighbours must not collide names."""
        torus = build("torus")
        names = [link.name for link in torus.fabric.links]
        assert len(names) == len(set(names))


class TestVariantRouting:
    def test_non_lattice_uses_table_routing(self):
        assert build("lattice").fabric.routing_tables is None
        for name in ("mesh", "torus"):
            topology = build(name)
            assert topology.fabric.routing_tables is not None

    def test_torus_wrap_shortens_routes(self):
        """End-to-end row routes take the wrap, not the full row."""
        torus = build("torus")
        west = torus.packages[(0, 0)].horizontal_node
        east = torus.packages[(torus.packages_x - 1, 0)].horizontal_node
        direction = torus.fabric.next_direction(east, west)
        assert direction is Direction.EAST  # out the wrap, not back west

    def test_table_routes_reach_everywhere(self):
        for name in ("mesh", "torus"):
            topology = build(name)
            nodes = topology.node_ids()
            for src in nodes[:4]:
                for dst in nodes:
                    if src == dst:
                        continue
                    assert topology.fabric.next_direction(src, dst) is not None

    def test_graph_matches_live_fabric(self):
        """graph() and the wired fabric derive from one plan."""
        for name in TOPOLOGIES:
            topology = build(name)
            assert topology.graph().number_of_edges() * 2 == len(
                topology.fabric.links
            )


class TestVariantWorkloads:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_demo_runs_on_every_variant(self, topology):
        from repro.checkpoint.resume import ResumableRun

        run = ResumableRun(
            "demo",
            {"seed": 5, "topology": topology,
             "link_aggregation": 2},
        )
        run.run()
        report = run.final_report()
        assert report["energy"]["total_energy_j"] > 0
        assert report["state_digest"]

    def test_variant_runs_are_byte_identical(self):
        from repro.checkpoint.resume import ResumableRun

        def digest():
            run = ResumableRun(
                "demo", {"seed": 5, "topology": "torus"}
            )
            run.run()
            return run.final_report()["state_digest"]

        assert digest() == digest()

    def test_layer_lookup_still_works(self):
        mesh = build("mesh")
        node = mesh.node_at(0, 0, Layer.VERTICAL)
        assert mesh.coord_of(node).layer is Layer.VERTICAL
