"""Unit tests for dimension-order 2.5-D routing on the unwoven lattice."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.routing import (
    Direction,
    Layer,
    NodeCoord,
    RoutingError,
    horizontal_first_direction,
    layer_transitions,
    next_direction,
    route_hops,
)
from repro.xs1.isa import EnergyClass

V, H = Layer.VERTICAL, Layer.HORIZONTAL


def coord(x, y, layer):
    return NodeCoord(x, y, layer)


coords = st.builds(
    NodeCoord,
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.sampled_from([V, H]),
)


class TestNextDirection:
    def test_local_at_destination(self):
        assert next_direction(coord(2, 3, V), coord(2, 3, V)) is Direction.LOCAL

    def test_vertical_moves_first(self):
        assert next_direction(coord(0, 0, V), coord(5, 5, V)) is Direction.SOUTH
        assert next_direction(coord(0, 5, V), coord(5, 0, V)) is Direction.NORTH

    def test_crosses_to_vertical_layer_for_vertical_move(self):
        assert next_direction(coord(0, 0, H), coord(0, 5, H)) is Direction.INTERNAL

    def test_horizontal_after_vertical_done(self):
        assert next_direction(coord(0, 5, H), coord(3, 5, H)) is Direction.EAST
        assert next_direction(coord(3, 5, H), coord(0, 5, H)) is Direction.WEST

    def test_crosses_to_horizontal_layer_for_horizontal_move(self):
        assert next_direction(coord(0, 5, V), coord(3, 5, V)) is Direction.INTERNAL

    def test_final_layer_correction(self):
        assert next_direction(coord(2, 2, V), coord(2, 2, H)) is Direction.INTERNAL


class TestRouteHops:
    def test_same_node_empty_route(self):
        assert route_hops(coord(1, 1, V), coord(1, 1, V)) == []

    def test_package_sibling_single_internal_hop(self):
        assert route_hops(coord(1, 1, V), coord(1, 1, H)) == [Direction.INTERNAL]

    def test_vertical_only_route(self):
        hops = route_hops(coord(0, 0, V), coord(0, 3, V))
        assert hops == [Direction.SOUTH] * 3

    def test_paper_worst_case_two_layer_transitions(self):
        """Two horizontal-layer nodes with different vertical index (§V.A)."""
        hops = route_hops(coord(0, 0, H), coord(2, 2, H))
        assert hops[0] is Direction.INTERNAL           # H -> V
        assert hops[1:3] == [Direction.SOUTH] * 2      # vertical first
        assert hops[3] is Direction.INTERNAL           # V -> H
        assert hops[4:] == [Direction.EAST] * 2

    @given(coords, coords)
    def test_route_terminates_and_reaches_destination(self, src, dst):
        hops = route_hops(src, dst)
        # Replay the hops to confirm arrival.
        from repro.network.routing import _step

        current = src
        for hop in hops:
            current = _step(current, hop)
        assert current == dst

    @given(coords, coords)
    def test_at_most_two_layer_transitions(self, src, dst):
        assert layer_transitions(src, dst) <= 2

    @given(coords, coords)
    def test_route_length_is_manhattan_plus_transitions(self, src, dst):
        hops = route_hops(src, dst)
        manhattan = abs(src.x - dst.x) + abs(src.y - dst.y)
        assert len(hops) == manhattan + layer_transitions(src, dst)

    @given(coords, coords)
    def test_dimension_order_is_respected(self, src, dst):
        """Hops of one dimension are contiguous (true dimension order)."""
        hops = route_hops(src, dst)
        kinds = []
        for hop in hops:
            kind = "v" if hop in (Direction.NORTH, Direction.SOUTH) else (
                "h" if hop in (Direction.EAST, Direction.WEST) else None
            )
            if kind and (not kinds or kinds[-1] != kind):
                kinds.append(kind)
        assert len(kinds) <= 2, f"dimension interleaving in {hops}"

    @given(coords, coords)
    def test_vertical_first_except_h_to_v(self, src, dst):
        """Vertical precedes horizontal unless src is H-layer and dst V-layer."""
        hops = route_hops(src, dst)
        directions = [h for h in hops if h is not Direction.INTERNAL]
        has_v = any(h in (Direction.NORTH, Direction.SOUTH) for h in directions)
        has_h = any(h in (Direction.EAST, Direction.WEST) for h in directions)
        if has_v and has_h:
            vertical_first = directions[0] in (Direction.NORTH, Direction.SOUTH)
            expect_horizontal_first = (
                src.layer is Layer.HORIZONTAL and dst.layer is Layer.VERTICAL
            )
            assert vertical_first != expect_horizontal_first


class TestHorizontalFirstPolicy:
    @given(coords, coords)
    def test_reaches_destination(self, src, dst):
        from repro.network.routing import _step

        hops = route_hops(src, dst, policy=horizontal_first_direction)
        current = src
        for hop in hops:
            current = _step(current, hop)
        assert current == dst

    def test_differs_from_vertical_first(self):
        src, dst = coord(0, 0, V), coord(2, 2, V)
        assert route_hops(src, dst)[0] is Direction.SOUTH
        assert route_hops(src, dst, policy=horizontal_first_direction)[0] is (
            Direction.INTERNAL
        )


@pytest.mark.parametrize("enum", [Direction, EnergyClass])
def test_hot_path_enums_hash_by_identity(enum):
    """``Direction`` keys a switch's per-direction tables and
    ``EnergyClass`` a core's instruction histogram: both hash by
    identity, in C, not by ``Enum``'s Python-level name hash."""
    assert enum.__hash__ is object.__hash__
    assert all(hash(member) == object.__hash__(member) for member in enum)
