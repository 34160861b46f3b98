"""Dimension-order 2.5-D routing on the unwoven lattice.

Swallow's package pin-out forbids a plain 2-D mesh, so the network is an
*unwoven lattice* of two layers: the VERTICAL layer's nodes carry the
north/south links, the HORIZONTAL layer's nodes carry east/west, and the
four in-package links connect a vertical-layer node to its horizontal-
layer sibling (paper §V.A, Fig. 7).

Routing is dimension-ordered with the vertical dimension prioritised
(paper: "The dimension order routing strategy that we use prioritizes the
vertical dimension first").  A message at a horizontal-layer node that
needs to move vertically first crosses to the sibling node, so any route
makes at most two layer transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Layer(Enum):
    """Which lattice layer a node's external links serve."""

    VERTICAL = "V"
    HORIZONTAL = "H"


class Direction(Enum):
    """Output directions available at a switch."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    INTERNAL = "I"   # cross to the package sibling (layer change)
    LOCAL = "local"  # deliver to a chanend on this node

    #: Members are singletons compared by identity, so hashing by
    #: identity agrees with equality.  It runs in C; ``Enum``'s default
    #: name hash runs in Python on every lookup in a switch's
    #: direction-keyed tables.
    __hash__ = object.__hash__


class RoutingError(Exception):
    """Raised when no route exists toward a destination."""


@dataclass(frozen=True, order=True)
class NodeCoord:
    """Global position of a node: lattice column/row plus layer.

    ``x`` grows eastward, ``y`` grows southward.  The two nodes of a
    package share (x, y) and differ in layer.
    """

    x: int
    y: int
    layer: Layer

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.layer.value})"


def _travel_vertical(current: NodeCoord, dest: NodeCoord) -> Direction:
    if current.layer is not Layer.VERTICAL:
        return Direction.INTERNAL
    return Direction.NORTH if dest.y < current.y else Direction.SOUTH


def _travel_horizontal(current: NodeCoord, dest: NodeCoord) -> Direction:
    if current.layer is not Layer.HORIZONTAL:
        return Direction.INTERNAL
    return Direction.EAST if dest.x > current.x else Direction.WEST


def next_direction(current: NodeCoord, dest: NodeCoord) -> Direction:
    """The paper's dimension-order next hop from ``current``.

    The dimension whose layer *matches the destination node* is travelled
    last, so the route arrives without a final layer correction and makes
    at most two layer transitions (paper §V.A).  For a horizontal-layer
    destination this is exactly "vertical dimension first"; the paper's
    exemplary worst case — two horizontal-layer nodes with different
    vertical index — costs its two transitions here (H -> V, travel
    vertically, V -> H, travel horizontally).
    """
    dx = dest.x - current.x
    dy = dest.y - current.y
    if dx == 0 and dy == 0:
        return Direction.INTERNAL if current.layer is not dest.layer else Direction.LOCAL
    if dx != 0 and dy != 0:
        # Vertical first, except the one case where that would force a
        # third layer transition: travelling from the horizontal layer to
        # a vertical-layer node.
        vertical_now = not (
            current.layer is Layer.HORIZONTAL and dest.layer is Layer.VERTICAL
        )
    else:
        vertical_now = dy != 0
    if vertical_now:
        return _travel_vertical(current, dest)
    return _travel_horizontal(current, dest)


def strict_vertical_first(current: NodeCoord, dest: NodeCoord) -> Direction:
    """Naive strict vertical-first order (ablation baseline).

    Always exhausts the vertical dimension before the horizontal one,
    costing up to *three* layer transitions when the destination sits on
    the vertical layer and both dimensions are non-zero.
    """
    if current.y != dest.y:
        return _travel_vertical(current, dest)
    if current.x != dest.x:
        return _travel_horizontal(current, dest)
    return Direction.INTERNAL if current.layer is not dest.layer else Direction.LOCAL


def horizontal_first_direction(current: NodeCoord, dest: NodeCoord) -> Direction:
    """Mirror of :func:`next_direction` with the roles of the dimensions
    swapped (for ablation studies)."""
    dx = dest.x - current.x
    dy = dest.y - current.y
    if dx == 0 and dy == 0:
        return Direction.INTERNAL if current.layer is not dest.layer else Direction.LOCAL
    if dx != 0 and dy != 0:
        horizontal_now = not (
            current.layer is Layer.VERTICAL and dest.layer is Layer.HORIZONTAL
        )
    else:
        horizontal_now = dx != 0
    if horizontal_now:
        return _travel_horizontal(current, dest)
    return _travel_vertical(current, dest)


def route_hops(
    source: NodeCoord,
    dest: NodeCoord,
    policy=next_direction,
) -> list[Direction]:
    """The full hop sequence from ``source`` to ``dest`` (excluding LOCAL)."""
    hops: list[Direction] = []
    current = source
    limit = 4 + 2 * (abs(source.x - dest.x) + abs(source.y - dest.y))
    while True:
        direction = policy(current, dest)
        if direction is Direction.LOCAL:
            return hops
        hops.append(direction)
        current = _step(current, direction)
        if len(hops) > limit:
            raise RoutingError(
                f"routing loop from {source} to {dest} via {policy.__name__}"
            )


def _step(coord: NodeCoord, direction: Direction) -> NodeCoord:
    if direction is Direction.NORTH:
        return NodeCoord(coord.x, coord.y - 1, coord.layer)
    if direction is Direction.SOUTH:
        return NodeCoord(coord.x, coord.y + 1, coord.layer)
    if direction is Direction.EAST:
        return NodeCoord(coord.x + 1, coord.y, coord.layer)
    if direction is Direction.WEST:
        return NodeCoord(coord.x - 1, coord.y, coord.layer)
    if direction is Direction.INTERNAL:
        other = Layer.HORIZONTAL if coord.layer is Layer.VERTICAL else Layer.VERTICAL
        return NodeCoord(coord.x, coord.y, other)
    raise RoutingError(f"cannot step {direction} from {coord}")


def layer_transitions(source: NodeCoord, dest: NodeCoord) -> int:
    """Number of layer crossings on the vertical-first route (paper: <= 2)."""
    return sum(1 for hop in route_hops(source, dest) if hop is Direction.INTERNAL)
