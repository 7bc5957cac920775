"""Hexagonal cell topology for the overlay IDS simulator.

Cells are flat-top hexagons addressed by axial coordinates (q, r).  The grid is
a centered hexagonal patch of `rings` rings around (0, 0); adjacent cell
centroids are sqrt(3) * cell_radius apart.  Each cell hosts one cluster node at
its centroid plus `sensors_per_cell` sensors placed uniformly inside the
hexagon.  Cells are grouped into regions of at most three mutually adjacent
cells (a triad meeting at a shared lattice corner); each region hosts one
regional node at the centroid of its member cells.  A single base station sits
on the +x axis at three times the grid bounding radius.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

SQRT3 = math.sqrt(3.0)


class HexCoord(NamedTuple):
    """Axial hex coordinate.

    A tuple, so hashing and comparing run in C: it hashes as, and compares
    equal to, the plain tuple (q, r), and orders by (q, r).
    """

    q: int
    r: int


def hex_distance(a: HexCoord, b: HexCoord) -> int:
    """Hex grid distance between two cells (number of steps)."""
    dq = a.q - b.q
    dr = a.r - b.r
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


# The suspect strings that alerts and ground truth name a node or a cell by.
def suspect_node(node_id: int) -> str:
    return f"node:{node_id}"


def suspect_cell(cell: HexCoord) -> str:
    return f"cell:{cell.q},{cell.r}"


def build_hex_grid(rings: int) -> list[HexCoord]:
    """All cells within `rings` steps of the origin, sorted by (q, r).

    A centered patch with r rings has 3*r*(r+1) + 1 cells.
    """
    if rings < 0:
        raise ValueError("rings must be >= 0")
    origin = HexCoord(0, 0)
    cells = [
        HexCoord(q, r)
        for q in range(-rings, rings + 1)
        for r in range(-rings, rings + 1)
        if hex_distance(HexCoord(q, r), origin) <= rings
    ]
    cells.sort()
    return cells


def axial_to_xy(c: HexCoord, cell_radius_m: float) -> tuple[float, float]:
    """Centroid of a cell in meters (flat-top orientation)."""
    x = 1.5 * cell_radius_m * c.q
    y = SQRT3 * cell_radius_m * (c.r + c.q / 2.0)
    return (x, y)


def point_in_hex(x: float, y: float, c: HexCoord, cell_radius_m: float) -> bool:
    """Whether (x, y) lies inside cell c (boundary inclusive)."""
    cx, cy = axial_to_xy(c, cell_radius_m)
    dx = abs(x - cx)
    dy = abs(y - cy)
    eps = 1e-9 * cell_radius_m
    if dy > SQRT3 / 2.0 * cell_radius_m + eps:
        return False
    return SQRT3 * dx + dy <= SQRT3 * cell_radius_m + eps


def region_anchor(c: HexCoord) -> HexCoord:
    """Anchor cell of the triad containing c.

    Triads have the shape {anchor, anchor+(1,0), anchor+(0,1)} tiled over the
    anchor lattice {(q, r) : (q - r) % 3 == 0}; the member offset of any cell
    is determined by (q - r) mod 3.  The three members of a triad meet at one
    lattice corner and are pairwise adjacent.
    """
    m = (c.q - c.r) % 3
    if m == 0:
        return c
    if m == 1:
        return HexCoord(c.q - 1, c.r)
    return HexCoord(c.q, c.r - 1)


def group_regions(cells: list[HexCoord]) -> list[tuple[HexCoord, ...]]:
    """Partition cells into triad regions; boundary remainders shrink to 2 or 1.

    Returns region member tuples sorted by anchor; members sorted by (q, r).
    For a centered patch of r rings this yields (r + 1)**2 regions.
    """
    by_anchor: dict[HexCoord, list[HexCoord]] = {}
    for c in cells:
        by_anchor.setdefault(region_anchor(c), []).append(c)
    regions = []
    for anchor in sorted(by_anchor):
        regions.append(tuple(sorted(by_anchor[anchor])))
    return regions


class NodeRole(enum.Enum):
    SENSOR = "Sensor"
    CLUSTER = "ClusterNode"
    REGIONAL = "RegionalNode"
    BASE = "BaseStation"


@dataclass(frozen=True)
class Node:
    """A placed node.  cell is None for regional nodes and the base station."""

    node_id: int
    role: NodeRole
    cell: HexCoord | None
    x: float
    y: float


@dataclass
class Topology:
    cell_radius_m: float
    cells: list[HexCoord]
    regions: list[tuple[HexCoord, ...]]
    nodes: list[Node] = field(default_factory=list)

    # ---- lookups (built once in build_topology) ----
    cluster_by_cell: dict[HexCoord, int] = field(default_factory=dict)
    sensors_by_cell: dict[HexCoord, list[int]] = field(default_factory=dict)
    regional_by_region: dict[int, int] = field(default_factory=dict)
    region_of_cell: dict[HexCoord, int] = field(default_factory=dict)
    base_id: int = -1
    # radius -> grid cell -> (id, x, y) of its nodes, ascending: within()'s buckets
    _grids: dict[float, dict[tuple[int, int], list[tuple[int, float, float]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def role(self, node_id: int) -> NodeRole:
        return self.nodes[node_id].role

    def position(self, node_id: int) -> tuple[float, float]:
        n = self.nodes[node_id]
        return (n.x, n.y)

    def distance(self, a: int, b: int) -> float:
        ax, ay = self.position(a)
        bx, by = self.position(b)
        return math.hypot(ax - bx, ay - by)

    def within(self, x: float, y: float, radius: float) -> list[int]:
        """Ids of the nodes at math.hypot(x - n.x, y - n.y) <= radius, ascending.

        The nodes are bucketed once per radius, on first use, in square cells
        of side radius, so a query scans only the 3 x 3 cells around (x, y).
        The cells are widened by a relative 1e-9 so that rounding in a cell
        index cannot put a node within radius two cells away (exact while the
        coordinates stay below a million radii).  The nodes must not change
        after the first query.
        """
        side = radius * (1.0 + 1e-9)
        grid = self._grids.get(radius)
        if grid is None:
            grid = self._grids[radius] = {}
            for n in self.nodes:
                grid.setdefault((math.floor(n.x / side), math.floor(n.y / side)), []).append((n.node_id, n.x, n.y))
        i = math.floor(x / side)
        j = math.floor(y / side)
        found = [
            nid
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for nid, nx, ny in grid.get((i + di, j + dj), ())
            if math.hypot(x - nx, y - ny) <= radius
        ]
        found.sort()
        return found

    def cluster_of(self, cell: HexCoord) -> int:
        return self.cluster_by_cell[cell]

    def sensors_of(self, cell: HexCoord) -> list[int]:
        return self.sensors_by_cell[cell]

    def regional_of_cell(self, cell: HexCoord) -> int:
        return self.regional_by_region[self.region_of_cell[cell]]

    def monitor_ids(self) -> list[int]:
        return [
            n.node_id
            for n in self.nodes
            if n.role in (NodeRole.CLUSTER, NodeRole.REGIONAL, NodeRole.BASE)
        ]

    def sensor_ids(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.role is NodeRole.SENSOR]


def _sample_point_in_hex(
    rng: random.Random, c: HexCoord, cell_radius_m: float
) -> tuple[float, float]:
    # Rejection sampling from the bounding box; acceptance ratio ~0.83.
    cx, cy = axial_to_xy(c, cell_radius_m)
    h = SQRT3 / 2.0 * cell_radius_m
    while True:
        x = cx + rng.uniform(-cell_radius_m, cell_radius_m)
        y = cy + rng.uniform(-h, h)
        if point_in_hex(x, y, c, cell_radius_m):
            return (x, y)


def uplink_ends(rings: int, cell_radius_m: float) -> tuple[list[tuple[float, float]], tuple[float, float]]:
    """The regional positions, in region order, and the base's: fixed by the grid, not the seed.

    A regional sits at the centroid of its region's cells, the base on the +x
    axis at three times the grid's bounding radius.
    """
    cells = build_hex_grid(rings)
    regionals = []
    for members in group_regions(cells):
        xs, ys = zip(*(axial_to_xy(c, cell_radius_m) for c in members))
        regionals.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    bounding_radius = max(math.hypot(*axial_to_xy(c, cell_radius_m)) for c in cells) + cell_radius_m
    return regionals, (3.0 * bounding_radius, 0.0)


def build_topology(
    rings: int,
    sensors_per_cell: int,
    cell_radius_m: float = 50.0,
    seed: int = 0,
) -> Topology:
    """Build the full node layout for a grid.

    Node ids are assigned deterministically: cluster nodes first (cells in
    (q, r) order), then sensors (grouped by cell, in placement order), then
    regional nodes (regions in anchor order), then the base station.
    """
    if sensors_per_cell < 1:
        raise ValueError("sensors_per_cell must be >= 1")
    if cell_radius_m <= 0:
        raise ValueError("cell_radius_m must be > 0")
    cells = build_hex_grid(rings)
    regions = group_regions(cells)
    topo = Topology(cell_radius_m=cell_radius_m, cells=cells, regions=regions)

    nodes: list[Node] = []
    for c in cells:
        x, y = axial_to_xy(c, cell_radius_m)
        nid = len(nodes)
        nodes.append(Node(nid, NodeRole.CLUSTER, c, x, y))
        topo.cluster_by_cell[c] = nid

    rng = random.Random(f"{seed}|placement")
    for c in cells:
        ids = []
        for _ in range(sensors_per_cell):
            x, y = _sample_point_in_hex(rng, c, cell_radius_m)
            nid = len(nodes)
            nodes.append(Node(nid, NodeRole.SENSOR, c, x, y))
            ids.append(nid)
        topo.sensors_by_cell[c] = ids

    regionals, (base_x, base_y) = uplink_ends(rings, cell_radius_m)
    for rid, (members, (x, y)) in enumerate(zip(regions, regionals)):
        for c in members:
            topo.region_of_cell[c] = rid
        nid = len(nodes)
        nodes.append(Node(nid, NodeRole.REGIONAL, None, x, y))
        topo.regional_by_region[rid] = nid

    topo.nodes = nodes
    topo.base_id = len(nodes)
    nodes.append(Node(topo.base_id, NodeRole.BASE, None, base_x, base_y))
    return topo

