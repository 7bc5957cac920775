"""Geometry and placement tests, checked against brute-force oracles."""

import math
import random
from collections import deque

import pytest

from hodsim.topology import (
    HexCoord,
    NodeRole,
    SQRT3,
    axial_to_xy,
    build_hex_grid,
    build_topology,
    group_regions,
    hex_distance,
    point_in_hex,
    region_anchor,
    uplink_ends,
)

# axial offsets of the six adjacent cells (E, NE, N, W, SW, S for flat-top)
HEX_DIRS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def hex_neighbors(c: HexCoord) -> list[HexCoord]:
    return [HexCoord(c.q + dq, c.r + dr) for dq, dr in HEX_DIRS]


def hex_corners(c: HexCoord, cell_radius_m: float) -> list[tuple[float, float]]:
    """The six corners of a flat-top cell, on its circumradius at multiples of 60 degrees."""
    cx, cy = axial_to_xy(c, cell_radius_m)
    return [
        (cx + cell_radius_m * math.cos(math.pi / 3.0 * k), cy + cell_radius_m * math.sin(math.pi / 3.0 * k))
        for k in range(6)
    ]


def bfs_distance(a: HexCoord, b: HexCoord) -> int:
    """Oracle: graph distance over the neighbor relation, no closed form."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        cur, d = frontier.popleft()
        for nxt in hex_neighbors(cur):
            if nxt == b:
                return d + 1
            if nxt not in seen and hex_distance(a, nxt) <= hex_distance(a, b) + 2:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise AssertionError("unreachable")


class TestHexBasics:
    def test_distance_matches_bfs_oracle(self):
        cells = build_hex_grid(3)
        rng = random.Random(1)
        pairs = [(rng.choice(cells), rng.choice(cells)) for _ in range(200)]
        for a, b in pairs:
            assert hex_distance(a, b) == bfs_distance(a, b)

    def test_distance_is_a_metric(self):
        cells = build_hex_grid(2)
        rng = random.Random(2)
        for _ in range(300):
            a, b, c = (rng.choice(cells) for _ in range(3))
            assert hex_distance(a, b) == hex_distance(b, a)
            assert hex_distance(a, b) >= 0
            assert (hex_distance(a, b) == 0) == (a == b)
            assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)

    def test_neighbors_six_unique_at_distance_one(self):
        for c in build_hex_grid(2):
            ns = hex_neighbors(c)
            assert len(ns) == 6
            assert len(set(ns)) == 6
            assert all(hex_distance(c, n) == 1 for n in ns)

    def test_grid_count_formula(self):
        # oracle: enumerate the axial ball by scanning a bounding box
        for rings in range(6):
            brute = [
                HexCoord(q, r)
                for q in range(-rings, rings + 1)
                for r in range(-rings, rings + 1)
                if hex_distance(HexCoord(0, 0), HexCoord(q, r)) <= rings
            ]
            grid = build_hex_grid(rings)
            assert sorted(grid) == sorted(brute)
            assert len(grid) == 3 * rings * (rings + 1) + 1

    def test_hexcoord_is_the_plain_tuple_for_hashing_and_order(self):
        # sets and dicts of cells iterate in the same order as before HexCoord was a tuple
        for q, r in [(0, 0), (1, -1), (-3, 2), (5, 0)]:
            assert hash(HexCoord(q, r)) == hash((q, r))
            assert HexCoord(q, r) == (q, r)
        assert sorted([HexCoord(1, -1), HexCoord(0, 2), HexCoord(0, -1)]) == [(0, -1), (0, 2), (1, -1)]

    def test_grid_rejects_negative(self):
        with pytest.raises(ValueError):
            build_hex_grid(-1)


class TestProjection:
    def test_adjacent_centroids_exactly_sqrt3_r_apart(self):
        R = 50.0
        for c in build_hex_grid(2):
            cx, cy = axial_to_xy(c, R)
            for n in hex_neighbors(c):
                nx, ny = axial_to_xy(n, R)
                assert math.hypot(nx - cx, ny - cy) == pytest.approx(SQRT3 * R, abs=1e-9)

    def test_origin_maps_to_origin(self):
        assert axial_to_xy(HexCoord(0, 0), 50.0) == (0.0, 0.0)

    def test_corners_on_circumradius(self):
        R = 37.5
        c = HexCoord(2, -1)
        cx, cy = axial_to_xy(c, R)
        corners = hex_corners(c, R)
        assert len(corners) == 6
        for x, y in corners:
            assert math.hypot(x - cx, y - cy) == pytest.approx(R, abs=1e-9)

    def test_point_in_hex_centroid_and_corners(self):
        R = 50.0
        c = HexCoord(-1, 2)
        cx, cy = axial_to_xy(c, R)
        assert point_in_hex(cx, cy, c, R)
        for x, y in hex_corners(c, R):
            assert point_in_hex(x, y, c, R)  # boundary is inclusive
            # nudge outward from the centroid: clearly outside
            ox, oy = cx + (x - cx) * 1.01, cy + (y - cy) * 1.01
            assert not point_in_hex(ox, oy, c, R)

    def test_point_in_hex_partitions_plane_samples(self):
        # any sampled point near the grid lies in exactly one cell of a big patch
        R = 50.0
        cells = build_hex_grid(3)
        rng = random.Random(3)
        for _ in range(400):
            x = rng.uniform(-2.0 * R, 2.0 * R)
            y = rng.uniform(-2.0 * R, 2.0 * R)
            owners = [c for c in cells if point_in_hex(x, y, c, R)]
            # boundary points may be claimed by up to three cells (shared corner)
            assert 1 <= len(owners) <= 3
            if len(owners) > 1:
                # only possible on (numerically) shared edges; all owners adjacent
                assert all(
                    hex_distance(a, b) == 1 for a in owners for b in owners if a != b
                )


class TestRegions:
    def test_anchor_offsets(self):
        for c in build_hex_grid(3):
            a = region_anchor(c)
            assert (a.q - a.r) % 3 == 0
            assert c in (a, HexCoord(a.q + 1, a.r), HexCoord(a.q, a.r + 1))

    def test_partition_properties(self):
        for rings in range(4):
            cells = build_hex_grid(rings)
            regions = group_regions(cells)
            # exact disjoint cover
            flat = [c for reg in regions for c in reg]
            assert sorted(flat) == sorted(cells)
            assert len(set(flat)) == len(flat)
            # region count and size bounds
            assert len(regions) == (rings + 1) ** 2
            assert all(1 <= len(reg) <= 3 for reg in regions)
            # every region is mutually adjacent (meets at a lattice corner)
            for reg in regions:
                for a in reg:
                    for b in reg:
                        if a != b:
                            assert hex_distance(a, b) == 1

    def test_rings_one_region_sizes(self):
        # frozen oracle: enumerating the 7-cell patch by hand gives one full
        # triad {(0,0),(1,0),(0,1)}, the pair {(-1,0),(0,-1)}, and two
        # singletons {(-1,1)} and {(1,-1)}
        regions = group_regions(build_hex_grid(1))
        sizes = sorted(len(r) for r in regions)
        assert sizes == [1, 1, 2, 3]
        members = {tuple(sorted((c.q, c.r) for c in reg)) for reg in regions}
        assert ((0, 0), (0, 1), (1, 0)) in members
        assert ((-1, 0), (0, -1)) in members
        assert ((-1, 1),) in members
        assert ((1, -1),) in members

    def test_rings_zero_single_region(self):
        assert group_regions(build_hex_grid(0)) == [(HexCoord(0, 0),)]


class TestBuildTopology:
    def test_counts_and_id_layout(self):
        topo = build_topology(rings=2, sensors_per_cell=6, cell_radius_m=50.0, seed=5)
        n_cells = 19
        n_regions = 9
        assert len(topo.cells) == n_cells
        assert len(topo.regions) == n_regions
        assert len(topo.nodes) == n_cells * 7 + n_regions + 1
        # clusters first, in sorted cell order
        for i, cell in enumerate(sorted(topo.cells)):
            node = topo.nodes[i]
            assert node.role is NodeRole.CLUSTER
            assert node.cell == cell
            assert topo.cluster_of(cell) == i
        # then sensors, then regionals, then the base
        roles = [n.role for n in topo.nodes]
        assert roles[:n_cells] == [NodeRole.CLUSTER] * n_cells
        assert roles[n_cells : n_cells * 7] == [NodeRole.SENSOR] * (n_cells * 6)
        assert roles[n_cells * 7 : -1] == [NodeRole.REGIONAL] * n_regions
        assert roles[-1] is NodeRole.BASE
        assert topo.base_id == len(topo.nodes) - 1

    def test_cluster_at_centroid_and_sensors_inside_cell(self):
        topo = build_topology(rings=1, sensors_per_cell=8, cell_radius_m=40.0, seed=9)
        for cell in topo.cells:
            cx, cy = axial_to_xy(cell, 40.0)
            cnode = topo.node(topo.cluster_of(cell))
            assert (cnode.x, cnode.y) == (cx, cy)
            for sid in topo.sensors_of(cell):
                s = topo.node(sid)
                assert point_in_hex(s.x, s.y, cell, 40.0)

    def test_regional_within_range_of_members(self):
        # regional placement guarantees every member cluster is at most one
        # circumradius away, so the uplink always closes at zero shadowing
        topo = build_topology(rings=2, sensors_per_cell=4, cell_radius_m=50.0, seed=3)
        for rid, members in enumerate(topo.regions):
            reg = topo.regional_by_region[rid]
            for cell in members:
                assert topo.distance(reg, topo.cluster_of(cell)) <= 50.0 + 1e-9

    def test_base_position(self):
        topo = build_topology(rings=2, sensors_per_cell=4, cell_radius_m=50.0, seed=3)
        base = topo.node(topo.base_id)
        # three times the bounding radius: the six corner cells of ring 2, such
        # as (2, 0) at (150, 50*sqrt(3)), lie 2*sqrt(3)*50 out, plus one cell radius
        assert base.x == pytest.approx(3.0 * (100.0 * math.sqrt(3.0) + 50.0))
        assert base.y == 0.0

    def test_uplink_ends_are_the_placed_regionals_and_base(self):
        regionals, base = uplink_ends(2, 50.0)
        for seed in (3, 4):
            topo = build_topology(rings=2, sensors_per_cell=4, cell_radius_m=50.0, seed=seed)
            assert [topo.position(topo.regional_by_region[rid]) for rid in range(9)] == regionals
            assert topo.position(topo.base_id) == base

    def test_parent_chain(self):
        # sensor -> cluster -> regional -> base, as the monitors read the hierarchy
        topo = build_topology(rings=1, sensors_per_cell=3, cell_radius_m=50.0, seed=2)
        for cell in topo.cells:
            assert {topo.node(sid).cell for sid in topo.sensors_of(cell)} == {cell}
            cluster = topo.cluster_of(cell)
            assert topo.role(cluster) is NodeRole.CLUSTER and topo.node(cluster).cell == cell
            regional = topo.regional_of_cell(cell)
            assert topo.role(regional) is NodeRole.REGIONAL
            assert cell in topo.regions[topo.region_of_cell[cell]]
        assert topo.role(topo.base_id) is NodeRole.BASE

    def test_determinism_and_seed_sensitivity(self):
        a = build_topology(rings=1, sensors_per_cell=5, cell_radius_m=50.0, seed=7)
        b = build_topology(rings=1, sensors_per_cell=5, cell_radius_m=50.0, seed=7)
        c = build_topology(rings=1, sensors_per_cell=5, cell_radius_m=50.0, seed=8)
        assert a.nodes == b.nodes
        assert a.nodes != c.nodes

    def test_within_is_every_node_in_range_ascending(self):
        topo = build_topology(rings=2, sensors_per_cell=6, cell_radius_m=50.0, seed=4)
        rng = random.Random(11)
        points = [topo.position(n.node_id) for n in topo.nodes]
        points += [(rng.uniform(-300, 900), rng.uniform(-300, 300)) for _ in range(40)]
        for radius in (5.0, 40.0, 75.0, 500.0):
            for x, y in points:
                found = topo.within(x, y, radius)
                assert found == sorted(found)
                assert found == [n.node_id for n in topo.nodes if math.hypot(x - n.x, y - n.y) <= radius]

    def test_within_includes_the_boundary_node(self):
        topo = build_topology(rings=1, sensors_per_cell=4, cell_radius_m=50.0, seed=2)
        a, b = topo.sensors_of(topo.cells[0])[0], topo.sensors_of(topo.cells[-1])[-1]
        x, y = topo.position(a)
        d = topo.distance(a, b)
        assert b in topo.within(x, y, d)
        assert b not in topo.within(x, y, math.nextafter(d, 0.0))
        assert a in topo.within(x, y, 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_topology(rings=-1, sensors_per_cell=4, cell_radius_m=50.0, seed=1)
        with pytest.raises(ValueError):
            build_topology(rings=1, sensors_per_cell=0, cell_radius_m=50.0, seed=1)
        with pytest.raises(ValueError):
            build_topology(rings=1, sensors_per_cell=4, cell_radius_m=0.0, seed=1)
