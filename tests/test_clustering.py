"""Cluster formation against a brute-force feasible-partition oracle.

The oracle enumerates every set partition of the devices together with
every valid anchor choice per block, scores them with the same layered
objective the library documents (fewest isolated, fewest clusters, least
total member-to-seed distance, canonical anchor encoding), and keeps the
best. form_clusters must reproduce that optimum.
"""

import itertools

import numpy as np
import pytest

from dfedsim.clustering import (
    Cluster,
    ClusterAssignment,
    ClusterPolicy,
    form_clusters,
)
from dfedsim.config import default_devices
from dfedsim.errors import NoConnectableDevice
from dfedsim.topology import DeviceNode, LinkModel, Position, can_connect, distance_m

TOL = 1e-9


def make_devices(coords):
    return [DeviceNode(id=i, pos=Position(float(x), float(y))) for i, (x, y) in enumerate(coords)]


# ------------------------------------------------------------- oracle


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def block_anchor_choices(block, conn, pos, max_size, max_range):
    """All (anchor, dist) options for one block; anchor None = isolated."""
    if len(block) > max_size:
        return []
    connectable = [d for d in block if conn[d]]
    if not connectable:
        if len(block) == 1:
            return [(None, 0.0)]
        return []
    options = []
    for anchor in connectable:
        dists = [distance_m(pos[m], pos[anchor]) for m in block if m != anchor]
        if max_range is not None and any(d > max_range for d in dists):
            continue
        options.append((anchor, sum(dists)))
    return options


def oracle_best(devices, conn_flags, max_size, max_range):
    conn = {d.id: c for d, c in zip(devices, conn_flags)}
    pos = {d.id: d.pos for d in devices}
    ids = sorted(conn)
    best = None
    for part in set_partitions(ids):
        per_block = [
            block_anchor_choices(b, conn, pos, max_size, max_range) for b in part
        ]
        if any(not options for options in per_block):
            continue
        for combo in itertools.product(*per_block):
            iso = sum(1 for anchor, _ in combo if anchor is None)
            count = sum(1 for anchor, _ in combo if anchor is not None)
            dist = sum(d for _, d in combo)
            anchor_of = {}
            for block, (anchor, _) in zip(part, combo):
                for m in block:
                    anchor_of[m] = m if anchor is None else anchor
            encoding = tuple(anchor_of[i] for i in ids)
            cand = (iso, count, dist, encoding)
            if best is None or oracle_less(cand, best):
                best = cand
    return best


def oracle_less(a, b):
    if (a[0], a[1]) != (b[0], b[1]):
        return (a[0], a[1]) < (b[0], b[1])
    if abs(a[2] - b[2]) > TOL * max(1.0, abs(a[2]), abs(b[2])):
        return a[2] < b[2]
    return a[3] < b[3]


def encoding_of(assignment, ids):
    anchor_of = {}
    for cluster in assignment.clusters:
        for m in cluster.member_ids:
            anchor_of[m] = cluster.seed_id if cluster.participating else m
    return tuple(anchor_of[i] for i in ids)


def member_ids(assignment, participating):
    """Sorted ids of the devices in participating (or isolated) clusters."""
    return sorted(
        m for c in assignment.clusters if c.participating == participating for m in c.member_ids
    )


# -------------------------------------------------------------- tests


def test_two_connectable_gives_sizes_three_and_two():
    devices = make_devices([(0, 0), (10, 0), (20, 0), (30, 0), (40, 0)])
    conn = [True, False, False, False, True]
    out = form_clusters(devices, conn, ClusterPolicy())
    sizes = sorted(len(c.member_ids) for c in out.clusters)
    assert sizes == [2, 3]
    for cluster in out.clusters:
        assert cluster.participating
        assert any(conn[m] for m in cluster.member_ids)


def test_single_connectable_device_forms_singleton():
    devices = make_devices([(5, 5)])
    out = form_clusters(devices, [True], ClusterPolicy())
    assert len(out.clusters) == 1
    assert out.clusters[0].member_ids == (0,)
    assert out.clusters[0].seed_id == 0
    assert out.clusters[0].participating


def test_no_connectable_device_raises():
    devices = make_devices([(0, 0), (1, 1)])
    with pytest.raises(NoConnectableDevice):
        form_clusters(devices, [False, False], ClusterPolicy())


def test_reference_five_device_topology():
    # three connectable devices, optimal solution uses only two clusters
    devices = [
        DeviceNode(0, Position(-12.0, 16.0)),
        DeviceNode(1, Position(19.2, 25.6)),
        DeviceNode(2, Position(21.6, 28.8)),
        DeviceNode(3, Position(-28.8, 38.4)),
        DeviceNode(4, Position(36.0, 48.0)),
    ]
    conn = [True, True, True, False, False]
    out = form_clusters(devices, conn, ClusterPolicy(), max_member_distance_m=100.0)
    members = sorted(c.member_ids for c in out.clusters)
    assert members == [(0, 3), (1, 2, 4)]
    seeds = {c.member_ids: c.seed_id for c in out.clusters}
    assert seeds[(0, 3)] == 0
    assert seeds[(1, 2, 4)] == 2
    assert member_ids(out, participating=True) == [0, 1, 2, 3, 4]


def test_seven_devices_match_oracle():
    rng = np.random.default_rng(302)
    coords = rng.uniform(-40, 40, size=(7, 2))
    devices = make_devices(coords)
    conn = [True, False, True, False, False, True, False]
    out = form_clusters(devices, conn, ClusterPolicy(), max_member_distance_m=100.0)
    best = oracle_best(devices, conn, max_size=3, max_range=100.0)
    assert encoding_of(out, list(range(7))) == best[3]


def test_random_topologies_match_oracle():
    rng = np.random.default_rng(303)
    for trial in range(120):
        n = int(rng.integers(2, 8))
        coords = rng.uniform(-60, 60, size=(n, 2))
        if trial % 4 >= 2:
            coords = np.round(coords / 20.0) * 20.0  # a grid makes exact distance ties
        devices = make_devices(coords)
        conn = list(rng.random(n) < 0.5)
        if not any(conn):
            conn[int(rng.integers(0, n))] = True
        max_size = int(rng.integers(1, 5))
        max_range = (100.0, None, 30.0)[trial % 3]
        out = form_clusters(
            devices, conn, ClusterPolicy(max_size), max_member_distance_m=max_range
        )
        best = oracle_best(devices, conn, max_size=max_size, max_range=max_range)
        assert best is not None
        assert encoding_of(out, list(range(n))) == best[3], f"trial {trial}"


def test_output_invariants_on_random_topologies():
    rng = np.random.default_rng(304)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        devices = make_devices(rng.uniform(-80, 80, size=(n, 2)))
        conn = list(rng.random(n) < 0.6)
        if not any(conn):
            conn[0] = True
        policy = ClusterPolicy(max_size=int(rng.integers(1, 4)))
        out = form_clusters(devices, conn, policy, max_member_distance_m=120.0)
        seen = sorted(m for c in out.clusters for m in c.member_ids)
        assert seen == list(range(n))  # partition
        for cluster in out.clusters:
            assert 1 <= len(cluster.member_ids) <= policy.max_size
            if cluster.participating:
                assert cluster.seed_id is not None
                assert conn[cluster.seed_id]
                for m in cluster.member_ids:
                    d = distance_m(devices[m].pos, devices[cluster.seed_id].pos)
                    assert d <= 120.0 + 1e-9


def test_out_of_range_device_is_isolated():
    devices = make_devices([(0, 0), (1, 0), (500, 0)])
    out = form_clusters(
        devices, [True, False, False], ClusterPolicy(), max_member_distance_m=100.0
    )
    assert member_ids(out, participating=False) == [2]


def test_determinism_and_order_invariance():
    rng = np.random.default_rng(305)
    coords = rng.uniform(-50, 50, size=(6, 2))
    devices = make_devices(coords)
    conn = [True, True, False, False, True, False]
    a = form_clusters(devices, conn, ClusterPolicy())
    b = form_clusters(devices, conn, ClusterPolicy())
    assert a == b
    order = [3, 0, 5, 1, 4, 2]
    shuffled = [devices[i] for i in order]
    c = form_clusters(shuffled, [conn[i] for i in order], ClusterPolicy())
    assert a == c


def test_scale_invariance_without_range_cap():
    rng = np.random.default_rng(306)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        coords = rng.uniform(-50, 50, size=(n, 2))
        conn = list(rng.random(n) < 0.5)
        if not any(conn):
            conn[0] = True
        base = form_clusters(make_devices(coords), conn, ClusterPolicy())
        scaled = form_clusters(make_devices(coords * 2.0), conn, ClusterPolicy())
        assert base == scaled


def test_max_size_one_isolates_every_non_connectable():
    devices = make_devices([(0, 0), (1, 0), (2, 0)])
    out = form_clusters(
        devices, [True, False, False], ClusterPolicy(max_size=1)
    )
    assert member_ids(out, participating=True) == [0]
    assert member_ids(out, participating=False) == [1, 2]


def test_cap_above_fleet_size_changes_nothing():
    # a seed can take no more members than there are devices, so any cap from
    # the fleet size up gives the same clusters
    devices = list(default_devices())
    conn = [can_connect(LinkModel(), d.bs_latency_s) for d in devices]
    fleets = [(devices, conn)]
    rng = np.random.default_rng(307)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        conn = list(rng.random(n) < 0.5)
        conn[0] = True
        fleets.append((make_devices(rng.uniform(-60, 60, size=(n, 2))), conn))
    for devices, conn in fleets:
        capped = form_clusters(devices, conn, ClusterPolicy(max_size=len(devices)))
        assert form_clusters(devices, conn, ClusterPolicy(max_size=10**5)) == capped


def test_cluster_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        ClusterAssignment(
            (
                Cluster(0, (0, 1), 0, True),
                Cluster(1, (1, 2), 2, True),
            )
        )
