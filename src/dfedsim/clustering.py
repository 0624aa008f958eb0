"""Device-to-device cluster formation.

Clusters are size-capped groups of devices, each anchored by a
BS-connectable seed that later hosts aggregation. ``form_clusters``
solves the formation problem exactly for the small fleets simulated here:
among all feasible partitions it returns the one minimizing, in order,

1. the number of devices left out (isolated),
2. the number of clusters,
3. the total member-to-seed distance,
4. a canonical encoding (each device's cluster anchor id, compared in
   ascending device-id order),

so the output is reproducible and checkable against exhaustive
enumeration. Distance totals within ``COST_TOL`` of each other count as
ties and fall through to the next level. One depth-first search over each
device's anchor finds the optimum, and it keeps the smaller encoding on
every tie, so the canonical tie-break needs no second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch, NoConnectableDevice
from .topology import DeviceNode, distance_m

COST_TOL = 1e-9


@dataclass(frozen=True)
class ClusterPolicy:
    max_size: int = 3

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")


@dataclass(frozen=True)
class Cluster:
    cluster_id: int
    member_ids: tuple[int, ...]
    seed_id: int | None
    participating: bool = True

    def __post_init__(self):
        if not self.member_ids:
            raise ValueError("a cluster needs at least one member")
        if len(set(self.member_ids)) != len(self.member_ids):
            raise ValueError("duplicate member ids in cluster")
        if self.seed_id is not None and self.seed_id not in self.member_ids:
            raise ValueError("seed must be a cluster member")
        if self.participating and self.seed_id is None:
            raise ValueError("participating clusters need a seed")


@dataclass(frozen=True)
class ClusterAssignment:
    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cluster in self.clusters:
            for member in cluster.member_ids:
                if member in seen:
                    raise ValueError(f"device {member} appears in more than one cluster")
                seen.add(member)


def _dist_tie(a: float, b: float) -> bool:
    return abs(a - b) <= COST_TOL * max(1.0, abs(a), abs(b))


def _solve_fleet(
    by_id: dict[int, DeviceNode],
    connectable: dict[int, bool],
    policy: ClusterPolicy,
    max_member_distance_m: float | None,
) -> dict[int, int]:
    """Optimal anchor map of the fleet: each device id maps to its
    cluster's seed, or to itself when isolated. At least one device must
    be seed-eligible.

    A depth-first branch and bound fixes each device's anchor in id order:
    itself (a seed if eligible, isolated otherwise) or an eligible device
    in range with room, which becomes a seed if it is not one yet. A
    branch is cut only when its lower bound is strictly worse than the
    best leaf so far, and a leaf that ties the best wins on the smaller
    encoding, so the canonical optimum comes out of the search itself.
    """
    ids = sorted(by_id)
    n = len(ids)
    max_size = policy.max_size
    eligible = [connectable[d] for d in ids]
    # each device's possible hosts, nearest first: (distance, index) of every
    # other eligible device in range; a cap of one leaves no host room at all
    hosts: list[list[tuple[float, int]]] = [[] for _ in ids]
    if max_size > 1:
        for i, r in enumerate(ids):
            for j, s in enumerate(ids):
                if eligible[j] and j != i:
                    d = distance_m(by_id[r].pos, by_id[s].pos)
                    if max_member_distance_m is None or d <= max_member_distance_m:
                        hosts[i].append((d, j))
            hosts[i].sort()

    room = [-1] * n  # a seed's free places; -1 for a device that is no seed
    anchor = list(range(n))
    best: list = []  # [isolated, clusters, distance, encoding] of the best leaf

    def worse_than_best(i: int, iso: int, k: int, dist: float) -> bool:
        """Whether every leaf below the first i placements is strictly worse."""
        spare = sum(free for free in room if free > 0)
        forced = 0  # devices left with no host in range and no seed of their own
        member_d: list[float] = []  # nearest-host distances, non-eligible
        seed_d: list[float] = []  # nearest-host distances, eligible
        for r in range(i, n):
            if room[r] >= 0:
                continue  # a seed already, placed in its own cluster
            near = math.inf
            for d, j in hosts[r]:
                if room[j] > 0 or (room[j] < 0 and j >= i):
                    near = d
                    break
            if eligible[r]:
                seed_d.append(near)
            elif near < math.inf:
                member_d.append(near)
            else:
                forced += 1
        n_eligible = len(seed_d)
        need = len(member_d) + n_eligible
        # new seeds bring max_size places each, themselves included
        overflow = max(0, need - spare - max_size * n_eligible)
        iso_lb = iso + forced + overflow
        # an eligible device with no host left must seed
        k_lb = k + max(seed_d.count(math.inf), -((spare + overflow - need) // max_size))
        b_iso, b_k, b_dist, _ = best
        if (iso_lb, k_lb) != (b_iso, b_k):
            return (iso_lb, k_lb) > (b_iso, b_k)
        # at the best's counts, the overflow isolates and only b_k - k of the
        # eligible devices left seed; everyone else joins a host
        member_d.sort()
        seed_d.sort()
        joiners = max(0, n_eligible - (b_k - k))
        dist_lb = dist + sum(member_d[: len(member_d) - overflow]) + sum(seed_d[:joiners])
        return dist_lb > b_dist and not _dist_tie(dist_lb, b_dist)

    def visit(i: int, iso: int, k: int, dist: float) -> None:
        if i == n:
            encoding = tuple(anchor)
            if best:
                b_iso, b_k, b_dist, b_encoding = best
                if (iso, k) != (b_iso, b_k):
                    if (iso, k) > (b_iso, b_k):
                        return
                elif _dist_tie(dist, b_dist):
                    if encoding > b_encoding:
                        return
                elif dist > b_dist:
                    return
            best[:] = [iso, k, dist, encoding]
            return
        if best and worse_than_best(i, iso, k, dist):
            return
        anchor[i] = i
        if room[i] >= 0:  # a seed that an earlier device joined
            visit(i + 1, iso, k, dist)
            return
        for d, j in hosts[i]:
            if room[j] > 0:
                room[j] -= 1
                anchor[i] = j
                visit(i + 1, iso, k, dist + d)
                room[j] += 1
            elif room[j] < 0 and j > i:  # an eligible device not yet placed
                room[j] = max_size - 2
                anchor[i] = j
                visit(i + 1, iso, k + 1, dist + d)
                room[j] = -1
        anchor[i] = i
        if eligible[i]:
            room[i] = max_size - 1
            visit(i + 1, iso, k + 1, dist)
            room[i] = -1
        else:
            visit(i + 1, iso + 1, k, dist)

    visit(0, 0, 0, 0.0)
    return {ids[i]: ids[a] for i, a in enumerate(best[3])}


def form_clusters(
    devices: list[DeviceNode],
    connectable: list[bool],
    policy: ClusterPolicy,
    max_member_distance_m: float | None = None,
) -> ClusterAssignment:
    """Partition devices into valid clusters, optimally for small fleets.

    ``connectable`` aligns with ``devices``. ``max_member_distance_m`` caps
    the member-to-seed distance (the D2D range); None disables the cap.
    Devices that no valid cluster can take (out of range or over capacity)
    come back as singleton clusters flagged non-participating.

    Runs in time exponential in the number of devices; intended for small
    fleets (n <= ~10).

    Raises NoConnectableDevice when no device can reach the BS at all.
    """
    if len(devices) != len(connectable):
        raise DimensionMismatch("devices and connectable must align")
    ids = [d.id for d in devices]
    if len(set(ids)) != len(ids):
        raise ValueError("device ids must be unique")
    if not any(connectable):
        raise NoConnectableDevice("no device can reach the base station")

    conn = {d.id: c for d, c in zip(devices, connectable)}
    anchor_of = _solve_fleet(
        {d.id: d for d in devices}, conn, policy, max_member_distance_m
    )

    members_of: dict[int, list[int]] = {}
    for device_id in sorted(anchor_of):
        members_of.setdefault(anchor_of[device_id], []).append(device_id)

    # (members, seed) per cluster; isolated leftovers come last
    seeded: list[tuple[tuple[int, ...], int | None]] = []
    isolated: list[tuple[tuple[int, ...], int | None]] = []
    for anchor in sorted(members_of):
        member_ids = tuple(sorted(members_of[anchor]))
        # a device anchored at itself is a chosen seed when connectable and
        # an isolated leftover otherwise
        if conn[anchor]:
            seeded.append((member_ids, anchor))
        else:
            isolated.append((member_ids, None))
    return ClusterAssignment(
        tuple(
            Cluster(i, member_ids, seed, participating=seed is not None)
            for i, (member_ids, seed) in enumerate(seeded + isolated)
        )
    )
