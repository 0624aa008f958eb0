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
ties and fall through to the next level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def _lex_fix(
    seed_ids: tuple[int, ...],
    rest: list[int],
    dist: dict[tuple[int, int], float],
    in_range: dict[tuple[int, int], bool],
    max_size: int,
    target_iso: int,
    target_dist: float,
) -> dict[int, int]:
    """Re-derive the optimum while fixing devices in id order to their
    smallest workable anchor, yielding the canonical tie-broken solution."""
    capacity = {s: max_size - 1 for s in seed_ids}
    iso_left = target_iso
    dist_left = target_dist
    fixed: dict[int, int] = {}
    for pos, r in enumerate(rest):
        remaining = rest[pos + 1 :]
        options = sorted(
            [s for s in seed_ids if capacity[s] > 0 and in_range[(r, s)]] + [r]
        )
        chosen = None
        for candidate in options:
            if candidate == r:
                cand_iso, cand_dist = 1, 0.0
                cand_capacity = dict(capacity)
            else:
                cand_iso, cand_dist = 0, dist[(r, candidate)]
                cand_capacity = dict(capacity)
                cand_capacity[candidate] -= 1
            seeds_left = tuple(s for s in seed_ids if cand_capacity[s] >= 0)
            sub_iso, sub_dist, _ = _solve_seed_set_with_capacity(
                seeds_left, remaining, dist, in_range, cand_capacity
            )
            if cand_iso + sub_iso == iso_left and _dist_tie(
                cand_dist + sub_dist, dist_left
            ):
                chosen = candidate
                capacity = cand_capacity
                iso_left -= cand_iso
                dist_left -= cand_dist
                break
        if chosen is None:  # numerically drifted; fall back to any optimum
            _, _, anchors = _solve_seed_set_with_capacity(
                tuple(seed_ids), rest[pos:], dist, in_range, capacity
            )
            fixed.update(anchors)
            return fixed
        fixed[r] = chosen
    return fixed


def linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Exact minimum-cost assignment of each row of ``cost`` to its own column.

    The shortest-augmenting-path form of the Hungarian method: rows join
    one at a time, each along a cheapest path in reduced costs, so the
    partial assignment stays optimal throughout. An ``inf`` entry forbids
    its pair. Returns (rows, columns), rows ascending. Raises ValueError
    when no assignment of every row avoids the forbidden pairs, as when
    rows outnumber columns.
    """
    n, m = cost.shape
    a = cost.tolist()
    inf = math.inf
    u = [0.0] * n  # row potentials
    v = [0.0] * m  # column potentials
    col_of = [-1] * n
    row_of = [-1] * m
    for start in range(n):
        # Dijkstra from the joining row over reduced costs, until it
        # reaches a column no row holds yet
        reach = [inf] * m  # cheapest path cost to each column so far
        via = [-1] * m  # the row a column's cheapest path arrives from
        free = list(range(m))
        rows_seen = []
        cols_seen = []
        i, dist = start, 0.0
        while True:
            rows_seen.append(i)
            row, base = a[i], dist - u[i]
            best, k = inf, -1
            for idx, j in enumerate(free):
                d = base + row[j] - v[j]
                if d < reach[j]:
                    reach[j] = d
                    via[j] = i
                # on a tie prefer a column no row holds: the path ends there
                if reach[j] < best or (reach[j] == best and row_of[j] < 0):
                    best, k = reach[j], idx
            if best == inf:
                raise ValueError("cost matrix is infeasible")
            dist = best
            j = free.pop(k)
            cols_seen.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        # keep reduced costs non-negative and zero along matched pairs
        u[start] += dist
        for r in rows_seen[1:]:
            u[r] += dist - reach[col_of[r]]
        for c in cols_seen:
            v[c] -= dist - reach[c]
        while True:  # flip the path: each row on it takes the next column
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return list(range(n)), col_of


def _solve_seed_set_with_capacity(
    seed_ids: tuple[int, ...],
    rest: list[int],
    dist: dict[tuple[int, int], float],
    in_range: dict[tuple[int, int], bool],
    capacity: dict[int, int],
) -> tuple[int, float, dict[int, int]]:
    """Optimal capacitated assignment of ``rest`` onto the given seeds.

    ``capacity`` maps each seed to the members it can still take. Returns
    (isolated count, total distance, anchor map for rest) with the
    minimum-isolation assignment of minimum distance; isolation is always
    open, so an assignment always exists. Anchor map values are seed ids,
    or the device's own id when isolated.
    """
    n = len(rest)
    if n == 0:
        return 0, 0.0, {}
    # one column per member a seed can still take, and it can take no more than rest
    seed_cols = [s for s in seed_ids for _ in range(min(capacity[s], n))]
    # only in-range pairs can be assigned, and an out-of-range distance near
    # the float range would overflow the penalty
    max_dist = max(
        (dist[(r, s)] for r in rest for s in seed_ids if in_range[(r, s)]), default=0.0
    )
    penalty = (n + 1) * (max_dist + 1.0)
    cost = np.full((n, len(seed_cols) + n), np.inf)
    for i, r in enumerate(rest):
        for j, s in enumerate(seed_cols):
            if in_range[(r, s)]:
                cost[i, j] = dist[(r, s)]
        cost[i, len(seed_cols) + i] = penalty
    rows, cols = linear_sum_assignment(cost)
    anchors: dict[int, int] = {}
    isolated = 0
    total = 0.0
    for i, j in zip(rows, cols):
        r = rest[i]
        if j >= len(seed_cols):
            anchors[r] = r
            isolated += 1
        else:
            anchors[r] = seed_cols[j]
            total += cost[i, j]
    return isolated, total, anchors


def _solve_fleet(
    by_id: dict[int, DeviceNode],
    connectable: dict[int, bool],
    policy: ClusterPolicy,
    max_member_distance_m: float | None,
) -> dict[int, int]:
    """Optimal anchor map of the fleet: each device id maps to its
    cluster's seed, or to itself when isolated. At least one device must
    be seed-eligible."""
    ids = sorted(by_id)
    max_size = policy.max_size
    seeds_avail = [d for d in ids if connectable[d]]

    dist: dict[tuple[int, int], float] = {}
    in_range: dict[tuple[int, int], bool] = {}
    for r in ids:
        for s in seeds_avail:
            d = distance_m(by_id[r].pos, by_id[s].pos)
            dist[(r, s)] = d
            in_range[(r, s)] = (
                max_member_distance_m is None or d <= max_member_distance_m
            )

    def canonical(candidate: tuple[int, int, float, tuple[int, ...], list[int]]):
        iso, _, total, seed_ids, rest = candidate
        anchors = _lex_fix(seed_ids, rest, dist, in_range, max_size, iso, total)
        for s in seed_ids:
            anchors[s] = s
        return tuple(anchors[d] for d in ids)

    # the best seed set so far, and its canonical encoding once a tie needs it
    best: tuple[int, int, float, tuple[int, ...], list[int]] | None = None
    best_encoding: tuple[int, ...] | None = None
    for k in range(1, len(seeds_avail) + 1):
        if best is not None and best[0] == 0:
            break  # nothing isolates fewer than none, and k only grows
        for seed_ids in itertools.combinations(seeds_avail, k):
            rest = [d for d in ids if d not in seed_ids]
            iso, total, _ = _solve_seed_set_with_capacity(
                seed_ids, rest, dist, in_range, {s: max_size - 1 for s in seed_ids}
            )
            candidate = (iso, k, total, seed_ids, rest)
            if best is None or (iso, k) < best[:2]:
                best, best_encoding = candidate, None
                continue
            if (iso, k) > best[:2]:
                continue
            if not _dist_tie(total, best[2]):
                if total < best[2]:
                    best, best_encoding = candidate, None
                continue
            if best_encoding is None:
                best_encoding = canonical(best)
            encoding = canonical(candidate)
            if encoding < best_encoding:
                best, best_encoding = candidate, encoding
    if best_encoding is None:
        best_encoding = canonical(best)
    return dict(zip(ids, best_encoding))


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

    Runs in time exponential in the number of BS-connectable devices;
    intended for small fleets (n <= ~10).

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
