"""Walk through the network layer: distances, link delays, cluster formation.

Five devices sit around a base station at the origin. Three have manual
base-station latencies under the 0.1 s cutoff, two sit too far out and can
only reach the network over device-to-device links.
"""

from dfedsim import (
    ClusterPolicy,
    LinkModel,
    Position,
    can_connect,
    default_devices,
    distance_m,
    form_clusters,
    transmission_delay,
)

bs_pos = Position(0.0, 0.0)
link = LinkModel()  # 0.1 s cutoff, 1 ms per metre
devices = default_devices()

print("device  pos(x,y)        dist_to_bs  bs_delay  connectable")
connectable = []
for d in devices:
    delay = transmission_delay(link, d, bs_pos, override_latency_s=d.bs_latency_s)
    ok = can_connect(link, delay)
    connectable.append(ok)
    print(f"{d.id:>6}  ({d.pos.x:6.1f},{d.pos.y:6.1f})  {distance_m(d.pos, bs_pos):10.2f}"
          f"  {delay:8.3f}  {ok}")

assignment = form_clusters(devices, connectable, ClusterPolicy(max_size=3))

print("\nclusters (max 3 members, each needs a base-station-capable member):")
for cluster in assignment.clusters:
    print(f"  cluster {cluster.cluster_id}: members {list(cluster.member_ids)}"
          f" (seeded from device {cluster.seed_id})")

# the far devices 3 and 4 end up pooled with near ones, which is the whole
# point: they gain a path to the base station through a cluster head
member_sets = [set(c.member_ids) for c in assignment.clusters]
assert all(any(connectable[m] for m in s) for s in member_sets)
print("\nevery cluster has at least one connectable member: True")
