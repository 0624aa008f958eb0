"""The network plane: ``plan_rounds`` prices a run from its config alone.

It reads only the config, the device positions, the consumption cycles
and the energy ledger. Each round it steps the mobile devices, asks
``_groups`` who aggregates with whom, and charges the round in one loop
over those groups. ``_groups`` is the only part that depends on the
scenario kind: CVFL gives one headless group of the devices that reach
the base station, and DBFL refreshes clusters and elects heads on the
head-policy cadence, then gives one group per cluster whose head is
alive. In the loop a headless member or a head uploads to the base
station, and any other member uploads to its head; a CVFL device out of
reach still pays for its upload attempt. The output is the round's
``RoundTrace``: who trains, which groups aggregate where, the link
records and the effective charges, and no accuracy; the learning plane
fills that in later. Energy never depends on a trained weight: every
device trains on ``samples_per_device`` rows minus its probe split and
ships a model whose size the config fixes, so the plane needs neither
data nor models, and ``total_energy`` of its records is the run's total.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .clustering import ClusterAssignment, form_clusters
from .config import ScenarioConfig, ScenarioKind
from .energy import EnergyState, apply_round, round_energy
from .head_selection import HeadCandidateView, select_head
from .rngs import substream
from .topology import Position, can_connect, distance_m, random_step, transmission_delay

BS_POSITION = Position(0.0, 0.0)
BS_NODE_ID = -1  # destination marker in link-delay records

# Delay-per-meter value at which geometric distance and energy distance
# coincide; sweeping the delay above it scales transmission energy up.
REFERENCE_DELAY_PER_METER = 1e-3

# Head-side aggregation work, as a fraction of one local training epoch.
HEAD_AGGREGATION_EPOCHS = 0.1


def _classifier_params(input_dim: int, hidden: int, classes: int) -> int:
    if hidden > 0:
        return hidden * (input_dim + 1) + classes * (hidden + 1)
    return classes * (input_dim + 1)


@dataclass(frozen=True)
class RoundTrace:
    """One round as the network plane scheduled and charged it, and, once
    the learning plane has run it, its test accuracy.

    ``groups`` lists (head, members) in aggregation order; a group with
    head None uploads straight to the base station. ``accuracy`` is None
    on a record of the network plane alone.
    """

    round_index: int
    participants: tuple[int, ...]
    clusters: ClusterAssignment | None
    head_ids: tuple[int, ...]
    groups: tuple[tuple[int | None, tuple[int, ...]], ...]
    energy_spent: dict[int, float]
    link_delays: tuple[tuple[int, int, float], ...]  # (src, dst, seconds); dst -1 = BS
    accuracy: float | None = None

    def __post_init__(self):
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if any(v < 0 for v in self.energy_spent.values()):
            raise ValueError("energy entries must be >= 0")


class _Network:
    """The network plane of a run: reads the config, never a device's data."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.hetero = config.kind is ScenarioKind.DBFL_HETEROGENEOUS
        self.nodes = {d.id: d for d in config.devices}  # each at its current position
        self.mobility_rng = substream(config.seed, "mobility")
        self.cycles = self._draw_cycles()
        self.energy_state = EnergyState.start({d.id: d.battery for d in config.devices})
        self.assignment: ClusterAssignment | None = None
        self.heads: dict[int, int] = {}  # cluster_id -> head device id
        schema = config.data.schema
        # shipped model size relative to the reference classifier; the
        # heterogeneous scheme also ships its one-layer encoder
        input_dim = schema.num_features
        encoder = 0
        if self.hetero:
            input_dim = config.data.latent_dim
            encoder = _classifier_params(config.data.subset_size, 0, input_dim)
        reference = _classifier_params(input_dim, config.hidden_units, schema.num_classes)
        self.payload = (reference + encoder) / reference
        self.train_samples = config.data.partition.samples_per_device - config.data.probe_rows

    def _draw_cycles(self) -> dict[int, float]:
        """Each device's consumption-cycle coefficient, from [0.2, 0.35]."""
        rng = substream(self.config.seed, "consumption-cycles")
        return {
            device.id: float(rng.uniform(0.2, 0.35))
            for device in sorted(self.config.devices, key=lambda d: d.id)
        }

    # ------------------------------------------------------- connectivity

    def _bs_delay(self, device_id: int) -> float:
        node = self.nodes[device_id]
        return transmission_delay(
            self.config.link, node, BS_POSITION, override_latency_s=node.bs_latency_s
        )

    def _bs_distance(self, device_id: int) -> float:
        return distance_m(self.nodes[device_id].pos, BS_POSITION)

    def _energy_distance(self, geometric_m: float) -> float:
        # Slower links keep the radio on longer, so transmission energy grows
        # in proportion to the delay setting. Folding the ratio into the
        # distance through the attenuation root keeps the power-law form.
        if not geometric_m:  # nothing to stretch, even by an infinite ratio
            return 0.0
        ratio = self.config.link.delay_per_meter_s / REFERENCE_DELAY_PER_METER
        try:
            return geometric_m * ratio ** (1.0 / self.config.energy.attenuation)
        except OverflowError:
            return math.inf

    def _move_mobiles(self) -> None:
        limit = self.config.mobility_radius_m
        for device in sorted(self.config.devices, key=lambda d: d.id):
            if not device.mobile:
                continue
            pos = random_step(
                self.nodes[device.id].pos, self.mobility_rng, self.config.max_step_m
            )
            # waypoints stay inside a patrol disc around the device's home
            # position; an unbounded walk would let transmission distances
            # (and thus the quadratic energy cost) grow without limit
            home = device.pos
            dx, dy = pos.x - home.x, pos.y - home.y
            radius = math.hypot(dx, dy)
            if radius > limit:
                pos = Position(home.x + dx * limit / radius, home.y + dy * limit / radius)
            self.nodes[device.id] = dataclasses.replace(device, pos=pos)

    def _refresh_clusters(self) -> None:
        alive = self.energy_state.alive()
        delays = {d: self._bs_delay(d) for d in alive}
        connectable = {d: can_connect(self.config.link, delays[d]) for d in alive}
        self.heads = {}
        if not any(connectable.values()):
            # nobody alive reaches the base station: no cluster can form
            self.assignment = None
            return
        max_range = (
            self.config.link.max_transmission_time_s / self.config.link.delay_per_meter_s
        )
        self.assignment = form_clusters(
            [self.nodes[d] for d in alive],
            [connectable[d] for d in alive],
            self.config.cluster_policy,
            max_member_distance_m=max_range,
        )
        for cluster in self.assignment.clusters:
            if not cluster.participating:
                continue
            candidates = []
            for m in cluster.member_ids:
                others = [o for o in cluster.member_ids if o != m]
                agg = sum(
                    distance_m(self.nodes[m].pos, self.nodes[o].pos) for o in others
                )
                candidates.append(
                    HeadCandidateView(
                        device_id=m,
                        bs_connectable=connectable[m],
                        aggregated_distance_m=agg,
                        battery=self.energy_state.remaining(m),
                        mobile=self.nodes[m].mobile,
                        bs_latency_s=delays[m],
                    )
                )
            self.heads[cluster.cluster_id] = select_head(candidates)

    # ------------------------------------------------------------ rounds

    def _groups(self, round_index: int) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
        """This round's (head, members) groups in aggregation order.

        CVFL: one headless group of the live devices whose base-station
        delay clears the cutoff. DBFL: clusters refresh on the head-policy
        cadence; a cluster whose head has died sits the round out.
        """
        alive = self.energy_state.alive()
        if self.config.kind is ScenarioKind.CVFL:
            reached = tuple(d for d in alive if can_connect(self.config.link, self._bs_delay(d)))
            return ((None, reached),) if reached else ()
        if (
            self.assignment is None
            or round_index % self.config.head_policy.reselect_interval_rounds == 0
        ):
            self._refresh_clusters()
        if self.assignment is None:
            return ()
        groups = []
        for cluster in self.assignment.clusters:
            if not cluster.participating:
                continue
            head = self.heads[cluster.cluster_id]
            members = tuple(sorted(m for m in cluster.member_ids if m in alive))
            if head in members:
                groups.append((head, members))
        return tuple(groups)

    def plan_round(self, round_index: int) -> RoundTrace:
        """Move the mobile devices, schedule the round and charge its energy."""
        self._move_mobiles()
        groups = self._groups(round_index)
        links = []
        costs: dict[int, float] = {}
        for head, members in groups:
            for m in members:
                epochs = self.config.local_epochs
                if head is None or m == head:
                    distance = self._bs_distance(m)
                    links.append((m, BS_NODE_ID, self._bs_delay(m)))
                    if m == head:
                        # a head aggregates its members before it relays
                        epochs += HEAD_AGGREGATION_EPOCHS
                else:
                    node, to = self.nodes[m], self.nodes[head].pos
                    distance = distance_m(node.pos, to)
                    links.append((m, head, transmission_delay(self.config.link, node, to)))
                costs[m] = round_energy(
                    self.config.energy,
                    self.cycles[m],
                    self._energy_distance(distance),
                    self.payload,
                    self.train_samples,
                    epochs,
                )
                if round_index == 0 and self.hetero:
                    # one-time autoencoder fit, charged as compute
                    costs[m] += round_energy(
                        self.config.energy, self.cycles[m], 0.0, 0.0,
                        self.train_samples, self.config.data.ae_epochs,
                    )
        if self.config.kind is ScenarioKind.CVFL:
            # out of reach: the upload attempt still burns transmit power
            for d in self.energy_state.alive():
                if d in costs:
                    continue
                links.append((d, BS_NODE_ID, self._bs_delay(d)))
                distance = self._energy_distance(self._bs_distance(d))
                costs[d] = round_energy(self.config.energy, self.cycles[d], distance, 1.0, 0, 0)
        self.energy_state, charges = apply_round(self.energy_state, costs)
        return RoundTrace(
            round_index,
            participants=tuple(sorted(m for _, members in groups for m in members)),
            clusters=self.assignment,
            head_ids=tuple(sorted(head for head, _ in groups if head is not None)),
            groups=groups,
            energy_spent=charges,
            link_delays=tuple(sorted(links)),
        )


def plan_rounds(config: ScenarioConfig) -> list[RoundTrace]:
    """Every round of a run as the network plane plans and charges it,
    each record with accuracy None."""
    network = _Network(config)
    return [network.plan_round(r) for r in range(config.rounds)]


def total_energy(traces: list[RoundTrace]) -> float:
    """Sum of all effective charges over a run (grid-exact by ledger design)."""
    total = 0.0
    for trace in traces:
        for node in sorted(trace.energy_spent):
            total += trace.energy_spent[node]
    return total
