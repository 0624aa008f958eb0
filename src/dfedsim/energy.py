"""Per-node energy accounting: a distance power law for transmission plus a
per-sample compute cost, both scaled by the node's consumption-cycle
coefficient.

Ledger bookkeeping snaps every charge and every initial level to a fixed
2**-40 energy grid. On that grid all the float64 additions and
subtractions the tracker performs are exact (the magnitudes involved stay
far below 2**53 grid units), so the ledger telescopes perfectly: the sum
of a node's effective charges always equals initial minus remaining, bit
for bit, with no drift over any number of rounds. The grid step is ~9e-13
energy units, well below anything the model resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

QUANTUM = 2.0 ** -40


def quantize(value: float) -> float:
    """Snap a nonnegative energy value to the bookkeeping grid."""
    return round(value / QUANTUM) * QUANTUM


@dataclass(frozen=True)
class EnergyParams:
    """Coefficients of the consumption model, shared by every node."""

    attenuation: float = 2.0
    compute_coeff: float = 1e-4
    payload_scale: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.attenuation) and self.attenuation > 0):
            raise ValueError("attenuation must be finite and > 0")
        for value in (self.compute_coeff, self.payload_scale):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("coefficients must be finite and >= 0")


def _power(base: float, exponent: float) -> float:
    # Repeated multiplication for small integer exponents: keeps
    # "double the distance -> exactly 4x the transmission term" exact,
    # which libm pow does not guarantee.
    if float(exponent).is_integer() and 0 < exponent <= 8:
        out = 1.0
        for _ in range(int(exponent)):
            out *= base
        return out
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def round_energy(
    params: EnergyParams,
    cycle: float,
    distance_m: float,
    payload: float,
    samples: int,
    epochs: float,
) -> float:
    """Energy spent in one round on one link/workload by a node whose
    consumption-cycle coefficient is ``cycle``; scenario runs draw it per
    node from [0.2, 0.35].

    ``payload`` is the transmitted model size normalized to the reference
    architecture (the reference model has payload 1).
    """
    if cycle < 0 or distance_m < 0 or payload < 0 or samples < 0 or epochs < 0:
        raise ValueError("round_energy inputs must be >= 0")
    transmission = 0.0
    if params.payload_scale and payload:  # nothing shipped costs 0, even at infinity
        transmission = params.payload_scale * _power(distance_m, params.attenuation) * payload
    compute = params.compute_coeff * samples * epochs
    return cycle * (transmission + compute)


@dataclass(frozen=True)
class EnergyState:
    """Remaining-energy tracker for all nodes of a run.

    ``initial`` and ``consumed`` hold grid-quantized values; ``remaining``
    is their exact difference. A node is dead once its remaining energy
    reaches exactly zero.
    """

    initial: dict[int, float]
    consumed: dict[int, float]
    dead: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def start(cls, initial: dict[int, float]) -> "EnergyState":
        quantized = {}
        for node, value in initial.items():
            if value < 0:
                raise ValueError(f"initial energy of node {node} must be >= 0")
            quantized[node] = quantize(value)
        return cls(
            initial=quantized,
            consumed={n: 0.0 for n in quantized},
            dead=frozenset(n for n, v in quantized.items() if v == 0.0),
        )

    def remaining(self, node: int) -> float:
        return self.initial[node] - self.consumed[node]

    def is_dead(self, node: int) -> bool:
        return node in self.dead

    def alive(self) -> list[int]:
        return sorted(n for n in self.initial if n not in self.dead)


def apply_round(
    state: EnergyState, costs: dict[int, float]
) -> tuple[EnergyState, dict[int, float]]:
    """Charge per-node costs, truncating at zero remaining energy.

    Returns the new state and the effective (grid-quantized, possibly
    truncated) charges; the effective charges are what belongs in the
    round ledger. Nodes that reach zero are flagged dead. A cost above the
    available energy, infinite ones included, charges exactly what is
    available.
    """
    consumed = dict(state.consumed)
    dead = set(state.dead)
    effective: dict[int, float] = {}
    for node in sorted(costs):
        cost = costs[node]
        if cost < 0:
            raise ValueError(f"cost for node {node} must be >= 0")
        available = state.initial[node] - consumed[node]
        # quantizing never lifts a cost over the grid-aligned available
        # energy, and a huge cost would overflow the grid
        charge = available if cost > available else quantize(cost)
        effective[node] = charge
        consumed[node] = consumed[node] + charge
        if consumed[node] == state.initial[node]:
            dead.add(node)
    return EnergyState(state.initial, consumed, frozenset(dead)), effective
