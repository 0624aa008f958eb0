"""The per-round energy cost model and the battery bookkeeping around it.

Transmission cost follows a power law in distance; compute cost scales
with samples times epochs. Batteries never go negative: the ledger records
what was actually drained, and an empty battery removes the node.
"""

from dfedsim import EnergyParams, EnergyState, apply_round, round_energy

params = EnergyParams()  # attenuation 2.0
cycle = 0.275  # the node's consumption cycle; runs draw it from [0.2, 0.35]

print("transmission cost vs distance (payload 1.0, no compute):")
for dist in (10.0, 20.0, 40.0, 80.0):
    cost = round_energy(params, cycle, dist, 1.0, 0, 0)
    print(f"  {dist:5.1f} m -> {cost:10.6f}")
double = round_energy(params, cycle, 20.0, 1.0, 0, 0) / round_energy(
    params, cycle, 10.0, 1.0, 0, 0
)
print(f"doubling the distance multiplies the cost by {double:.1f}")

compute_only = round_energy(params, cycle, 0.0, 0.0, 3500, 2)
print(f"\ncompute-only round (3500 samples x 2 epochs): {compute_only:.6f}")

# now run a battery pool through a few rounds
state = EnergyState.start({0: 2.0, 1: 0.5, 2: 1.0})
spent_total = {0: 0.0, 1: 0.0, 2: 0.0}
print("\nround  remaining(0,1,2)         alive")
for rnd in range(4):
    costs = {node: 0.3 for node in state.alive()}
    state, ledger = apply_round(state, costs)
    for node, amount in ledger.items():
        spent_total[node] += amount
    levels = ", ".join(f"{state.remaining(n):.2f}" for n in (0, 1, 2))
    print(f"{rnd:>5}  {levels}        {state.alive()}")

print("\nnode 1 only had 0.5 to give; the ledger says it spent",
      spent_total[1])
print("conservation: initial == spent + remaining for every node ->",
      all(abs({0: 2.0, 1: 0.5, 2: 1.0}[n] - spent_total[n] - state.remaining(n)) == 0.0
          for n in (0, 1, 2)))
