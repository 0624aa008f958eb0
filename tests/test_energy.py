"""Energy model: power-law transmission, compute cost, and the exact ledger."""

import numpy as np
import pytest

from dfedsim.energy import (
    QUANTUM,
    EnergyParams,
    EnergyState,
    apply_round,
    quantize,
    round_energy,
)

CYCLE = 0.275  # a node's consumption cycle, inside the drawn [0.2, 0.35]


def test_zero_distance_zero_samples_is_free():
    params = EnergyParams()
    assert round_energy(params, CYCLE, distance_m=0.0, payload=1.0, samples=0, epochs=0) == 0.0


def test_formula_matches_manual_computation():
    # independent recomputation of the two-term model at attenuation 2
    params = EnergyParams(attenuation=2.0, compute_coeff=1e-4, payload_scale=1e-3)
    d, payload, samples, epochs = 40.0, 1.25, 3500, 1
    expected = 0.3 * (1e-3 * (40.0 * 40.0) * 1.25 + 1e-4 * 3500 * 1)
    got = round_energy(params, 0.3, d, payload, samples, epochs)
    assert got == pytest.approx(expected, rel=1e-15)


def test_doubling_distance_quadruples_transmission_exactly():
    params = EnergyParams(attenuation=2.0)
    rng = np.random.default_rng(201)
    for _ in range(1000):
        d = rng.uniform(0.1, 500.0)
        payload = rng.uniform(0.1, 3.0)
        base = round_energy(params, CYCLE, d, payload, samples=0, epochs=0)
        doubled = round_energy(params, CYCLE, 2.0 * d, payload, samples=0, epochs=0)
        assert doubled == 4.0 * base


def test_non_integer_attenuation_still_works():
    params = EnergyParams(attenuation=2.5)
    got = round_energy(params, CYCLE, 9.0, 1.0, 0, 0)
    assert got == pytest.approx(0.275 * 1e-3 * 9.0**2.5, rel=1e-12)


def test_monotone_in_every_argument():
    params = EnergyParams()
    rng = np.random.default_rng(202)
    for _ in range(300):
        d, payload = rng.uniform(0, 200), rng.uniform(0, 2)
        samples, epochs = int(rng.integers(0, 5000)), rng.uniform(0, 3)
        base = round_energy(params, CYCLE, d, payload, samples, epochs)
        farther = d + rng.uniform(0, 50)
        assert round_energy(params, CYCLE, farther, payload, samples, epochs) >= base
        heavier = payload + rng.uniform(0, 1)
        assert round_energy(params, CYCLE, d, heavier, samples, epochs) >= base
        assert round_energy(params, CYCLE, d, payload, samples + 100, epochs) >= base
        assert round_energy(params, CYCLE, d, payload, samples, epochs + 1) >= base


def test_param_validation():
    with pytest.raises(ValueError):
        EnergyParams(attenuation=0.0)
    with pytest.raises(ValueError):
        round_energy(EnergyParams(), CYCLE, -1.0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        round_energy(EnergyParams(), -0.1, 1.0, 1.0, 0, 0)


def test_ledger_zero_cost_keeps_state():
    state = EnergyState.start({0: 90.0, 1: 100.0})
    new_state, charges = apply_round(state, {0: 0.0, 1: 0.0})
    assert charges == {0: 0.0, 1: 0.0}
    assert new_state.remaining(0) == state.remaining(0)
    assert new_state.remaining(1) == state.remaining(1)
    assert new_state.alive() == [0, 1]


def test_ledger_truncates_at_zero_and_marks_dead():
    state = EnergyState.start({7: 1.0})
    new_state, charges = apply_round(state, {7: 5.0})
    assert charges[7] == 1.0
    assert new_state.remaining(7) == 0.0
    assert new_state.is_dead(7)
    assert new_state.alive() == []


def test_ledger_drains_a_cost_too_large_for_the_grid():
    # 1e308 and inf overflow the grid's integer step count; either charges
    # exactly what is left, like any other cost above it
    for cost in (1e308, float("inf")):
        state, _ = apply_round(EnergyState.start({0: 2.0, 1: 3.0}), {0: 0.5})
        new_state, charges = apply_round(state, {0: cost, 1: 1.0})
        assert charges == {0: 1.5, 1: 1.0}
        assert new_state.remaining(0) == 0.0
        assert new_state.is_dead(0) and not new_state.is_dead(1)


def test_transmission_that_overflows_is_infinite():
    # distance ** 1e308 overflows the float power; shipping nothing costs
    # nothing whatever the distance
    params = EnergyParams(attenuation=1e308)
    assert round_energy(params, CYCLE, 40.0, 1.0, samples=0, epochs=0) == float("inf")
    compute = CYCLE * params.compute_coeff * 100
    assert round_energy(params, CYCLE, 40.0, 0.0, samples=100, epochs=1) == compute
    free = EnergyParams(payload_scale=0.0)
    assert round_energy(free, CYCLE, float("inf"), 1.0, samples=0, epochs=0) == 0.0


def test_ledger_conservation_exact_over_many_rounds():
    # sum of effective charges == initial - remaining, bit for bit
    rng = np.random.default_rng(203)
    initial = {n: float(v) for n, v in enumerate(rng.uniform(80, 100, size=5))}
    state = EnergyState.start(initial)
    ledger = {n: [] for n in initial}
    for _ in range(500):
        costs = {n: float(rng.uniform(0, 0.4)) for n in initial}
        state, charges = apply_round(state, costs)
        for n, c in charges.items():
            ledger[n].append(c)
    for n in initial:
        total = 0.0
        for c in ledger[n]:
            total += c
        assert total == state.initial[n] - state.remaining(n)


def test_ledger_conservation_exact_through_death():
    rng = np.random.default_rng(204)
    for trial in range(50):
        start_value = float(rng.uniform(0.5, 2.0))
        state = EnergyState.start({0: start_value})
        total = 0.0
        for _ in range(200):
            state, charges = apply_round(state, {0: float(rng.uniform(0, 0.05))})
            total += charges[0]
        assert total == state.initial[0] - state.remaining(0)
        assert state.remaining(0) >= 0.0


def test_quantize_grid_is_fine_enough():
    assert quantize(0.123456789) == pytest.approx(0.123456789, abs=QUANTUM)
    assert QUANTUM < 1e-11


def test_dead_node_charges_nothing_further():
    state = EnergyState.start({0: 0.5})
    state, _ = apply_round(state, {0: 1.0})
    assert state.is_dead(0)
    state2, charges = apply_round(state, {0: 1.0})
    assert charges[0] == 0.0
    assert state2.remaining(0) == 0.0
