"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single `acceptance <name>: PASS/FAIL (...)` line (run
with -s to see them) and asserts the same condition. The three full-length
comparison runs are shared through a module fixture so the whole suite
stays inside the five-minute budget.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from test_aggregation import make_labels, make_probs
from test_clustering import encoding_of, make_devices, oracle_best
from test_head_selection import _rank, random_candidates
from test_ml_core import check_probability_matrix, grads_close, numeric_grads, random_net

from dfedsim.aggregation import adaptive_accuracy, optimize_adaptive_weights
from dfedsim.cli import run_cli
from dfedsim.clustering import ClusterPolicy, form_clusters
from dfedsim.config import ScenarioConfig, ScenarioKind
from dfedsim.data import DataPlan, PartitionPlan
from dfedsim.energy import EnergyParams, quantize, round_energy
from dfedsim.head_selection import select_head
from dfedsim.network import _Network, plan_rounds, total_energy
from dfedsim.ml_core import (
    ClassifierConfig,
    loss_gradients,
    predict_proba,
    train_classifier,
)
from dfedsim.scenarios import _sweep_configs, compare_scenarios, run_scenario

SWEEP_DELAYS = [0.001, 0.0015, 0.002, 0.0025, 0.003]

SMALL_PLAN = DataPlan(
    partition=PartitionPlan(devices=5, samples_per_device=150, strategy="coverage"),
    test_samples=300,
    ae_epochs=5,
)


def report(name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_runs():
    """The three scenarios at full size on one seed, plus the CPU time
    this process spent on them: unlike wall time, load from other
    processes barely moves it."""
    start = time.process_time()
    runs = compare_scenarios(ScenarioConfig(kind=ScenarioKind.CVFL, rounds=100, seed=0))
    return runs, time.process_time() - start


def test_accuracy_ordering(full_runs):
    runs, elapsed = full_runs
    cvfl = runs[ScenarioKind.CVFL][-1].accuracy
    homog = runs[ScenarioKind.DBFL_HOMOGENEOUS][-1].accuracy
    hetero = runs[ScenarioKind.DBFL_HETEROGENEOUS][-1].accuracy
    ok = (homog - cvfl >= 0.03) and (hetero >= homog - 0.01) and elapsed < 300.0
    report(
        "accuracy-ordering",
        ok,
        f"cvfl={cvfl:.3f} homog={homog:.3f} hetero={hetero:.3f} cpu={elapsed:.0f}s",
    )


def test_cvfl_plateau(full_runs):
    runs, _ = full_runs
    tail = [t.accuracy for t in runs[ScenarioKind.CVFL][-20:]]
    spread = max(tail) - min(tail)
    dbfl_final = min(
        runs[ScenarioKind.DBFL_HOMOGENEOUS][-1].accuracy,
        runs[ScenarioKind.DBFL_HETEROGENEOUS][-1].accuracy,
    )
    ok = spread <= 0.05 and max(tail) < dbfl_final
    report(
        "cvfl-plateau",
        ok,
        f"last-20 spread={spread:.3f} ceiling={max(tail):.3f} dbfl-final={dbfl_final:.3f}",
    )


def test_energy_ordering_across_delays():
    # energy never depends on a trained weight, so the network plane alone
    # prices each sweep point
    base = ScenarioConfig(kind=ScenarioKind.CVFL, rounds=30, seed=0)
    totals = {
        (delay, kind): total_energy(plan_rounds(config))
        for delay, kind, config in _sweep_configs(base, SWEEP_DELAYS)
    }
    violations = []
    for delay in SWEEP_DELAYS:
        cvfl = totals[(delay, ScenarioKind.CVFL)]
        homog = totals[(delay, ScenarioKind.DBFL_HOMOGENEOUS)]
        hetero = totals[(delay, ScenarioKind.DBFL_HETEROGENEOUS)]
        if not (cvfl > homog and hetero > homog and hetero < cvfl):
            violations.append(delay)
    report(
        "energy-ordering",
        not violations,
        f"{len(SWEEP_DELAYS)} delays, ordering violations at {violations or 'none'}",
    )


# the paper's claim: CVFL spends the most, homogeneous DBFL the least
ENERGY_ORDER = (ScenarioKind.CVFL, ScenarioKind.DBFL_HETEROGENEOUS, ScenarioKind.DBFL_HOMOGENEOUS)


def _network_energy(config):
    """A run's total energy from the network plane alone, by
    ``total_energy``; its participations; and whether any device died.

    The ledger is exact: a device is dead once its charges, summed in
    round order, equal its quantized battery."""
    records = plan_rounds(config)
    participations = sum(len(record.participants) for record in records)
    died = any(
        sum((record.energy_spent.get(d.id, 0.0) for record in records), 0.0)
        == quantize(d.battery)
        for d in config.devices
    )
    return total_energy(records), participations, died


def test_energy_ordering_over_seeds_on_the_network_plane():
    # a run's total energy mixes efficiency with who is still alive to
    # spend, so where a device died in any of the three runs, the ordering
    # is of energy per participation
    points, by_participation, breaks = 0, 0, []
    for seed in range(20):
        base = ScenarioConfig(kind=ScenarioKind.CVFL, rounds=30, seed=seed)
        runs = {}
        for delay, kind, config in _sweep_configs(base, SWEEP_DELAYS):
            runs.setdefault(delay, {})[kind] = _network_energy(config)
        for delay, kinds in runs.items():
            points += 1
            order = [kinds[kind] for kind in ENERGY_ORDER]
            died = any(dead for _, _, dead in order)
            by_participation += died
            cvfl, hetero, homog = (t / n if died else t for t, n, _ in order)
            if not cvfl > hetero > homog:
                breaks.append((seed, delay))
    report(
        "energy-ordering-seeds",
        points == 100 and not breaks,
        f"{points} (seed, delay) points, {by_participation} by energy per "
        f"participation, ordering breaks at {breaks or 'none'}",
    )


def test_clustering_matches_bruteforce():
    rng = np.random.default_rng(901)
    policy = ClusterPolicy()
    violations = 0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        devices = make_devices(rng.uniform(-60, 60, size=(n, 2)))
        conn = list(rng.random(n) < 0.5)
        if not any(conn):
            conn[int(rng.integers(0, n))] = True
        max_range = 100.0 if trial % 2 == 0 else None
        out = form_clusters(devices, conn, policy,
                            max_member_distance_m=max_range)
        members = sorted(m for c in out.clusters for m in c.member_ids)
        constraints = (
            members == list(range(n))
            and all(1 <= len(c.member_ids) <= 3 for c in out.clusters)
            and all(conn[c.seed_id] for c in out.clusters if c.participating)
        )
        best = oracle_best(devices, conn, max_size=3, max_range=max_range)
        optimal = encoding_of(out, list(range(n))) == best[3]
        if not (constraints and optimal):
            violations += 1
    report("clustering-oracle", violations == 0,
           f"200 topologies n<=8, {violations} violations")


def test_head_selection_properties():
    rng = np.random.default_rng(902)
    violations = 0
    for _ in range(1000):
        candidates = random_candidates(rng, int(rng.integers(1, 9)))
        if not any(c.bs_connectable for c in candidates):
            candidates[0] = dataclasses.replace(candidates[0], bs_connectable=True)
        winner = select_head(candidates)
        eligible = [c for c in candidates if c.bs_connectable]
        chosen = [c for c in candidates if c.device_id == winner]
        if len(chosen) != 1 or not chosen[0].bs_connectable:
            violations += 1
            continue
        if winner != min(eligible, key=_rank).device_id:
            violations += 1
            continue
        for scale in (0.5, 2.0, 10.0):
            scaled = [
                dataclasses.replace(c, aggregated_distance_m=c.aggregated_distance_m * scale)
                for c in candidates
            ]
            if select_head(scaled) != winner:
                violations += 1
                break
    report("head-selection", violations == 0, f"1000 candidate sets, {violations} violations")


def test_ml_numerics():
    rng = np.random.default_rng(903)
    grad_failures = 0
    for trial in range(50):
        loss = "cross_entropy" if trial % 2 == 0 else "mse"
        final = "linear" if loss == "cross_entropy" else str(rng.choice(["linear", "sigmoid"]))
        net = random_net(rng, final=final)
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, net.input_dim))
        if loss == "cross_entropy":
            target = rng.integers(0, net.output_dim, size=n)
        else:
            target = rng.normal(size=(n, net.output_dim))
        analytic, _ = loss_gradients(net, x, target, loss=loss)
        if not grads_close(analytic, numeric_grads(net, x, target, loss), tol=1e-4):
            grad_failures += 1

    worst_row_error = 0.0
    for _ in range(100):
        net = random_net(rng)
        x = rng.normal(size=(int(rng.integers(1, 8)), net.input_dim)) * 5.0
        probs = predict_proba(net, x)
        check_probability_matrix(probs, tol=1e-9)
        worst_row_error = max(worst_row_error, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))

    x = rng.normal(size=(200, 2))
    x[:, 0] += np.where(x[:, 0] >= 0, 1.0, -1.0)
    y = (x[:, 0] >= 0).astype(int)
    cfg = ClassifierConfig(input_dim=2, hidden_units=8, num_classes=2, epochs=200, seed=1)
    toy_acc = float(np.mean(predict_proba(train_classifier(cfg, x, y), x).argmax(axis=1) == y))

    ok = grad_failures == 0 and worst_row_error <= 1e-9 and toy_acc == 1.0
    report(
        "ml-numerics",
        ok,
        f"50 nets {grad_failures} gradient failures, row-sum err {worst_row_error:.1e}, "
        f"toy accuracy {toy_acc:.2f}",
    )


def test_aggregation_adaptive_oracle():
    rng = np.random.default_rng(904)
    adaptive_regressions = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        probs, labels = np.stack(make_probs(rng, m, n=30)), make_labels(rng, n=30)
        uniform = np.full((probs.shape[2], m), 1.0 / m)
        w = optimize_adaptive_weights(probs, labels)
        if adaptive_accuracy(probs, w, labels) < adaptive_accuracy(probs, uniform, labels):
            adaptive_regressions += 1

    report(
        "aggregation-oracle",
        adaptive_regressions == 0,
        f"100 adaptive fits {adaptive_regressions} below uniform",
    )


def test_energy_ledger_exactness():
    conservation_breaks = 0
    for kind in ScenarioKind:
        config = ScenarioConfig(kind=kind, rounds=6, seed=0, data=SMALL_PLAN)
        traces = run_scenario(config)
        network = _Network(config)  # the ledger is network-plane state
        for round_index in range(config.rounds):
            network.plan_round(round_index)
        for device in config.devices:
            spent = sum(t.energy_spent.get(device.id, 0.0) for t in traces)
            state = network.energy_state
            if state.initial[device.id] != quantize(device.battery):
                conservation_breaks += 1
            if spent != state.initial[device.id] - state.remaining(device.id):
                conservation_breaks += 1

    params = EnergyParams()  # attenuation 2.0
    rng = np.random.default_rng(905)
    doubling_breaks = 0
    for _ in range(500):
        cycle = float(rng.uniform(0.2, 0.35))
        d = float(rng.uniform(0.1, 500.0))
        payload = float(rng.uniform(0.1, 3.0))
        double = round_energy(params, cycle, 2 * d, payload, 0, 0)
        if double != 4.0 * round_energy(params, cycle, d, payload, 0, 0):
            doubling_breaks += 1

    ok = conservation_breaks == 0 and doubling_breaks == 0
    report(
        "energy-ledger",
        ok,
        f"3 runs x 5 nodes conservation breaks {conservation_breaks}, "
        f"500 doublings exact-4x breaks {doubling_breaks}",
    )


def test_compare_cli_determinism(tmp_path):
    config = {
        "rounds": 5,
        "seed": 0,
        "data": {
            "partition": {"devices": 5, "samples_per_device": 150, "strategy": "coverage"},
            "test_samples": 300,
            "ae_epochs": 5,
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    first, second = tmp_path / "a", tmp_path / "b"
    code_a = run_cli(["compare", "--config", str(cfg), "--out", str(first)])
    code_b = run_cli(["compare", "--config", str(cfg), "--out", str(second)])
    names = [f"trace_{k.value}.csv" for k in ScenarioKind]
    identical = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    ok = code_a == 0 and code_b == 0 and identical
    report("compare-determinism", ok,
           f"two compare runs, {len(names)} trace files byte-identical: {identical}")
