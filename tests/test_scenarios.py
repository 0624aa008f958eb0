"""Scenario runs: participation, clustering, traces, determinism, sweeps.

Uses a shrunken data plan so each test run finishes quickly; the
full-size comparisons live in the acceptance suite.
"""

import ast
import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfedsim import aggregation, scenarios
from dfedsim.aggregation import (
    adaptive_average,
    artifact_probabilities,
    optimize_adaptive_weights,
)
from dfedsim.config import AggregationMethod, ScenarioConfig, ScenarioKind, default_devices
from dfedsim.data import DataPlan, PartitionPlan, _generate, write_csv
from dfedsim.energy import EnergyParams, quantize
from dfedsim.errors import ConfigError
from dfedsim.head_selection import HeadPolicy
from dfedsim.ml_core import predict_proba
from dfedsim.network import BS_NODE_ID, _Network
from dfedsim.scenarios import (
    RoundTrace,
    _Run,
    _build_dataset,
    _lockstep,
    _train_round,
    compare_scenarios,
    delay_sweep,
    run_scenario,
    total_energy,
)
from dfedsim.topology import DeviceNode, LinkModel, Position

SMALL_PLAN = DataPlan(
    partition=PartitionPlan(devices=5, samples_per_device=150, strategy="coverage"),
    test_samples=300,
    ae_epochs=5,
)


def small_config(kind, **kw):
    kw.setdefault("rounds", 3)
    kw.setdefault("seed", 0)
    return ScenarioConfig(kind=kind, data=SMALL_PLAN, **kw)


def test_cvfl_participants_are_the_fast_link_devices():
    traces = run_scenario(small_config(ScenarioKind.CVFL))
    for t in traces:
        assert t.participants == (0, 1, 2)
        assert t.clusters is None
        assert t.head_ids == ()


def test_cvfl_excluded_devices_still_pay_transmission():
    traces = run_scenario(small_config(ScenarioKind.CVFL))
    for t in traces:
        for shut_out in (3, 4):
            assert shut_out not in t.participants
            assert t.energy_spent[shut_out] > 0.0


def test_cvfl_link_records_use_manual_latencies():
    devices = default_devices()
    traces = run_scenario(small_config(ScenarioKind.CVFL))
    expected = {d.id: d.bs_latency_s for d in devices}
    for t in traces:
        assert len(t.link_delays) == 5
        for src, dst, delay in t.link_delays:
            assert dst == BS_NODE_ID
            assert delay == expected[src]


def test_dbfl_brings_every_device_in():
    for kind in (ScenarioKind.DBFL_HOMOGENEOUS, ScenarioKind.DBFL_HETEROGENEOUS):
        traces = run_scenario(small_config(kind))
        for t in traces:
            assert t.participants == (0, 1, 2, 3, 4)


def test_dbfl_cluster_structure_constraints():
    traces = run_scenario(small_config(ScenarioKind.DBFL_HOMOGENEOUS, rounds=6))
    for t in traces:
        assert t.clusters is not None
        members = [m for c in t.clusters.clusters for m in c.member_ids]
        assert sorted(members) == [0, 1, 2, 3, 4]  # a partition of the fleet
        for c in t.clusters.clusters:
            assert 1 <= len(c.member_ids) <= 3
        for head in t.head_ids:
            assert head in t.participants
            assert any(head in c.member_ids for c in t.clusters.clusters)


def test_reference_fleet_forms_the_expected_clusters():
    # regression pin: geometry of the default fleet at seed 0
    traces = run_scenario(small_config(ScenarioKind.DBFL_HOMOGENEOUS))
    first = traces[0]
    got = sorted(tuple(sorted(c.member_ids)) for c in first.clusters.clusters)
    assert got == [(0, 3), (1, 2, 4)]
    assert first.head_ids == (0, 2)


def test_cvfl_participants_subset_of_dbfl():
    cvfl = run_scenario(small_config(ScenarioKind.CVFL))
    dbfl = run_scenario(small_config(ScenarioKind.DBFL_HOMOGENEOUS))
    for a, b in zip(cvfl, dbfl):
        assert set(a.participants) <= set(b.participants)


def test_runs_are_bitwise_deterministic():
    for kind in ScenarioKind:
        a = run_scenario(small_config(kind))
        b = run_scenario(small_config(kind))
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert ta.accuracy == tb.accuracy
            assert ta.energy_spent == tb.energy_spent
            assert ta.link_delays == tb.link_delays
            assert ta.participants == tb.participants


def test_seed_changes_the_run():
    a = run_scenario(small_config(ScenarioKind.DBFL_HOMOGENEOUS))
    b = run_scenario(dataclasses.replace(small_config(ScenarioKind.DBFL_HOMOGENEOUS), seed=1))
    assert any(ta.accuracy != tb.accuracy for ta, tb in zip(a, b))


def test_zero_rounds_gives_empty_trace():
    assert run_scenario(small_config(ScenarioKind.CVFL, rounds=0)) == []
    assert total_energy([]) == 0.0


def test_trace_invariants_over_kinds_and_seeds():
    for kind in ScenarioKind:
        for seed in (0, 3):
            cfg = dataclasses.replace(small_config(kind, rounds=4), seed=seed)
            traces = run_scenario(cfg)
            assert [t.round_index for t in traces] == [0, 1, 2, 3]
            for t in traces:
                assert 0.0 <= t.accuracy <= 1.0
                assert all(v >= 0.0 for v in t.energy_spent.values())
                assert all(delay >= 0.0 for _, _, delay in t.link_delays)
                assert list(t.participants) == sorted(set(t.participants))


def test_total_energy_is_the_ledger_sum():
    traces = run_scenario(small_config(ScenarioKind.DBFL_HETEROGENEOUS))
    manual = sum(v for t in traces for v in t.energy_spent.values())
    assert total_energy(traces) == pytest.approx(manual, abs=1e-9)


def test_single_point_sweep_equals_direct_runs():
    base = small_config(ScenarioKind.CVFL)
    rows = delay_sweep(base, [base.link.delay_per_meter_s])
    assert len(rows) == 3
    for delay, kind, total in rows:
        direct = total_energy(run_scenario(dataclasses.replace(base, kind=kind)))
        assert total == direct


def test_sweep_raises_energy_with_delay():
    base = small_config(ScenarioKind.CVFL)
    rows = delay_sweep(base, [1e-3, 2e-3])
    by = {(d, k): v for d, k, v in rows}
    for kind in ScenarioKind:
        assert by[(2e-3, kind)] > by[(1e-3, kind)]


def test_sweep_rejects_bad_values():
    base = small_config(ScenarioKind.CVFL)
    with pytest.raises(ConfigError):
        delay_sweep(base, [])
    with pytest.raises(ConfigError):
        delay_sweep(base, [1e-3, -1e-3])
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        delay_sweep(base, [1e-3], jobs=0)


def test_sweep_pool_is_capped_at_the_number_of_runs(monkeypatch):
    # a fork pool starts all its workers at once, so the size is checked
    # on a stand-in that starts none and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = small_config(ScenarioKind.CVFL, rounds=1)
    rows = delay_sweep(base, [1e-3, 2e-3], jobs=1_000_000)
    assert sizes == [6]
    assert rows == delay_sweep(base, [1e-3, 2e-3])


def test_heterogeneous_devices_get_private_encoders():
    config = small_config(ScenarioKind.DBFL_HETEROGENEOUS)
    dataset = _build_dataset(config)
    run = _Run(config, dataset)
    plans = set()
    encoders = set()
    for (dev_id, runtime), raw in zip(sorted(run.devices.items()), dataset.devices, strict=True):
        cols = runtime.rows.feature_indices
        assert cols is not None
        assert len(cols) == SMALL_PLAN.subset_size
        # the device's raw training rows, projected onto its columns in order
        assert runtime.rows.train_x.tobytes() == raw.train_x[:, list(cols)].tobytes()
        assert runtime.rows.train_x.flags.c_contiguous
        # one network per device: its first layer is the fitted encoder
        encoder = runtime.local_net.layers[0]
        assert encoder.weights.shape == (SMALL_PLAN.latent_dim, SMALL_PLAN.subset_size)
        assert encoder.activation == "sigmoid"
        assert runtime.local_net.output_dim == SMALL_PLAN.schema.num_classes
        plans.add(runtime.rows.feature_indices)
        encoders.add(encoder.weights.tobytes())
    assert len(plans) == 5  # all subsets differ
    assert len(encoders) == 5


def test_homogeneous_devices_share_the_raw_feature_space():
    config = small_config(ScenarioKind.DBFL_HOMOGENEOUS, rounds=1)
    run = _Run(config, _build_dataset(config))
    for runtime in run.devices.values():
        assert runtime.rows.feature_indices is None
        assert runtime.rows.train_x.shape[1] == SMALL_PLAN.schema.num_features
    (trace,) = _lockstep([run])[0]
    assert trace.participants == tuple(run.devices)
    for runtime in run.devices.values():
        # no encoder: the first layer consumes every raw feature
        first = runtime.local_net.layers[0]
        assert first.weights.shape == (config.hidden_units, SMALL_PLAN.schema.num_features)
        assert len(runtime.local_net.layers) == 2


def test_autoencoder_fit_charged_once_at_round_zero():
    lean = dataclasses.replace(SMALL_PLAN, ae_epochs=5)
    rich = dataclasses.replace(SMALL_PLAN, ae_epochs=40)
    t_lean = run_scenario(
        ScenarioConfig(kind=ScenarioKind.DBFL_HETEROGENEOUS, rounds=1, data=lean, seed=0)
    )
    t_rich = run_scenario(
        ScenarioConfig(kind=ScenarioKind.DBFL_HETEROGENEOUS, rounds=1, data=rich, seed=0)
    )
    config = ScenarioConfig(kind=ScenarioKind.DBFL_HETEROGENEOUS, rounds=0, data=lean, seed=0)
    run = _Run(config, _build_dataset(config))
    for dev_id in t_lean[0].participants:
        extra = t_rich[0].energy_spent[dev_id] - t_lean[0].energy_spent[dev_id]
        samples = run.devices[dev_id].rows.train_x.shape[0]
        cycle = run.network.cycles[dev_id]
        expected = cycle * config.energy.compute_coeff * samples * 35
        assert extra == pytest.approx(expected, rel=1e-9)


def test_mobile_devices_stay_near_home():
    cfg = small_config(ScenarioKind.DBFL_HOMOGENEOUS, rounds=30, mobility_radius_m=8.0)
    network = _Network(cfg)  # mobility is network-plane state: no data needed
    for round_index in range(cfg.rounds):
        network.plan_round(round_index)
    homes = {d.id: d.pos for d in cfg.devices}
    for d in cfg.devices:
        pos = network.positions[d.id]
        dist = np.hypot(pos.x - homes[d.id].x, pos.y - homes[d.id].y)
        if d.mobile:
            assert dist <= 8.0 + 1e-9
            assert dist > 0.0
        else:
            assert dist == 0.0


def package_imports(module):
    """The sibling modules a module of the package imports by name."""
    package = Path(scenarios.__file__).parent
    tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            yield node.module.split(".")[0]
        elif node.level == 1:  # `from . import x`: a module, or the package itself
            for alias in node.names:
                found = (package / f"{alias.name}.py").is_file()
                yield alias.name if found else "__init__"


def test_the_network_plane_imports_no_learning_code():
    # energy never reads a trained weight, so planning and charging a round
    # must not reach the learning stack; the package __init__ imports
    # everything, so this reads the source instead of sys.modules
    reached, pending = set(), ["network"]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(package_imports(module))
    assert {"config", "energy", "clustering"} <= reached
    assert not reached & {"ml_core", "aggregation", "scenarios", "__init__"}


def test_importing_the_package_loads_no_scipy():
    # numpy is the one numerical dependency; a fresh interpreter shows what
    # `import dfedsim` pulls in, which this process's own imports would hide
    src = Path(scenarios.__file__).parents[1]
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, dfedsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def diverging_devices():
    """The default fleet with device 2 low on battery. As a DBFL head it
    dies in round 1, as a CVFL uploader in round 2. Its DBFL cluster then
    sits out until the refresh in round 5, so device 1 misses rounds 2-4
    there, while CVFL trains it in every round."""
    return tuple(
        dataclasses.replace(d, battery=0.555) if d.id == 2 else d for d in default_devices()
    )


# settings that move the network plane: deaths, and slower links with a
# cluster refresh every round
NETWORK_CASES = {
    "defaults": {},
    "low-battery": {"devices": diverging_devices()},
    "delay-0.003": {
        "link": LinkModel(delay_per_meter_s=0.003),
        "head_policy": HeadPolicy(reselect_interval_rounds=1),
    },
    "delay-0.01": {
        "link": LinkModel(delay_per_meter_s=0.01),
        "head_policy": HeadPolicy(reselect_interval_rounds=1),
    },
}


@pytest.mark.parametrize("case", list(NETWORK_CASES))
@pytest.mark.parametrize(
    "field, a, b",
    [
        ("learning_rate", 0.01, 0.05),
        ("aggregation", AggregationMethod.WEIGHTED_AVERAGING,
         AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING),
    ],
    ids=["learning_rate", "aggregation"],
)
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_energy_does_not_depend_on_learning(kind, field, a, b, case):
    # what the network plane schedules and charges must not move when only
    # the learning changes, and it must come out the same without any data
    extra = NETWORK_CASES[case]
    runs = [run_scenario(small_config(kind, **{field: value}, **extra)) for value in (a, b)]
    network = _Network(small_config(kind, **{field: a}, **extra))
    plans = [network.plan_round(r) for r in range(3)]
    assert [t.accuracy for t in runs[0]] != [t.accuracy for t in runs[1]]
    for ta, tb, plan in zip(*runs, plans):
        for got in (tb, plan):
            assert got.participants == ta.participants
            assert got.clusters == ta.clusters
            assert got.head_ids == ta.head_ids
        assert tb.link_delays == plan.links == ta.link_delays
        assert tb.energy_spent == plan.charges == ta.energy_spent
        assert repr(plan.links) == repr(ta.link_delays)
        assert repr(plan.charges) == repr(ta.energy_spent)


def drained_devices():
    """The default fleet with the three base-station-capable devices at
    almost no battery: they die in round 0."""
    return tuple(
        dataclasses.replace(d, battery=0.001) if d.id in (0, 1, 2) else d
        for d in default_devices()
    )


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_drained_fleet_finishes_with_empty_rounds(kind):
    # the mobile pair that is left can never reach the base station, so no
    # cluster can form
    cfg = small_config(
        kind, devices=drained_devices(), head_policy=HeadPolicy(reselect_interval_rounds=1)
    )
    first, *rest = run_scenario(cfg)
    assert set(first.participants) >= {0, 1, 2}
    assert len(rest) == 2
    for t in rest:
        assert t.participants == () and t.head_ids == () and t.clusters is None
        assert t.accuracy == 0.0
        assert not {0, 1, 2} & set(t.energy_spent)
        if kind is not ScenarioKind.CVFL:
            assert t.energy_spent == {} and t.link_delays == ()


def far_devices():
    """The default fleet with mobile device 4 homed at x = 1e200: its
    distance to anything squares past the float range."""
    return tuple(
        dataclasses.replace(d, pos=Position(1e200, d.pos.y)) if d.id == 4 else d
        for d in default_devices()
    )


def remote_head_devices():
    """The default fleet with device 2 at y = 1e308: it still reaches the
    base station by its manual latency, and sits out of everyone's range."""
    return tuple(
        dataclasses.replace(d, pos=Position(d.pos.x, 1e308)) if d.id == 2 else d
        for d in default_devices()
    )


def colocated_devices():
    """The default fleet with device 3 parked on device 0's spot."""
    home = default_devices()[0].pos
    return tuple(
        dataclasses.replace(d, pos=home, mobile=False) if d.id == 3 else d
        for d in default_devices()
    )


OVERFLOWING = {
    "compute_coeff": {"energy": EnergyParams(compute_coeff=1e308)},
    "payload_scale": {"energy": EnergyParams(payload_scale=1e308)},
    "attenuation": {"energy": EnergyParams(attenuation=1e308)},
    "delay": {"link": LinkModel(delay_per_meter_s=1e308)},
    "far-device": {"devices": far_devices()},
    # the isolation penalty scaled the largest distance, in range or not
    "remote-head": {"devices": remote_head_devices()},
    # the delay ratio's attenuation root, 2 ** 10000, overflows
    "delay-root": {
        "energy": EnergyParams(attenuation=1e-4),
        "link": LinkModel(delay_per_meter_s=2e-3),
    },
    # a zero distance stretched by an infinite delay ratio stays zero
    "colocated": {
        "devices": colocated_devices(),
        "link": LinkModel(delay_per_meter_s=1e308),
    },
}


@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_an_overflowing_charge_drains_the_battery(case):
    base = small_config(ScenarioKind.CVFL, rounds=2, **OVERFLOWING[case])
    batteries = {d.id: quantize(d.battery) for d in base.devices}
    for kind, (first, second) in compare_scenarios(base).items():
        drained = {d for d, charge in first.energy_spent.items() if charge == batteries[d]}
        # the far device sits out of every cluster's range, so DBFL never charges it
        assert drained or (case == "far-device" and kind is not ScenarioKind.CVFL), kind
        assert not drained & set(second.energy_spent)
        for trace in (first, second):
            assert all(math.isfinite(v) for v in trace.energy_spent.values())


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(ScenarioKind.CVFL, rounds=-1)
    with pytest.raises(ConfigError):
        small_config(ScenarioKind.CVFL, local_epochs=0)
    with pytest.raises(ConfigError):
        small_config(ScenarioKind.CVFL, max_step_m=-0.5)
    with pytest.raises(ConfigError):
        small_config(ScenarioKind.CVFL, mobility_radius_m=0.0)
    for rate in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            small_config(ScenarioKind.CVFL, learning_rate=rate)
    with pytest.raises(ConfigError):
        small_config(ScenarioKind.CVFL, batch_size=0)
    devs = default_devices()
    with pytest.raises(ConfigError):
        ScenarioConfig(kind=ScenarioKind.CVFL, devices=devs + (devs[0],))
    with pytest.raises(ValueError):
        RoundTrace(0, (), None, (), accuracy=1.5, energy_spent={}, link_delays=())


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_adaptive_fleets_above_six_devices_fail_at_config_time(kind):
    # the CVFL base station averages every participant, so one level can hold
    # the whole fleet, and the weight grid has C(19 + m, m - 1) rows
    fleet = tuple(
        DeviceNode(i, Position(3.0 * i, 10.0), bs_latency_s=0.05) for i in range(7)
    )
    adaptive = AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING
    ScenarioConfig(kind=kind, devices=fleet[:6], aggregation=adaptive)
    ScenarioConfig(kind=kind, devices=fleet)  # weighted averaging has no grid
    with pytest.raises(ConfigError, match="at most 6 devices, got 7"):
        ScenarioConfig(kind=kind, devices=fleet, aggregation=adaptive)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_clustered_fleets_above_sixteen_devices_fail_at_config_time(kind):
    # cluster formation is exponential in the fleet and runs at every refresh
    rng = np.random.default_rng(16)
    fleet = tuple(
        DeviceNode(i, Position(*rng.uniform(-50.0, 50.0, size=2)), bs_latency_s=latency)
        for i, latency in enumerate(rng.choice([0.05, 0.5], size=17).tolist())
    )
    at_bound = ScenarioConfig(kind=kind, devices=fleet[:16])
    network = _Network(at_bound)
    for round_index in range(2):
        network.plan_round(round_index)
    if kind is ScenarioKind.CVFL:
        ScenarioConfig(kind=kind, devices=fleet)  # forms no clusters
        return
    with pytest.raises(ConfigError, match="at most 16 devices, got 17"):
        ScenarioConfig(kind=kind, devices=fleet)


@pytest.mark.parametrize("method", list(AggregationMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_every_method_and_scenario_finishes_or_fails_at_config_time(kind, method):
    if method is AggregationMethod.RETRAINING and kind is ScenarioKind.DBFL_HETEROGENEOUS:
        with pytest.raises(ConfigError):
            small_config(kind, rounds=1, aggregation=method)
        return
    (trace,) = run_scenario(small_config(kind, rounds=1, aggregation=method))
    assert trace.participants
    assert 0.0 <= trace.accuracy <= 1.0


def test_accuracy_climbs_on_an_easy_task():
    # single label cycle around the ring: learnable from a few hundred rows
    plan = dataclasses.replace(
        SMALL_PLAN,
        partition=PartitionPlan(devices=5, samples_per_device=400, strategy="coverage"),
        test_samples=400,
        sectors=9,
    )
    cfg = ScenarioConfig(
        kind=ScenarioKind.DBFL_HOMOGENEOUS, rounds=8, data=plan, seed=0, local_epochs=2
    )
    accs = [t.accuracy for t in run_scenario(cfg)]
    assert accs[-1] > 0.5  # far beyond the 1/9 chance level
    assert accs[-1] > accs[0]


# ------------------------------------------------------- shared dataset


def participation(config, device_id):
    network = _Network(config)
    return [device_id in network.plan_round(r).participants for r in range(config.rounds)]


def assert_compare_matches_separate_runs(base):
    runs = compare_scenarios(base)
    assert list(runs) == list(ScenarioKind)
    for kind, traces in runs.items():
        alone = run_scenario(dataclasses.replace(base, kind=kind))
        assert repr(traces) == repr(alone), kind


COMPARE_CASES = {
    "seed-0": {},
    "seed-3": {"seed": 3},
    "iid": {
        "data": dataclasses.replace(
            SMALL_PLAN,
            partition=PartitionPlan(devices=5, samples_per_device=150, strategy="iid"),
        )
    },
    "drained": {
        "devices": drained_devices(),
        "head_policy": HeadPolicy(reselect_interval_rounds=1),
    },
    "adaptive": {"aggregation": AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING},
    "meta": {"aggregation": AggregationMethod.META_LEARNING},
    "diverging": {"devices": diverging_devices(), "rounds": 6},
}


@pytest.mark.parametrize("case", list(COMPARE_CASES))
def test_compare_scenarios_equals_one_run_per_kind(case):
    # SMALL_PLAN partitions by coverage and the default method is weighted
    base = small_config(ScenarioKind.CVFL, rounds=2)
    base = dataclasses.replace(base, **COMPARE_CASES[case])
    if case == "diverging":
        # both runs train devices 1 and 2 in round 0, and so share their
        # models at first; then their histories part
        for device_id in (1, 2):
            cvfl, dbfl = (
                participation(dataclasses.replace(base, kind=kind), device_id)
                for kind in (ScenarioKind.CVFL, ScenarioKind.DBFL_HOMOGENEOUS)
            )
            assert cvfl[0] and dbfl[0]
            assert cvfl != dbfl
    assert_compare_matches_separate_runs(base)


def recording(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def recorded_compare(monkeypatch, base):
    """``compare_scenarios(base)`` with its training passes and every
    ``artifact_probabilities`` call recorded; returns (runs, dataset,
    training calls, scoring calls)."""
    datasets = []

    def build(config):
        datasets.append(_build_dataset(config))
        return datasets[-1]

    monkeypatch.setattr(scenarios, "_build_dataset", build)
    trained = []
    monkeypatch.setattr(
        scenarios, "train_classifier", recording(trained, scenarios.train_classifier)
    )
    # scenarios scores both splits; a scoring inside aggregation would show too
    scored = []
    for module in (scenarios, aggregation):
        monkeypatch.setattr(
            module, "artifact_probabilities", recording(scored, artifact_probabilities)
        )
    runs = compare_scenarios(base)
    (dataset,) = datasets
    return runs, dataset, trained, scored


def distinct_device_models(runs):
    # nothing dies in these three rounds, so CVFL's devices train the same
    # models as DBFL-homogeneous's; the train seed reads device and round
    cvfl, homo, hetero = runs.values()
    return sum(
        len(set(a.participants) | set(b.participants)) + len(c.participants)
        for a, b, c in zip(cvfl, homo, hetero)
    )


def test_compare_trains_and_scores_each_distinct_model_once(monkeypatch):
    runs, dataset, trained, scored = recorded_compare(
        monkeypatch, small_config(ScenarioKind.CVFL)
    )
    distinct = distinct_device_models(runs)
    requests = [(cfg.seed, cfg.input_dim) for configs, *_ in trained for cfg in configs]
    assert len(requests) == len(set(requests)) == distinct
    assert all(features is dataset.test_x for _, features in scored)
    networks = [artifact.network for artifact, _ in scored]
    assert len({id(net) for net in networks}) == len(networks) == distinct


def test_meta_scores_each_device_model_once_on_the_test_split(monkeypatch):
    # a meta node stacks its members' probabilities and hands up its own, so
    # only device models are scored: each once on the test split, through
    # the round's memo, and once on the round probe of each run that has it
    device_nets = {}
    train_classifier = scenarios.train_classifier

    def train(*args, **kwargs):
        nets = train_classifier(*args, **kwargs)
        device_nets.update((id(net), net) for net in nets)
        return nets

    monkeypatch.setattr(scenarios, "train_classifier", train)
    base = small_config(ScenarioKind.CVFL, aggregation=AggregationMethod.META_LEARNING)
    runs, dataset, _, scored = recorded_compare(monkeypatch, base)
    assert all(id(artifact.network) in device_nets for artifact, _ in scored)
    on_test = [artifact for artifact, features in scored if features is dataset.test_x]
    networks = {id(artifact.network) for artifact in on_test}
    assert len(on_test) == len(networks) == distinct_device_models(runs) == 30
    on_probe = [
        (id(artifact.network), id(features))
        for artifact, features in scored
        if features is not dataset.test_x
    ]
    leaves = sum(len(t.participants) for traces in runs.values() for t in traces)
    assert len(on_probe) == len(set(on_probe)) == leaves
    for kind, traces in runs.items():
        assert repr(traces) == repr(run_scenario(dataclasses.replace(base, kind=kind)))


def recorded_dbfl_round(monkeypatch, method, fitter):
    """One two-head DBFL round under ``method``, with every call to the
    scenarios binding ``fitter`` recorded. Checks that the base station
    fits on the round probe's labels; returns the heads' (probs, labels,
    fit) calls, the base station's input, the round's groups, its trained
    models by device and its round probe features."""
    fits = []
    fit = getattr(scenarios, fitter)

    def record(probs, labels, *args):
        fits.append((probs, labels, fit(probs, labels, *args)))
        return fits[-1][2]

    trained = []

    def train_round(*args):
        trained.append(_train_round(*args))
        return trained[-1]

    monkeypatch.setattr(scenarios, fitter, record)
    monkeypatch.setattr(scenarios, "_train_round", train_round)
    config = small_config(ScenarioKind.DBFL_HOMOGENEOUS, rounds=1, aggregation=method)
    run_scenario(config)
    plan = _Network(config).plan_round(0)
    assert len(plan.head_ids) == len(plan.groups) == 2
    ((models,),) = trained
    dataset = _build_dataset(config)
    ids = sorted(plan.participants)
    probe_x = np.vstack([dataset.devices[d].probe_x for d in ids])
    probe_y = np.concatenate([dataset.devices[d].probe_y for d in ids])
    *head_fits, (bs_probs, bs_labels, _) = fits
    assert len(head_fits) == len(bs_probs) == 2
    assert np.array_equal(bs_labels, probe_y)
    return head_fits, bs_probs, plan.groups, models, probe_x


def test_adaptive_base_station_fits_on_the_head_ensembles(monkeypatch):
    # each head hands up its ensemble, its members' probabilities combined
    # with its own weights, on the round probe; the base station fits on that
    head_fits, bs_probs, groups, models, probe_x = recorded_dbfl_round(
        monkeypatch, AggregationMethod.ADAPTIVE_WEIGHTED_AVERAGING, "optimize_adaptive_weights"
    )
    for (_, members), (_, _, weights), got in zip(groups, head_fits, bs_probs):
        on_probe = np.stack([artifact_probabilities(models[m], probe_x) for m in members])
        assert np.array_equal(got, adaptive_average(on_probe, weights))


def test_meta_base_station_fits_on_the_head_stackers(monkeypatch):
    head_fits, bs_probs, groups, models, probe_x = recorded_dbfl_round(
        monkeypatch, AggregationMethod.META_LEARNING, "train_meta"
    )
    for (_, members), (_, _, stacker), got in zip(groups, head_fits, bs_probs):
        on_probe = np.hstack([artifact_probabilities(models[m], probe_x) for m in members])
        assert np.array_equal(got, predict_proba(stacker, on_probe))


def test_retrain_fits_one_pooled_model_per_round_and_trains_no_device(monkeypatch):
    # the base station pools every participant's rows and reads no level
    # below it, so no head retrains and no device trains a local network
    pooled = []

    def retrain(member_data, config):
        pooled.append(len(member_data))
        return aggregation.retrain_pooled(member_data, config)

    trained = []
    monkeypatch.setattr(scenarios, "retrain_pooled", retrain)
    monkeypatch.setattr(
        scenarios, "train_classifier", recording(trained, scenarios.train_classifier)
    )
    config = small_config(
        ScenarioKind.DBFL_HOMOGENEOUS, rounds=2, aggregation=AggregationMethod.RETRAINING
    )
    traces = run_scenario(config)
    assert all(trace.head_ids for trace in traces)
    assert pooled == [len(trace.participants) for trace in traces]
    assert trained == []


def test_compare_scenarios_on_a_csv_dataset_equals_one_run_per_kind(tmp_path):
    features, labels = _generate(SMALL_PLAN, 5 * 150 + 300, seed=5)
    path = tmp_path / "data.csv"
    write_csv(path, features, labels, SMALL_PLAN.schema)
    plan = dataclasses.replace(SMALL_PLAN, csv_path=str(path))
    base = small_config(ScenarioKind.CVFL, rounds=2)
    assert_compare_matches_separate_runs(dataclasses.replace(base, data=plan))


def test_compare_scenarios_checks_every_kind_before_building_data(monkeypatch):
    def no_data(config):
        raise AssertionError("data was built before every config was checked")

    monkeypatch.setattr(scenarios, "_build_dataset", no_data)
    base = small_config(ScenarioKind.CVFL, aggregation=AggregationMethod.RETRAINING)
    with pytest.raises(ConfigError, match="dbfl_heterogeneous"):
        compare_scenarios(base)


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_a_runs_shared_data_is_read_only(kind):
    config = small_config(kind, rounds=0)
    dataset = _build_dataset(config)
    run = _Run(config, dataset)
    with pytest.raises(ValueError):
        dataset.test_x[0, 0] = 1.0
    with pytest.raises(ValueError):
        dataset.test_y[0] = 0
    for rows in dataset.devices:
        for array in (rows.train_x, rows.probe_x):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        for array in (rows.train_y, rows.probe_y):
            with pytest.raises(ValueError):
                array[0] = 0
    for runtime in run.devices.values():
        with pytest.raises(ValueError):
            runtime.rows.probe_x[0, 0] = 1.0
