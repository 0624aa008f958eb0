"""Scenario runs: participation, clustering, traces, determinism, sweeps.

Uses a shrunken data plan so each test run finishes quickly; the
full-size comparisons live in the acceptance suite.
"""

import dataclasses

import numpy as np
import pytest

from dfedsim.aggregation import AggregationMethod
from dfedsim.data import DataPlan, PartitionPlan
from dfedsim.errors import ConfigError
from dfedsim.head_selection import HeadPolicy
from dfedsim.scenarios import (
    BS_NODE_ID,
    RoundTrace,
    ScenarioConfig,
    ScenarioKind,
    _Network,
    _Run,
    default_devices,
    delay_sweep,
    run_scenario,
    total_energy,
)

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


def test_heterogeneous_devices_get_private_encoders():
    run = _Run(small_config(ScenarioKind.DBFL_HETEROGENEOUS))
    plans = set()
    encoders = set()
    for dev_id, runtime in sorted(run.devices.items()):
        assert runtime.feature_indices is not None
        assert len(runtime.feature_indices) == SMALL_PLAN.subset_size
        assert runtime.train_x.shape[1] == SMALL_PLAN.subset_size
        # one network per device: its first layer is the fitted encoder
        encoder = runtime.local_net.layers[0]
        assert encoder.weights.shape == (SMALL_PLAN.latent_dim, SMALL_PLAN.subset_size)
        assert encoder.activation == "sigmoid"
        assert runtime.local_net.output_dim == SMALL_PLAN.schema.num_classes
        plans.add(runtime.feature_indices)
        encoders.add(encoder.weights.tobytes())
    assert len(plans) == 5  # all subsets differ
    assert len(encoders) == 5


def test_homogeneous_devices_share_the_raw_feature_space():
    config = small_config(ScenarioKind.DBFL_HOMOGENEOUS)
    run = _Run(config)
    for runtime in run.devices.values():
        assert runtime.feature_indices is None
        assert runtime.train_x.shape[1] == SMALL_PLAN.schema.num_features
        run._train([runtime], round_index=0)
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
    run = _Run(ScenarioConfig(kind=ScenarioKind.DBFL_HETEROGENEOUS, rounds=0, data=lean, seed=0))
    for dev_id in t_lean[0].participants:
        extra = t_rich[0].energy_spent[dev_id] - t_lean[0].energy_spent[dev_id]
        samples = run.devices[dev_id].train_x.shape[0]
        cycle = run.network.cycles[dev_id].cycle
        expected = cycle * run.network.cycles[dev_id].compute_coeff * samples * 35
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
def test_energy_does_not_depend_on_learning(kind, field, a, b):
    # what the network plane schedules and charges must not move when only
    # the learning changes, and it must come out the same without any data
    runs = [run_scenario(small_config(kind, **{field: value})) for value in (a, b)]
    network = _Network(small_config(kind, **{field: a}))
    plans = [network.plan_round(r) for r in range(3)]
    assert [t.accuracy for t in runs[0]] != [t.accuracy for t in runs[1]]
    for ta, tb, plan in zip(*runs, plans):
        for got in (tb, plan):
            assert got.participants == ta.participants
            assert got.clusters == ta.clusters
            assert got.head_ids == ta.head_ids
        assert tb.link_delays == plan.links == ta.link_delays
        assert tb.energy_spent == plan.charges == ta.energy_spent


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_drained_fleet_finishes_with_empty_rounds(kind):
    # the three BS-capable devices drain in round 0; the mobile pair that is
    # left can never reach the base station, so no cluster can form
    devices = tuple(
        dataclasses.replace(d, battery=0.001) if d.id in (0, 1, 2) else d
        for d in default_devices()
    )
    cfg = small_config(
        kind, devices=devices, head_policy=HeadPolicy(reselect_interval_rounds=1)
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
