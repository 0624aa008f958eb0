"""Random fleets: every config the simulator accepts finishes a run or
fails at config time. Each example draws a fleet of 1-6 devices (positions,
mobility, batteries down to 0.001, base-station latency overrides), an
aggregation method, a small data plan and 1-4 rounds, and runs it as
every scenario kind; seeded 16-device fleets, the largest that
clustered kinds accept, run two rounds of both of them. Skipped where
`hypothesis` is not installed."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dfedsim.cli import config_from_dict  # noqa: E402
from dfedsim.config import MAX_CLUSTERED_DEVICES, AggregationMethod, ScenarioKind  # noqa: E402
from dfedsim.errors import ConfigError  # noqa: E402
from dfedsim.scenarios import compare_scenarios, run_scenario  # noqa: E402
from dfedsim.topology import DeviceNode, Position  # noqa: E402

# small data plans, from a learnable one down to a single training row,
# and one that leaves a device no training row at all
SMALL_PLANS = [
    {
        "task": "blobs",
        "partition": {"samples_per_device": 40, "strategy": "coverage"},
        "test_samples": 40,
        "ae_epochs": 1,
    },
    {
        "task": "sectors",
        "schema": {"num_features": 6, "num_classes": 3},
        "sectors": 6,
        "subset_size": 4,
        "latent_dim": 2,
        "latent_factors": 3,
        "partition": {"samples_per_device": 12, "strategy": "coverage"},
        "test_samples": 9,
        "probe_fraction": 0.5,
        "ae_epochs": 2,
    },
    {
        "task": "blobs",
        "schema": {"num_features": 2, "num_classes": 2},
        "subset_size": 1,
        "latent_dim": 1,
        "partition": {"samples_per_device": 2, "strategy": "iid"},
        "test_samples": 1,
        "ae_epochs": 0,
    },
    {"task": "blobs", "partition": {"samples_per_device": 1}, "test_samples": 1},
]

# at the default link a device reaches 100 m, so some devices here reach
# neither the base station nor a cluster-mate
COORDINATE = st.floats(-150.0, 150.0)
BATTERY = st.sampled_from([0.001, 0.01, 0.5]) | st.floats(0.001, 100.0)
LATENCY = st.none() | st.sampled_from([0.0, 0.1]) | st.floats(0.0, 0.3)
DEVICE = st.fixed_dictionaries(
    {
        "id": st.integers(0, 20),
        "pos": st.fixed_dictionaries({"x": COORDINATE, "y": COORDINATE}),
        "mobile": st.booleans(),
        "battery": BATTERY,
        "bs_latency_s": LATENCY,
    }
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.lists(DEVICE, min_size=1, max_size=6, unique_by=lambda device: device["id"]),
    st.sampled_from(AggregationMethod),
    st.sampled_from(range(len(SMALL_PLANS))),
    st.integers(1, 4),
)
def test_random_fleets_finish_every_method_and_kind_or_fail_at_config_time(
    devices, method, plan, rounds
):
    try:
        base = config_from_dict(
            {
                "kind": "cvfl",
                "devices": devices,
                "aggregation": method.value,
                "data": SMALL_PLANS[plan],
                "rounds": rounds,
            }
        )
    except ConfigError:
        return
    built = 0
    for kind in ScenarioKind:
        try:
            config = dataclasses.replace(base, kind=kind)
        except ConfigError:
            continue  # retrain does not aggregate dbfl_heterogeneous
        assert len(run_scenario(config)) == rounds
        built += 1
    if built == len(ScenarioKind):
        assert [len(traces) for traces in compare_scenarios(base).values()] == [rounds] * built


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_largest_clustered_fleets_run_two_rounds(seed):
    # cluster formation is exponential in the fleet; its cap must stay
    # cheap to run through the learning plane too
    rng = np.random.default_rng([MAX_CLUSTERED_DEVICES, seed])
    fleet = tuple(
        DeviceNode(
            i,
            Position(*rng.uniform(-50.0, 50.0, size=2).tolist()),
            mobile=bool(rng.random() < 0.5),
            bs_latency_s=[None, 0.05, 0.5][int(rng.integers(3))],
        )
        for i in range(MAX_CLUSTERED_DEVICES)
    )
    base = config_from_dict({"kind": "cvfl", "data": SMALL_PLANS[0]})
    for kind in (ScenarioKind.DBFL_HOMOGENEOUS, ScenarioKind.DBFL_HETEROGENEOUS):
        traces = run_scenario(dataclasses.replace(base, kind=kind, devices=fleet, rounds=2))
        assert len(traces) == 2
        assert all(trace.participants for trace in traces)
