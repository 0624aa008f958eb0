"""Config parsing under awkward numbers: `config_from_dict` either builds a
`ScenarioConfig` or raises `ConfigError`, whatever numeric values a config
file holds, a config that builds with awkward energy and link numbers
runs, one that builds with awkward network-side numbers plans and
charges its rounds, and one that builds with awkward learning-side numbers
runs a round under every aggregation method, stops with `TrainingDiverged`
or has its generated data rejected with `ConfigError`. Skipped where
`hypothesis` is not installed."""

import copy
import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dfedsim.cli import config_from_dict, config_to_dict  # noqa: E402
from dfedsim.config import AggregationMethod, ScenarioConfig, ScenarioKind  # noqa: E402
from dfedsim.errors import ConfigError, TrainingDiverged  # noqa: E402
from dfedsim.network import plan_rounds  # noqa: E402
from dfedsim.scenarios import run_scenario  # noqa: E402

NAN, INF = float("nan"), float("inf")


def _numeric_paths(node, path=()):
    """Every (path, value) leaf of a config dict that holds a number."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


DEFAULT_DICT = config_to_dict(config_from_dict({"kind": "dbfl_heterogeneous"}))
NUMERIC_PATHS = sorted(_numeric_paths(DEFAULT_DICT), key=repr)
AWKWARD = st.sampled_from([NAN, INF, -INF, 0, 0.0, -1, -0.5, 1e308]) | st.floats()

# a small, quickly learnable data plan: one round of each kind takes a blink
SMALL_DATA = {
    "task": "blobs",
    "partition": {"samples_per_device": 40, "strategy": "coverage"},
    "test_samples": 40,
    "ae_epochs": 1,
}
SMALL_DICT = config_to_dict(config_from_dict({"kind": "cvfl", "rounds": 1, "data": SMALL_DATA}))
ENERGY_LINK_PATHS = [
    p for p in sorted(_numeric_paths(SMALL_DICT), key=repr) if p[0] in ("energy", "link")
]
NETWORK_FIELDS = (
    "devices", "link", "energy", "cluster_policy", "head_policy", "max_step_m",
    "mobility_radius_m",
)
NETWORK_PATHS = [p for p in NUMERIC_PATHS if p[0] in NETWORK_FIELDS]
LEARNING_FIELDS = ("hidden_units", "local_epochs", "batch_size", "learning_rate", "data")
LEARNING_PATHS = [
    p for p in sorted(_numeric_paths(SMALL_DICT), key=repr) if p[0] in LEARNING_FIELDS
]
# one and two are the smallest sizes, 0.999 the largest probe fraction
LEARNING_VALUES = AWKWARD | st.sampled_from([1, 2, 0.999])


def _edited(base, edits):
    data = copy.deepcopy(base)
    for path, value in edits:
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    return data


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NUMERIC_PATHS), AWKWARD), min_size=1, max_size=3))
def test_numeric_settings_build_a_config_or_raise_config_error(edits):
    try:
        assert isinstance(config_from_dict(_edited(DEFAULT_DICT, edits)), ScenarioConfig)
    except ConfigError:
        pass


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ENERGY_LINK_PATHS), AWKWARD), min_size=1, max_size=3))
def test_energy_and_link_settings_that_build_finish_a_run(edits):
    try:
        base = config_from_dict(_edited(SMALL_DICT, edits))
    except ConfigError:
        return
    for kind in ScenarioKind:
        run_scenario(dataclasses.replace(base, kind=kind))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NETWORK_PATHS), AWKWARD), min_size=1, max_size=3))
def test_network_settings_that_build_plan_twelve_rounds(edits):
    # the network plane needs no data, so every kind runs many rounds cheaply
    try:
        base = config_from_dict(_edited(DEFAULT_DICT, edits))
    except ConfigError:
        return
    for kind in ScenarioKind:
        plan_rounds(dataclasses.replace(base, kind=kind, rounds=12))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(LEARNING_PATHS), LEARNING_VALUES), min_size=1, max_size=3),
    st.sampled_from(AggregationMethod),
)
def test_learning_settings_that_build_run_a_round_or_diverge(edits, method):
    try:
        base = config_from_dict({**_edited(SMALL_DICT, edits), "aggregation": method.value})
    except ConfigError:
        return
    for kind in ScenarioKind:
        try:
            config = dataclasses.replace(base, kind=kind)
        except ConfigError:
            continue  # retrain does not aggregate dbfl_heterogeneous
        try:
            run_scenario(config)
        except TrainingDiverged:
            pass
        except ConfigError as exc:
            # generated features beyond the float range stop the data build
            assert str(exc).startswith("data.spread "), exc
